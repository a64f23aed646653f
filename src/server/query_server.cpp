#include "server/query_server.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace mqs::server {

namespace {
/// Combined contention counts for a subsystem spanning two lock ranks
/// (its coarse lock plus the sharded variant).
lockstats::Counts sumCounts(lockorder::Rank a, lockorder::Rank b) {
  const auto ca = lockstats::countsFor(a);
  const auto cb = lockstats::countsFor(b);
  return lockstats::Counts{ca.contended + cb.contended,
                           ca.waitNanos + cb.waitNanos};
}
}  // namespace

QueryServer::QueryServer(const query::QuerySemantics* semantics,
                         const query::QueryExecutor* executor,
                         ServerConfig cfg)
    : sem_(semantics),
      exec_(executor),
      cfg_(std::move(cfg)),
      scheduler_(semantics, sched::makePolicy(cfg_.policy, cfg_.alpha),
                 cfg_.incrementalRanking),
      ds_(cfg_.dsBytes, semantics,
          datastore::parseEvictionPolicy(cfg_.dsEviction), cfg_.dsShards),
      ps_(cfg_.psBytes, cfg_.psIoThreads,
          pagespace::RetryPolicy{cfg_.ioRetryAttempts,
                                 cfg_.ioRetryBackoffSec},
          cfg_.psShards),
      planner_(semantics,
               query::PlannerConfig{
                   .dataStoreEnabled = cfg_.dataStoreEnabled,
                   .allowWaitOnExecuting = cfg_.allowWaitOnExecuting,
                   .maxReuseSources = cfg_.maxReuseSources,
                   .candidatePoolSize = std::max(8, 2 * cfg_.maxReuseSources),
                   .maxNestedReuseDepth = cfg_.maxNestedReuseDepth,
                   .minMarginalBytes = 1,
                   // Worker threads race with evictions: the planner pins
                   // the blobs it selects until their steps execute.
                   .pinSources = true,
               }),
      epoch_(std::chrono::steady_clock::now()) {
  MQS_CHECK(sem_ != nullptr && exec_ != nullptr);
  MQS_CHECK(cfg_.threads >= 1);
  MQS_CHECK(cfg_.queryDeadlineSec >= 0.0);
  if (cfg_.traceSink != nullptr) {
    tracer_ = cfg_.traceSink.get();
    // All components stamp events with the server's experiment clock, the
    // same clock behind every QueryRecord timestamp.
    tracer_->setClock(
        [](void* ctx) {
          return static_cast<const QueryServer*>(ctx)->nowSeconds();
        },
        this);
    scheduler_.setTracer(tracer_);
    ds_.setTracer(tracer_);
    ps_.setTracer(tracer_);
    lockWaitBaseSched_ = lockstats::countsFor(lockorder::Rank::kScheduler);
    lockWaitBaseDs_ = sumCounts(lockorder::Rank::kDataStore,
                                lockorder::Rank::kDataStoreShard);
    lockWaitBasePs_ = sumCounts(lockorder::Rank::kPageSpace,
                                lockorder::Rank::kPageSpaceShard);
  }
  // Cost-aware eviction and the spill tier's restore-vs-recompute gate both
  // need every blob stamped with its traced recompute cost. With a trace
  // sink attached, its Compute/IoStall spans feed the ledger for free;
  // without one, a private *disabled* tracer does the accounting (one
  // relaxed load per span site, no event buffering).
  const bool needCost = datastore::parseEvictionPolicy(cfg_.dsEviction) ==
                            datastore::EvictionPolicy::CostAware ||
                        cfg_.spillBytes > 0;
  if (needCost) {
    if (tracer_ == nullptr) {
      ownedTracer_ = std::make_unique<trace::Tracer>();
      ownedTracer_->setEnabled(false);
      ownedTracer_->setClock(
          [](void* ctx) {
            return static_cast<const QueryServer*>(ctx)->nowSeconds();
          },
          this);
      tracer_ = ownedTracer_.get();
      scheduler_.setTracer(tracer_);
      ds_.setTracer(tracer_);
      ps_.setTracer(tracer_);
    }
    tracer_->setCostAccounting(true);
  }
  if (cfg_.spillBytes > 0) {
    spill_ = std::make_unique<datastore::SpillTier>(cfg_.spillBytes, sem_,
                                                    cfg_.spillDir);
    if (tracer_ != nullptr) spill_->setTracer(tracer_);
  }
  ds_.setEvictionListener(
      [this](datastore::EvictedBlob blob) { onBlobEvicted(std::move(blob)); });
  workers_.reserve(static_cast<std::size_t>(cfg_.threads));
  for (int i = 0; i < cfg_.threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

QueryServer::~QueryServer() { shutdown(); }

double QueryServer::nowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void QueryServer::attach(storage::DatasetId dataset,
                         const storage::DataSource* source) {
  ps_.attach(dataset, source);
}

QueryOutcome QueryOutcome::noResult(Status status, std::string message,
                                    RejectReason reason) {
  QueryOutcome outcome;
  outcome.status = status;
  outcome.rejectReason = reason;
  outcome.message = std::move(message);
  return outcome;
}

std::exception_ptr QueryOutcome::error() const {
  switch (status) {
    case Status::Completed:
      return nullptr;
    case Status::Failed:
      return std::make_exception_ptr(QueryFailure(message));
    case Status::Shed:
      return std::make_exception_ptr(QueryShed(message));
    case Status::Rejected:
      return std::make_exception_ptr(QueryRejected(rejectReason, message));
    case Status::Error:
      break;
  }
  return std::make_exception_ptr(std::runtime_error(message));
}

void QueryServer::settle(Completion done, QueryOutcome outcome) {
  done(std::move(outcome));
}

void QueryServer::submit(query::PredicatePtr pred, int client,
                         Completion done) {
  MQS_CHECK(pred != nullptr && done != nullptr);
  PendingQuery pq;
  pq.done = std::move(done);
  pq.record.client = client;
  pq.record.predicate = pred->describe();
  pq.record.arrivalTime = nowSeconds();
  pq.record.inputBytes = sem_->qinputsize(*pred);
  pq.record.outputBytes = sem_->qoutsize(*pred);

  std::optional<QueryOutcome> refusal;
  {
    MutexLock lock(mu_);
    refusal = refuseLocked(pq.record);
    if (!refusal) {
      const sched::NodeId node = scheduler_.submit(std::move(pred));
      pq.record.queryId = node;
      if (client >= 0) {
        ClientQuota& q = clientQuota_[client];
        ++q.queued;
        q.queuedBytes += pq.record.outputBytes;
      }
      ++queuedCount_;
      admission_.onAdmitted(queuedCount_);
      if (tracer_ != nullptr) {
        tracer_->counter(trace::CounterKind::AdmissionAdmitted);
        tracer_->counter(trace::CounterKind::AdmissionQueueDepth,
                         queuedCount_);
      }
      latches_.emplace(node, std::make_shared<DoneLatch>());
      pending_.emplace(node, std::move(pq));
    }
  }
  if (refusal) {
    settle(std::move(pq.done), std::move(*refusal));
    return;
  }
  workAvailable_.notifyOne();
}

std::future<QueryResult> QueryServer::submit(query::PredicatePtr pred,
                                             int client) {
  // std::function needs a copyable target, so the promise is shared.
  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> future = promise->get_future();
  submit(std::move(pred), client, [promise](QueryOutcome outcome) {
    if (outcome.status == QueryOutcome::Status::Completed) {
      promise->set_value(std::move(outcome.result));
    } else {
      promise->set_exception(outcome.error());
    }
  });
  return future;
}

std::optional<QueryOutcome> QueryServer::refuseLocked(
    const metrics::QueryRecord& rec) {
  using Status = QueryOutcome::Status;
  if (stopping_) {
    return QueryOutcome::noResult(Status::Error,
                                  "query server is shutting down");
  }
  admission_.onOffered();
  // Bounded admission queue (DESIGN.md §11): a saturated server turns
  // work away at the door instead of letting queue wait grow without
  // bound. Rejection costs the client one round trip and the server
  // nothing downstream of this lock.
  if (cfg_.admissionQueueLimit > 0 &&
      queuedCount_ >= cfg_.admissionQueueLimit) {
    admission_.onRejected(RejectReason::QueueFull);
    if (tracer_ != nullptr) {
      tracer_->counter(trace::CounterKind::AdmissionRejected);
    }
    return QueryOutcome::noResult(
        Status::Rejected,
        "admission queue full (" + std::to_string(queuedCount_) + " of " +
            std::to_string(cfg_.admissionQueueLimit) + " slots queued)",
        RejectReason::QueueFull);
  }
  // Per-client fairness quota: one greedy client cannot occupy the whole
  // admission queue and starve the rest. A client with nothing queued is
  // always allowed one query, even past the byte quota — otherwise a
  // single large query could never run at all.
  if (rec.client < 0 ||
      (cfg_.maxQueuedPerClient <= 0 && cfg_.maxQueuedBytesPerClient == 0)) {
    return std::nullopt;
  }
  const auto it = clientQuota_.find(rec.client);
  if (it == clientQuota_.end() || it->second.queued == 0) return std::nullopt;
  const ClientQuota& q = it->second;
  const bool overQueries =
      cfg_.maxQueuedPerClient > 0 && q.queued >= cfg_.maxQueuedPerClient;
  const bool overBytes =
      cfg_.maxQueuedBytesPerClient > 0 &&
      q.queuedBytes + rec.outputBytes > cfg_.maxQueuedBytesPerClient;
  if (!overQueries && !overBytes) return std::nullopt;
  admission_.onRejected(RejectReason::ClientQuota);
  if (tracer_ != nullptr) {
    tracer_->counter(trace::CounterKind::AdmissionRejected);
    tracer_->counter(trace::CounterKind::AdmissionQuotaHit);
  }
  return QueryOutcome::noResult(
      Status::Rejected,
      std::string("client quota exceeded (") +
          (overQueries ? "queued queries" : "queued bytes") + " for client " +
          std::to_string(rec.client) + ")",
      RejectReason::ClientQuota);
}

void QueryServer::releaseClientQuota(const metrics::QueryRecord& rec) {
  if (rec.client < 0) return;
  const auto it = clientQuota_.find(rec.client);
  if (it == clientQuota_.end()) return;
  ClientQuota& q = it->second;
  q.queued = std::max(0, q.queued - 1);
  q.queuedBytes -= std::min(q.queuedBytes, rec.outputBytes);
  // Drop drained entries so the map stays bounded by *active* clients.
  if (q.queued == 0) clientQuota_.erase(it);
}

QueryResult QueryServer::execute(query::PredicatePtr pred, int client) {
  return submit(std::move(pred), client).get();
}

void QueryServer::shutdown() {
  {
    MutexLock lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  workAvailable_.notifyAll();
  workers_.clear();  // jthread joins
  if (tracer_ != nullptr) {
    // Per-subsystem lock-contention exposure for this run: value = blocked
    // acquisitions since construction (workers are joined, so the deltas
    // are final).
    const auto emit = [this](trace::CounterKind kind,
                             const lockstats::Counts& base,
                             const lockstats::Counts& now) {
      if (now.contended > base.contended) {
        tracer_->counter(kind, now.contended - base.contended);
      }
    };
    emit(trace::CounterKind::LockWaitSched, lockWaitBaseSched_,
         lockstats::countsFor(lockorder::Rank::kScheduler));
    emit(trace::CounterKind::LockWaitDs, lockWaitBaseDs_,
         sumCounts(lockorder::Rank::kDataStore,
                   lockorder::Rank::kDataStoreShard));
    emit(trace::CounterKind::LockWaitPs, lockWaitBasePs_,
         sumCounts(lockorder::Rank::kPageSpace,
                   lockorder::Rank::kPageSpaceShard));
  }
}

void QueryServer::workerLoop() {
  for (;;) {
    sched::NodeId node = sched::kInvalidNode;
    PendingQuery pq;
    {
      MutexLock lock(mu_);
      // Explicit while-loop (not a predicate lambda): the thread-safety
      // analysis cannot see lock state inside a lambda body.
      while (!stopping_ && scheduler_.waitingCount() == 0) {
        workAvailable_.wait(mu_);
      }
      if (scheduler_.waitingCount() == 0) {
        if (stopping_) return;
        continue;
      }
      auto n = scheduler_.dequeue();
      if (!n) continue;  // raced with another worker
      node = *n;
      auto it = pending_.find(node);
      MQS_CHECK_MSG(it != pending_.end(), "dequeued query without record");
      pq = std::move(it->second);
      pending_.erase(it);
      // The quota charge covers submit -> dispatch: once a worker owns the
      // query it no longer crowds other clients out of the queue.
      if (queuedCount_ > 0) --queuedCount_;
      admission_.onDispatched(queuedCount_);
      releaseClientQuota(pq.record);
      if (tracer_ != nullptr) {
        tracer_->counter(trace::CounterKind::AdmissionQueueDepth,
                         queuedCount_);
      }
    }
    runQuery(node, std::move(pq));
  }
}

void QueryServer::checkDeadline(const metrics::QueryRecord& rec) const {
  if (cfg_.queryDeadlineSec <= 0.0) return;
  const double elapsed = nowSeconds() - rec.arrivalTime;
  if (elapsed > cfg_.queryDeadlineSec) {
    throw QueryFailure("query deadline exceeded (" + std::to_string(elapsed) +
                       "s > " + std::to_string(cfg_.queryDeadlineSec) + "s)");
  }
}

bool QueryServer::shouldShed(const metrics::QueryRecord& rec,
                             std::string& reason) const {
  if (!cfg_.shedDeadlineMisses || cfg_.queryDeadlineSec <= 0.0) return false;
  const double elapsed = nowSeconds() - rec.arrivalTime;
  if (elapsed > cfg_.queryDeadlineSec) {
    reason = "query shed: deadline exceeded before dispatch (" +
             std::to_string(elapsed) + "s > " +
             std::to_string(cfg_.queryDeadlineSec) + "s)";
    return true;
  }
  if (cfg_.predictiveShedding) {
    const double rate = ewmaSecPerByte_.load(std::memory_order_relaxed);
    if (rate > 0.0) {
      const double predicted = rate * static_cast<double>(rec.outputBytes);
      if (elapsed + predicted > cfg_.queryDeadlineSec) {
        reason = "query shed: predicted deadline miss (" +
                 std::to_string(elapsed) + "s elapsed + " +
                 std::to_string(predicted) + "s predicted > " +
                 std::to_string(cfg_.queryDeadlineSec) + "s)";
        return true;
      }
    }
  }
  return false;
}

void QueryServer::noteServiceRate(double secPerByte) {
  if (!(secPerByte > 0.0)) return;  // also rejects NaN
  constexpr double kAlpha = 0.2;
  double cur = ewmaSecPerByte_.load(std::memory_order_relaxed);
  double next = secPerByte;
  do {
    next = cur == 0.0 ? secPerByte : cur + kAlpha * (secPerByte - cur);
  } while (!ewmaSecPerByte_.compare_exchange_weak(
      cur, next, std::memory_order_relaxed));
}

std::shared_future<void> QueryServer::doneFutureOf(sched::NodeId node) {
  MutexLock lock(mu_);
  auto it = latches_.find(node);
  MQS_CHECK_MSG(it != latches_.end(), "no completion latch for node");
  return it->second->future;
}

std::vector<std::byte> QueryServer::executePlan(query::ReusePlan plan,
                                                const query::Predicate& pred,
                                                int depth,
                                                metrics::QueryRecord& rec) {
  const auto d8 = static_cast<std::uint8_t>(depth);
  // Raw fast path: a plan without projection steps is a single
  // ComputeRemainder step covering `pred` — run the executor directly
  // (registered as a shared scan at depth 0, DESIGN.md §14).
  if (!plan.hasReuse()) {
    trace::SpanScope compute(tracer_, rec.queryId, trace::SpanKind::Compute,
                             d8);
    pagespace::ScanRegistry::ScanGuard scan =
        beginScanIfFolding(pred, rec, depth);
    std::vector<std::byte> raw = exec_->execute(pred, ps_);
    publishScan(scan, raw);
    return raw;
  }

  std::vector<std::byte> out(sem_->qoutsize(pred));
  std::size_t pinIdx = 0;  // plan.pins parallels the ProjectFromCached steps
  for (query::PlanStep& step : plan.steps) {
    switch (step.kind) {
      case query::PlanStep::Kind::ProjectFromCached: {
        trace::SpanScope project(tracer_, rec.queryId,
                                 trace::SpanKind::Project, d8,
                                 step.bytesCovered,
                                 trace::kFlagCachedSource);
        // The planner pinned the blob (pinSources), so it is still
        // resident; release the pin as soon as the projection is done.
        exec_->project(*step.sourcePred, ds_.payload(step.blob), pred, out);
        MQS_DCHECK(pinIdx < plan.pins.size());
        plan.pins[pinIdx++].release();
        rec.bytesReused += step.bytesCovered;
        break;
      }
      case query::PlanStep::Kind::WaitAndProjectFromExecuting: {
        // The PROJECT span covers the whole step — including the fallback
        // compute below — so a query's depth-0 PROJECT count always equals
        // its recorded reuseSources, even when a source vanished.
        trace::SpanScope project(tracer_, rec.queryId,
                                 trace::SpanKind::Project, d8,
                                 step.bytesCovered,
                                 trace::kFlagExecutingSource);
        // Block on the older executing query's completion latch; the
        // thread-pool slot stays occupied while we wait (§4).
        rec.reusedExecuting = true;
        const double t0 = nowSeconds();
        {
          trace::SpanScope wait(tracer_, rec.queryId,
                                trace::SpanKind::WaitSource, d8);
          doneFutureOf(step.node).wait();
        }
        rec.blockedTime += nowSeconds() - t0;
        checkDeadline(rec);

        datastore::BlobId blob = 0;
        bool haveBlob = false;
        {
          MutexLock lock(mu_);
          if (auto it = nodeBlob_.find(step.node); it != nodeBlob_.end()) {
            blob = it->second;
            haveBlob = true;
          }
        }
        if (haveBlob && ds_.tryPin(blob)) {
          datastore::DataStore::PinGuard pin(ds_, blob);
          exec_->project(*step.sourcePred, ds_.payload(blob), pred, out);
          pin.release();
          ds_.noteReuse(blob, step.overlap);
          rec.bytesReused += step.bytesCovered;
        } else {
          // The source failed, produced an uncacheable result, or was
          // evicted before we could read it: compute this step's share of
          // the output from raw data instead (its coveredParts tile it).
          for (const query::PredicatePtr& cp : step.coveredParts) {
            const std::vector<std::byte> sub =
                computePart(*cp, depth + 1, rec);
            exec_->project(*cp, sub, pred, out);
          }
        }
        break;
      }
      case query::PlanStep::Kind::RestoreFromSpill: {
        // The PROJECT span covers restore + projection (and the fallback
        // compute if the entry vanished); the disk read inside restore()
        // is the tier's own cost, not a Page Space IO_STALL, so a query's
        // IO_STALL span total still equals its recorded ioStallTime.
        trace::SpanScope project(tracer_, rec.queryId,
                                 trace::SpanKind::Project, d8,
                                 step.bytesCovered, trace::kFlagSpillSource);
        std::optional<datastore::EvictedBlob> restoredBlob =
            spill_ != nullptr ? spill_->restore(step.spillId) : std::nullopt;
        if (restoredBlob) {
          exec_->project(*step.sourcePred, restoredBlob->payload, pred, out);
          rec.bytesReused += step.bytesCovered;
          // Re-insert with the blob's *original* traced cost: the restore
          // must not consume (or be billed to) this query's ledger.
          const std::uint64_t lb = restoredBlob->logicalBytes;
          const double rc = restoredBlob->recomputeCostSec;
          const std::optional<datastore::BlobId> nb =
              ds_.insert(std::move(restoredBlob->predicate),
                         std::move(restoredBlob->payload), lb, rc);
          MutexLock lock(mu_);
          const auto nIt = spillNode_.find(step.spillId);
          if (nIt != spillNode_.end()) {
            const sched::NodeId rn = nIt->second;
            spillNode_.erase(nIt);
            nodeSpill_.erase(rn);
            if (nb) {
              nodeBlob_[rn] = *nb;
              blobNode_[*nb] = rn;
              scheduler_.restored(rn);
            } else {
              // Insert refused (duplicate or over budget): the spill entry
              // is spent, so the node's result is gone for good.
              scheduler_.retired(rn);
            }
          }
          // With no mapped node this was a sub-query blob: no scheduler
          // transition, it serves reuse straight from the store again.
        } else {
          // Dropped (or restored by a racing query) between planning and
          // execution: compute this step's share from raw data instead.
          for (const query::PredicatePtr& cp : step.coveredParts) {
            const std::vector<std::byte> sub =
                computePart(*cp, depth + 1, rec);
            exec_->project(*cp, sub, pred, out);
          }
        }
        break;
      }
      case query::PlanStep::Kind::FoldIntoScan: {
        // The PROJECT span covers the whole step — including the fallback
        // below — so depth-0 PROJECT count always equals reuseSources even
        // when the scan resolved before we could join.
        trace::SpanScope project(tracer_, rec.queryId,
                                 trace::SpanKind::Project, d8,
                                 step.bytesCovered, trace::kFlagFoldSource);
        pagespace::ScanRegistry::ScanPtr scan =
            ps_.scanRegistry().subscribe(step.scanId);
        bool projected = false;
        if (scan != nullptr) {
          // The fold is real: annotate the graph (rank feedback sees the
          // shared scan once, on the owner) and block on the scan latch —
          // the owner is strictly older (candidatesFor enforced it), so
          // this wait keeps the wait graph acyclic.
          scheduler_.noteFold(rec.queryId, step.node);
          if (tracer_ != nullptr) {
            tracer_->counter(trace::CounterKind::FoldHit);
          }
          rec.reusedExecuting = true;
          const double t0 = nowSeconds();
          {
            trace::SpanScope wait(tracer_, rec.queryId,
                                  trace::SpanKind::WaitSource, d8);
            scan->done.wait();
          }
          rec.blockedTime += nowSeconds() - t0;
          checkDeadline(rec);
          if (scan->state == pagespace::ScanRegistry::ScanState::Published &&
              scan->payload != nullptr) {
            exec_->project(*step.sourcePred, *scan->payload, pred, out);
            rec.bytesReused += step.bytesCovered;
            if (tracer_ != nullptr) {
              tracer_->counter(trace::CounterKind::ScanBytesShared,
                               static_cast<double>(scan->payload->size()));
            }
            projected = true;
          }
        }
        if (!projected) {
          // The scan settled before we joined, or its owner failed: replan
          // this step's share independently from raw data (the §14 failure
          // contract — a subscriber never hangs and never inherits the
          // owner's failure when its own region is computable).
          for (const query::PredicatePtr& cp : step.coveredParts) {
            const std::vector<std::byte> sub =
                computePart(*cp, depth + 1, rec);
            exec_->project(*cp, sub, pred, out);
          }
        }
        break;
      }
      case query::PlanStep::Kind::ComputeRemainder: {
        trace::SpanScope compute(tracer_, rec.queryId,
                                 trace::SpanKind::Compute, d8,
                                 step.bytesCovered);
        pagespace::ScanRegistry::ScanGuard scan =
            beginScanIfFolding(*step.pred, rec, depth);
        const std::vector<std::byte> sub =
            computePart(*step.pred, depth + 1, rec);
        publishScan(scan, sub);
        exec_->project(*step.pred, sub, pred, out);
        break;
      }
    }
  }
  return out;
}

std::vector<std::byte> QueryServer::computePart(const query::Predicate& part,
                                                int depth,
                                                metrics::QueryRecord& rec) {
  // Remainder parts never wait on executing queries (no graph node, and
  // blocking inside a nested computation would stack latch waits).
  query::ReusePlan plan = [&] {
    trace::SpanScope planSpan(tracer_, rec.queryId, trace::SpanKind::Plan,
                              static_cast<std::uint8_t>(depth));
    return planner_.plan(part, ds_, nullptr, sched::kInvalidNode, depth);
  }();
  std::vector<std::byte> out = executePlan(std::move(plan), part, depth, rec);
  if (cfg_.dataStoreEnabled && cfg_.cacheSubqueryResults) {
    (void)ds_.insert(part.clone(), std::vector<std::byte>(out),
                     sem_->qoutsize(part));
  }
  return out;
}

pagespace::ScanRegistry::ScanGuard QueryServer::beginScanIfFolding(
    const query::Predicate& pred, const metrics::QueryRecord& rec,
    int depth) {
  if (!cfg_.foldScans || !cfg_.allowWaitOnExecuting || depth != 0) return {};
  return ps_.scanRegistry().beginScan(pred, rec.queryId,
                                      scheduler_.execSeq(rec.queryId));
}

void QueryServer::publishScan(pagespace::ScanRegistry::ScanGuard& scan,
                              std::span<const std::byte> bytes) {
  if (!scan.active()) return;
  const int subscribers = scan.publish(bytes);
  if (subscribers > 0 && tracer_ != nullptr) {
    tracer_->counter(trace::CounterKind::FoldSubscribers, subscribers);
  }
}

std::optional<datastore::BlobId> QueryServer::cacheResult(
    const query::Predicate& pred, std::span<const std::byte> out) {
  if (!cfg_.dataStoreEnabled) return std::nullopt;
  return ds_.insert(pred.clone(),
                    std::vector<std::byte>(out.begin(), out.end()),
                    sem_->qoutsize(pred));
}

std::vector<std::byte> QueryServer::computeQuery(sched::NodeId node,
                                                 const query::Predicate& pred,
                                                 metrics::QueryRecord& rec) {
  // All source selection happens in the shared planner; record the plan's
  // accounting, then execute its steps. Fold candidates are snapshotted
  // before planning (cloned predicates), so the plan stays valid however
  // the scans resolve afterwards — a settled scan just falls back at
  // execution time.
  std::vector<query::FoldCandidate> folds;
  if (cfg_.foldScans && cfg_.allowWaitOnExecuting) {
    folds = ps_.scanRegistry().candidatesFor(
        scheduler_.execSeq(node),
        static_cast<std::size_t>(std::max(8, 2 * cfg_.maxReuseSources)));
  }
  query::ReusePlan plan = [&] {
    trace::SpanScope planSpan(tracer_, rec.queryId, trace::SpanKind::Plan);
    return planner_.plan(pred, ds_, &scheduler_, node, /*depth=*/0,
                         spill_.get(), folds);
  }();
  rec.overlapUsed = plan.primaryOverlap;
  rec.reuseSources = plan.reuseSources();
  rec.planBytesCovered = plan.planBytesCovered;
  rec.planShape = plan.shape();
  for (const query::PlanStep& step : plan.steps) {
    if (step.kind != query::PlanStep::Kind::ComputeRemainder) {
      rec.bytesReusedPerSource.push_back(step.bytesCovered);
    }
  }
  return executePlan(std::move(plan), pred, /*depth=*/0, rec);
}

void QueryServer::runQuery(sched::NodeId node, PendingQuery pq) {
  metrics::QueryRecord rec = std::move(pq.record);
  rec.startTime = nowSeconds();
  pagespace::PageSpaceManager::resetThreadCounters();
  // Attribute everything emitted on this thread — including IO_STALL spans
  // from deep inside the Page Space Manager — to this query.
  trace::Tracer::QueryScope queryScope(tracer_, node);

  const query::PredicatePtr predPtr = scheduler_.predicateOf(node);
  // A dequeued node stays in the graph until this query settles it.
  MQS_CHECK_MSG(predPtr != nullptr, "running query has no graph node");
  const query::Predicate& pred = *predPtr;

  // Application code (executors, user-defined operators, the storage
  // layer on a permanent device fault) may throw; the failure is scoped
  // to this query: it settles as a Failed outcome and the graph node is
  // retired so dependents and the scheduler stay consistent. The worker
  // thread survives.
  std::vector<std::byte> out;
  std::string failureReason;
  bool failed = false;
  // Load shedding (DESIGN.md §11): a query whose deadline has passed — or,
  // predictively, cannot be met — is dropped here, before planning or
  // compute. With shedding off, the same observed miss fails through
  // checkDeadline below (the historical FAILED classification).
  const bool shed = shouldShed(rec, failureReason);
  if (!shed) {
    try {
      checkDeadline(rec);  // a query already past its deadline never executes
      out = computeQuery(node, pred, rec);
    } catch (const std::exception& e) {
      failed = true;
      failureReason = e.what();
    } catch (...) {
      failed = true;
      failureReason = "unknown error";
    }
  }
  rec.bytesFromDisk = pagespace::PageSpaceManager::threadDeviceBytes();
  rec.ioStallTime = pagespace::PageSpaceManager::threadStallSeconds();

  // The terminal DELIVER span covers result caching, the graph-node
  // transition, and client delivery; its end event carries the failed or
  // shed flag (never both — shed queries skip execution entirely).
  trace::SpanScope deliver(tracer_, node, trace::SpanKind::Deliver);
  if (failed) deliver.setEndFlags(trace::kFlagFailed);
  if (shed) deliver.setEndFlags(trace::kFlagShed);

  // --- cache the result & transition the graph node --------------------
  if (shed) {
    rec.shed = true;
    rec.failureReason = failureReason;
    // SHED is terminal like FAILED: no reusable result, so the node leaves
    // the graph at once and waiting neighbors are re-ranked.
    scheduler_.failed(node);
    admission_.onShed();
    if (tracer_ != nullptr) {
      tracer_->counter(trace::CounterKind::AdmissionShed);
    }
  } else if (failed) {
    rec.failed = true;
    rec.failureReason = failureReason;
    // FAILED is terminal: there is no reusable result, so the node leaves
    // the graph at once and waiting neighbors are re-ranked.
    scheduler_.failed(node);
    admission_.onFailed();
  } else {
    std::optional<datastore::BlobId> blob;
    if (rec.overlapUsed < 1.0) blob = cacheResult(pred, out);
    if (blob) {
      MutexLock lock(mu_);
      nodeBlob_[node] = *blob;
      blobNode_[*blob] = node;
    }
    scheduler_.completed(node);
    if (!blob) {
      // Nothing cached (duplicate result, or DS full/disabled): the
      // node cannot serve reuse, so it leaves the graph at once.
      scheduler_.retired(node);
    } else {
      MutexLock lock(mu_);
      if (evictedWhileExecuting_.erase(node) > 0) {
        nodeBlob_.erase(node);
        blobNode_.erase(*blob);
        scheduler_.retired(node);
      }
    }
  }

  // --- deliver ----------------------------------------------------------
  {
    MutexLock lock(mu_);
    latches_[node]->promise.set_value();
  }
  // A failed or shed query produced no result, so it contributes no
  // reuse-feedback signal to adaptive policies.
  if (!failed && !shed) {
    scheduler_.reportQueryOutcome(rec.overlapUsed);
    admission_.onCompleted();
  }

  deliver.close();
  rec.finishTime = nowSeconds();
  // Deadline-missed accounting: queries that consumed compute and still
  // finished (or died) past their deadline — the misses shedding did not
  // prevent. Shed queries are counted once, as SHED.
  if (!shed && cfg_.queryDeadlineSec > 0.0 &&
      rec.responseTime() > cfg_.queryDeadlineSec) {
    admission_.onDeadlineMissed();
    if (tracer_ != nullptr) {
      tracer_->counter(trace::CounterKind::DeadlineMissed);
    }
  }
  // Feed the predictive-shedding EWMA with the observed service rate.
  if (!shed && !failed && rec.outputBytes > 0) {
    noteServiceRate(rec.execTime() / static_cast<double>(rec.outputBytes));
  }
  collector_.add(rec);
  QueryOutcome outcome;
  if (shed || failed) {
    outcome = QueryOutcome::noResult(shed ? QueryOutcome::Status::Shed
                                          : QueryOutcome::Status::Failed,
                                     std::move(failureReason));
  } else {
    outcome.result = QueryResult{std::move(out), std::move(rec)};
  }
  settle(std::move(pq.done), std::move(outcome));
}

void QueryServer::onBlobEvicted(datastore::EvictedBlob blob) {
  MutexLock lock(mu_);
  sched::NodeId node = sched::kInvalidNode;
  if (const auto it = blobNode_.find(blob.id); it != blobNode_.end()) {
    node = it->second;
    blobNode_.erase(it);
    nodeBlob_.erase(node);
    if (scheduler_.stateOf(node) != sched::QueryState::Cached) {
      // Evicted before its own query finished (tiny Data Store): the
      // finishing worker retires the node; nothing worth spilling yet.
      evictedWhileExecuting_.insert(node);
      return;
    }
  }
  if (spill_ == nullptr) {
    // No tier: eviction is terminal, exactly the historical behaviour
    // (retired() on a CACHED node counts one swap-out and removes it).
    if (node != sched::kInvalidNode) scheduler_.retired(node);
    return;
  }
  // Demote (mu_ -> kSpillTier is rank-legal, 20 -> 44). Entries the tier
  // FIFO-drops to make room are terminal for *their* nodes.
  std::vector<datastore::SpillId> droppedIds;
  const std::optional<datastore::SpillId> sid =
      spill_->demote(std::move(blob), &droppedIds);
  if (node != sched::kInvalidNode) {
    if (sid) {
      nodeSpill_[node] = *sid;
      spillNode_[*sid] = node;
      scheduler_.swappedOut(node);
    } else {
      scheduler_.retired(node);  // blob alone exceeds the tier
    }
  }
  for (const datastore::SpillId d : droppedIds) retireSpilledLocked(d);
}

void QueryServer::retireSpilledLocked(datastore::SpillId sid) {
  const auto it = spillNode_.find(sid);
  if (it == spillNode_.end()) return;  // sub-query entry, no graph node
  const sched::NodeId node = it->second;
  spillNode_.erase(it);
  nodeSpill_.erase(node);
  scheduler_.retired(node);
}

}  // namespace mqs::server
