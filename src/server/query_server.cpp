#include "server/query_server.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "query/plan_runner.hpp"

namespace mqs::server {

QueryServer::QueryServer(const query::QuerySemantics* semantics,
                         const query::QueryExecutor* executor,
                         ServerConfig cfg)
    : sem_(semantics),
      exec_(executor),
      cfg_(std::move(cfg)),
      scheduler_(semantics, sched::makePolicy(cfg_.policy, cfg_.alpha)),
      ds_(cfg_.dsBytes, semantics,
          datastore::parseEvictionPolicy(cfg_.dsEviction)),
      ps_(cfg_.psBytes, cfg_.psIoThreads,
          pagespace::RetryPolicy{cfg_.ioRetryAttempts,
                                 cfg_.ioRetryBackoffSec}),
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
    lockWaitBaseDs_ = lockstats::countsFor(lockorder::Rank::kDataStore);
    lockWaitBasePs_ = lockstats::countsFor(lockorder::Rank::kPageSpace);
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
  // Demoting under mu_ is rank-legal (mu_ -> kSpillTier, 20 -> 44).
  ds_.setEvictionListener([this](datastore::EvictedBlob blob) {
    MutexLock lock(mu_);
    catalog_.evicted(std::move(blob), spill_.get());
  });
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
    // Per-subsystem lock-contention exposure for this run: blocked
    // acquisitions and the microseconds spent blocked in them since
    // construction (workers are joined, so the deltas are final).
    const auto emit = [this](trace::CounterKind count, trace::CounterKind us,
                             const lockstats::Counts& base,
                             lockorder::Rank rank) {
      const lockstats::Counts now = lockstats::countsFor(rank);
      if (now.contended > base.contended) {
        tracer_->counter(count, now.contended - base.contended);
      }
      if (const auto waitUs = (now.waitNanos - base.waitNanos) / 1000;
          waitUs > 0) {
        tracer_->counter(us, waitUs);
      }
    };
    emit(trace::CounterKind::LockWaitSched, trace::CounterKind::LockWaitSchedUs,
         lockWaitBaseSched_, lockorder::Rank::kScheduler);
    emit(trace::CounterKind::LockWaitDs, trace::CounterKind::LockWaitDsUs,
         lockWaitBaseDs_, lockorder::Rank::kDataStore);
    emit(trace::CounterKind::LockWaitPs, trace::CounterKind::LockWaitPsUs,
         lockWaitBasePs_, lockorder::Rank::kPageSpace);
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

// --- plan-step hooks (query::PlanRunner) -----------------------------------

std::suspend_never QueryServer::awaitExecuting(sched::NodeId node) {
  std::shared_future<void> done;
  {
    MutexLock lock(mu_);
    auto it = latches_.find(node);
    MQS_CHECK_MSG(it != latches_.end(), "no completion latch for node");
    done = it->second->future;
  }
  done.wait();
  return {};
}

std::optional<query::ProjectionSource> QueryServer::holdBlob(
    datastore::BlobId blob) {
  if (!ds_.tryPin(blob)) return std::nullopt;
  query::ProjectionSource src;
  src.pin = datastore::DataStore::PinGuard(ds_, blob);
  src.bytes = ds_.payload(blob);
  return src;
}

query::PlanContext QueryServer::planContext() {
  return query::PlanContext{
      .planner = &planner_,
      .ds = &ds_,
      .spill = spill_.get(),
      .scheduler = &scheduler_,
      .scans = &ps_.scanRegistry(),
      .tracer = tracer_,
      .foldScans = cfg_.foldScans && cfg_.allowWaitOnExecuting,
      .cacheParts = cfg_.dataStoreEnabled && cfg_.cacheSubqueryResults,
  };
}

std::optional<datastore::BlobId> QueryServer::cacheResult(
    const query::Predicate& pred, std::span<const std::byte> out) {
  if (!cfg_.dataStoreEnabled) return std::nullopt;
  return ds_.insert(pred.clone(),
                    std::vector<std::byte>(out.begin(), out.end()),
                    sem_->qoutsize(pred));
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
      out = query::PlanRunner<QueryServer>(*this, planContext())
                .runQuery(node, pred, rec)
                .syncWait();
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
    MutexLock lock(mu_);
    catalog_.finish(node, blob);
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

}  // namespace mqs::server
