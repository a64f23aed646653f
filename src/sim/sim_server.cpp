#include "sim/sim_server.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "sim/vm_model.hpp"

namespace mqs::sim {

SimServer::SimServer(Simulator& sim, const vm::VMSemantics* semantics,
                     SimConfig cfg)
    : SimServer(sim, static_cast<const query::QuerySemantics*>(semantics),
                nullptr, std::move(cfg)) {
  ownedModel_ = std::make_unique<VMModel>(semantics, cfg_.cpuPerByteSubsample,
                                          cfg_.cpuPerByteAverage);
  model_ = ownedModel_.get();
}

SimServer::SimServer(Simulator& sim, const query::QuerySemantics* semantics,
                     const AppModel* model, SimConfig cfg)
    : sim_(&sim),
      sem_(semantics),
      model_(model),
      cfg_(std::move(cfg)),
      scheduler_(semantics, sched::makePolicy(cfg_.policy, cfg_.alpha),
                 cfg_.incrementalRanking),
      ds_(cfg_.dsBytes, semantics,
          datastore::parseEvictionPolicy(cfg_.dsEviction)),
      psCore_(cfg_.psBytes),
      planner_(semantics,
               query::PlannerConfig{
                   .dataStoreEnabled = cfg_.dataStoreEnabled,
                   .allowWaitOnExecuting = cfg_.allowWaitOnExecuting,
                   .maxReuseSources = cfg_.maxReuseSources,
                   .candidatePoolSize = std::max(8, 2 * cfg_.maxReuseSources),
                   .maxNestedReuseDepth = cfg_.maxNestedReuseDepth,
                   .minMarginalBytes = 1,
                   // Single-threaded virtual time: nothing can evict a blob
                   // between planning and the step that projects it unless
                   // the plan itself inserts — handled by the contains()
                   // re-check in executePlan, so no pinning needed.
                   .pinSources = false,
               }),
      cpus_(sim, cfg_.cpus) {
  MQS_CHECK(sem_ != nullptr);
  MQS_CHECK(cfg_.threads >= 1);
  MQS_CHECK(cfg_.diskFarm.disks >= 1);
  if (cfg_.ioModel == "kstream") {
    disks_.reserve(static_cast<std::size_t>(cfg_.diskFarm.disks));
    for (int i = 0; i < cfg_.diskFarm.disks; ++i) {
      disks_.push_back(std::make_unique<FcfsServer>(sim));
    }
  } else {
    MQS_CHECK_MSG(cfg_.ioModel == "fifo" || cfg_.ioModel == "elevator",
                  "ioModel must be kstream, fifo, or elevator");
    const DiskDiscipline disc = cfg_.ioModel == "fifo"
                                    ? DiskDiscipline::Fifo
                                    : DiskDiscipline::Elevator;
    posDisks_.reserve(static_cast<std::size_t>(cfg_.diskFarm.disks));
    for (int i = 0; i < cfg_.diskFarm.disks; ++i) {
      posDisks_.push_back(
          std::make_unique<DiskServer>(sim, cfg_.diskFarm.disk, disc));
    }
  }
  ds_.setEvictionListener(
      [this](datastore::EvictedBlob blob) { onBlobEvicted(std::move(blob)); });
  if (cfg_.traceSink != nullptr) {
    tracer_ = cfg_.traceSink.get();
    // Events are stamped with virtual time — the same clock behind every
    // simulated QueryRecord timestamp.
    tracer_->setClock(
        [](void* ctx) { return static_cast<const Simulator*>(ctx)->now(); },
        sim_);
    scheduler_.setTracer(tracer_);
    ds_.setTracer(tracer_);
  }
  // Cost-aware eviction and the spill tier's restore-vs-recompute gate need
  // every blob stamped with its recompute cost in *virtual* seconds. With a
  // sink, its Compute/IoStall spans feed the ledger; without one, a private
  // disabled tracer on the virtual clock does the accounting.
  const bool needCost = datastore::parseEvictionPolicy(cfg_.dsEviction) ==
                            datastore::EvictionPolicy::CostAware ||
                        cfg_.spillBytes > 0;
  if (needCost) {
    if (tracer_ == nullptr) {
      ownedTracer_ = std::make_unique<trace::Tracer>();
      ownedTracer_->setEnabled(false);
      ownedTracer_->setClock(
          [](void* ctx) { return static_cast<const Simulator*>(ctx)->now(); },
          sim_);
      tracer_ = ownedTracer_.get();
      scheduler_.setTracer(tracer_);
      ds_.setTracer(tracer_);
    }
    tracer_->setCostAccounting(true);
  }
  if (cfg_.spillBytes > 0) {
    // Always in-memory in the simulator; restores are priced with the same
    // disk model as the farm's devices.
    spill_ = std::make_unique<datastore::SpillTier>(
        cfg_.spillBytes, sem_, /*dir=*/"", cfg_.diskFarm.disk);
    if (tracer_ != nullptr) spill_->setTracer(tracer_);
  }
}

sched::NodeId SimServer::submit(query::PredicatePtr pred, int client) {
  MQS_CHECK(pred != nullptr);
  MQS_CHECK_MSG(model_ != nullptr, "SimServer needs an application model");
  metrics::QueryRecord rec;
  rec.client = client;
  rec.predicate = pred->describe();
  rec.arrivalTime = sim_->now();
  rec.inputBytes = sem_->qinputsize(*pred);
  rec.outputBytes = sem_->qoutsize(*pred);

  const sched::NodeId node = scheduler_.submit(std::move(pred));
  rec.queryId = node;
  pending_.emplace(node, std::move(rec));
  completion_.emplace(node, std::make_unique<Trigger>(*sim_));
  pump();
  return node;
}

Trigger& SimServer::completionOf(sched::NodeId node) {
  auto it = completion_.find(node);
  MQS_CHECK_MSG(it != completion_.end(), "completionOf unknown query");
  return *it->second;
}

Task<void> SimServer::executeAndWait(query::PredicatePtr pred, int client) {
  const sched::NodeId node = submit(std::move(pred), client);
  co_await completionOf(node).wait();
}

void SimServer::pump() {
  while (active_ < cfg_.threads) {
    auto node = scheduler_.dequeue();
    if (!node) break;
    auto it = pending_.find(*node);
    MQS_DCHECK(it != pending_.end());
    metrics::QueryRecord rec = std::move(it->second);
    pending_.erase(it);
    rec.startTime = sim_->now();
    ++active_;
    sim_->spawn(queryTask(*node, std::move(rec)));
  }
}

Task<void> SimServer::cpuRun(double seconds) {
  if (seconds <= 0.0) co_return;
  co_await cpus_.acquire();
  co_await sim_->delay(seconds);
  cpus_.release();
}

Task<void> SimServer::fetchChunk(storage::PageKey key, std::size_t bytes,
                                 metrics::QueryRecord* rec) {
  if (psCore_.touch(key)) {
    if (tracer_ != nullptr) tracer_->counter(trace::CounterKind::PsHit);
    co_return;  // page space hit
  }
  if (tracer_ != nullptr) tracer_->counter(trace::CounterKind::PsMiss);
  if (auto it = inflight_.find(key); it != inflight_.end()) {
    ++pageMerges_;
    co_await it->second->wait();
    co_return;
  }
  auto trig = std::make_unique<Trigger>(*sim_);
  Trigger* t = trig.get();
  inflight_.emplace(key, std::move(trig));
  // Host-side request path (doesn't occupy the device).
  co_await sim_->delay(cfg_.hostOverheadPerPageSec);
  const int disk = cfg_.diskFarm.diskFor(key.page);
  if (!posDisks_.empty()) {
    // Positional head model: datasets laid out back-to-back on the device.
    const std::uint64_t pos =
        (static_cast<std::uint64_t>(key.dataset) << 32) | key.page;
    co_await posDisks_[static_cast<std::size_t>(disk)]->service(pos, bytes);
  } else {
    // Seek amortization degrades with the number of interleaved streams.
    const int streams = (std::max(1, ioStreams_) + cfg_.diskFarm.disks - 1) /
                        cfg_.diskFarm.disks;
    co_await disks_[static_cast<std::size_t>(disk)]->service(
        cfg_.diskFarm.disk.serviceTime(bytes, streams));
  }
  bytesRead_ += bytes;
  if (rec != nullptr) rec->bytesFromDisk += bytes;
  for (const auto& victim : psCore_.insert(key, bytes)) {
    (void)victim;
    if (tracer_ != nullptr) tracer_->counter(trace::CounterKind::PsEvict);
  }
  t->fire();
  inflight_.erase(key);
}

Task<void> SimServer::computeRaw(query::PredicatePtr pred,
                                 metrics::QueryRecord* rec) {
  // Compute from raw data: fetch each chunk through the page space, then
  // process it (demand comes from the application's cost adapter).
  const std::vector<ChunkDemand> demand = model_->demandFor(*pred);
  ++ioStreams_;
  for (std::size_t i = 0; i < demand.size(); ++i) {
    // Readahead: issue upcoming chunks asynchronously so the device queue
    // sees the query's future (prefetches never block this query).
    for (std::size_t j = i + 1;
         j < demand.size() &&
         j <= i + static_cast<std::size_t>(std::max(0, cfg_.prefetchPages));
         ++j) {
      if (!psCore_.contains(demand[j].page) &&
          !inflight_.contains(demand[j].page)) {
        if (tracer_ != nullptr) {
          tracer_->counter(trace::CounterKind::PrefetchIssued);
        }
        sim_->spawn(fetchChunk(demand[j].page, demand[j].pageBytes, nullptr));
      }
    }
    // A chunk that is not resident stalls this query on device I/O (or on
    // a merged in-flight read); bracket the await so the stall is both a
    // span and the record's ioStallTime — from the same virtual clock, so
    // a query's IO_STALL span total equals its ioStallTime exactly.
    const bool resident = psCore_.contains(demand[i].page);
    const Time stall0 = sim_->now();
    if (!resident && rec != nullptr && tracer_ != nullptr) {
      tracer_->beginSpan(rec->queryId, trace::SpanKind::IoStall);
    }
    co_await fetchChunk(demand[i].page, demand[i].pageBytes, rec);
    if (!resident && rec != nullptr) {
      if (tracer_ != nullptr) {
        tracer_->endSpan(rec->queryId, trace::SpanKind::IoStall);
      }
      rec->ioStallTime += sim_->now() - stall0;
    }
    co_await cpuRun(demand[i].cpuSeconds);
  }
  --ioStreams_;
}

pagespace::ScanRegistry::ScanGuard SimServer::beginScanIfFolding(
    const query::Predicate& pred, const metrics::QueryRecord& rec,
    int depth) {
  if (!cfg_.foldScans || !cfg_.allowWaitOnExecuting || depth != 0) return {};
  pagespace::ScanRegistry::ScanGuard guard =
      scans_.beginScan(pred, rec.queryId, scheduler_.execSeq(rec.queryId));
  scanTrigger_.emplace(guard.id(), std::make_unique<Trigger>(*sim_));
  return guard;
}

void SimServer::publishScan(pagespace::ScanRegistry::ScanGuard& scan) {
  if (!scan.active()) return;
  const query::ScanId id = scan.id();
  // The simulator carries no result bytes: publish an empty payload (the
  // registry state machine is what subscribers consult) and fire the
  // Trigger — waiters resume as events at the current virtual time, after
  // which the Trigger is dead weight and can be retired.
  const int subscribers = scan.publish({});
  if (subscribers > 0 && tracer_ != nullptr) {
    tracer_->counter(trace::CounterKind::FoldSubscribers, subscribers);
  }
  if (const auto it = scanTrigger_.find(id); it != scanTrigger_.end()) {
    it->second->fire();
    scanTrigger_.erase(it);
  }
}

Task<void> SimServer::executePlan(query::ReusePlan plan,
                                  query::PredicatePtr pred, int depth,
                                  metrics::QueryRecord* rec) {
  const auto d8 = static_cast<std::uint8_t>(depth);
  // Raw fast path: a plan without projection steps is a single
  // ComputeRemainder step covering `pred` (mirrors the threaded server's
  // direct-execute path — in particular it does not cache sub-results).
  if (!plan.hasReuse()) {
    trace::SpanScope compute(tracer_, rec->queryId, trace::SpanKind::Compute,
                             d8);
    pagespace::ScanRegistry::ScanGuard scan =
        beginScanIfFolding(*pred, *rec, depth);
    co_await computeRaw(std::move(pred), rec);
    publishScan(scan);
    co_return;
  }

  for (query::PlanStep& step : plan.steps) {
    switch (step.kind) {
      case query::PlanStep::Kind::ProjectFromCached: {
        trace::SpanScope project(tracer_, rec->queryId,
                                 trace::SpanKind::Project, d8,
                                 step.bytesCovered,
                                 trace::kFlagCachedSource);
        // The planner runs unpinned here (single-threaded virtual time),
        // so re-check residency: with threads > 1 another query may have
        // evicted the blob while an earlier step waited or ran CPU.
        if (ds_.contains(step.blob)) {
          co_await cpuRun(static_cast<double>(step.projectionBytes) *
                          cfg_.cpuPerOutByteProject);
          rec->bytesReused += step.bytesCovered;
        } else {
          for (query::PredicatePtr& cp : step.coveredParts) {
            co_await computePart(std::move(cp), depth + 1, rec);
          }
        }
        break;
      }
      case query::PlanStep::Kind::WaitAndProjectFromExecuting: {
        // The PROJECT span covers the whole step — including the fallback
        // compute below — so a query's depth-0 PROJECT count always equals
        // its recorded reuseSources, even when a source vanished.
        trace::SpanScope project(tracer_, rec->queryId,
                                 trace::SpanKind::Project, d8,
                                 step.bytesCovered,
                                 trace::kFlagExecutingSource);
        // Block on the still-executing reuse source. The slot stays
        // occupied — exactly the CPU waste FF/CNBF try to avoid (§4).
        rec->reusedExecuting = true;
        const Time t0 = sim_->now();
        {
          trace::SpanScope wait(tracer_, rec->queryId,
                                trace::SpanKind::WaitSource, d8);
          co_await completionOf(step.node).wait();
        }
        rec->blockedTime += sim_->now() - t0;
        const auto it = nodeBlob_.find(step.node);
        if (it != nodeBlob_.end() && ds_.contains(it->second)) {
          ds_.noteReuse(it->second, step.overlap);
          co_await cpuRun(static_cast<double>(step.projectionBytes) *
                          cfg_.cpuPerOutByteProject);
          rec->bytesReused += step.bytesCovered;
        } else {
          // The source failed, produced an uncacheable result, or was
          // evicted before we could read it: compute this step's share
          // from raw data instead (its coveredParts tile it).
          for (query::PredicatePtr& cp : step.coveredParts) {
            co_await computePart(std::move(cp), depth + 1, rec);
          }
        }
        break;
      }
      case query::PlanStep::Kind::RestoreFromSpill: {
        // The PROJECT span covers restore + projection (and the fallback
        // compute if the entry vanished). The modeled disk read is charged
        // as plain virtual delay — not an IO_STALL span — so a query's
        // IO_STALL span total still equals its recorded ioStallTime (which
        // counts only Page Space stalls, same as the threaded server).
        trace::SpanScope project(tracer_, rec->queryId,
                                 trace::SpanKind::Project, d8,
                                 step.bytesCovered, trace::kFlagSpillSource);
        std::optional<datastore::EvictedBlob> restoredBlob =
            spill_ != nullptr ? spill_->restore(step.spillId) : std::nullopt;
        if (restoredBlob) {
          co_await sim_->delay(step.restoreCostSec);
          // Re-insert with the blob's *original* traced cost; passing it
          // explicitly keeps the restoring query's own ledger untouched.
          const std::uint64_t lb = restoredBlob->logicalBytes;
          const double rc = restoredBlob->recomputeCostSec;
          const std::optional<datastore::BlobId> nb =
              ds_.insert(std::move(restoredBlob->predicate), {}, lb, rc);
          if (const auto nIt = spillNode_.find(step.spillId);
              nIt != spillNode_.end()) {
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
          co_await cpuRun(static_cast<double>(step.projectionBytes) *
                          cfg_.cpuPerOutByteProject);
          rec->bytesReused += step.bytesCovered;
        } else {
          // Dropped (or restored by a racing query) between planning and
          // execution: compute this step's share from raw data instead.
          for (query::PredicatePtr& cp : step.coveredParts) {
            co_await computePart(std::move(cp), depth + 1, rec);
          }
        }
        break;
      }
      case query::PlanStep::Kind::FoldIntoScan: {
        // The PROJECT span covers the whole step — including the fallback
        // below — so depth-0 PROJECT count always equals reuseSources even
        // when the scan settled before this step ran.
        trace::SpanScope project(tracer_, rec->queryId,
                                 trace::SpanKind::Project, d8,
                                 step.bytesCovered, trace::kFlagFoldSource);
        pagespace::ScanRegistry::ScanPtr scan = scans_.subscribe(step.scanId);
        bool projected = false;
        if (scan != nullptr) {
          // The fold is real: annotate the graph and suspend on the scan's
          // Trigger (the owner is strictly older by execution sequence, so
          // the wait graph stays acyclic). The slot stays occupied, same
          // as a wait on an executing source.
          scheduler_.noteFold(rec->queryId, step.node);
          if (tracer_ != nullptr) {
            tracer_->counter(trace::CounterKind::FoldHit);
          }
          rec->reusedExecuting = true;
          const Time t0 = sim_->now();
          {
            trace::SpanScope wait(tracer_, rec->queryId,
                                  trace::SpanKind::WaitSource, d8);
            if (const auto tIt = scanTrigger_.find(scan->id);
                tIt != scanTrigger_.end()) {
              co_await tIt->second->wait();
            }
          }
          rec->blockedTime += sim_->now() - t0;
          if (scan->state == pagespace::ScanRegistry::ScanState::Published) {
            // Shared payload: charge projection CPU only — the region's
            // fetches and scan CPU happened once, on the owner.
            co_await cpuRun(static_cast<double>(step.projectionBytes) *
                            cfg_.cpuPerOutByteProject);
            rec->bytesReused += step.bytesCovered;
            if (tracer_ != nullptr) {
              tracer_->counter(trace::CounterKind::ScanBytesShared,
                               static_cast<double>(step.bytesCovered));
            }
            projected = true;
          }
        }
        if (!projected) {
          // The scan settled before we joined, or its owner failed: replan
          // this step's share independently from raw data (the §14 failure
          // contract — a subscriber never hangs).
          for (query::PredicatePtr& cp : step.coveredParts) {
            co_await computePart(std::move(cp), depth + 1, rec);
          }
        }
        break;
      }
      case query::PlanStep::Kind::ComputeRemainder: {
        trace::SpanScope compute(tracer_, rec->queryId,
                                 trace::SpanKind::Compute, d8,
                                 step.bytesCovered);
        pagespace::ScanRegistry::ScanGuard scan =
            beginScanIfFolding(*step.pred, *rec, depth);
        co_await computePart(std::move(step.pred), depth + 1, rec);
        publishScan(scan);
        break;
      }
    }
  }
}

Task<void> SimServer::computePart(query::PredicatePtr part, int depth,
                                  metrics::QueryRecord* rec) {
  // Nested reuse: sub-queries are "processed just like any other query"
  // (§2), so they get their own plan — the planner enforces the depth
  // limit and never waits on executing queries for nested parts.
  const std::uint64_t partOutBytes = sem_->qoutsize(*part);
  query::ReusePlan plan = [&] {
    trace::SpanScope planSpan(tracer_, rec->queryId, trace::SpanKind::Plan,
                              static_cast<std::uint8_t>(depth));
    return planner_.plan(*part, ds_, nullptr, sched::kInvalidNode, depth);
  }();
  co_await executePlan(std::move(plan), part->clone(), depth, rec);
  if (cfg_.dataStoreEnabled && cfg_.cacheSubqueryResults) {
    (void)insertWithCost(std::move(part), partOutBytes, rec->queryId);
  }
}

std::optional<datastore::BlobId> SimServer::insertWithCost(
    query::PredicatePtr pred, std::uint64_t outBytes, std::uint64_t queryId) {
  // Coroutines interleave queries on one OS thread, so the thread-query
  // ledger binding lives only across this synchronous insert (no awaits):
  // the insert takes the query's accrued cost incrementally, and the scope
  // dtor drops whatever remains so fully-reused queries leak no entries.
  trace::Tracer::QueryScope scope(tracer_, queryId);
  return ds_.insert(std::move(pred), {}, outBytes);
}

Task<void> SimServer::queryTask(sched::NodeId node, metrics::QueryRecord rec) {
  const query::PredicatePtr predPtr = scheduler_.predicateOf(node);
  // A dequeued node stays in the graph until this query settles it.
  MQS_CHECK_MSG(predPtr != nullptr, "running query has no graph node");
  const query::Predicate& pred = *predPtr;

  // The PLAN span covers the modeled planning overhead plus the real
  // planner call (both are "planning" in the lifecycle vocabulary).
  trace::SpanScope planSpan(tracer_, node, trace::SpanKind::Plan);
  co_await cpuRun(cfg_.planningOverheadSec);

  // All source selection happens in the shared planner; record the plan's
  // accounting, then execute its steps with modeled costs. Fold candidates
  // are snapshotted before planning — in virtual time the owner's scan is
  // still Running at the plan instant, so every emitted FoldIntoScan step
  // deterministically finds its scan at execution.
  std::vector<query::FoldCandidate> folds;
  if (cfg_.foldScans && cfg_.allowWaitOnExecuting) {
    folds = scans_.candidatesFor(
        scheduler_.execSeq(node),
        static_cast<std::size_t>(std::max(8, 2 * cfg_.maxReuseSources)));
  }
  query::ReusePlan plan = planner_.plan(pred, ds_, &scheduler_, node,
                                        /*depth=*/0, spill_.get(), folds);
  rec.overlapUsed = plan.primaryOverlap;
  rec.reuseSources = plan.reuseSources();
  rec.planBytesCovered = plan.planBytesCovered;
  rec.planShape = plan.shape();
  for (const query::PlanStep& step : plan.steps) {
    if (step.kind != query::PlanStep::Kind::ComputeRemainder) {
      rec.bytesReusedPerSource.push_back(step.bytesCovered);
    }
  }
  planSpan.close();
  co_await executePlan(std::move(plan), pred.clone(), /*depth=*/0, &rec);

  // The terminal DELIVER span covers result caching, the graph-node
  // transition, and completion delivery (same vocabulary as the threaded
  // server; the simulator has no failure path, so it never carries the
  // failed flag).
  trace::SpanScope deliver(tracer_, node, trace::SpanKind::Deliver);

  // Cache the result (skip exact duplicates of an existing blob). The
  // insert consumes the query's accrued recompute-cost ledger; a query
  // that caches nothing has its ledger dropped by the same scope.
  std::optional<datastore::BlobId> blob;
  if (cfg_.dataStoreEnabled && rec.overlapUsed < 1.0) {
    blob = insertWithCost(pred.clone(), sem_->qoutsize(pred), node);
  } else {
    trace::Tracer::QueryScope scope(tracer_, node);
  }
  finishNode(node, blob);

  // Feedback for self-tuning policies: achieved reuse, plus the current
  // disk-queue pressure normalized by the thread pool size.
  scheduler_.reportQueryOutcome(rec.overlapUsed);
  std::size_t queued = 0;
  for (const auto& d : disks_) queued += d->queueLength();
  for (const auto& d : posDisks_) queued += d->queueLength();
  scheduler_.reportResourceSignal(
      std::min(1.0, static_cast<double>(queued) /
                        static_cast<double>(cfg_.threads)));

  deliver.close();
  rec.finishTime = sim_->now();
  collector_.add(rec);
  --active_;
  completionOf(node).fire();
  pump();
}

void SimServer::finishNode(sched::NodeId node,
                           std::optional<datastore::BlobId> blob) {
  if (blob) {
    nodeBlob_[node] = *blob;
    blobNode_[*blob] = node;
  }
  scheduler_.completed(node);
  if (!blob) {
    // Nothing cached for this node: it cannot serve as a reuse source, so
    // it leaves the graph immediately (as if swapped out).
    scheduler_.retired(node);
    return;
  }
  if (evictedWhileExecuting_.erase(node) > 0) {
    // Our blob was reclaimed before we even finished (tiny Data Store).
    nodeBlob_.erase(node);
    blobNode_.erase(*blob);
    scheduler_.retired(node);
  }
}

void SimServer::onBlobEvicted(datastore::EvictedBlob blob) {
  sched::NodeId node = sched::kInvalidNode;
  if (const auto it = blobNode_.find(blob.id); it != blobNode_.end()) {
    node = it->second;
    blobNode_.erase(it);
    nodeBlob_.erase(node);
    if (scheduler_.stateOf(node) != sched::QueryState::Cached) {
      // Evicted before its own query finished (tiny Data Store): the
      // finisher retires the node; nothing worth spilling yet.
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
  for (const datastore::SpillId d : droppedIds) retireSpilled(d);
}

void SimServer::retireSpilled(datastore::SpillId sid) {
  const auto it = spillNode_.find(sid);
  if (it == spillNode_.end()) return;  // sub-query entry, no graph node
  const sched::NodeId node = it->second;
  spillNode_.erase(it);
  nodeSpill_.erase(node);
  scheduler_.retired(node);
}

SimServer::IoStats SimServer::ioStats() const {
  IoStats s;
  const auto& c = psCore_.stats();
  s.pageHits = c.hits;
  s.pageMerges = pageMerges_;
  s.pageReads = c.misses - pageMerges_;
  s.bytesRead = bytesRead_;
  for (const auto& d : disks_) s.diskBusyIntegral += d->busyIntegral();
  for (const auto& d : posDisks_) {
    s.diskBusyIntegral += d->busyIntegral();
    s.sequentialReads += d->sequentialServed();
  }
  return s;
}

}  // namespace mqs::sim
