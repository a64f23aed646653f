#include "sim/sim_server.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "query/plan_runner.hpp"
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
      scheduler_(semantics, sched::makePolicy(cfg_.policy, cfg_.alpha)),
      ds_(cfg_.dsBytes, semantics,
          datastore::parseEvictionPolicy(cfg_.dsEviction)),
      psCore_(cfg_.psBytes),
      catalog_(scheduler_),
      planner_(semantics,
               query::PlannerConfig{
                   .dataStoreEnabled = cfg_.dataStoreEnabled,
                   .allowWaitOnExecuting = cfg_.allowWaitOnExecuting,
                   .maxReuseSources = cfg_.maxReuseSources,
                   .candidatePoolSize = std::max(8, 2 * cfg_.maxReuseSources),
                   .maxNestedReuseDepth = cfg_.maxNestedReuseDepth,
                   .minMarginalBytes = 1,
                   // Single-threaded virtual time: a blob can only vanish
                   // between planning and its step while an earlier step
                   // waits or runs CPU — handled by holdBlob's residency
                   // re-check, so no pinning needed.
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
  ds_.setEvictionListener([this](datastore::EvictedBlob blob) {
    catalog_.evicted(std::move(blob), spill_.get());
  });
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

Task<SimServer::Output> SimServer::computeRaw(const query::Predicate& pred,
                                              metrics::QueryRecord& rec) {
  // Compute from raw data: fetch each chunk through the page space, then
  // process it (demand comes from the application's cost adapter).
  const std::vector<ChunkDemand> demand = model_->demandFor(pred);
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
    if (!resident && tracer_ != nullptr) {
      tracer_->beginSpan(rec.queryId, trace::SpanKind::IoStall);
    }
    co_await fetchChunk(demand[i].page, demand[i].pageBytes, &rec);
    if (!resident) {
      if (tracer_ != nullptr) {
        tracer_->endSpan(rec.queryId, trace::SpanKind::IoStall);
      }
      rec.ioStallTime += sim_->now() - stall0;
    }
    co_await cpuRun(demand[i].cpuSeconds);
  }
  --ioStreams_;
  co_return Output{};
}

// --- plan-step hooks (query::PlanRunner) -----------------------------------

Task<void> SimServer::awaitScan(const pagespace::ScanRegistry::ScanPtr& scan) {
  // A subscriber joins only a Running scan, and nothing between subscribe
  // and this wait advances virtual time, so the scan has not published
  // yet: publishScan fires this Trigger (the simulator never touches a
  // scan's std::future latch, which would block its one OS thread).
  std::unique_ptr<Trigger>& trigger = scanTrigger_[scan->id];
  if (trigger == nullptr) trigger = std::make_unique<Trigger>(*sim_);
  co_await trigger->wait();
}

int SimServer::publishScan(pagespace::ScanRegistry::ScanGuard& scan,
                           const Output& /*out*/) {
  const query::ScanId id = scan.id();
  // The simulator carries no result bytes: publish an empty payload (the
  // registry state machine is what subscribers consult) and fire the
  // waiters' Trigger; they resume as events at the current virtual time.
  const int subscribers = scan.publish({});
  if (const auto it = scanTrigger_.find(id); it != scanTrigger_.end()) {
    it->second->fire();
    scanTrigger_.erase(it);
  }
  return subscribers;
}

query::PlanContext SimServer::planContext() {
  return query::PlanContext{
      .planner = &planner_,
      .ds = &ds_,
      .spill = spill_.get(),
      .scheduler = &scheduler_,
      .scans = &scans_,
      .tracer = tracer_,
      .foldScans = cfg_.foldScans && cfg_.allowWaitOnExecuting,
      .cacheParts = cfg_.dataStoreEnabled && cfg_.cacheSubqueryResults,
  };
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

  // Planning, every plan step and its modeled costs: the interpreter the
  // threaded server runs too. In virtual time a fold owner's scan is still
  // Running at the plan instant, so every planned FoldIntoScan step finds
  // its scan at execution.
  query::PlanRunner<SimServer> runner(*this, planContext());
  (void)co_await runner.runQuery(node, pred, rec);

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
  catalog_.finish(node, blob);

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
