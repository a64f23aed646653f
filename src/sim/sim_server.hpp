// Simulated query server: the full middleware lifecycle of §2/§4 executed
// in virtual time on a modeled SMP.
//
// Everything that decides *what* happens is the real code — the scheduling
// graph, ranking policies, Data Store residency, page-cache residency, and
// reuse planning and plan-step execution (the shared query::Planner and
// query::PlanRunner the threaded server runs too). Only *how long* things
// take is modeled: CPU bursts occupy one of `cpus` processors, page misses
// queue FCFS at one of the modeled disks, and a query blocked on a
// still-executing dependency holds its thread-pool slot without consuming
// CPU (the waste FF/CNBF try to avoid). The plan-step hooks charge modeled
// costs instead of moving bytes; no source-selection or step logic lives
// in this file.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "datastore/data_store.hpp"
#include "datastore/spill_tier.hpp"
#include "metrics/metrics.hpp"
#include "pagespace/page_cache_core.hpp"
#include "pagespace/scan_registry.hpp"
#include "query/plan_runner.hpp"
#include "query/planner.hpp"
#include "query/result_catalog.hpp"
#include "sched/scheduler.hpp"
#include "sim/app_model.hpp"
#include "sim/disk_server.hpp"
#include "sim/primitives.hpp"
#include "sim/simulator.hpp"
#include "storage/disk_model.hpp"
#include "trace/trace.hpp"
#include "vm/vm_semantics.hpp"

namespace mqs::sim {

struct SimConfig {
  /// Query-server thread pool size = max concurrently executing queries.
  int threads = 4;
  /// Processors of the modeled SMP (the paper's machine has 24).
  int cpus = 24;
  storage::DiskFarmModel diskFarm{};

  std::uint64_t dsBytes = 64ULL << 20;  ///< Data Store budget
  std::uint64_t psBytes = 32ULL << 20;  ///< Page Space budget
  /// Data Store eviction ranker: LRU | LFU | LARGEST | COST. COST scores
  /// victims by traced recompute benefit per byte (DESIGN.md §13); the
  /// simulator then runs a private cost-accounting tracer (virtual-time
  /// ledger) even with tracing off.
  std::string dsEviction = "LRU";
  /// Spill-tier byte budget (0 = no tier, evictions stay terminal). The
  /// simulated tier is always in-memory metadata; restores charge
  /// diskFarm.disk's modeled service time as virtual delay.
  std::uint64_t spillBytes = 0;

  /// Disk-queue model: "kstream" charges seeks with the analytic k-stream
  /// approximation; "fifo"/"elevator" run a positional head model with the
  /// respective queue discipline (see sim/disk_server.hpp).
  std::string ioModel = "kstream";

  /// Pages of readahead issued per demand-fetch (0 = off). Prefetches the
  /// query's own upcoming chunks asynchronously, deepening device queues —
  /// with the elevator discipline this rebuilds sequential runs that
  /// interleaved synchronous streams destroy.
  int prefetchPages = 0;

  /// CPU seconds per input byte scanned. Defaults give the paper's CPU:I/O
  /// ratios against the default disk model: ~0.05 for subsampling,
  /// ~1:1 for averaging (§5).
  double cpuPerByteSubsample = 2.4e-9;
  double cpuPerByteAverage = 4.6e-8;
  /// CPU seconds per output byte produced by project().
  double cpuPerOutByteProject = 1.0e-8;
  /// Host-side cost per page request (syscall/controller path); charged to
  /// the issuing query thread, not the device.
  double hostOverheadPerPageSec = 0.0012;
  /// Fixed planning cost per query (index lookup, graph bookkeeping).
  double planningOverheadSec = 0.0005;

  bool dataStoreEnabled = true;      ///< E1 ablation switch
  bool cacheSubqueryResults = true;  ///< sub-query results become blobs too
  int maxNestedReuseDepth = 2;       ///< DS reuse inside sub-queries
  bool allowWaitOnExecuting = true;  ///< may block on an executing source
  /// Dynamic query folding (DESIGN.md §14): queries planned while another
  /// query's depth-0 scan is still running may fold into it (FoldIntoScan)
  /// and charge only projection CPU instead of re-fetching and re-scanning
  /// the shared region — the modeled mirror of the threaded server's
  /// shared-payload multicast. Requires allowWaitOnExecuting.
  bool foldScans = true;
  /// Reuse-plan projection-step budget (query::PlannerConfig); 1 restores
  /// the historic single-best-source behaviour.
  int maxReuseSources = 4;

  std::string policy = "FIFO";
  double alpha = 0.2;  ///< CF / COMBINED weight

  /// Optional query-lifecycle trace sink. The simulator stamps events with
  /// *virtual* time but emits the identical span vocabulary as the threaded
  /// QueryServer (the sim-vs-real trace equivalence test's currency). Null
  /// (the default) disables tracing.
  std::shared_ptr<trace::Tracer> traceSink;
};

class SimServer {
 public:
  /// Generic form: any application, given its semantics + cost model.
  SimServer(Simulator& sim, const query::QuerySemantics* semantics,
            const AppModel* model, SimConfig cfg);

  /// Virtual Microscope convenience: builds the VM cost adapter from the
  /// config's CPU:I/O calibration constants.
  SimServer(Simulator& sim, const vm::VMSemantics* semantics, SimConfig cfg);

  /// Enqueue a query now; returns its scheduler node. Dispatch happens
  /// automatically as thread-pool slots free up.
  sched::NodeId submit(query::PredicatePtr pred, int client = -1);

  /// Completion trigger for a submitted query.
  Trigger& completionOf(sched::NodeId node);

  /// Client convenience: submit and suspend until the result is delivered.
  Task<void> executeAndWait(query::PredicatePtr pred, int client = -1);

  [[nodiscard]] const metrics::Collector& collector() const {
    return collector_;
  }
  [[nodiscard]] const sched::QueryScheduler& scheduler() const {
    return scheduler_;
  }
  [[nodiscard]] const datastore::DataStore& dataStore() const { return ds_; }
  /// The spill tier (null when spillBytes == 0).
  [[nodiscard]] const datastore::SpillTier* spillTier() const {
    return spill_.get();
  }
  [[nodiscard]] const pagespace::PageCacheCore& pageCache() const {
    return psCore_;
  }
  /// Shared-scan registry (fold statistics; DESIGN.md §14).
  [[nodiscard]] const pagespace::ScanRegistry& scanRegistry() const {
    return scans_;
  }

  struct IoStats {
    std::uint64_t pageReads = 0;    ///< device reads issued
    std::uint64_t pageHits = 0;     ///< served from the page space
    std::uint64_t pageMerges = 0;   ///< joined an in-flight read
    std::uint64_t bytesRead = 0;
    double diskBusyIntegral = 0.0;  ///< summed across disks
    std::uint64_t sequentialReads = 0;  ///< positional models only
  };
  [[nodiscard]] IoStats ioStats() const;

  [[nodiscard]] const SimConfig& config() const { return cfg_; }

  /// The attached trace sink (null when tracing is off).
  [[nodiscard]] trace::Tracer* tracer() const { return tracer_; }

 private:
  friend class query::PlanRunner<SimServer>;
  /// The simulator moves no result bytes (query::PlanRunner's Output).
  struct Output {};

  Task<void> queryTask(sched::NodeId node, metrics::QueryRecord rec);
  query::PlanContext planContext();

  // Plan-step hooks (query::PlanRunner): every cost is modeled in virtual
  // time. Projections charge project-CPU, waits suspend on Triggers,
  // restores charge the spill tier's modeled read.
  [[nodiscard]] double now() const { return sim_->now(); }
  void checkDeadline(const metrics::QueryRecord& /*rec*/) const {}
  [[nodiscard]] Trigger::Awaiter awaitExecuting(sched::NodeId node) {
    return completionOf(node).wait();
  }
  Task<void> awaitScan(const pagespace::ScanRegistry::ScanPtr& scan);
  /// Unpinned: a pin would change which blobs later inserts evict.
  [[nodiscard]] std::optional<query::ProjectionSource> holdBlob(
      datastore::BlobId blob) const {
    if (!ds_.contains(blob)) return std::nullopt;
    return query::ProjectionSource{};
  }
  Task<void> project(const query::ProjectionSource& /*src*/,
                     const query::PlanStep& step,
                     const query::Predicate& /*pred*/, Output& /*out*/) {
    return cpuRun(static_cast<double>(step.projectionBytes) *
                  cfg_.cpuPerOutByteProject);
  }
  void place(const query::Predicate& /*part*/, const Output& /*sub*/,
             const query::Predicate& /*pred*/, Output& /*out*/) {}
  [[nodiscard]] Output makeOutput(const query::Predicate& /*pred*/) {
    return {};
  }
  /// Compute `pred` entirely from raw data: fetch + process each chunk of
  /// the application model's demand. No Data Store interaction.
  Task<Output> computeRaw(const query::Predicate& pred,
                          metrics::QueryRecord& rec);
  [[nodiscard]] Simulator::DelayAwaiter payRestore(double seconds) {
    return sim_->delay(seconds);
  }
  Task<void> payPlanning() { return cpuRun(cfg_.planningOverheadSec); }
  void cachePart(const query::Predicate& part, const Output& /*sub*/,
                 const metrics::QueryRecord& rec) {
    (void)insertWithCost(part.clone(), sem_->qoutsize(part), rec.queryId);
  }
  /// Publish the scan (no payload bytes — subscriber savings are modeled
  /// as skipped fetches) and fire + retire its Trigger.
  int publishScan(pagespace::ScanRegistry::ScanGuard& scan,
                  const Output& out);
  [[nodiscard]] std::optional<datastore::BlobId> resultOf(
      sched::NodeId node) const {
    return catalog_.blobOf(node);
  }
  void rebind(datastore::SpillId sid, std::optional<datastore::BlobId> blob) {
    catalog_.restored(sid, blob);
  }

  /// Read-through page fetch; `rec` may be null (prefetch accounting).
  Task<void> fetchChunk(storage::PageKey key, std::size_t bytes,
                        metrics::QueryRecord* rec);
  Task<void> cpuRun(double seconds);
  /// Cache `pred`'s simulated result with the query's accrued virtual-time
  /// recompute cost attributed to the blob (a no-op ledger take when cost
  /// accounting is off).
  std::optional<datastore::BlobId> insertWithCost(query::PredicatePtr pred,
                                                  std::uint64_t outBytes,
                                                  std::uint64_t queryId);
  void pump();

  Simulator* sim_;
  const query::QuerySemantics* sem_;
  std::unique_ptr<AppModel> ownedModel_;  ///< set by the VM convenience ctor
  const AppModel* model_;
  SimConfig cfg_;
  sched::QueryScheduler scheduler_;
  datastore::DataStore ds_;
  std::unique_ptr<datastore::SpillTier> spill_;  ///< null when spillBytes == 0
  pagespace::PageCacheCore psCore_;
  /// Which blob or spill entry holds each finished query's result.
  query::ResultCatalog catalog_;
  query::Planner planner_;
  Semaphore cpus_;
  std::vector<std::unique_ptr<FcfsServer>> disks_;        ///< "kstream"
  std::vector<std::unique_ptr<DiskServer>> posDisks_;     ///< positional
  std::unordered_map<storage::PageKey, std::unique_ptr<Trigger>,
                     storage::PageKeyHash>
      inflight_;
  std::unordered_map<sched::NodeId, std::unique_ptr<Trigger>> completion_;
  /// Shared-scan registry (DESIGN.md §14) and the Triggers subscribers
  /// await, made by the first subscriber and fired and erased at publish.
  pagespace::ScanRegistry scans_;
  std::unordered_map<query::ScanId, std::unique_ptr<Trigger>> scanTrigger_;
  /// Records of submitted-but-not-yet-dispatched queries.
  std::unordered_map<sched::NodeId, metrics::QueryRecord> pending_;
  int active_ = 0;
  /// Queries currently issuing raw-data I/O — the k of the disk model's
  /// k-stream seek approximation.
  int ioStreams_ = 0;
  std::uint64_t pageMerges_ = 0;
  std::uint64_t bytesRead_ = 0;
  trace::Tracer* tracer_ = nullptr;  ///< traceSink or ownedTracer_
  /// Private, *disabled* tracer installed when cost-aware eviction or the
  /// spill tier needs recompute-cost accounting but no trace sink is
  /// attached (same pattern as the threaded server, on the virtual clock).
  std::unique_ptr<trace::Tracer> ownedTracer_;
  metrics::Collector collector_;
};

}  // namespace mqs::sim
