// The multithreaded query server (§2, Figure 1) — real execution.
//
// A fixed-size pool of query threads pulls work from the QueryScheduler.
// Each query: (1) asks the shared query::Planner for a ReusePlan over the
// Data Store and the scheduling graph's EXECUTING set, (2) executes the
// plan through the shared query::PlanRunner — projecting cached blobs,
// blocking on still-executing sources, computing remainder sub-queries
// from raw data through the Page Space Manager, (3) caches its own result,
// (4) settles the query: hands its outcome to the submitter's Completion.
// Source selection lives in the planner and step logic in the runner; this
// file supplies the runner's hooks (real bytes, real waits).
//
// Deadlock avoidance: a query may block on the completion latches of
// EXECUTING queries only if they started earlier (enforced by
// QueryScheduler::executingSources), so wait-for edges always point to
// older executions and the wait graph is acyclic — for any subset of them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/lock_stats.hpp"
#include "common/task.hpp"
#include "common/thread_annotations.hpp"
#include "datastore/data_store.hpp"
#include "datastore/spill_tier.hpp"
#include "metrics/metrics.hpp"
#include "pagespace/page_space_manager.hpp"
#include "query/executor.hpp"
#include "query/plan_runner.hpp"
#include "query/planner.hpp"
#include "query/result_catalog.hpp"
#include "sched/scheduler.hpp"
#include "server/admission.hpp"
#include "trace/trace.hpp"
#include "vm/vm_semantics.hpp"

namespace mqs::server {

/// Terminal failure of one query. Carries the original error's message;
/// delivered through the client future (and, over the wire, as a Failed
/// frame). The server itself keeps running — a failed query never takes
/// down a worker thread or wedges the scheduler.
class QueryFailure : public std::runtime_error {
 public:
  explicit QueryFailure(const std::string& what) : std::runtime_error(what) {}
};

/// The server refused the query at admission (DESIGN.md §11): the bounded
/// admission queue was full or the client was over its fairness quota. The
/// query never entered the scheduler and consumed no compute. Over the
/// wire this becomes a Rejected frame carrying the reason discriminator.
class QueryRejected : public std::runtime_error {
 public:
  QueryRejected(RejectReason reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}
  [[nodiscard]] RejectReason reason() const { return reason_; }

 private:
  RejectReason reason_;
};

/// The query was admitted but dropped at dispatch because its deadline had
/// already passed (or was predicted to pass) before it consumed compute.
/// Derives from QueryFailure so clients that only distinguish "got bytes"
/// from "query died with a deadline message" keep working; overload-aware
/// clients catch the subtype (the wire maps it to a Rejected frame with
/// reason DeadlineShed).
class QueryShed : public QueryFailure {
 public:
  explicit QueryShed(const std::string& what) : QueryFailure(what) {}
};

struct ServerConfig {
  int threads = 4;
  std::uint64_t dsBytes = 64ULL << 20;
  std::uint64_t psBytes = 32ULL << 20;
  /// Executor readahead window in pages (0 = synchronous fetches); the
  /// real-path mirror of the simulator's `prefetchPages`. Consumed by the
  /// drivers when they construct executors.
  int prefetchPages = 4;
  /// Page Space async I/O pool size (0 disables the pool; prefetch hints
  /// become no-ops and batch fetches degrade to serial reads).
  int psIoThreads = 4;
  /// Device-read retry discipline for transient source faults (see
  /// pagespace::RetryPolicy); attempts = 1 disables retries.
  int ioRetryAttempts = 3;
  double ioRetryBackoffSec = 0.0002;
  /// Per-query deadline measured from arrival, in seconds (0 = none).
  /// Checked at dispatch and at blocking points; a query past its deadline
  /// fails with QueryFailure instead of occupying a thread-pool slot.
  double queryDeadlineSec = 0.0;
  // --- overload behavior (DESIGN.md §11) --------------------------------
  /// Bound on the admission queue (queries submitted but not yet
  /// dispatched). 0 = unbounded (the historical behaviour). When full,
  /// submit() rejects with QueryRejected{QueueFull} instead of queueing.
  std::size_t admissionQueueLimit = 0;
  /// Per-client fairness quotas on queued work: max queries a single
  /// client (id >= 0) may have in the admission queue, and max total
  /// predicted output bytes of those queries. 0 = unlimited. Exceeding
  /// either rejects with QueryRejected{ClientQuota}; anonymous submissions
  /// (client < 0) are exempt.
  int maxQueuedPerClient = 0;
  std::uint64_t maxQueuedBytesPerClient = 0;
  /// Reclassify dispatch-time deadline misses as terminal SHED instead of
  /// FAILED: the query is dropped before consuming compute, the record
  /// gets shed=true (failed stays false), and the future resolves with
  /// QueryShed. Off by default — the historical FAILED classification.
  bool shedDeadlineMisses = false;
  /// With shedDeadlineMisses: also shed queries that have not yet missed
  /// their deadline but are predicted to — elapsed + (EWMA observed
  /// seconds-per-output-byte × outputBytes) past the deadline. Saves the
  /// compute an observed-only policy would waste on doomed queries.
  bool predictiveShedding = false;
  /// Data Store eviction ranker: LRU | LFU | LARGEST | COST. COST scores
  /// victims by traced recompute benefit per byte (DESIGN.md §13); the
  /// server then runs a private cost-accounting tracer even with tracing
  /// off.
  std::string dsEviction = "LRU";
  /// Spill-tier byte budget (0 = no tier, evictions stay terminal). With a
  /// tier, evicted blobs demote to it instead of vanishing, the scheduling
  /// graph retains their nodes as SWAPPED_OUT, and the planner may restore
  /// them (RestoreFromSpill) when that beats recomputing.
  std::uint64_t spillBytes = 0;
  /// Directory for spilled payload files. Empty = keep payloads in memory
  /// (still bounded by spillBytes); set = persist them via a background
  /// writer so demotion never blocks the eviction path.
  std::string spillDir;
  std::string policy = "FIFO";
  double alpha = 0.2;
  bool dataStoreEnabled = true;
  bool cacheSubqueryResults = true;
  int maxNestedReuseDepth = 2;
  bool allowWaitOnExecuting = true;
  /// Dynamic query folding (DESIGN.md §14): a query about to compute a
  /// region from raw data registers the scan with the Page Space Manager's
  /// ScanRegistry; queries planned while it is still running may fold into
  /// it (FoldIntoScan) and project from the published payload instead of
  /// scanning and decoding the same pages again. Fold waits obey the same
  /// older-execution rule as waits on executing sources, so the wait graph
  /// stays acyclic. Requires allowWaitOnExecuting.
  bool foldScans = true;
  /// Reuse-plan projection-step budget (query::PlannerConfig); 1 restores
  /// the historic single-best-source behaviour.
  int maxReuseSources = 4;
  /// Optional query-lifecycle trace sink. When set, the server installs its
  /// experiment clock on the tracer and every component on the query path
  /// (scheduler, data store, page space, worker threads) emits span and
  /// counter events into it; drain with trace::Tracer::drain(). When null
  /// (the default), tracing costs one pointer test per site.
  std::shared_ptr<trace::Tracer> traceSink;
};

struct QueryResult {
  std::vector<std::byte> bytes;
  metrics::QueryRecord record;
};

/// The terminal fate of one submitted query, as a value: the result, or
/// why there is none. Every status but Completed maps to the exception the
/// future-returning submit() delivers (see error()).
struct QueryOutcome {
  enum class Status : std::uint8_t {
    Completed,  ///< `result` holds the bytes and the record
    Failed,     ///< terminal FAILED (QueryFailure)
    Shed,       ///< dropped at dispatch past its deadline (QueryShed)
    Rejected,   ///< refused at admission (QueryRejected, `rejectReason`)
    Error,      ///< never accepted: the server is shutting down
  };
  Status status = Status::Completed;
  RejectReason rejectReason = RejectReason::QueueFull;  ///< Rejected only
  std::string message;  ///< every status but Completed
  QueryResult result;   ///< Completed only

  /// An outcome without a result (any status but Completed).
  static QueryOutcome noResult(Status status, std::string message,
                               RejectReason reason = RejectReason::QueueFull);

  /// The exception this outcome stands for; null for Completed.
  [[nodiscard]] std::exception_ptr error() const;
};

/// Receives one query's outcome. The server runs it exactly once per
/// submitted query, on the thread that settles the query — a worker, or
/// the submitting thread when admission refuses the query inline — and
/// with no server lock held, so it may submit again. It must not throw.
using Completion = std::function<void(QueryOutcome)>;

class QueryServer {
 public:
  QueryServer(const query::QuerySemantics* semantics,
              const query::QueryExecutor* executor, ServerConfig cfg);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Attach raw storage for a dataset (before submitting queries on it).
  void attach(storage::DatasetId dataset, const storage::DataSource* source);

  /// Enqueue a query; `done` receives its outcome (see Completion). A
  /// query refused at admission, or submitted during shutdown, is settled
  /// before this returns.
  void submit(query::PredicatePtr pred, int client, Completion done)
      EXCLUDES(mu_);

  /// Enqueue a query; the future resolves when the query settles and
  /// throws the exception QueryOutcome::error() names when it failed.
  std::future<QueryResult> submit(query::PredicatePtr pred, int client = -1)
      EXCLUDES(mu_);

  /// Blocking convenience (interactive clients).
  QueryResult execute(query::PredicatePtr pred, int client = -1);

  /// Stop accepting queries, finish everything queued, join workers.
  void shutdown() EXCLUDES(mu_);

  [[nodiscard]] const metrics::Collector& collector() const {
    return collector_;
  }
  /// Admission/shedding counters (lock-free snapshot; DESIGN.md §11).
  [[nodiscard]] const AdmissionStats& admission() const { return admission_; }
  [[nodiscard]] const sched::QueryScheduler& scheduler() const {
    return scheduler_;
  }
  [[nodiscard]] const datastore::DataStore& dataStore() const { return ds_; }
  /// The spill tier (null when spillBytes == 0).
  [[nodiscard]] const datastore::SpillTier* spillTier() const {
    return spill_.get();
  }
  [[nodiscard]] pagespace::PageSpaceManager& pageSpace() { return ps_; }
  [[nodiscard]] const ServerConfig& config() const { return cfg_; }

  /// Seconds since server start (the experiment clock).
  [[nodiscard]] double nowSeconds() const;

  /// The attached trace sink (null when tracing is off).
  [[nodiscard]] trace::Tracer* tracer() const { return tracer_; }

 private:
  struct PendingQuery {
    Completion done;
    metrics::QueryRecord record;
  };
  struct DoneLatch {
    std::promise<void> promise;
    std::shared_future<void> future;
    DoneLatch() : future(promise.get_future().share()) {}
  };

  void workerLoop() EXCLUDES(mu_);
  void runQuery(sched::NodeId node, PendingQuery pending) EXCLUDES(mu_);
  /// The admission decision for a new query: its refusal (shutting down,
  /// queue full, over quota) with the matching counters bumped, or nullopt
  /// when it may be admitted.
  std::optional<QueryOutcome> refuseLocked(const metrics::QueryRecord& rec)
      REQUIRES(mu_);
  /// The one point where a query's fate reaches its submitter: every
  /// outcome, from an admission refusal to a worker's result, goes through
  /// here. Consumes `done`, so it runs once; callers hold no server lock.
  static void settle(Completion done, QueryOutcome outcome);
  std::optional<datastore::BlobId> cacheResult(const query::Predicate& pred,
                                               std::span<const std::byte> out);
  query::PlanContext planContext();

  // Plan-step hooks (query::PlanRunner): each completes inline on the
  // worker thread, blocking on latches and doing real I/O and projections.
  friend class query::PlanRunner<QueryServer>;
  using Output = std::vector<std::byte>;
  [[nodiscard]] double now() const { return nowSeconds(); }
  std::suspend_never awaitExecuting(sched::NodeId node) EXCLUDES(mu_);
  std::suspend_never awaitScan(const pagespace::ScanRegistry::ScanPtr& scan) {
    scan->done.wait();
    return {};
  }
  /// Pin a resident blob for projection (nullopt when it is gone).
  std::optional<query::ProjectionSource> holdBlob(datastore::BlobId blob);
  std::suspend_never project(const query::ProjectionSource& src,
                             const query::PlanStep& step,
                             const query::Predicate& pred, Output& out) {
    exec_->project(*step.sourcePred, src.bytes, pred, out);
    return {};
  }
  void place(const query::Predicate& part, const Output& sub,
             const query::Predicate& pred, Output& out) {
    exec_->project(part, sub, pred, out);
  }
  Output makeOutput(const query::Predicate& pred) {
    return Output(sem_->qoutsize(pred));
  }
  Ready<Output> computeRaw(const query::Predicate& pred,
                           metrics::QueryRecord& /*rec*/) {
    return {exec_->execute(pred, ps_)};
  }
  /// SpillTier::restore already read the payload back.
  std::suspend_never payRestore(double /*seconds*/) { return {}; }
  std::suspend_never payPlanning() { return {}; }
  void cachePart(const query::Predicate& part, const Output& sub,
                 const metrics::QueryRecord& /*rec*/) {
    (void)cacheResult(part, sub);
  }
  int publishScan(pagespace::ScanRegistry::ScanGuard& scan, const Output& out) {
    return scan.publish(out);
  }
  std::optional<datastore::BlobId> resultOf(sched::NodeId node) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return catalog_.blobOf(node);
  }
  void rebind(datastore::SpillId sid, std::optional<datastore::BlobId> blob)
      EXCLUDES(mu_) {
    MutexLock lock(mu_);
    catalog_.restored(sid, blob);
  }

  /// Throws QueryFailure if the query's deadline has passed (no-op when
  /// queryDeadlineSec == 0). Called at dispatch and after blocking waits;
  /// deadlines are cooperative — a query already inside the executor is
  /// not preempted.
  void checkDeadline(const metrics::QueryRecord& rec) const;
  /// Dispatch-time shed decision (shedDeadlineMisses): true when the
  /// query's deadline has passed, or (predictiveShedding) is predicted to
  /// pass before it could finish. Fills `reason` with the shed message.
  [[nodiscard]] bool shouldShed(const metrics::QueryRecord& rec,
                                std::string& reason) const;
  /// Feed one completed query's observed seconds-per-output-byte into the
  /// EWMA behind predictive shedding.
  void noteServiceRate(double secPerByte);
  /// Return a dequeued/settled query's quota charge to its client.
  void releaseClientQuota(const metrics::QueryRecord& rec) REQUIRES(mu_);

  const query::QuerySemantics* sem_;   ///< immutable after construction
  const query::QueryExecutor* exec_;   ///< immutable after construction
  ServerConfig cfg_;                   ///< immutable after construction
  sched::QueryScheduler scheduler_;
  datastore::DataStore ds_;
  /// Null when spillBytes == 0; the pointer is set once before the
  /// workers spawn, and the tier synchronizes itself.
  std::unique_ptr<datastore::SpillTier> spill_;
  pagespace::PageSpaceManager ps_;
  query::Planner planner_;  ///< immutable after construction; plan() is const
  metrics::Collector collector_;
  std::chrono::steady_clock::time_point epoch_;  ///< immutable after construction
  /// traceSink or ownedTracer_; set once before the workers spawn.
  trace::Tracer* tracer_ = nullptr;
  /// Private, *disabled* tracer installed when cost-aware eviction or the
  /// spill tier needs per-query recompute-cost accounting but the caller
  /// attached no trace sink: spans on the query path accrue the cost
  /// ledger without buffering any events. Set once before the workers
  /// spawn.
  std::unique_ptr<trace::Tracer> ownedTracer_;
  /// Process-wide lock-contention counters at construction; shutdown emits
  /// the per-run deltas as LOCK_WAIT_* trace counters (lock_stats is
  /// global, so the baseline isolates this server's run).
  lockstats::Counts lockWaitBaseSched_;  ///< immutable after construction
  lockstats::Counts lockWaitBaseDs_;   ///< immutable after construction
  lockstats::Counts lockWaitBasePs_;   ///< immutable after construction

  /// Guards the maps below + dispatch state. Ranked above the scheduler
  /// lock: workers call scheduler_ methods while holding mu_ (dispatch),
  /// so mu_ -> scheduler_.mu_ is the only legal nesting order.
  Mutex mu_{lockorder::Rank::kQueryServer, "QueryServer::mu_"};
  CondVar workAvailable_;
  std::unordered_map<sched::NodeId, PendingQuery> pending_ GUARDED_BY(mu_);
  std::unordered_map<sched::NodeId, std::shared_ptr<DoneLatch>> latches_
      GUARDED_BY(mu_);
  /// Which blob or spill entry holds each finished query's result.
  query::ResultCatalog catalog_ GUARDED_BY(mu_){scheduler_};
  bool stopping_ GUARDED_BY(mu_) = false;

  // --- overload behavior (DESIGN.md §11) --------------------------------
  /// A client's outstanding charge against its fairness quota.
  struct ClientQuota {
    int queued = 0;
    std::uint64_t queuedBytes = 0;
  };
  /// Admission-queue depth (submitted, not yet dispatched). Tracked here —
  /// not via scheduler_.waitingCount() — so the bound check and the
  /// counter bump are atomic under one lock.
  std::size_t queuedCount_ GUARDED_BY(mu_) = 0;
  std::unordered_map<int, ClientQuota> clientQuota_ GUARDED_BY(mu_);
  AdmissionStats admission_;
  /// EWMA of observed seconds-per-output-byte over completed queries
  /// (predictive shedding); 0 until the first completion.
  std::atomic<double> ewmaSecPerByte_{0.0};

  std::vector<std::jthread> workers_;
};

}  // namespace mqs::server
