// Page Space Manager (§2): buffer space for input data in fixed-size pages.
//
// All interactions with data sources go through here. Pages are cached in
// memory under a byte budget; concurrent requests for the same page are
// merged so the device sees a single I/O ("duplicate requests are
// eliminated, to minimize I/O overhead").
//
// Beyond the blocking read-through fetch() the manager runs an asynchronous
// fetch pipeline: prefetch() issues a page read on a dedicated I/O thread
// pool without blocking the query thread, and fetchBatch() overlaps the
// device reads of a whole chunk list. Prefetches, batch fetches, and
// blocking fetches all coalesce onto one device read through the same
// in-flight table. A prefetched page carries a *claim* — it is pinned in
// the cache until a fetch consumes it (or the claim is released) so that
// eviction pressure from concurrent queries cannot throw away pages whose
// read was already paid for.
//
// One lock (rank kPageSpace, DESIGN.md §10) guards the replacement core,
// the resident, in-flight and claim tables, and the source registry.
// Device reads run outside it.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "pagespace/page_cache_core.hpp"
#include "pagespace/scan_registry.hpp"
#include "storage/data_source.hpp"
#include "trace/trace.hpp"

namespace mqs::pagespace {

/// Immutable page payload shared between the cache and readers. A reader
/// holding a PagePtr keeps the bytes alive even if the cache evicts the
/// page meanwhile.
using PagePtr = std::shared_ptr<const std::vector<std::byte>>;

/// Value delivered through the in-flight table. Read failures travel as
/// plain data, not as a shared exception_ptr: every waiter merged onto one
/// device read builds its own exception from `error`/`message`, so no
/// exception object is ever rethrown concurrently on several threads.
struct ReadResult {
  enum class Error : std::uint8_t { None = 0, Transient, Permanent, Other };
  PagePtr page;
  Error error = Error::None;
  std::string message;
};

/// Device-read retry discipline. Only storage::TransientReadError is
/// retried; permanent faults and programming errors propagate immediately.
/// Attempt k (k >= 1) sleeps backoffSec * multiplier^(k-1) before retrying.
struct RetryPolicy {
  int maxAttempts = 3;
  double backoffSec = 0.0002;
  double multiplier = 2.0;
};

class PageSpaceManager {
 public:
  /// Default size of the asynchronous I/O pool. Matches the default
  /// executor readahead window so a full window can be in flight at once.
  static constexpr int kDefaultIoThreads = 4;

  explicit PageSpaceManager(std::uint64_t capacityBytes,
                            int ioThreads = kDefaultIoThreads,
                            RetryPolicy retry = {});
  ~PageSpaceManager();

  PageSpaceManager(const PageSpaceManager&) = delete;
  PageSpaceManager& operator=(const PageSpaceManager&) = delete;

  /// Register the raw storage behind a dataset id. Attach all sources
  /// before serving queries; the registration itself is thread-safe.
  void attach(storage::DatasetId dataset, const storage::DataSource* source)
      EXCLUDES(mu_);

  /// Attach a lifecycle tracer. Residency events emit PS_HIT / PS_MISS /
  /// PS_EVICT / PREFETCH_ISSUED / PREFETCH_WASTED counters, and a query
  /// thread blocked on device I/O emits an IO_STALL span attributed to the
  /// thread's current query (Tracer::QueryScope). While tracing is active
  /// the per-thread stall accounting reuses the span's own begin/end
  /// timestamps, so a query's IO_STALL span total equals its recorded
  /// ioStallTime exactly. The tracer must outlive the manager. Attach
  /// before serving queries (not thread-safe with concurrent fetches).
  void setTracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Read-through fetch. Blocks the calling query thread on a miss while
  /// the page is read from its data source; concurrent fetches of the same
  /// page wait for the one in-flight I/O instead of duplicating it.
  ///
  /// Failure contract: a fetch that throws still consumes one outstanding
  /// prefetch claim on `key` (settled as unserved), exactly like a
  /// successful fetch — callers balance claims the same way on both paths.
  PagePtr fetch(const storage::PageKey& key) EXCLUDES(mu_);

  /// Asynchronous readahead hint: start reading `key` on the I/O pool and
  /// take out a claim on it. Never blocks. Resident and in-flight pages are
  /// claimed without a new device read. Every claim must be balanced by a
  /// later fetch() of the key or a releaseClaim(); claimed pages are pinned
  /// against eviction until then. No-op when the manager was built with
  /// ioThreads == 0 (synchronous mode).
  void prefetch(const storage::PageKey& key) EXCLUDES(mu_);

  /// Drop one outstanding prefetch claim without consuming the page. A
  /// claim released before any fetch used the page counts as wasted
  /// readahead. Safe to call for keys without a claim (no-op).
  void releaseClaim(const storage::PageKey& key) EXCLUDES(mu_);

  /// Blocking batch fetch: issues all misses to the I/O pool so their
  /// device reads overlap, then waits for each page in order. On failure
  /// the source's exception is rethrown and every claim taken by the batch
  /// is released — pages already fetched (and the failing fetch itself)
  /// consumed their claims, the unreached tail is released explicitly; no
  /// in-flight entries or claims leak, and claims held by other queries on
  /// the same keys are never touched.
  std::vector<PagePtr> fetchBatch(std::span<const storage::PageKey> keys);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;        ///< fetches that started a device read
    std::uint64_t merged = 0;        ///< fetches that joined an in-flight read
    std::uint64_t bytesRead = 0;     ///< bytes transferred from sources
    std::uint64_t evictions = 0;
    std::uint64_t prefetchIssued = 0;  ///< prefetches that started a read
    std::uint64_t prefetchHits = 0;    ///< issued reads later consumed
    std::uint64_t prefetchWasted = 0;  ///< issued reads never consumed
    // prefetchHits + prefetchWasted <= prefetchIssued; prefetches that
    // coalesce onto resident pages or in-flight reads count in neither.
    std::uint64_t readRetries = 0;   ///< transient-fault retries performed
    std::uint64_t readFailures = 0;  ///< device reads that failed for good
  };
  /// Lock-free: all counters are relaxed atomics bumped at the event site,
  /// so polling stats never contends with the fetch path.
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const RetryPolicy& retryPolicy() const { return retry_; }

  /// The configured total budget (immutable; no lock).
  [[nodiscard]] std::uint64_t capacityBytes() const { return capacityBytes_; }
  [[nodiscard]] std::uint64_t residentBytes() const EXCLUDES(mu_);
  /// Number of device reads currently in flight (tests / introspection).
  [[nodiscard]] std::size_t inflightCount() const EXCLUDES(mu_);
  /// Number of keys with outstanding prefetch claims.
  [[nodiscard]] std::size_t claimCount() const EXCLUDES(mu_);

  /// Shared-scan registry for dynamic query folding (DESIGN.md §14): the
  /// page-level duplicate-request elimination above generalized to whole
  /// remainder scans. The threaded server registers ComputeRemainder scans
  /// here and later queries fold into them; the registry has its own lock
  /// (rank kScanRegistry) and never touches the page cache state.
  [[nodiscard]] ScanRegistry& scanRegistry() { return scanRegistry_; }

  /// Per-thread I/O accounting for per-query metrics: a query (and its
  /// sub-queries) runs on one query thread, so the server resets the
  /// counters before execution and reads them afterwards. Device bytes are
  /// charged to the thread whose fetch started the read — or, for
  /// prefetched pages, to the first fetch that consumes the claim.
  static void resetThreadCounters();
  [[nodiscard]] static std::uint64_t threadDeviceBytes();
  /// Seconds this thread spent blocked inside fetch()/fetchBatch() waiting
  /// for device I/O since the last resetThreadCounters().
  [[nodiscard]] static double threadStallSeconds();

 private:
  /// Outstanding prefetch claims on one page. While `pinned`, the resident
  /// page cannot be evicted. `creditBytes` carries the device-read size of
  /// a prefetch-issued read to the first consuming fetch (per-query
  /// bytesFromDisk accounting).
  struct Claim {
    int count = 0;
    bool pinned = false;
    bool issued = false;  ///< a prefetch read was started for this claim
    std::uint64_t creditBytes = 0;
  };

  const storage::DataSource* sourceForLocked(storage::DatasetId dataset) const
      REQUIRES(mu_);
  /// Device read + cache insert + promise delivery. Runs on the caller
  /// thread (demand miss) or an I/O pool thread (prefetch). Exceptions are
  /// delivered through the promise; the in-flight entry never leaks.
  void performRead(const storage::PageKey& key,
                   const storage::DataSource* source,
                   std::promise<ReadResult>& promise, bool viaPrefetch)
      EXCLUDES(mu_);
  /// Consume one claim after a fetch of `key`. Returns the device bytes to
  /// credit the calling thread. `served` = the page (or its in-flight
  /// read) was still available; false means the prefetched copy was lost
  /// and had to be re-read.
  std::uint64_t consumeClaimLocked(const storage::PageKey& key, bool served)
      REQUIRES(mu_);
  /// Cache insert + claim pin + credit + in-flight erase (the commit point
  /// of a successful read). A page that cannot fit because everything
  /// resident is pinned stays uncached; the bookkeeping settles either way.
  void finishInsertLocked(const storage::PageKey& key, const PagePtr& page,
                          std::size_t n, bool viaPrefetch) REQUIRES(mu_);

  /// Set once before any worker thread exists (QueryServer's constructor
  /// installs it before spawning workers); the pointee synchronizes itself.
  trace::Tracer* tracer_ = nullptr;

  const std::uint64_t capacityBytes_;  ///< immutable after construction
  RetryPolicy retry_;                  ///< immutable after construction

  mutable Mutex mu_{lockorder::Rank::kPageSpace, "PageSpaceManager::mu_"};
  std::unordered_map<storage::DatasetId, const storage::DataSource*> sources_
      GUARDED_BY(mu_);
  PageCacheCore core_ GUARDED_BY(mu_);
  std::unordered_map<storage::PageKey, PagePtr, storage::PageKeyHash>
      resident_ GUARDED_BY(mu_);
  std::unordered_map<storage::PageKey, std::shared_future<ReadResult>,
                     storage::PageKeyHash>
      inflight_ GUARDED_BY(mu_);
  std::unordered_map<storage::PageKey, Claim, storage::PageKeyHash> claims_
      GUARDED_BY(mu_);

  // Hot counters: relaxed atomics so stats() never takes the cache lock.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> merged_{0};
  std::atomic<std::uint64_t> bytesRead_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> prefetchIssued_{0};
  std::atomic<std::uint64_t> prefetchHits_{0};
  std::atomic<std::uint64_t> prefetchWasted_{0};
  std::atomic<std::uint64_t> readRetries_{0};
  std::atomic<std::uint64_t> readFailures_{0};

  /// Scan-level folding state (own lock; independent of the page cache).
  ScanRegistry scanRegistry_;

  /// Declared last: destroyed first, joining the I/O workers while the
  /// cache state above is still alive for their final bookkeeping.
  std::unique_ptr<ThreadPool> io_;
};

}  // namespace mqs::pagespace
