// Debug-build lock-rank checker: a runtime proof that every thread acquires
// the system's mutexes in one global order, so no interleaving can deadlock.
//
// Every annotated Mutex (common/thread_annotations.hpp) carries a static
// rank from the table below. Each thread keeps a stack of the locks it
// holds; acquiring a ranked lock whose rank is not strictly greater than
// every ranked lock already held — or re-acquiring any held lock — prints
// the held-lock stack plus the offending acquisition and aborts. The hooks
// compile out of release builds (NDEBUG) so the hot paths pay nothing; the
// checker core itself is always compiled so lock_order_test can drive it
// directly in every build type. Define MQS_LOCK_ORDER=1 to force the hooks
// on in an optimized build.
//
// The global ranking (documented in DESIGN.md §9, "Concurrency contracts"):
// a thread may hold at most one lock per row and must acquire rows top to
// bottom. Unranked locks (the default Mutex constructor) are exempt from
// the order check but still reentrancy-checked.
#pragma once

#include <cstddef>
#include <cstdint>

#ifndef MQS_LOCK_ORDER
#ifdef NDEBUG
#define MQS_LOCK_ORDER 0
#else
#define MQS_LOCK_ORDER 1
#endif
#endif

namespace mqs::lockorder {

/// Global lock acquisition order, outermost first. Gaps leave room for new
/// subsystems without renumbering. Rationale for the order actually nested
/// today:
///   QueryServer -> Scheduler      (submit/workerLoop/onBlobEvicted)
///   {Scheduler, DataStore, PageSpace} -> TraceRegistry  (span/counter
///                                  emission under the subsystem lock)
///   anything -> Logging           (MQS_LOG is usable everywhere)
/// Everything else (storage sources, queues, metrics) is a leaf in
/// practice; the distinct ranks keep future nestings honest.
enum class Rank : std::uint16_t {
  kUnranked = 0,        ///< order-exempt; reentrancy still checked
  kNetServer = 10,      ///< net::NetServer::mu_ (connection registry)
  kQueryServer = 20,    ///< server::QueryServer::mu_ (dispatch state)
  kScheduler = 30,      ///< sched::QueryScheduler::mu_ (graph + heap)
  kDataStore = 40,      ///< datastore::DataStore::mu_ (blobs, LRU, budget)
  kSpillTier = 44,      ///< datastore::SpillTier::mu_ (spill metadata + index).
                        ///< Below kDataStore: engines demote under no DS
                        ///< lock, and restore releases the spill lock before
                        ///< re-inserting into the Data Store.
  kPageSpaceShard = 48, ///< pagespace::PageSpaceManager shard locks (cache
                        ///< maps). A thread holds at most ONE shard at a
                        ///< time (the budget-rebalance slow path releases
                        ///< its home shard before reclaiming from another).
  kPageSpace = 50,      ///< pagespace::PageSpaceManager::mu_ (source registry)
  kScanRegistry = 55,   ///< pagespace::ScanRegistry::mu_ (shared-scan table,
                        ///< DESIGN.md §14). A leaf in practice: publish/fail
                        ///< copy out under the lock and fire latches after
                        ///< releasing it, so no subscriber wakes while the
                        ///< registry is held.
  kStorageFaulty = 60,  ///< storage::FaultySource::mu_ (injection state)
  kStorageFile = 65,    ///< storage::FileSource::ioMutex_ (FILE* serialization)
  kBlockingQueue = 70,  ///< BlockingQueue<T>::mu_ (thread-pool / net queues)
  kLoadgen = 75,        ///< loadgen per-connection state (outstanding map)
  kMetrics = 80,        ///< metrics::Collector::mu_ (record vector)
  kTraceRegistry = 90,  ///< trace::Tracer::registryMu_ (buffer registry)
  kLogging = 100,       ///< logging sink mutex (innermost: log anywhere)
};

/// Checks the acquisition of `mu` against the calling thread's held-lock
/// stack and pushes it. Called by Mutex::lock() *before* blocking on the
/// underlying mutex, so an inversion aborts with both stacks printed
/// instead of deadlocking. Aborts on (a) `mu` already held (reentrancy) or
/// (b) `rank` != kUnranked and <= the highest ranked lock currently held.
void onAcquire(const void* mu, const char* name, Rank rank);

/// Pops `mu` from the calling thread's held-lock stack (out-of-LIFO-order
/// release is legal and handled). No-op if `mu` is not on the stack.
void onRelease(const void* mu) noexcept;

/// Number of locks the calling thread currently holds (test hook).
[[nodiscard]] std::size_t heldCount() noexcept;

}  // namespace mqs::lockorder
