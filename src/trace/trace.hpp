// Query-lifecycle tracing: an always-compiled, low-overhead span/counter
// stream for both engines.
//
// The paper's evaluation (§5) is entirely about *where query time goes* —
// queue wait vs execution, reuse vs recompute, I/O stalls past the
// thread-count optimum — so every component on the query path emits typed
// events into a shared Tracer:
//
//   spans (per query, well-nested):
//     QUEUED       submit -> dispatch (the scheduler's queue wait)
//     PLAN         reuse planning (query::Planner)
//     WAIT_SOURCE  blocked on a still-executing reuse source's latch
//     PROJECT      one reuse-plan projection step (cached or executing)
//     COMPUTE      one compute-from-raw-data step (plan remainder / raw)
//     IO_STALL     a query thread blocked on device I/O in the Page Space
//     DELIVER      result caching + graph transition + delivery (terminal;
//                  carries the failed flag for FAILED queries)
//
//   counters (global, monotonic):
//     DS_HIT / DS_MISS / DS_EVICT            Data Store reuse events
//     PS_HIT / PS_MISS / PS_EVICT            Page Space residency events
//     PREFETCH_ISSUED / PREFETCH_WASTED      readahead pipeline events
//
// Cost model: each event is one clock read plus one append into a
// per-thread single-writer buffer (a plain store into a pre-allocated
// chunk, published with one release store). With no sink attached — the
// default — every instrumentation site is a null-pointer test; with a sink
// attached but disabled it is one relaxed atomic load. The collector
// (drain()) may run concurrently with writers: chunks are linked with
// acquire/release pointers and event slots are published by a per-buffer
// release counter, so no locks ever appear on the hot path.
//
// Timestamps come from a caller-installed clock so the discrete-event
// engine traces in *virtual* seconds and the threaded server in real
// seconds, while both emit the identical span vocabulary (the sim-vs-real
// trace equivalence test's currency).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/thread_annotations.hpp"

namespace mqs::trace {

enum class SpanKind : std::uint8_t {
  Queued = 0,
  Plan,
  WaitSource,
  Project,
  Compute,
  IoStall,
  Deliver,
};

enum class CounterKind : std::uint8_t {
  DsHit = 0,
  DsMiss,
  DsEvict,
  PsHit,
  PsMiss,
  PsEvict,
  PrefetchIssued,
  PrefetchWasted,
  // Lock-contention exposure per subsystem (common/lock_stats.hpp): the
  // server emits these at shutdown, LOCK_WAIT_* with value = blocked
  // acquisitions and LOCK_WAIT_*_US with value = microseconds spent
  // blocked in them, so traces show where query threads waited on shared
  // state and for how long.
  LockWaitSched,
  LockWaitDs,
  LockWaitPs,
  LockWaitSchedUs,
  LockWaitDsUs,
  LockWaitPsUs,
  // Overload behavior (DESIGN.md §11): admission-control and load-shedding
  // events emitted by the query server. ADMITTED/REJECTED/SHED partition
  // the offered load; QUOTA_HIT counts per-client fairness rejections
  // (a subset of REJECTED); DEADLINE_MISSED counts queries that consumed
  // compute yet finished (or died) past their deadline; QUEUE_DEPTH is a
  // gauge — its value is the admission-queue depth after the event.
  AdmissionAdmitted,
  AdmissionRejected,
  AdmissionShed,
  AdmissionQuotaHit,
  DeadlineMissed,
  AdmissionQueueDepth,
  // Cost-aware caching & spill tier (DESIGN.md §13): DS_SPILL counts blobs
  // demoted to the spill tier, DS_RESTORE counts blobs resurrected from it;
  // DS_SPILL_BYTES is a gauge — its value is the spill tier's resident
  // byte count after the event.
  DsSpill,
  DsRestore,
  DsSpillBytes,
  // Dynamic query folding (DESIGN.md §14). FOLD_SUBSCRIBERS is a gauge —
  // its value is the subscriber count of the scan just published.
  FoldHit,
  FoldSubscribers,
  ScanBytesShared,
};

[[nodiscard]] std::string_view toString(SpanKind kind);
[[nodiscard]] std::string_view toString(CounterKind kind);

enum class EventType : std::uint8_t { SpanBegin = 0, SpanEnd, Counter };

/// Event flags (span events).
inline constexpr std::uint8_t kFlagFailed = 0x1;      ///< DELIVER of a FAILED query
inline constexpr std::uint8_t kFlagCachedSource = 0x2;     ///< PROJECT from cached
inline constexpr std::uint8_t kFlagExecutingSource = 0x4;  ///< PROJECT from executing
inline constexpr std::uint8_t kFlagShed = 0x8;  ///< DELIVER of a SHED query
                                                ///< (dropped pre-compute)
inline constexpr std::uint8_t kFlagSpillSource = 0x10;  ///< PROJECT from the
                                                        ///< spill tier
inline constexpr std::uint8_t kFlagFoldSource = 0x20;  ///< PROJECT from a
                                                       ///< folded shared scan
/// On a PROJECT span's end event: the source was gone when the step ran,
/// so the step computed its covered parts from raw data instead.
inline constexpr std::uint8_t kFlagFellBack = 0x40;

struct Event {
  double ts = 0.0;            ///< engine seconds (virtual in the simulator)
  std::uint64_t queryId = 0;  ///< span events; 0 for counters
  std::uint64_t value = 0;    ///< bytes covered / counter increment
  std::uint32_t tid = 0;      ///< per-tracer thread index (drain order)
  EventType type = EventType::Counter;
  std::uint8_t kind = 0;   ///< SpanKind or CounterKind
  std::uint8_t depth = 0;  ///< reuse-plan nesting level (span events)
  std::uint8_t flags = 0;

  [[nodiscard]] SpanKind spanKind() const {
    return static_cast<SpanKind>(kind);
  }
  [[nodiscard]] CounterKind counterKind() const {
    return static_cast<CounterKind>(kind);
  }
};

class Tracer {
 public:
  using ClockFn = double (*)(void*);

  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Install the engine clock. Call before events are emitted (servers do
  /// this in their constructors); defaults to process-uptime seconds.
  void setClock(ClockFn fn, void* ctx);

  /// Runtime switch. A disabled tracer keeps every site to one relaxed
  /// load; the overhead guard in bench/micro_server pins this cost.
  void setEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Recompute-cost accounting (DESIGN.md §13): when on, the tracer accrues
  /// each query's COMPUTE/IO_STALL wall time into a per-thread ledger so
  /// the Data Store can stamp every inserted blob with its recompute cost
  /// (the CostAware eviction ranker's benefit metric). Accrual works even
  /// while the tracer is *disabled* — no events are buffered, only the
  /// ledger is touched — so engines can run a private, disabled tracer
  /// purely for cost attribution. Non-cost span kinds on a disabled tracer
  /// still cost exactly one relaxed load.
  void setCostAccounting(bool on) {
    costAccounting_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool costAccounting() const {
    return costAccounting_.load(std::memory_order_relaxed);
  }

  /// Emit a span-begin for query `queryId`; returns the stamped timestamp
  /// (NaN if disabled). `value` carries the step's covered bytes for
  /// PROJECT spans so plan shapes are reconstructible from the stream.
  double beginSpan(std::uint64_t queryId, SpanKind kind, std::uint8_t depth = 0,
                   std::uint64_t value = 0, std::uint8_t flags = 0) {
    const bool costKind =
        kind == SpanKind::Compute || kind == SpanKind::IoStall;
    if (!enabled()) {
      if (costKind && costAccounting()) costBegin(queryId);
      return kDisabledTs;
    }
    const double ts = emit(EventType::SpanBegin,
                           static_cast<std::uint8_t>(kind), queryId, value,
                           depth, flags);
    if (costKind && costAccounting()) costBeginAt(queryId, ts);
    return ts;
  }

  /// Emit a span-end; returns the stamped timestamp (NaN if disabled).
  double endSpan(std::uint64_t queryId, SpanKind kind, std::uint8_t depth = 0,
                 std::uint64_t value = 0, std::uint8_t flags = 0) {
    const bool costKind =
        kind == SpanKind::Compute || kind == SpanKind::IoStall;
    if (!enabled()) {
      if (costKind && costAccounting()) costEnd(queryId);
      return kDisabledTs;
    }
    const double ts = emit(EventType::SpanEnd, static_cast<std::uint8_t>(kind),
                           queryId, value, depth, flags);
    if (costKind && costAccounting()) costEndAt(queryId, ts);
    return ts;
  }

  /// Emit a counter increment (no query attribution).
  void counter(CounterKind kind, std::uint64_t value = 1) {
    if (!enabled()) return;
    (void)emit(EventType::Counter, static_cast<std::uint8_t>(kind), 0, value,
               0, 0);
  }

  /// Snapshot all events published so far, in per-thread emission order
  /// (buffers concatenated in registration order). Safe concurrently with
  /// writers; consumed events are not returned again by later drains.
  [[nodiscard]] std::vector<Event> drain();

  /// Total events published so far (approximate under concurrency).
  [[nodiscard]] std::uint64_t eventCount() const;

  // --- per-thread current-query attribution -------------------------------
  // The Page Space Manager emits IO_STALL spans from deep inside fetch(),
  // where no query id is in scope; the server brackets each query's
  // execution with a QueryScope so the manager can attribute stalls to the
  // thread's current query.

  class QueryScope {
   public:
    QueryScope(Tracer* tracer, std::uint64_t queryId);
    ~QueryScope();
    QueryScope(const QueryScope&) = delete;
    QueryScope& operator=(const QueryScope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::uint64_t queryId_ = 0;
    std::uint64_t savedGen_ = 0;
    std::uint64_t savedId_ = 0;
    bool active_ = false;
  };

  /// The calling thread's current query under this tracer (set by a live
  /// QueryScope), or nullopt.
  [[nodiscard]] std::optional<std::uint64_t> currentThreadQuery() const;

  // --- recompute-cost ledger ----------------------------------------------
  // Per-thread, keyed by query id (the simulator interleaves many queries'
  // spans on one OS thread, so thread identity alone is not enough). Open
  // COMPUTE/IO_STALL spans share one nesting counter per query, so a stall
  // nested inside a compute step is not double-counted: the ledger accrues
  // the *union* of the two kinds' wall time.

  /// Consume the accrued recompute cost of the calling thread's current
  /// query (see QueryScope) and reset it to zero, so successive inserts
  /// within one query each take only their incremental cost. Returns 0 when
  /// no scope is live or nothing accrued. An open cost span contributes its
  /// elapsed-so-far and restarts at now.
  [[nodiscard]] double takeThreadQueryCost();

  /// Drop the calling thread's cost ledger entry for `queryId` (query
  /// retired without consuming it). QueryScope's destructor does this
  /// automatically when cost accounting is on.
  void dropThreadQueryCost(std::uint64_t queryId);

  /// Sentinel timestamp returned by begin/endSpan when disabled.
  static constexpr double kDisabledTs = -1.0;

 private:
  // Per-thread single-writer buffer: a linked list of fixed-size chunks.
  // The writer fills slots and publishes them with a release store of the
  // running count; drain() follows the chunk links with acquire loads and
  // never observes a half-written slot.
  static constexpr std::size_t kChunkCapacity = 4096;

  struct Chunk {
    std::vector<Event> events{kChunkCapacity};
    std::atomic<Chunk*> next{nullptr};
  };

  struct Buffer {
    explicit Buffer(std::uint32_t tidIn) : tid(tidIn) {
      head = std::make_unique<Chunk>();
      tail = head.get();
    }
    std::uint32_t tid;
    std::unique_ptr<Chunk> head;  ///< owns the chain via ownedChunks
    Chunk* tail;                  ///< writer-only
    std::size_t tailUsed = 0;     ///< writer-only slots used in tail
    std::atomic<std::uint64_t> published{0};  ///< total events, release
    std::vector<std::unique_ptr<Chunk>> ownedChunks;  ///< overflow chunks
    // Reader cursor (guarded by the tracer registry mutex).
    Chunk* readChunk = nullptr;
    std::size_t readIdx = 0;
    std::uint64_t consumed = 0;
  };

  double emit(EventType type, std::uint8_t kind, std::uint64_t queryId,
              std::uint64_t value, std::uint8_t depth, std::uint8_t flags);
  Buffer* threadBuffer();
  Buffer* registerThread();

  // Cost-ledger slow paths (out of line; only reached when cost accounting
  // is on and the span kind is COMPUTE or IO_STALL).
  void costBegin(std::uint64_t queryId);           ///< reads the clock itself
  void costBeginAt(std::uint64_t queryId, double ts);
  void costEnd(std::uint64_t queryId);             ///< reads the clock itself
  void costEndAt(std::uint64_t queryId, double ts);

  std::atomic<bool> enabled_{true};
  std::atomic<bool> costAccounting_{false};
  /// Set once before the tracer is shared with other threads (setClock).
  ClockFn clock_;
  void* clockCtx_ = nullptr;  ///< set once before sharing, with clock_
  const std::uint64_t gen_;  ///< process-unique id (thread-local cache key)

  /// Guards buffers_ + every Buffer's reader cursor and ownedChunks (the
  /// cursor fields live in the nested struct, where an annotation cannot
  /// name this member; the contract is enforced by review + this comment).
  mutable Mutex registryMu_{lockorder::Rank::kTraceRegistry,
                            "Tracer::registryMu_"};
  std::vector<std::unique_ptr<Buffer>> buffers_ GUARDED_BY(registryMu_);
};

/// RAII span: begin on construction, end on destruction (exception-safe —
/// a throw inside a step still closes its span, so FAILED queries keep a
/// well-nested trace). No-ops when `tracer` is null or disabled.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::uint64_t queryId, SpanKind kind,
            std::uint8_t depth = 0, std::uint64_t value = 0,
            std::uint8_t flags = 0)
      : tracer_(tracer), queryId_(queryId), kind_(kind), depth_(depth),
        value_(value), flags_(flags) {
    if (tracer_ != nullptr) {
      tracer_->beginSpan(queryId_, kind_, depth_, value_, flags_);
    }
  }
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Mark the end event (e.g. kFlagFailed on a DELIVER span).
  void setEndFlags(std::uint8_t flags) { flags_ |= flags; }

  /// Close the span now (idempotent).
  void close() {
    if (tracer_ != nullptr) {
      tracer_->endSpan(queryId_, kind_, depth_, value_, flags_);
      tracer_ = nullptr;
    }
  }

 private:
  Tracer* tracer_;
  std::uint64_t queryId_;
  SpanKind kind_;
  std::uint8_t depth_;
  std::uint64_t value_;
  std::uint8_t flags_;
};

}  // namespace mqs::trace
