#include "trace/trace.hpp"

#include <array>
#include <chrono>

namespace mqs::trace {

namespace {

double processClock(void* /*ctx*/) {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

std::uint64_t nextTracerGen() {
  static std::atomic<std::uint64_t> gen{1};
  return gen.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local buffer cache: maps a tracer generation to this thread's
/// buffer. Generations are process-unique, so a stale entry for a
/// destroyed tracer can never alias a new one. A tiny direct-mapped cache
/// is enough — a thread talks to one or two tracers at a time.
struct TlsBufferCache {
  struct Entry {
    std::uint64_t gen = 0;
    void* buffer = nullptr;
  };
  std::array<Entry, 4> entries{};
  std::size_t nextSlot = 0;
};
thread_local TlsBufferCache tlsBuffers;

/// Thread-local current query (Tracer::QueryScope). One slot: query scopes
/// do not nest across tracers on one thread (a query thread belongs to one
/// server).
struct TlsCurrentQuery {
  std::uint64_t gen = 0;  ///< tracer generation; 0 = none
  std::uint64_t queryId = 0;
};
thread_local TlsCurrentQuery tlsCurrentQuery;

/// Per-thread recompute-cost ledger (Tracer cost accounting). Entries are
/// keyed by (tracer generation, query id): the simulator interleaves many
/// queries' COMPUTE/IO_STALL spans on one OS thread, and generations keep
/// entries from destroyed tracers from aliasing new ones. The vector stays
/// tiny — one entry per query concurrently accruing on this thread — and
/// entries are erased when consumed at insert time or when the query's
/// scope retires.
struct TlsCostEntry {
  std::uint64_t gen = 0;
  std::uint64_t queryId = 0;
  int openDepth = 0;     ///< open COMPUTE/IO_STALL spans (shared counter)
  double beginTs = 0.0;  ///< outermost open span's start
  double accrued = 0.0;  ///< closed-span union wall time, seconds
};
thread_local std::vector<TlsCostEntry> tlsCost;

TlsCostEntry& costEntry(std::uint64_t gen, std::uint64_t queryId) {
  for (auto& e : tlsCost) {
    if (e.gen == gen && e.queryId == queryId) return e;
  }
  tlsCost.push_back(TlsCostEntry{gen, queryId, 0, 0.0, 0.0});
  return tlsCost.back();
}

}  // namespace

std::string_view toString(SpanKind kind) {
  switch (kind) {
    case SpanKind::Queued: return "QUEUED";
    case SpanKind::Plan: return "PLAN";
    case SpanKind::WaitSource: return "WAIT_SOURCE";
    case SpanKind::Project: return "PROJECT";
    case SpanKind::Compute: return "COMPUTE";
    case SpanKind::IoStall: return "IO_STALL";
    case SpanKind::Deliver: return "DELIVER";
  }
  return "UNKNOWN";
}

std::string_view toString(CounterKind kind) {
  switch (kind) {
    case CounterKind::DsHit: return "ds_hit";
    case CounterKind::DsMiss: return "ds_miss";
    case CounterKind::DsEvict: return "ds_evict";
    case CounterKind::PsHit: return "ps_hit";
    case CounterKind::PsMiss: return "ps_miss";
    case CounterKind::PsEvict: return "ps_evict";
    case CounterKind::PrefetchIssued: return "prefetch_issued";
    case CounterKind::PrefetchWasted: return "prefetch_wasted";
    case CounterKind::LockWaitSched: return "lock_wait_sched";
    case CounterKind::LockWaitDs: return "lock_wait_ds";
    case CounterKind::LockWaitPs: return "lock_wait_ps";
    case CounterKind::LockWaitSchedUs: return "lock_wait_sched_us";
    case CounterKind::LockWaitDsUs: return "lock_wait_ds_us";
    case CounterKind::LockWaitPsUs: return "lock_wait_ps_us";
    case CounterKind::AdmissionAdmitted: return "admitted";
    case CounterKind::AdmissionRejected: return "rejected";
    case CounterKind::AdmissionShed: return "shed";
    case CounterKind::AdmissionQuotaHit: return "quota_hit";
    case CounterKind::DeadlineMissed: return "deadline_missed";
    case CounterKind::AdmissionQueueDepth: return "queue_depth";
    case CounterKind::DsSpill: return "ds_spill";
    case CounterKind::DsRestore: return "ds_restore";
    case CounterKind::DsSpillBytes: return "ds_spill_bytes";
    case CounterKind::FoldHit: return "fold_hit";
    case CounterKind::FoldSubscribers: return "fold_subscribers";
    case CounterKind::ScanBytesShared: return "scan_bytes_shared";
  }
  return "unknown";
}

Tracer::Tracer()
    : clock_(&processClock), clockCtx_(nullptr), gen_(nextTracerGen()) {}

Tracer::~Tracer() = default;

void Tracer::setClock(ClockFn fn, void* ctx) {
  clock_ = fn != nullptr ? fn : &processClock;
  clockCtx_ = ctx;
}

Tracer::Buffer* Tracer::registerThread() {
  MutexLock lock(registryMu_);
  auto buffer =
      std::make_unique<Buffer>(static_cast<std::uint32_t>(buffers_.size()));
  Buffer* raw = buffer.get();
  raw->readChunk = raw->head.get();
  buffers_.push_back(std::move(buffer));
  // Cache for subsequent events from this thread.
  auto& cache = tlsBuffers;
  cache.entries[cache.nextSlot] = {gen_, raw};
  cache.nextSlot = (cache.nextSlot + 1) % cache.entries.size();
  return raw;
}

Tracer::Buffer* Tracer::threadBuffer() {
  for (const auto& entry : tlsBuffers.entries) {
    if (entry.gen == gen_) return static_cast<Buffer*>(entry.buffer);
  }
  return registerThread();
}

double Tracer::emit(EventType type, std::uint8_t kind, std::uint64_t queryId,
                    std::uint64_t value, std::uint8_t depth,
                    std::uint8_t flags) {
  Buffer* buf = threadBuffer();
  const double ts = clock_(clockCtx_);
  if (buf->tailUsed == kChunkCapacity) {
    auto chunk = std::make_unique<Chunk>();
    Chunk* raw = chunk.get();
    {
      // ownedChunks is writer-and-reader visible metadata; the link that
      // the reader follows is the acquire/release `next` pointer, but the
      // ownership vector itself needs the registry lock.
      MutexLock lock(registryMu_);
      buf->ownedChunks.push_back(std::move(chunk));
    }
    buf->tail->next.store(raw, std::memory_order_release);
    buf->tail = raw;
    buf->tailUsed = 0;
  }
  Event& ev = buf->tail->events[buf->tailUsed++];
  ev.ts = ts;
  ev.queryId = queryId;
  ev.value = value;
  ev.tid = buf->tid;
  ev.type = type;
  ev.kind = kind;
  ev.depth = depth;
  ev.flags = flags;
  buf->published.store(buf->published.load(std::memory_order_relaxed) + 1,
                       std::memory_order_release);
  return ts;
}

std::vector<Event> Tracer::drain() {
  MutexLock lock(registryMu_);
  std::vector<Event> out;
  for (const auto& buf : buffers_) {
    const std::uint64_t published =
        buf->published.load(std::memory_order_acquire);
    while (buf->consumed < published) {
      if (buf->readIdx == kChunkCapacity) {
        Chunk* next = buf->readChunk->next.load(std::memory_order_acquire);
        if (next == nullptr) break;  // publication raced ahead of the link
        buf->readChunk = next;
        buf->readIdx = 0;
      }
      out.push_back(buf->readChunk->events[buf->readIdx++]);
      ++buf->consumed;
    }
  }
  return out;
}

std::uint64_t Tracer::eventCount() const {
  MutexLock lock(registryMu_);
  std::uint64_t n = 0;
  for (const auto& buf : buffers_) {
    n += buf->published.load(std::memory_order_acquire);
  }
  return n;
}

Tracer::QueryScope::QueryScope(Tracer* tracer, std::uint64_t queryId) {
  if (tracer == nullptr) return;
  tracer_ = tracer;
  queryId_ = queryId;
  savedGen_ = tlsCurrentQuery.gen;
  savedId_ = tlsCurrentQuery.queryId;
  tlsCurrentQuery = {tracer->gen_, queryId};
  active_ = true;
}

Tracer::QueryScope::~QueryScope() {
  if (!active_) return;
  tlsCurrentQuery = {savedGen_, savedId_};
  if (tracer_->costAccounting()) tracer_->dropThreadQueryCost(queryId_);
}

std::optional<std::uint64_t> Tracer::currentThreadQuery() const {
  if (tlsCurrentQuery.gen != gen_) return std::nullopt;
  return tlsCurrentQuery.queryId;
}

void Tracer::costBegin(std::uint64_t queryId) {
  costBeginAt(queryId, clock_(clockCtx_));
}

void Tracer::costBeginAt(std::uint64_t queryId, double ts) {
  TlsCostEntry& e = costEntry(gen_, queryId);
  if (e.openDepth == 0) e.beginTs = ts;
  ++e.openDepth;
}

void Tracer::costEnd(std::uint64_t queryId) {
  costEndAt(queryId, clock_(clockCtx_));
}

void Tracer::costEndAt(std::uint64_t queryId, double ts) {
  for (auto& e : tlsCost) {
    if (e.gen != gen_ || e.queryId != queryId) continue;
    if (e.openDepth > 0 && --e.openDepth == 0) e.accrued += ts - e.beginTs;
    return;
  }
}

double Tracer::takeThreadQueryCost() {
  if (tlsCurrentQuery.gen != gen_) return 0.0;
  const std::uint64_t queryId = tlsCurrentQuery.queryId;
  for (auto& e : tlsCost) {
    if (e.gen != gen_ || e.queryId != queryId) continue;
    double cost = e.accrued;
    e.accrued = 0.0;
    if (e.openDepth > 0) {
      const double now = clock_(clockCtx_);
      cost += now - e.beginTs;
      e.beginTs = now;
    }
    return cost;
  }
  return 0.0;
}

void Tracer::dropThreadQueryCost(std::uint64_t queryId) {
  for (std::size_t i = 0; i < tlsCost.size(); ++i) {
    if (tlsCost[i].gen == gen_ && tlsCost[i].queryId == queryId) {
      tlsCost[i] = tlsCost.back();
      tlsCost.pop_back();
      return;
    }
  }
}

}  // namespace mqs::trace
