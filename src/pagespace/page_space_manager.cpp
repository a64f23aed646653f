#include "pagespace/page_space_manager.hpp"

#include <chrono>
#include <thread>

#include "common/check.hpp"

namespace mqs::pagespace {

namespace {
thread_local std::uint64_t tlsDeviceBytes = 0;
thread_local double tlsStallSeconds = 0.0;

/// Adds wall time spent in a blocking wait to the thread's stall counter.
/// With a tracer active and a current query on this thread, the wait is
/// also emitted as an IO_STALL span — and the stall is measured from the
/// span's own begin/end timestamps (the same two clock reads), so a
/// query's IO_STALL span durations sum to exactly its ioStallTime.
class StallTimer {
 public:
  explicit StallTimer(trace::Tracer* tracer) {
    if (tracer != nullptr && tracer->enabled()) {
      if (const auto qid = tracer->currentThreadQuery()) {
        const double t0 = tracer->beginSpan(*qid, trace::SpanKind::IoStall);
        if (t0 != trace::Tracer::kDisabledTs) {
          tracer_ = tracer;
          queryId_ = *qid;
          traceT0_ = t0;
          return;
        }
      }
    }
    t0_ = std::chrono::steady_clock::now();
  }
  ~StallTimer() {
    if (tracer_ != nullptr) {
      const double t1 = tracer_->endSpan(queryId_, trace::SpanKind::IoStall);
      if (t1 != trace::Tracer::kDisabledTs) {
        tlsStallSeconds += t1 - traceT0_;
      }
      return;
    }
    tlsStallSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count();
  }

 private:
  trace::Tracer* tracer_ = nullptr;
  std::uint64_t queryId_ = 0;
  double traceT0_ = 0.0;
  std::chrono::steady_clock::time_point t0_;
};

/// Rebuild a failed read's exception on the calling thread. Each waiter
/// gets a fresh object; the original exception died on the reading thread.
[[noreturn]] void throwReadError(const ReadResult& r) {
  switch (r.error) {
    case ReadResult::Error::Transient:
      throw storage::TransientReadError(r.message);
    case ReadResult::Error::Permanent:
      throw storage::PermanentReadError(r.message);
    default:
      throw std::runtime_error(r.message);
  }
}
}  // namespace

void PageSpaceManager::resetThreadCounters() {
  tlsDeviceBytes = 0;
  tlsStallSeconds = 0.0;
}
std::uint64_t PageSpaceManager::threadDeviceBytes() { return tlsDeviceBytes; }
double PageSpaceManager::threadStallSeconds() { return tlsStallSeconds; }

PageSpaceManager::PageSpaceManager(std::uint64_t capacityBytes, int ioThreads,
                                   RetryPolicy retry)
    : capacityBytes_(capacityBytes), retry_(retry), core_(capacityBytes) {
  MQS_CHECK(ioThreads >= 0);
  MQS_CHECK(retry_.maxAttempts >= 1);
  MQS_CHECK(retry_.backoffSec >= 0.0 && retry_.multiplier >= 1.0);
  if (ioThreads > 0) {
    io_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(ioThreads));
  }
}

PageSpaceManager::~PageSpaceManager() {
  // Drain queued prefetches before members are torn down; the pool is the
  // last-declared member but the explicit shutdown keeps the ordering
  // obvious (and safe if members are ever reordered).
  if (io_) io_->shutdown();
}

void PageSpaceManager::attach(storage::DatasetId dataset,
                              const storage::DataSource* source) {
  MQS_CHECK(source != nullptr);
  MutexLock lock(mu_);
  sources_[dataset] = source;
}

const storage::DataSource* PageSpaceManager::sourceForLocked(
    storage::DatasetId dataset) const {
  auto it = sources_.find(dataset);
  MQS_CHECK_MSG(it != sources_.end(), "fetch from unattached dataset");
  return it->second;
}

std::uint64_t PageSpaceManager::consumeClaimLocked(const storage::PageKey& key,
                                                   bool served) {
  auto it = claims_.find(key);
  if (it == claims_.end()) return 0;
  Claim& c = it->second;
  const std::uint64_t credit = served ? c.creditBytes : 0;
  c.creditBytes = 0;
  if (c.issued) {
    // Attribute the issued read once: to a hit if a fetch consumed the
    // page, to waste if the prefetched copy was lost before use.
    if (served) {
      prefetchHits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      prefetchWasted_.fetch_add(1, std::memory_order_relaxed);
      if (tracer_ != nullptr) {
        tracer_->counter(trace::CounterKind::PrefetchWasted);
      }
    }
    c.issued = false;
  }
  if (--c.count <= 0) {
    if (c.pinned) core_.unpin(key);
    claims_.erase(it);
  }
  return credit;
}

void PageSpaceManager::finishInsertLocked(const storage::PageKey& key,
                                          const PagePtr& page, std::size_t n,
                                          bool viaPrefetch) {
  for (const auto& victim : core_.insert(key, n)) {
    resident_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) tracer_->counter(trace::CounterKind::PsEvict);
  }
  if (core_.contains(key)) {
    resident_[key] = page;
    // An outstanding claim pins the page so eviction pressure from other
    // queries cannot drop it before its claimant consumes it.
    if (auto it = claims_.find(key);
        it != claims_.end() && !it->second.pinned) {
      core_.pin(key);
      it->second.pinned = true;
    }
  }
  if (viaPrefetch) {
    // Charge the device bytes to whichever query consumes the page.
    if (auto it = claims_.find(key); it != claims_.end()) {
      it->second.creditBytes = n;
    }
  }
  inflight_.erase(key);
}

void PageSpaceManager::performRead(const storage::PageKey& key,
                                   const storage::DataSource* source,
                                   std::promise<ReadResult>& promise,
                                   bool viaPrefetch) {
  PagePtr page;
  try {
    const std::size_t n = source->pageBytes(key.page);
    auto buffer = std::make_shared<std::vector<std::byte>>(n);
    // Retry transient device faults with exponential backoff; anything else
    // (permanent faults, programming errors) propagates on first throw.
    for (int attempt = 1;; ++attempt) {
      try {
        source->readPage(key.page, *buffer);
        break;
      } catch (const storage::TransientReadError&) {
        if (attempt >= retry_.maxAttempts) throw;
        double backoff = retry_.backoffSec;
        for (int k = 1; k < attempt; ++k) backoff *= retry_.multiplier;
        if (backoff > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        }
        readRetries_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    page = std::move(buffer);
    bytesRead_.fetch_add(n, std::memory_order_relaxed);
    {
      MutexLock lock(mu_);
      finishInsertLocked(key, page, n, viaPrefetch);
    }
  } catch (...) {
    readFailures_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(mu_);
      inflight_.erase(key);
    }
    // Flatten the failure to (kind, message): waiters rebuild their own
    // exception objects, so none is shared across threads.
    ReadResult r;
    try {
      throw;
    } catch (const storage::TransientReadError& e) {
      r.error = ReadResult::Error::Transient;
      r.message = e.what();
    } catch (const storage::PermanentReadError& e) {
      r.error = ReadResult::Error::Permanent;
      r.message = e.what();
    } catch (const std::exception& e) {
      r.error = ReadResult::Error::Other;
      r.message = e.what();
    } catch (...) {
      r.error = ReadResult::Error::Other;
      r.message = "unknown read error";
    }
    promise.set_value(std::move(r));
    return;
  }
  ReadResult ok;
  ok.page = std::move(page);
  promise.set_value(std::move(ok));
}

PagePtr PageSpaceManager::fetch(const storage::PageKey& key) {
  std::shared_ptr<std::promise<ReadResult>> promise;
  std::shared_future<ReadResult> future;
  const storage::DataSource* source = nullptr;
  {
    MutexLock lock(mu_);
    if (core_.touch(key)) {
      auto it = resident_.find(key);
      MQS_DCHECK(it != resident_.end());
      tlsDeviceBytes += consumeClaimLocked(key, /*served=*/true);
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (tracer_ != nullptr) tracer_->counter(trace::CounterKind::PsHit);
      return it->second;
    }
    if (tracer_ != nullptr) tracer_->counter(trace::CounterKind::PsMiss);
    auto inIt = inflight_.find(key);
    if (inIt != inflight_.end()) {
      // Another thread (query or I/O pool) is already reading this page:
      // merge onto the one device read.
      merged_.fetch_add(1, std::memory_order_relaxed);
      future = inIt->second;
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
      source = sourceForLocked(key.dataset);
      // A claim whose page is neither resident nor in flight is stale: the
      // prefetched copy was lost (uncacheable insert under pin pressure).
      // Settle one claim as wasted here, under the same lock, so claims
      // taken by prefetches racing with this read are left to their owners.
      (void)consumeClaimLocked(key, /*served=*/false);
      promise = std::make_shared<std::promise<ReadResult>>();
      future = promise->get_future().share();
      inflight_.emplace(key, future);
    }
  }

  if (source != nullptr) {
    // Demand miss: read on the calling thread (no context switch). The
    // caller's claim (if any) was already settled above, so a failing read
    // keeps the always-consume-one-claim contract.
    const std::size_t n = source->pageBytes(key.page);
    {
      StallTimer stall(tracer_);
      performRead(key, source, *promise, /*viaPrefetch=*/false);
    }
    const ReadResult& r = future.get();
    if (r.error != ReadResult::Error::None) throwReadError(r);
    tlsDeviceBytes += n;
    return r.page;
  }

  ReadResult r;
  {
    StallTimer stall(tracer_);
    r = future.get();
  }
  if (r.error != ReadResult::Error::None) {
    // The merged read failed: settle the caller's claim as unserved so
    // the failure path consumes exactly one claim, like success does.
    {
      MutexLock lock(mu_);
      (void)consumeClaimLocked(key, /*served=*/false);
    }
    throwReadError(r);
  }
  std::uint64_t credit = 0;
  {
    MutexLock lock(mu_);
    credit = consumeClaimLocked(key, /*served=*/true);
  }
  tlsDeviceBytes += credit;
  return r.page;
}

void PageSpaceManager::prefetch(const storage::PageKey& key) {
  if (!io_) return;  // synchronous mode: readahead hints are ignored
  std::shared_ptr<std::promise<ReadResult>> promise;
  const storage::DataSource* source = nullptr;
  {
    MutexLock lock(mu_);
    Claim& c = claims_[key];
    ++c.count;
    // contains() instead of touch(): a hint must not distort hit/miss
    // stats, and the pin below protects the page regardless of LRU order.
    if (core_.contains(key)) {
      if (!c.pinned) {
        core_.pin(key);
        c.pinned = true;
      }
      return;
    }
    if (inflight_.contains(key)) {
      return;  // coalesce: the claim is pinned when the read lands
    }
    source = sourceForLocked(key.dataset);
    promise = std::make_shared<std::promise<ReadResult>>();
    inflight_.emplace(key, promise->get_future().share());
    prefetchIssued_.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      tracer_->counter(trace::CounterKind::PrefetchIssued);
    }
    c.issued = true;
  }
  const bool queued = io_->submit([this, key, source, promise] {
    performRead(key, source, *promise, /*viaPrefetch=*/true);
  });
  if (!queued) {
    // Pool is shutting down: fail the read so no waiter hangs.
    {
      MutexLock lock(mu_);
      inflight_.erase(key);
    }
    promise->set_value(ReadResult{.page = nullptr,
                                  .error = ReadResult::Error::Other,
                                  .message =
                                      "page space manager is shutting down"});
  }
}

void PageSpaceManager::releaseClaim(const storage::PageKey& key) {
  MutexLock lock(mu_);
  auto it = claims_.find(key);
  if (it == claims_.end()) return;
  Claim& c = it->second;
  if (--c.count <= 0) {
    if (c.issued) {
      // Issued read never consumed.
      prefetchWasted_.fetch_add(1, std::memory_order_relaxed);
      if (tracer_ != nullptr) {
        tracer_->counter(trace::CounterKind::PrefetchWasted);
      }
    }
    if (c.pinned) core_.unpin(key);
    claims_.erase(it);
  }
}

std::vector<PagePtr> PageSpaceManager::fetchBatch(
    std::span<const storage::PageKey> keys) {
  for (const auto& key : keys) prefetch(key);
  std::vector<PagePtr> out;
  out.reserve(keys.size());
  std::size_t done = 0;
  try {
    for (; done < keys.size(); ++done) {
      out.push_back(fetch(keys[done]));
    }
  } catch (...) {
    // The failing fetch consumed its own claim (fetch's failure contract),
    // as did every fetch before it; release only the claims taken for keys
    // the batch never reached. Releasing the failing key here as well would
    // over-release: with no batch claim left it would steal — and unpin —
    // a claim held by a concurrent query on the same page.
    for (std::size_t j = done + 1; j < keys.size(); ++j) {
      releaseClaim(keys[j]);
    }
    throw;
  }
  return out;
}

PageSpaceManager::Stats PageSpaceManager::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.merged = merged_.load(std::memory_order_relaxed);
  s.bytesRead = bytesRead_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.prefetchIssued = prefetchIssued_.load(std::memory_order_relaxed);
  s.prefetchHits = prefetchHits_.load(std::memory_order_relaxed);
  s.prefetchWasted = prefetchWasted_.load(std::memory_order_relaxed);
  s.readRetries = readRetries_.load(std::memory_order_relaxed);
  s.readFailures = readFailures_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t PageSpaceManager::residentBytes() const {
  MutexLock lock(mu_);
  return core_.residentBytes();
}

std::size_t PageSpaceManager::inflightCount() const {
  MutexLock lock(mu_);
  return inflight_.size();
}

std::size_t PageSpaceManager::claimCount() const {
  MutexLock lock(mu_);
  return claims_.size();
}

}  // namespace mqs::pagespace
