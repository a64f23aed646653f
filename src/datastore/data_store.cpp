#include "datastore/data_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"

namespace mqs::datastore {

namespace {
#if MQS_LOCK_ORDER
/// Debug reentrancy guard for the eviction-listener contract: set to the
/// reporting store while its listener runs on this thread; any public
/// entry into the *same* store from inside the callback aborts (the same
/// print-and-abort discipline as the lock-rank checker).
thread_local const void* tlsListenerActiveStore = nullptr;
#endif
}  // namespace

void DataStore::guardReentry() const {
#if MQS_LOCK_ORDER
  if (tlsListenerActiveStore == this) {
    std::fprintf(stderr,
                 "eviction-listener reentrancy: the listener called back "
                 "into the data store it was notified by\n");
    std::abort();
  }
#endif
}

DataStore::DataStore(std::uint64_t capacityBytes,
                     const query::QuerySemantics* semantics,
                     EvictionPolicy eviction)
    : DataStore(capacityBytes, semantics, makeEvictionRanker(eviction)) {}

DataStore::DataStore(std::uint64_t capacityBytes,
                     const query::QuerySemantics* semantics,
                     std::unique_ptr<EvictionRanker> ranker)
    : capacity_(capacityBytes), ranker_(std::move(ranker)),
      semantics_(semantics) {
  MQS_CHECK(semantics_ != nullptr);
  MQS_CHECK(ranker_ != nullptr);
}

void DataStore::setEvictionListener(
    std::function<void(EvictedBlob)> listener) {
  MutexLock lock(mu_);
  evictionListener_ = std::move(listener);
}

void DataStore::reportEvictions(std::vector<EvictedBlob>& evicted) {
  if (evicted.empty()) return;
  std::function<void(EvictedBlob)> listener;
  {
    MutexLock lock(mu_);
    listener = evictionListener_;
  }
  if (!listener) return;
#if MQS_LOCK_ORDER
  const void* const saved = tlsListenerActiveStore;
  tlsListenerActiveStore = this;
#endif
  for (auto& blob : evicted) listener(std::move(blob));
#if MQS_LOCK_ORDER
  tlsListenerActiveStore = saved;
#endif
}

std::optional<BlobId> DataStore::insert(query::PredicatePtr predicate,
                                        std::vector<std::byte> payload,
                                        std::uint64_t logicalBytes,
                                        double recomputeCostSec) {
  MQS_CHECK(predicate != nullptr);
  guardReentry();
  if (recomputeCostSec < 0.0) {
    // Default attribution: the inserting query's accrued COMPUTE/IO_STALL
    // time since its last insert (0 when cost accounting is off).
    recomputeCostSec = (tracer_ != nullptr && tracer_->costAccounting())
                           ? tracer_->takeThreadQueryCost()
                           : 0.0;
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  // Blobs evicted to make room; listener runs unlocked.
  std::vector<EvictedBlob> evicted;
  std::optional<BlobId> result;
  if (logicalBytes <= capacity_) {
    MutexLock lock(mu_);
    if (makeRoomLocked(logicalBytes, evicted)) {
      const BlobId id = nextId_++;
      Blob blob;
      blob.predicate = std::move(predicate);
      blob.payload = std::move(payload);
      blob.logicalBytes = logicalBytes;
      blob.recomputeCostSec = recomputeCostSec;
      lru_.push_front(id);
      blob.lruIt = lru_.begin();
      spatial_.insert(blob.predicate->boundingBox(), id);
      blobs_.emplace(id, std::move(blob));
      resident_ += logicalBytes;
      result = id;
    }
  }
  if (!result) uncacheable_.fetch_add(1, std::memory_order_relaxed);
  reportEvictions(evicted);
  return result;
}

BlobId DataStore::pickVictimLocked() const {
  constexpr BlobId kNone = 0;
  if (ranker_->recencyOnly()) {
    // O(1) LRU fast path: the least recently used unpinned blob, no
    // scoring — byte-identical to the historical inline LRU.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      const auto bit = blobs_.find(*it);
      MQS_DCHECK(bit != blobs_.end());
      if (bit->second.pins == 0) return *it;
    }
    return kNone;
  }
  // Scored rankers: scan candidates for the minimum victimScore, breaking
  // ties toward the LRU end by walking the recency list from least recent
  // to most recent (strict < keeps the earlier = less recent candidate).
  BlobId best = kNone;
  double bestScore = 0.0;
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const auto bit = blobs_.find(*it);
    MQS_DCHECK(bit != blobs_.end());
    const Blob& blob = bit->second;
    if (blob.pins > 0) continue;
    const double score = ranker_->victimScore(
        BlobView{blob.logicalBytes, blob.uses, blob.recomputeCostSec});
    if (best == kNone || score < bestScore) {
      best = *it;
      bestScore = score;
    }
  }
  return best;
}

bool DataStore::makeRoomLocked(std::uint64_t need,
                               std::vector<EvictedBlob>& evicted) {
  while (resident_ + need > capacity_) {
    const BlobId victim = pickVictimLocked();
    if (victim == 0) return false;  // everything pinned (or store empty)
    eraseLocked(victim, /*countEviction=*/true, evicted);
  }
  return true;
}

void DataStore::eraseLocked(BlobId id, bool countEviction,
                            std::vector<EvictedBlob>& evicted) {
  auto it = blobs_.find(id);
  if (it == blobs_.end()) return;
  MQS_CHECK_MSG(it->second.pins == 0, "evicting a pinned blob");
  resident_ -= it->second.logicalBytes;
  lru_.erase(it->second.lruIt);
  const bool erased = spatial_.erase(it->second.predicate->boundingBox(), id);
  MQS_DCHECK(erased);
  (void)erased;
  if (countEviction) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) tracer_->counter(trace::CounterKind::DsEvict);
  }
  // The blob's state moves out with the eviction so the listener can
  // demote it to the spill tier without calling back in.
  evicted.push_back(EvictedBlob{id, std::move(it->second.predicate),
                                std::move(it->second.payload),
                                it->second.logicalBytes,
                                it->second.recomputeCostSec});
  blobs_.erase(it);
}

std::vector<DataStore::Match> DataStore::lookupTopK(const query::Predicate& q,
                                                    std::size_t k,
                                                    double minOverlap) {
  guardReentry();
  lookups_.fetch_add(1, std::memory_order_relaxed);
  if (k == 0) return {};
  std::vector<Match> matches;
  {
    MutexLock lock(mu_);
    // Candidate generation goes through the R-tree: overlap needs
    // intersecting bounding boxes, so only spatial matches are scored.
    spatial_.queryIntersecting(
        q.boundingBox(), [&](const Rect&, std::uint64_t id) {
          const auto it = blobs_.find(id);
          MQS_DCHECK(it != blobs_.end());
          const double ov = semantics_->overlap(*it->second.predicate, q);
          if (ov > minOverlap) matches.push_back(Match{id, ov});
        });
#ifndef NDEBUG
    // Debug cross-check: the linear scan over every blob must agree with
    // the R-tree candidate path (an overlap > 0 implies intersecting
    // bounding boxes, so the spatial pre-filter may never lose a match).
    double linearBest = minOverlap;
    for (const auto& [id, blob] : blobs_) {
      linearBest =
          std::max(linearBest, semantics_->overlap(*blob.predicate, q));
    }
    double rtreeBest = minOverlap;
    for (const Match& m : matches) rtreeBest = std::max(rtreeBest, m.overlap);
    MQS_DCHECK(linearBest == rtreeBest);
#endif
  }
  std::sort(matches.begin(), matches.end(), [](const Match& a, const Match& b) {
    if (a.overlap != b.overlap) return a.overlap > b.overlap;
    return a.id > b.id;  // ties toward the newer blob
  });
  if (matches.size() > k) matches.resize(k);
  if (matches.empty() && tracer_ != nullptr) {
    tracer_->counter(trace::CounterKind::DsMiss);
  }
  return matches;
}

void DataStore::noteReuse(BlobId id, double overlap) {
  guardReentry();
  MutexLock lock(mu_);
  auto it = blobs_.find(id);
  if (it == blobs_.end()) return;
  lru_.splice(lru_.begin(), lru_, it->second.lruIt);
  ++it->second.uses;
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (overlap >= 1.0) fullHits_.fetch_add(1, std::memory_order_relaxed);
  if (tracer_ != nullptr) tracer_->counter(trace::CounterKind::DsHit);
}

bool DataStore::contains(BlobId id) const {
  MutexLock lock(mu_);
  return blobs_.contains(id);
}

const query::Predicate& DataStore::predicate(BlobId id) const {
  MutexLock lock(mu_);
  auto it = blobs_.find(id);
  MQS_CHECK_MSG(it != blobs_.end(), "predicate() of absent blob");
  return *it->second.predicate;
}

double DataStore::recomputeCost(BlobId id) const {
  MutexLock lock(mu_);
  auto it = blobs_.find(id);
  MQS_CHECK_MSG(it != blobs_.end(), "recomputeCost() of absent blob");
  return it->second.recomputeCostSec;
}

std::span<const std::byte> DataStore::payload(BlobId id) const {
  MutexLock lock(mu_);
  auto it = blobs_.find(id);
  MQS_CHECK_MSG(it != blobs_.end(), "payload() of absent blob");
  return it->second.payload;
}

void DataStore::pin(BlobId id) {
  guardReentry();
  MutexLock lock(mu_);
  auto it = blobs_.find(id);
  MQS_CHECK_MSG(it != blobs_.end(), "pin() of absent blob");
  ++it->second.pins;
}

bool DataStore::tryPin(BlobId id) {
  guardReentry();
  MutexLock lock(mu_);
  auto it = blobs_.find(id);
  if (it == blobs_.end()) return false;
  ++it->second.pins;
  return true;
}

void DataStore::unpin(BlobId id) {
  guardReentry();
  MutexLock lock(mu_);
  auto it = blobs_.find(id);
  MQS_CHECK_MSG(it != blobs_.end(), "unpin() of absent blob");
  MQS_CHECK_MSG(it->second.pins > 0, "unbalanced unpin");
  --it->second.pins;
}

void DataStore::erase(BlobId id) {
  guardReentry();
  std::vector<EvictedBlob> evicted;
  {
    MutexLock lock(mu_);
    eraseLocked(id, /*countEviction=*/false, evicted);
  }
  reportEvictions(evicted);
}

DataStore::Stats DataStore::stats() const {
  Stats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.fullHits = fullHits_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.uncacheable = uncacheable_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t DataStore::residentBytes() const {
  MutexLock lock(mu_);
  return resident_;
}

std::size_t DataStore::residentBlobs() const {
  MutexLock lock(mu_);
  return blobs_.size();
}

std::size_t DataStore::pinnedBlobs() const {
  MutexLock lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(blobs_.begin(), blobs_.end(),
                    [](const auto& kv) { return kv.second.pins > 0; }));
}

}  // namespace mqs::datastore
