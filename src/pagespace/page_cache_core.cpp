#include "pagespace/page_cache_core.hpp"

#include "common/check.hpp"

namespace mqs::pagespace {

PageCacheCore::PageCacheCore(std::uint64_t capacityBytes)
    : capacity_(capacityBytes) {}

bool PageCacheCore::touch(const storage::PageKey& key) {
  auto it = pages_.find(key);
  if (it == pages_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lruIt);
  return true;
}

bool PageCacheCore::contains(const storage::PageKey& key) const {
  return pages_.contains(key);
}

std::vector<storage::PageKey> PageCacheCore::insert(
    const storage::PageKey& key, std::size_t bytes) {
  std::vector<storage::PageKey> evicted;
  auto it = pages_.find(key);
  if (it != pages_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lruIt);
    return evicted;
  }
  if (bytes > capacity_) {
    ++stats_.uncacheable;
    return evicted;
  }

  // Evict from the LRU tail, skipping pinned pages.
  auto victim = lru_.end();
  while (resident_ + bytes > capacity_) {
    if (victim == lru_.begin()) {
      // Everything remaining is pinned; give up on caching this page.
      ++stats_.uncacheable;
      return evicted;
    }
    --victim;
    auto vit = pages_.find(*victim);
    MQS_DCHECK(vit != pages_.end());
    if (vit->second.pins > 0) continue;
    resident_ -= vit->second.bytes;
    evicted.push_back(*victim);
    ++stats_.evictions;
    victim = lru_.erase(victim);
    pages_.erase(vit);
  }

  lru_.push_front(key);
  pages_.emplace(key, Entry{bytes, 0, lru_.begin()});
  resident_ += bytes;
  return evicted;
}

void PageCacheCore::pin(const storage::PageKey& key) {
  auto it = pages_.find(key);
  MQS_CHECK_MSG(it != pages_.end(), "pin of non-resident page");
  ++it->second.pins;
}

void PageCacheCore::unpin(const storage::PageKey& key) {
  auto it = pages_.find(key);
  MQS_CHECK_MSG(it != pages_.end(), "unpin of non-resident page");
  MQS_CHECK_MSG(it->second.pins > 0, "unbalanced unpin");
  --it->second.pins;
}

void PageCacheCore::erase(const storage::PageKey& key) {
  auto it = pages_.find(key);
  if (it == pages_.end()) return;
  MQS_CHECK_MSG(it->second.pins == 0, "erase of pinned page");
  resident_ -= it->second.bytes;
  lru_.erase(it->second.lruIt);
  pages_.erase(it);
}

}  // namespace mqs::pagespace
