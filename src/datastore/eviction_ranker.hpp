// Pluggable eviction ranking for the Data Store (DESIGN.md §13).
//
// The replacement policy used to be a hard-coded enum switch inside the
// store's victim scan; it is now an EvictionRanker strategy object so new
// policies plug in without touching the store's bookkeeping. The built-in
// rankers reproduce the historical policies exactly (byte-identical victim
// sequences — asserted by tests/datastore/lru_differential_test.cpp),
// and CostAware implements the benefit metric of "Don't Trash your
// Intermediate Results, Cache 'em": keep the blobs that are most expensive
// to recompute per byte of budget they occupy, where the recompute cost is
// the query's traced COMPUTE/IO_STALL wall time attributed at insert time
// (trace::Tracer cost accounting).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>

namespace mqs::datastore {

/// Replacement policy for intermediate results. The paper does not pin one
/// down; LRU is the default, the alternatives feed the eviction ablations.
enum class EvictionPolicy {
  Lru,       ///< least recently used (lookup hits and inserts refresh)
  Lfu,       ///< fewest lookup hits (ties broken toward LRU)
  Largest,   ///< biggest blob first (maximizes freed bytes per eviction)
  CostAware, ///< cheapest recompute-cost-per-byte first (ties toward LRU)
};

/// Every policy, in declaration order — the single source of truth for
/// parseEvictionPolicy's valid set and for policy-sweep tests.
inline constexpr std::array<EvictionPolicy, 4> kAllEvictionPolicies = {
    EvictionPolicy::Lru, EvictionPolicy::Lfu, EvictionPolicy::Largest,
    EvictionPolicy::CostAware};

/// Parse a policy name (case-insensitive); throws CheckFailure naming the
/// valid set — generated from kAllEvictionPolicies — on anything else.
EvictionPolicy parseEvictionPolicy(std::string_view name);
std::string_view toString(EvictionPolicy policy);

/// The slice of per-blob state a ranker may score on.
struct BlobView {
  std::uint64_t logicalBytes = 0;
  std::uint64_t uses = 0;           ///< lookup hits since insert
  double recomputeCostSec = 0.0;    ///< traced cost to rebuild this blob
};

/// Strategy interface: the store evicts the *unpinned* blob with the lowest
/// victimScore(); score ties keep the least recently used candidate, so
/// every ranker degrades to LRU when its metric cannot discriminate.
/// Rankers are stateless and called under the store lock — implementations
/// must not block or call back into the store.
class EvictionRanker {
 public:
  virtual ~EvictionRanker() = default;

  /// Lower = evicted sooner.
  [[nodiscard]] virtual double victimScore(const BlobView& blob) const = 0;

  /// Pure-recency rankers return true and skip scoring entirely: the store
  /// takes the first unpinned blob from the LRU tail (the historical O(1)
  /// LRU fast path).
  [[nodiscard]] virtual bool recencyOnly() const { return false; }
};

/// Built-in ranker for `policy`.
std::unique_ptr<EvictionRanker> makeEvictionRanker(EvictionPolicy policy);

}  // namespace mqs::datastore
