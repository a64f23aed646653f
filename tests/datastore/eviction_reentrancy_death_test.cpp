// Death test for the eviction-listener contract (DESIGN.md §13): the
// listener runs with no Data Store locks held but must never call back into
// the store that notified it — demote/drop decisions work off the
// EvictedBlob that travels out with the callback. The debug reentrancy
// guard (same build gate as the lock-rank checker) turns a violation into
// an immediate abort instead of a latent self-deadlock.
#include <gtest/gtest.h>

#include <memory>

#include "common/lock_order.hpp"
#include "datastore/data_store.hpp"
#include "vm/vm_predicate.hpp"
#include "vm/vm_semantics.hpp"

namespace mqs::datastore {
namespace {

using vm::VMOp;
using vm::VMPredicate;

// Repo-wide convention for abort-checking tests: the fork-based "fast"
// style is unsafe once any test in the binary touches threads, so re-exec.
class ThreadsafeDeathStyle : public ::testing::Environment {
 public:
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};
const auto* const kDeathStyle =
    ::testing::AddGlobalTestEnvironment(new ThreadsafeDeathStyle);

#if MQS_LOCK_ORDER

query::PredicatePtr pred(vm::VMSemantics&, storage::DatasetId dataset,
                         std::int64_t x) {
  return std::make_unique<VMPredicate>(dataset, Rect::ofSize(x, 0, 256, 256),
                                       4, VMOp::Subsample);
}

TEST(EvictionReentrancyDeathTest, ListenerCallingBackIntoStoreAborts) {
  EXPECT_DEATH(
      {
        vm::VMSemantics sem;
        const auto dataset =
            sem.addDataset(index::ChunkLayout(4096, 4096, 64));
        auto a = pred(sem, dataset, 0);
        const std::uint64_t bytes = vm::asVM(*a).outBytes();
        DataStore ds(2 * bytes, &sem);
        ds.setEvictionListener([&ds](EvictedBlob blob) {
          (void)ds.lookupTopK(*blob.predicate, 1);  // the forbidden re-entry
        });
        (void)ds.insert(std::move(a), {}, bytes);
        (void)ds.insert(pred(sem, dataset, 256), {}, bytes);
        // Third insert overflows the two-blob budget, evicts, and fires
        // the listener — which must abort on its lookupTopK().
        (void)ds.insert(pred(sem, dataset, 512), {}, bytes);
      },
      "eviction-listener reentrancy");
}

#else

TEST(EvictionReentrancyDeathTest, GuardCompiledOut) {
  GTEST_SKIP() << "reentrancy guard only exists under MQS_LOCK_ORDER builds";
}

#endif

}  // namespace
}  // namespace mqs::datastore
