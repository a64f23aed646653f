// Unit + property tests for the shared reuse planner: greedy multi-source
// selection by marginal covered-output bytes, the tiling invariant
// (projection coverage + remainder parts account for every output byte),
// pinning, depth limits, and executing-source eligibility.
#include "query/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "datastore/data_store.hpp"
#include "query/plan_runner.hpp"
#include "sched/scheduler.hpp"
#include "vm/vm_predicate.hpp"
#include "vm/vm_semantics.hpp"

namespace mqs::query {
namespace {

using vm::VMOp;
using vm::VMPredicate;

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() {
    dataset_ = sem_.addDataset(index::ChunkLayout(4096, 4096, 64));
  }

  PredicatePtr pred(Rect region, std::uint32_t zoom = 4,
                    VMOp op = VMOp::Subsample) {
    return std::make_unique<VMPredicate>(dataset_, region, zoom, op);
  }

  std::uint64_t outBytes(const Predicate& p) { return sem_.qoutsize(p); }

  datastore::BlobId insert(datastore::DataStore& ds, PredicatePtr p) {
    const std::uint64_t bytes = sem_.qoutsize(*p);
    const auto id = ds.insert(std::move(p), {}, bytes);
    EXPECT_TRUE(id.has_value());
    return *id;
  }

  Planner makePlanner(int maxSources, PlannerConfig base = {}) {
    base.maxReuseSources = maxSources;
    return Planner(&sem_, base);
  }

  /// Sum of qoutsize over the plan's ComputeRemainder steps.
  std::uint64_t remainderBytes(const ReusePlan& plan) {
    std::uint64_t sum = 0;
    for (const PlanStep& s : plan.steps) {
      if (s.kind == PlanStep::Kind::ComputeRemainder) {
        sum += sem_.qoutsize(*s.pred);
      }
    }
    return sum;
  }

  vm::VMSemantics sem_;
  storage::DatasetId dataset_ = 0;
};

TEST_F(PlannerTest, EmptyStoreYieldsSingleRemainderStep) {
  datastore::DataStore ds(1 << 24, &sem_);
  const auto q = pred(Rect::ofSize(0, 0, 256, 256));
  const ReusePlan plan =
      makePlanner(4).plan(*q, ds, nullptr, sched::kInvalidNode);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].kind, PlanStep::Kind::ComputeRemainder);
  EXPECT_FALSE(plan.hasReuse());
  EXPECT_FALSE(plan.fullyCovered());
  EXPECT_EQ(plan.planBytesCovered, 0u);
  EXPECT_EQ(plan.shape(), "R");
  // The remainder is the whole query.
  EXPECT_EQ(sem_.overlap(*plan.steps[0].pred, *q), 1.0);
}

TEST_F(PlannerTest, ExactDuplicateFullyCoversWithOneSource) {
  datastore::DataStore ds(1 << 24, &sem_);
  const auto q = pred(Rect::ofSize(0, 0, 256, 256));
  const auto blob = insert(ds, q->clone());
  const ReusePlan plan =
      makePlanner(4).plan(*q, ds, nullptr, sched::kInvalidNode);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].kind, PlanStep::Kind::ProjectFromCached);
  EXPECT_EQ(plan.steps[0].blob, blob);
  EXPECT_TRUE(plan.fullyCovered());
  EXPECT_DOUBLE_EQ(plan.primaryOverlap, 1.0);
  EXPECT_EQ(plan.planBytesCovered, outBytes(*q));
  EXPECT_EQ(plan.shape(), "C" + std::to_string(outBytes(*q)));
}

TEST_F(PlannerTest, TwoDisjointSourcesComposeToFullCoverage) {
  datastore::DataStore ds(1 << 24, &sem_);
  // Query spans two cached halves, neither of which covers it alone.
  const auto q = pred(Rect::ofSize(0, 0, 512, 256));
  insert(ds, pred(Rect::ofSize(0, 0, 256, 256)));
  insert(ds, pred(Rect::ofSize(256, 0, 256, 256)));

  const ReusePlan plan =
      makePlanner(4).plan(*q, ds, nullptr, sched::kInvalidNode);
  EXPECT_EQ(plan.reuseSources(), 2);
  EXPECT_TRUE(plan.fullyCovered());
  EXPECT_EQ(plan.planBytesCovered, outBytes(*q));
  EXPECT_DOUBLE_EQ(plan.primaryOverlap, 0.5);
}

TEST_F(PlannerTest, MultiSourceStrictlyBeatsSingleSource) {
  datastore::DataStore dsA(1 << 24, &sem_);
  datastore::DataStore dsB(1 << 24, &sem_);
  const auto q = pred(Rect::ofSize(0, 0, 512, 512));
  for (auto* ds : {&dsA, &dsB}) {
    insert(*ds, pred(Rect::ofSize(0, 0, 512, 256)));
    insert(*ds, pred(Rect::ofSize(0, 256, 512, 256)));
  }
  const ReusePlan single =
      makePlanner(1).plan(*q, dsA, nullptr, sched::kInvalidNode);
  const ReusePlan multi =
      makePlanner(4).plan(*q, dsB, nullptr, sched::kInvalidNode);
  EXPECT_EQ(single.reuseSources(), 1);
  EXPECT_EQ(multi.reuseSources(), 2);
  EXPECT_GT(multi.planBytesCovered, single.planBytesCovered);
  EXPECT_FALSE(single.fullyCovered());
  EXPECT_TRUE(multi.fullyCovered());
}

TEST_F(PlannerTest, GreedyPicksLargestMarginalFirst) {
  datastore::DataStore ds(1 << 24, &sem_);
  const auto q = pred(Rect::ofSize(0, 0, 512, 256));
  const auto small = insert(ds, pred(Rect::ofSize(384, 0, 128, 256)));
  const auto big = insert(ds, pred(Rect::ofSize(0, 0, 384, 256)));
  const ReusePlan plan =
      makePlanner(4).plan(*q, ds, nullptr, sched::kInvalidNode);
  ASSERT_GE(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].blob, big);
  EXPECT_EQ(plan.steps[1].blob, small);
  EXPECT_GT(plan.steps[0].bytesCovered, plan.steps[1].bytesCovered);
  EXPECT_TRUE(plan.fullyCovered());
}

TEST_F(PlannerTest, RedundantSourceContributesNothingAndIsSkipped) {
  datastore::DataStore ds(1 << 24, &sem_);
  const auto q = pred(Rect::ofSize(0, 0, 512, 256));
  const auto whole = insert(ds, pred(Rect::ofSize(0, 0, 512, 256)));
  const auto inner = insert(ds, pred(Rect::ofSize(128, 0, 128, 256)));
  const ReusePlan plan =
      makePlanner(4).plan(*q, ds, nullptr, sched::kInvalidNode);
  ASSERT_EQ(plan.reuseSources(), 1);
  EXPECT_EQ(plan.steps[0].blob, whole);
  for (const PlanStep& s : plan.steps) EXPECT_NE(s.blob, inner);
}

TEST_F(PlannerTest, SourceBudgetLeavesRemainders) {
  datastore::DataStore ds(1 << 24, &sem_);
  const auto q = pred(Rect::ofSize(0, 0, 512, 512));
  insert(ds, pred(Rect::ofSize(0, 0, 512, 256)));
  insert(ds, pred(Rect::ofSize(0, 256, 512, 256)));
  const ReusePlan plan =
      makePlanner(1).plan(*q, ds, nullptr, sched::kInvalidNode);
  EXPECT_EQ(plan.reuseSources(), 1);
  EXPECT_FALSE(plan.fullyCovered());
  // Covered + remainder bytes account for the whole output exactly.
  EXPECT_EQ(plan.planBytesCovered + remainderBytes(plan), outBytes(*q));
}

TEST_F(PlannerTest, DepthPastLimitForcesRawCompute) {
  datastore::DataStore ds(1 << 24, &sem_);
  const auto q = pred(Rect::ofSize(0, 0, 256, 256));
  insert(ds, q->clone());
  PlannerConfig cfg;
  cfg.maxNestedReuseDepth = 2;
  const Planner planner(&sem_, cfg);
  EXPECT_TRUE(planner.plan(*q, ds, nullptr, sched::kInvalidNode, 2).hasReuse());
  EXPECT_FALSE(
      planner.plan(*q, ds, nullptr, sched::kInvalidNode, 3).hasReuse());
}

TEST_F(PlannerTest, DataStoreDisabledForcesRawCompute) {
  datastore::DataStore ds(1 << 24, &sem_);
  const auto q = pred(Rect::ofSize(0, 0, 256, 256));
  insert(ds, q->clone());
  PlannerConfig cfg;
  cfg.dataStoreEnabled = false;
  const ReusePlan plan =
      Planner(&sem_, cfg).plan(*q, ds, nullptr, sched::kInvalidNode);
  EXPECT_FALSE(plan.hasReuse());
  EXPECT_EQ(plan.shape(), "R");
}

TEST_F(PlannerTest, PinSourcesHoldsPinsUntilPlanDies) {
  datastore::DataStore ds(1 << 24, &sem_);
  const auto q = pred(Rect::ofSize(0, 0, 512, 256));
  insert(ds, pred(Rect::ofSize(0, 0, 256, 256)));
  insert(ds, pred(Rect::ofSize(256, 0, 256, 256)));
  PlannerConfig cfg;
  cfg.pinSources = true;
  const Planner planner(&sem_, cfg);
  {
    const ReusePlan plan = planner.plan(*q, ds, nullptr, sched::kInvalidNode);
    EXPECT_EQ(plan.reuseSources(), 2);
    ASSERT_EQ(plan.pins.size(), 2u);
    // Selected blobs stay pinned (unselected candidates were released).
    EXPECT_EQ(ds.pinnedBlobs(), 2u);
  }
  EXPECT_EQ(ds.pinnedBlobs(), 0u);
}

TEST_F(PlannerTest, SelectedSourcesAreReportedAsHits) {
  datastore::DataStore ds(1 << 24, &sem_);
  const auto q = pred(Rect::ofSize(0, 0, 512, 256));
  insert(ds, pred(Rect::ofSize(0, 0, 256, 256)));
  insert(ds, pred(Rect::ofSize(256, 0, 256, 256)));
  const ReusePlan plan =
      makePlanner(4).plan(*q, ds, nullptr, sched::kInvalidNode);
  EXPECT_EQ(plan.reuseSources(), 2);
  const auto stats = ds.stats();
  EXPECT_EQ(stats.lookups, 1u);  // one lookupTopK per plan
  EXPECT_EQ(stats.hits, 2u);     // one noteReuse per selected source
}

TEST_F(PlannerTest, ExecutingSourceRequiresOlderExecution) {
  datastore::DataStore ds(1 << 24, &sem_);
  sched::QueryScheduler sched(&sem_, sched::makePolicy("FIFO"));
  // q1 starts executing first; q2 overlaps it and starts later.
  const auto n1 = sched.submit(pred(Rect::ofSize(0, 0, 256, 256)));
  const auto q2 = pred(Rect::ofSize(0, 0, 512, 256));
  const auto n2 = sched.submit(q2->clone());
  ASSERT_EQ(sched.dequeue(), n1);
  ASSERT_EQ(sched.dequeue(), n2);

  const ReusePlan plan = makePlanner(4).plan(*q2, ds, &sched, n2);
  ASSERT_EQ(plan.reuseSources(), 1);
  EXPECT_EQ(plan.steps[0].kind, PlanStep::Kind::WaitAndProjectFromExecuting);
  EXPECT_EQ(plan.steps[0].node, n1);
  // The older execution must never wait on the newer one (acyclicity).
  const auto q1 = sched.predicateOf(n1);
  const ReusePlan older = makePlanner(4).plan(*q1, ds, &sched, n1);
  for (const PlanStep& s : older.steps) {
    EXPECT_NE(s.kind, PlanStep::Kind::WaitAndProjectFromExecuting);
  }
}

TEST_F(PlannerTest, CachedSourceWinsTiesOverExecuting) {
  datastore::DataStore ds(1 << 24, &sem_);
  sched::QueryScheduler sched(&sem_, sched::makePolicy("FIFO"));
  const auto src = pred(Rect::ofSize(0, 0, 256, 256));
  const auto n1 = sched.submit(src->clone());
  const auto q2 = pred(Rect::ofSize(0, 0, 256, 256));
  const auto n2 = sched.submit(q2->clone());
  ASSERT_EQ(sched.dequeue(), n1);
  ASSERT_EQ(sched.dequeue(), n2);
  insert(ds, src->clone());  // identical coverage also available cached

  const ReusePlan plan = makePlanner(4).plan(*q2, ds, &sched, n2);
  ASSERT_EQ(plan.reuseSources(), 1);
  EXPECT_EQ(plan.steps[0].kind, PlanStep::Kind::ProjectFromCached);
}

TEST_F(PlannerTest, NestedDepthNeverWaitsOnExecuting) {
  datastore::DataStore ds(1 << 24, &sem_);
  sched::QueryScheduler sched(&sem_, sched::makePolicy("FIFO"));
  const auto n1 = sched.submit(pred(Rect::ofSize(0, 0, 256, 256)));
  const auto q2 = pred(Rect::ofSize(0, 0, 256, 256));
  const auto n2 = sched.submit(q2->clone());
  ASSERT_EQ(sched.dequeue(), n1);
  ASSERT_EQ(sched.dequeue(), n2);
  const ReusePlan plan = makePlanner(4).plan(*q2, ds, &sched, n2, /*depth=*/1);
  for (const PlanStep& s : plan.steps) {
    EXPECT_NE(s.kind, PlanStep::Kind::WaitAndProjectFromExecuting);
  }
}

// Property: for random cached contents and queries, the plan's marginal
// coverage plus its remainder parts account for every output byte exactly
// (VM semantics compute reusedOutputBytes exactly), projection steps carry
// per-source marginals that sum to planBytesCovered, and a larger source
// budget never covers fewer bytes.
TEST_F(PlannerTest, PropertyCoverageAccountingIsExact) {
  Rng rng(20260806);
  constexpr std::int64_t kGrid = 64;   // pixels; all rects on this grid
  constexpr std::int64_t kWorld = 16;  // grid cells per side
  const auto randomPred = [&] {
    const std::int64_t w = rng.uniformInt(1, kWorld / 2) * kGrid;
    const std::int64_t h = rng.uniformInt(1, kWorld / 2) * kGrid;
    const std::int64_t x = rng.uniformInt(0, kWorld / 2) * kGrid;
    const std::int64_t y = rng.uniformInt(0, kWorld / 2) * kGrid;
    return pred(Rect::ofSize(x, y, w, h), 4);
  };
  for (int trial = 0; trial < 60; ++trial) {
    datastore::DataStore ds(1ULL << 30, &sem_);
    const int blobs = static_cast<int>(rng.uniformInt(0, 8));
    for (int b = 0; b < blobs; ++b) insert(ds, randomPred());
    const auto q = randomPred();

    std::uint64_t prevCovered = 0;
    for (int budget : {1, 2, 4, 8}) {
      const ReusePlan plan =
          makePlanner(budget).plan(*q, ds, nullptr, sched::kInvalidNode);
      std::uint64_t perSource = 0;
      std::set<datastore::BlobId> seen;
      for (const PlanStep& s : plan.steps) {
        if (s.kind == PlanStep::Kind::ComputeRemainder) continue;
        perSource += s.bytesCovered;
        EXPECT_GT(s.bytesCovered, 0u);
        EXPECT_GE(s.projectionBytes, s.bytesCovered);
        EXPECT_TRUE(seen.insert(s.blob).second) << "source selected twice";
        EXPECT_FALSE(s.coveredParts.empty());
      }
      EXPECT_EQ(perSource, plan.planBytesCovered);
      EXPECT_EQ(plan.planBytesCovered + remainderBytes(plan), outBytes(*q))
          << "trial " << trial << " budget " << budget << " q "
          << q->describe();
      EXPECT_LE(static_cast<int>(plan.reuseSources()), budget);
      EXPECT_GE(plan.planBytesCovered, prevCovered)
          << "larger budget covered fewer bytes";
      prevCovered = plan.planBytesCovered;
    }
  }
}

TEST(PlanShapeTest, MarkFellBackLowercasesOnlyThatStep) {
  std::string shape = "C49152|X4096|S8192|F4096|R";
  markFellBack(shape, 3);
  EXPECT_EQ(shape, "C49152|X4096|S8192|f4096|R");
  markFellBack(shape, 0);
  EXPECT_EQ(shape, "c49152|X4096|S8192|f4096|R");
}

}  // namespace
}  // namespace mqs::query
