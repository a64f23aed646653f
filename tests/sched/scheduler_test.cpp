#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "vm/vm_predicate.hpp"
#include "vm/vm_semantics.hpp"

namespace mqs::sched {
namespace {

using vm::VMOp;
using vm::VMPredicate;

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() {
    (void)sem_.addDataset(index::ChunkLayout(16384, 16384, 128));
  }

  query::PredicatePtr pred(Rect r, std::uint32_t zoom,
                           VMOp op = VMOp::Subsample) {
    return std::make_unique<VMPredicate>(0, r, zoom, op);
  }

  QueryScheduler make(const std::string& policy, bool incremental = true) {
    return QueryScheduler(&sem_, makePolicy(policy, 0.2), incremental);
  }

  vm::VMSemantics sem_;
};

TEST_F(SchedulerTest, FifoDequeuesInArrivalOrder) {
  auto s = make("FIFO");
  const NodeId a = s.submit(pred(Rect::ofSize(0, 0, 128, 128), 4));
  const NodeId b = s.submit(pred(Rect::ofSize(512, 0, 128, 128), 4));
  const NodeId c = s.submit(pred(Rect::ofSize(0, 512, 128, 128), 4));
  EXPECT_EQ(s.dequeue(), a);
  EXPECT_EQ(s.dequeue(), b);
  EXPECT_EQ(s.dequeue(), c);
  EXPECT_FALSE(s.dequeue().has_value());
}

TEST_F(SchedulerTest, SjfDequeuesShortestFirst) {
  auto s = make("SJF");
  const NodeId big = s.submit(pred(Rect::ofSize(0, 0, 2048, 2048), 4));
  const NodeId small = s.submit(pred(Rect::ofSize(4096, 0, 256, 256), 4));
  const NodeId medium = s.submit(pred(Rect::ofSize(0, 4096, 1024, 1024), 4));
  EXPECT_EQ(s.dequeue(), small);
  EXPECT_EQ(s.dequeue(), medium);
  EXPECT_EQ(s.dequeue(), big);
}

TEST_F(SchedulerTest, TiesBreakByArrivalForEveryPolicy) {
  for (const auto& name : allPolicyNames()) {
    auto s = make(name);
    // Identical disjoint queries: every policy ranks them equal.
    std::vector<NodeId> ids;
    for (int i = 0; i < 5; ++i) {
      ids.push_back(
          s.submit(pred(Rect::ofSize(i * 2048, 0, 256, 256), 4)));
    }
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(s.dequeue(), ids[static_cast<std::size_t>(i)])
          << "policy " << name;
    }
  }
}

TEST_F(SchedulerTest, StateMachineTransitions) {
  auto s = make("FIFO");
  const NodeId n = s.submit(pred(Rect::ofSize(0, 0, 128, 128), 4));
  EXPECT_EQ(s.stateOf(n), QueryState::Waiting);
  EXPECT_EQ(s.waitingCount(), 1u);
  ASSERT_EQ(s.dequeue(), n);
  EXPECT_EQ(s.stateOf(n), QueryState::Executing);
  EXPECT_EQ(s.executingCount(), 1u);
  s.completed(n);
  EXPECT_EQ(s.stateOf(n), QueryState::Cached);
  // Swap-out retains the node (the spill tier may bring it back) ...
  s.swappedOut(n);
  EXPECT_EQ(s.stateOf(n), QueryState::SwappedOut);
  // ... restore revives it ...
  s.restored(n);
  EXPECT_EQ(s.stateOf(n), QueryState::Cached);
  // ... and retire is the terminal drop (from either CACHED or SWAPPED_OUT).
  s.retired(n);
  EXPECT_FALSE(s.stateOf(n).has_value());
  const auto st = s.stats();
  EXPECT_EQ(st.swappedOutCount, 2u);  // explicit swap-out + retired-from-cached
  EXPECT_EQ(st.restoredCount, 1u);
  EXPECT_EQ(st.retiredCount, 1u);
}

TEST_F(SchedulerTest, IllegalTransitionsThrow) {
  auto s = make("FIFO");
  const NodeId n = s.submit(pred(Rect::ofSize(0, 0, 128, 128), 4));
  EXPECT_THROW(s.completed(n), CheckFailure);   // not executing yet
  EXPECT_THROW(s.swappedOut(n), CheckFailure);  // not cached
  (void)s.dequeue();
  EXPECT_THROW(s.swappedOut(n), CheckFailure);  // executing, not cached
  s.completed(n);
  EXPECT_THROW(s.completed(n), CheckFailure);   // already cached
}

TEST_F(SchedulerTest, CfPrefersQueryClosestToCachedResults) {
  auto s = make("CF");
  // hi-res result over region X, then two waiting queries: one over X
  // (projectable), one far away.
  const NodeId src = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 2));
  ASSERT_EQ(s.dequeue(), src);
  s.completed(src);  // src result now cached

  const NodeId far = s.submit(pred(Rect::ofSize(8192, 8192, 1024, 1024), 4));
  const NodeId near = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 4));
  (void)far;
  EXPECT_EQ(s.dequeue(), near);  // despite arriving later
}

TEST_F(SchedulerTest, MufPrefersTheProducerOthersWaitFor) {
  auto s = make("MUF");
  // One hi-res query that two lo-res queries could reuse.
  const NodeId a = s.submit(pred(Rect::ofSize(4096, 4096, 512, 512), 4));
  const NodeId producer = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 2));
  const NodeId c1 = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 4));
  const NodeId c2 = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 8));
  (void)a;
  (void)c1;
  (void)c2;
  EXPECT_EQ(s.dequeue(), producer);
}

TEST_F(SchedulerTest, RanksUpdateIncrementallyOnStateChanges) {
  auto s = make("CNBF");
  const NodeId src = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 2));
  const NodeId dep = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 4));
  const NodeId neutral =
      s.submit(pred(Rect::ofSize(8192, 8192, 1024, 1024), 4));
  ASSERT_EQ(s.dequeue(), src);  // FIFO tie-break among rank-0 nodes
  // src is now EXECUTING: CNBF pushes dep below neutral.
  EXPECT_EQ(s.dequeue(), neutral);
  s.completed(src);
  // src CACHED: dep's rank turns positive.
  EXPECT_EQ(s.dequeue(), dep);
  EXPECT_GT(s.rankOf(dep), 0.0);
}

TEST_F(SchedulerTest, IncrementalMatchesFullRecomputation) {
  // Property: for every graph-aware policy, an incremental scheduler and a
  // full-recompute scheduler driven identically dequeue identical orders.
  Rng rng(99);
  for (const auto& name : allPolicyNames()) {
    auto inc = make(name, /*incremental=*/true);
    auto full = make(name, /*incremental=*/false);
    Rng r1 = rng.fork();

    std::vector<NodeId> incDeq, fullDeq;
    for (int step = 0; step < 120; ++step) {
      const double roll = r1.uniform01();
      if (roll < 0.5) {
        const std::uint32_t zoom = 1u << r1.uniformInt(0, 3);
        auto snap = [&](std::int64_t v) { return (v / 32) * 32; };
        const Rect rect =
            Rect::ofSize(snap(r1.uniformInt(0, 8000)), snap(r1.uniformInt(0, 8000)),
                         static_cast<std::int64_t>(zoom) * 64,
                         static_cast<std::int64_t>(zoom) * 64);
        const NodeId ni = inc.submit(pred(rect, zoom));
        const NodeId nf = full.submit(pred(rect, zoom));
        ASSERT_EQ(ni, nf);
      } else if (roll < 0.75) {
        const auto di = inc.dequeue();
        const auto df = full.dequeue();
        ASSERT_EQ(di, df) << "policy " << name << " step " << step;
        if (di) {
          incDeq.push_back(*di);
          fullDeq.push_back(*df);
        }
      } else if (!incDeq.empty()) {
        // Complete (and sometimes swap out) the oldest executing query.
        const NodeId n = incDeq.front();
        incDeq.erase(incDeq.begin());
        fullDeq.erase(fullDeq.begin());
        inc.completed(n);
        full.completed(n);
        if (r1.bernoulli(0.4)) {
          inc.swappedOut(n);
          full.swappedOut(n);
        }
      }
    }
    // Drain both completely; orders must agree.
    for (;;) {
      const auto di = inc.dequeue();
      const auto df = full.dequeue();
      ASSERT_EQ(di, df) << "policy " << name;
      if (!di) break;
    }
  }
}

TEST_F(SchedulerTest, BestReuseSourcePrefersHigherOverlap) {
  // The planner's executing candidates come best-overlap first: the exact
  // match outranks the older, lower-resolution (projectable) source.
  auto s = make("FIFO");
  const NodeId half = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 2));
  const NodeId exact = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 4));
  const NodeId q = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 4));
  ASSERT_EQ(s.dequeue(), half);
  ASSERT_EQ(s.dequeue(), exact);
  ASSERT_EQ(s.dequeue(), q);
  const auto sources = s.executingSources(q);
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0].node, exact);
  EXPECT_DOUBLE_EQ(sources[0].overlap, 1.0);
  EXPECT_EQ(sources[0].state, QueryState::Executing);
  EXPECT_EQ(sources[1].node, half);
  EXPECT_LT(sources[1].overlap, 1.0);
}

TEST_F(SchedulerTest, ExecutingSourceOnlyIfOlder) {
  auto s = make("FIFO");
  const NodeId first = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 2));
  const NodeId second = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 4));
  ASSERT_EQ(s.dequeue(), first);
  ASSERT_EQ(s.dequeue(), second);
  // second (exec seq 2) may wait on first (exec seq 1)...
  const auto forSecond = s.executingSources(second);
  ASSERT_FALSE(forSecond.empty());
  EXPECT_EQ(forSecond.front().node, first);
  // ...but never the other way around, even though the overlap edge
  // first <- second does not exist (zoom); construct a symmetric case:
  const NodeId third = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 4));
  ASSERT_EQ(s.dequeue(), third);
  // third (seq 3) can wait on second (seq 2)
  const auto forThird = s.executingSources(third);
  ASSERT_FALSE(forThird.empty());
  EXPECT_EQ(forThird.front().node, second);
  // second must not be offered third (younger) as a source.
  const auto again = s.executingSources(second);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again.front().node, first);
}

TEST_F(SchedulerTest, PredicateOfRemovedNodeIsNullNotAnError) {
  // The planner snapshots executingSources() and then clones each source's
  // predicate in a separate call; the source can fail (and leave the graph)
  // in between. predicateOf() must report that as nullptr, not throw —
  // otherwise the dependent inherits its source's failure.
  auto s = make("FIFO");
  const NodeId src = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 4));
  const NodeId dep = s.submit(pred(Rect::ofSize(512, 0, 1024, 1024), 4));
  ASSERT_EQ(s.dequeue(), src);
  ASSERT_EQ(s.dequeue(), dep);
  const auto sources = s.executingSources(dep);
  ASSERT_EQ(sources.size(), 1u);
  ASSERT_EQ(sources.front().node, src);
  ASSERT_NE(s.predicateOf(src), nullptr);

  s.failed(src);
  ASSERT_FALSE(s.stateOf(src).has_value());
  query::PredicatePtr gone;
  EXPECT_NO_THROW(gone = s.predicateOf(sources.front().node));
  EXPECT_EQ(gone, nullptr);
  EXPECT_TRUE(s.executingSources(dep).empty());

  // A retired node leaves the graph the same way.
  s.completed(dep);
  s.retired(dep);
  EXPECT_NO_THROW(gone = s.predicateOf(dep));
  EXPECT_EQ(gone, nullptr);
}

TEST_F(SchedulerTest, SwappedOutNodesStopBeingReuseSources) {
  // A swapped-out result is neither a candidate nor reuse the ranking
  // counts: CF ranks q as if the source were gone.
  auto s = make("CF");
  const NodeId src = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 4));
  const NodeId q = s.submit(pred(Rect::ofSize(0, 0, 1024, 1024), 4));
  const double coldRank = s.rankOf(q);
  ASSERT_EQ(s.dequeue(), src);
  s.completed(src);
  EXPECT_GT(s.rankOf(q), coldRank);
  s.swappedOut(src);
  EXPECT_EQ(s.stateOf(src), QueryState::SwappedOut);
  EXPECT_DOUBLE_EQ(s.rankOf(q), coldRank);
  ASSERT_EQ(s.dequeue(), q);
  EXPECT_TRUE(s.executingSources(q).empty());
}

TEST_F(SchedulerTest, StatsAreMaintained) {
  auto s = make("MUF");
  (void)s.submit(pred(Rect::ofSize(0, 0, 512, 512), 4));
  (void)s.submit(pred(Rect::ofSize(0, 0, 512, 512), 2));
  const auto d = s.dequeue();
  ASSERT_TRUE(d.has_value());
  s.completed(*d);
  const auto st = s.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.dequeued, 1u);
  EXPECT_EQ(st.completedCount, 1u);
  EXPECT_GT(st.rankEvaluations, 0u);
}

TEST_F(SchedulerTest, AdaptiveFeedbackChangesDequeueOrder) {
  auto s = make("ADAPTIVE");
  // A cached result fully covering `covered` (overlap 1); `smaller` has
  // less input but no coverage.
  const NodeId src = s.submit(pred(Rect::ofSize(0, 0, 2048, 2048), 4));
  ASSERT_EQ(s.dequeue(), src);
  s.completed(src);

  auto submitPair = [&] {
    const NodeId covered = s.submit(pred(Rect::ofSize(0, 0, 2048, 2048), 4));
    const NodeId smaller =
        s.submit(pred(Rect::ofSize(8192, 8192, 1024, 1024), 4));
    return std::pair{covered, smaller};
  };

  // Cold policy = SJF: the smaller query wins.
  {
    const auto [covered, smaller] = submitPair();
    EXPECT_EQ(s.dequeue(), smaller);
    EXPECT_EQ(s.dequeue(), covered);
    s.completed(smaller);
    s.swappedOut(smaller);
    s.completed(covered);
    s.swappedOut(covered);
  }

  // After consistent full-reuse outcomes, coverage dominates: the fully
  // covered (effectively free) query wins despite its larger input.
  for (int i = 0; i < 60; ++i) s.reportQueryOutcome(1.0);
  s.reportResourceSignal(1.0);
  {
    const auto [covered, smaller] = submitPair();
    EXPECT_EQ(s.dequeue(), covered);
    EXPECT_EQ(s.dequeue(), smaller);
  }
}

TEST_F(SchedulerTest, ConcurrentAdaptiveFeedbackReachesPolicy) {
  // Query threads report outcomes while the scheduler keeps scheduling;
  // every report is applied under the scheduler lock, so after the
  // reporters finish the policy has seen all 300 of them, exactly as if
  // they had arrived one by one, and coverage dominates the ranking.
  auto s = make("ADAPTIVE");
  const NodeId src = s.submit(pred(Rect::ofSize(0, 0, 2048, 2048), 4));
  ASSERT_EQ(s.dequeue(), src);
  s.completed(src);
  {
    std::vector<std::jthread> reporters;
    for (int t = 0; t < 3; ++t) {
      reporters.emplace_back([&] {
        for (int i = 0; i < 100; ++i) s.reportQueryOutcome(1.0);
      });
    }
    for (int i = 0; i < 50; ++i) {
      (void)s.submit(pred(Rect::ofSize(4096 + (i % 8) * 512, 0, 256, 256), 4));
      const auto got = s.dequeue();
      ASSERT_TRUE(got.has_value());
      s.completed(*got);
      s.retired(*got);
    }
  }
  s.reportResourceSignal(1.0);
  const NodeId covered = s.submit(pred(Rect::ofSize(0, 0, 2048, 2048), 4));
  const NodeId smaller =
      s.submit(pred(Rect::ofSize(8192, 8192, 1024, 1024), 4));
  EXPECT_EQ(s.dequeue(), covered);
  EXPECT_EQ(s.dequeue(), smaller);
  EXPECT_EQ(s.stats().completedCount, 51u);
}

TEST_F(SchedulerTest, FeedbackIsNoopForStaticPolicies) {
  auto s = make("SJF");
  const NodeId big = s.submit(pred(Rect::ofSize(0, 0, 2048, 2048), 4));
  const NodeId small = s.submit(pred(Rect::ofSize(4096, 0, 256, 256), 4));
  (void)big;
  s.reportQueryOutcome(1.0);
  s.reportResourceSignal(1.0);
  EXPECT_EQ(s.dequeue(), small);
}

TEST_F(SchedulerTest, ConcurrentSubmitDequeueCompleteIsConsistent) {
  // The threaded server hammers one scheduler from many query threads;
  // this stresses the same interleavings directly.
  auto s = make("CF");
  constexpr int kProducers = 4, kPerProducer = 50, kWorkers = 4;
  std::atomic<int> completedCount{0};
  std::atomic<bool> doneSubmitting{false};

  {
    std::vector<std::jthread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        Rng rng(static_cast<std::uint64_t>(p) + 1);
        for (int i = 0; i < kPerProducer; ++i) {
          const std::uint32_t zoom = 1u << rng.uniformInt(0, 2);
          auto snap = [&](std::int64_t v) { return (v / 16) * 16; };
          (void)s.submit(pred(
              Rect::ofSize(snap(rng.uniformInt(0, 8000)),
                           snap(rng.uniformInt(0, 8000)),
                           static_cast<std::int64_t>(zoom) * 64,
                           static_cast<std::int64_t>(zoom) * 64),
              zoom));
        }
      });
    }
    std::vector<std::jthread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&] {
        for (;;) {
          const auto node = s.dequeue();
          if (!node) {
            if (doneSubmitting.load() && s.waitingCount() == 0) return;
            std::this_thread::yield();
            continue;
          }
          (void)s.executingSources(*node);
          s.completed(*node);
          if ((++completedCount & 1) == 0) s.swappedOut(*node);
        }
      });
    }
    threads.clear();  // join producers
    doneSubmitting.store(true);
  }

  EXPECT_EQ(completedCount.load(), kProducers * kPerProducer);
  const auto st = s.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(st.dequeued, st.submitted);
  EXPECT_EQ(st.completedCount, st.submitted);
  EXPECT_EQ(s.waitingCount(), 0u);
  EXPECT_EQ(s.executingCount(), 0u);
}

TEST_F(SchedulerTest, ExecSeqAssignedAtDequeue) {
  auto s = make("FIFO");
  const NodeId a = s.submit(pred(Rect::ofSize(0, 0, 128, 128), 4));
  EXPECT_EQ(s.execSeq(a), 0u);
  (void)s.dequeue();
  EXPECT_EQ(s.execSeq(a), 1u);
}

}  // namespace
}  // namespace mqs::sched
