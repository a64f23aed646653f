#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/primitives.hpp"
#include "sim/simulator.hpp"
#include "common/task.hpp"

namespace mqs::sim {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.processedEvents(), 3u);
}

TEST(Simulator, EqualTimesRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule(1.0, [] {}), CheckFailure);
}

TEST(Simulator, DelayAdvancesVirtualTime) {
  Simulator sim;
  double seen = -1.0;
  sim.spawn([](Simulator& s, double& out) -> Task<void> {
    co_await s.delay(2.5);
    out = s.now();
    co_await s.delay(1.5);
    out = s.now();
  }(sim, seen));
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 4.0);
}

TEST(Simulator, NestedTaskAwaitPropagatesValues) {
  Simulator sim;
  int result = 0;
  auto child = [](Simulator& s) -> Task<int> {
    co_await s.delay(1.0);
    co_return 21;
  };
  sim.spawn([](Simulator& s, auto childFn, int& out) -> Task<void> {
    const int a = co_await childFn(s);
    const int b = co_await childFn(s);
    out = a + b;
  }(sim, child, result));
  sim.run();
  EXPECT_EQ(result, 42);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, RootTaskExceptionSurfacesFromRun) {
  Simulator sim;
  sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.delay(1.0);
    throw std::runtime_error("boom");
  }(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Trigger, WaitersResumeAfterFire) {
  Simulator sim;
  std::vector<double> wakeTimes;
  Trigger trig(sim);
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulator& s, Trigger& t, std::vector<double>& out) -> Task<void> {
      co_await t.wait();
      out.push_back(s.now());
    }(sim, trig, wakeTimes));
  }
  sim.schedule(5.0, [&] { trig.fire(); });
  sim.run();
  ASSERT_EQ(wakeTimes.size(), 3u);
  for (double t : wakeTimes) EXPECT_DOUBLE_EQ(t, 5.0);
}

TEST(Trigger, WaitAfterFireIsImmediate) {
  Simulator sim;
  Trigger trig(sim);
  trig.fire();
  EXPECT_TRUE(trig.fired());
  bool resumed = false;
  sim.spawn([](Trigger& t, bool& out) -> Task<void> {
    co_await t.wait();
    out = true;
  }(trig, resumed));
  EXPECT_TRUE(resumed);  // ready path, no suspension
}

TEST(Trigger, DoubleFireIsIdempotent) {
  Simulator sim;
  Trigger trig(sim);
  trig.fire();
  trig.fire();
  EXPECT_TRUE(trig.fired());
  sim.run();
}

TEST(Semaphore, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int concurrent = 0, peak = 0;
  for (int i = 0; i < 6; ++i) {
    sim.spawn([](Simulator& s, Semaphore& sm, int& cur, int& pk) -> Task<void> {
      co_await sm.acquire();
      cur++;
      pk = std::max(pk, cur);
      co_await s.delay(1.0);
      cur--;
      sm.release();
    }(sim, sem, concurrent, peak));
  }
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(concurrent, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);  // 6 tasks / 2 permits * 1s
}

TEST(Semaphore, FifoHandoff) {
  Simulator sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulator& s, Semaphore& sm, std::vector<int>& out,
                 int id) -> Task<void> {
      co_await sm.acquire();
      out.push_back(id);
      co_await s.delay(1.0);
      sm.release();
    }(sim, sem, order, i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Semaphore, BusyIntegralTracksUtilization) {
  Simulator sim;
  Semaphore sem(sim, 2);
  sim.spawn([](Simulator& s, Semaphore& sm) -> Task<void> {
    co_await sm.acquire();
    co_await s.delay(4.0);
    sm.release();
  }(sim, sem));
  sim.run();
  // One permit busy for 4 seconds.
  EXPECT_DOUBLE_EQ(sem.busyIntegral(), 4.0);
}

TEST(Semaphore, OverReleaseThrows) {
  Simulator sim;
  Semaphore sem(sim, 1);
  EXPECT_THROW(sem.release(), CheckFailure);
}

TEST(FcfsServer, SerializesRequests) {
  Simulator sim;
  FcfsServer disk(sim);
  std::vector<double> finishTimes;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulator& s, FcfsServer& d, std::vector<double>& out)
                  -> Task<void> {
      co_await d.service(2.0);
      out.push_back(s.now());
    }(sim, disk, finishTimes));
  }
  sim.run();
  ASSERT_EQ(finishTimes.size(), 3u);
  EXPECT_DOUBLE_EQ(finishTimes[0], 2.0);
  EXPECT_DOUBLE_EQ(finishTimes[1], 4.0);
  EXPECT_DOUBLE_EQ(finishTimes[2], 6.0);
  EXPECT_EQ(disk.requestsServed(), 3u);
  EXPECT_DOUBLE_EQ(disk.busyIntegral(), 6.0);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto runOnce = [] {
    Simulator sim;
    Semaphore sem(sim, 2);
    FcfsServer disk(sim);
    std::vector<double> trace;
    for (int i = 0; i < 10; ++i) {
      sim.spawn([](Simulator& s, Semaphore& sm, FcfsServer& d,
                   std::vector<double>& out, int id) -> Task<void> {
        co_await sm.acquire();
        co_await d.service(0.5 + 0.1 * id);
        sm.release();
        out.push_back(s.now());
      }(sim, sem, disk, trace, i));
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

}  // namespace
}  // namespace mqs::sim
