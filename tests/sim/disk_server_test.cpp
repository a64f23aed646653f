#include "sim/disk_server.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/task.hpp"

namespace mqs::sim {
namespace {

storage::DiskModel testModel() {
  storage::DiskModel m;
  m.seekOverheadSec = 1.0;
  m.sequentialOverheadSec = 0.1;
  m.bytesPerSecond = 1e12;  // negligible transfer: isolate positioning
  return m;
}

Task<void> request(DiskServer& disk, std::uint64_t pos,
                   std::vector<std::uint64_t>* order, Simulator* sim,
                   std::vector<double>* times) {
  co_await disk.service(pos, 1000);
  order->push_back(pos);
  if (times != nullptr) times->push_back(sim->now());
}

TEST(DiskServer, FifoServesInArrivalOrder) {
  Simulator sim;
  DiskServer disk(sim, testModel(), DiskDiscipline::Fifo);
  std::vector<std::uint64_t> order;
  for (const std::uint64_t pos : {50ULL, 10ULL, 30ULL, 20ULL}) {
    sim.spawn(request(disk, pos, &order, &sim, nullptr));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{50, 10, 30, 20}));
  EXPECT_EQ(disk.requestsServed(), 4u);
  // Nothing is sequential in this scatter.
  EXPECT_EQ(disk.sequentialServed(), 0u);
}

TEST(DiskServer, ElevatorSweepsUpward) {
  Simulator sim;
  DiskServer disk(sim, testModel(), DiskDiscipline::Elevator);
  std::vector<std::uint64_t> order;
  // First request dispatches immediately (queue empty); the rest arrive
  // while it is being served and get elevator-ordered.
  sim.spawn(request(disk, 100, &order, &sim, nullptr));
  for (const std::uint64_t pos : {400ULL, 150ULL, 300ULL, 120ULL}) {
    sim.spawn(request(disk, pos, &order, &sim, nullptr));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{100, 120, 150, 300, 400}));
}

TEST(DiskServer, ElevatorWrapsLikeCScan) {
  Simulator sim;
  DiskServer disk(sim, testModel(), DiskDiscipline::Elevator);
  std::vector<std::uint64_t> order;
  sim.spawn(request(disk, 500, &order, &sim, nullptr));
  for (const std::uint64_t pos : {600ULL, 50ULL, 80ULL}) {
    sim.spawn(request(disk, pos, &order, &sim, nullptr));
  }
  sim.run();
  // From 501: up to 600, then wrap to 50, 80.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{500, 600, 50, 80}));
}

TEST(DiskServer, SequentialRunsChargeReducedOverhead) {
  Simulator sim;
  DiskServer disk(sim, testModel(), DiskDiscipline::Elevator,
                  /*contiguityWindow=*/4);
  std::vector<std::uint64_t> order;
  std::vector<double> times;
  sim.spawn(request(disk, 10, &order, &sim, &times));
  sim.spawn(request(disk, 11, &order, &sim, &times));
  sim.spawn(request(disk, 12, &order, &sim, &times));
  sim.run();
  // First pays a seek (cold head); next two continue the run.
  EXPECT_EQ(disk.sequentialServed(), 2u);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_NEAR(times[0], 1.0, 1e-6);
  EXPECT_NEAR(times[1], 1.1, 1e-6);
  EXPECT_NEAR(times[2], 1.2, 1e-6);
  EXPECT_NEAR(disk.busyIntegral(), 1.2, 1e-6);
}

TEST(DiskServer, GapBeyondWindowIsASeek) {
  Simulator sim;
  DiskServer disk(sim, testModel(), DiskDiscipline::Elevator,
                  /*contiguityWindow=*/4);
  std::vector<std::uint64_t> order;
  sim.spawn(request(disk, 10, &order, &sim, nullptr));
  sim.spawn(request(disk, 20, &order, &sim, nullptr));  // gap 9 > 4
  sim.run();
  EXPECT_EQ(disk.sequentialServed(), 0u);
}

TEST(DiskServer, ElevatorBeatsFifoOnInterleavedStreams) {
  // Two interleaved ascending streams: FIFO alternates (all seeks);
  // the elevator reorders into two runs.
  auto runWith = [](DiskDiscipline disc) {
    Simulator sim;
    DiskServer disk(sim, testModel(), disc);
    std::vector<std::uint64_t> order;
    for (int i = 0; i < 10; ++i) {
      sim.spawn(request(disk, static_cast<std::uint64_t>(i), &order, &sim,
                        nullptr));
      sim.spawn(request(disk, static_cast<std::uint64_t>(1000 + i), &order,
                        &sim, nullptr));
    }
    sim.run();
    return sim.now();
  };
  EXPECT_LT(runWith(DiskDiscipline::Elevator),
            runWith(DiskDiscipline::Fifo));
}

TEST(DiskServer, KeepsWorkingAcrossIdlePeriods) {
  Simulator sim;
  DiskServer disk(sim, testModel(), DiskDiscipline::Elevator);
  std::vector<std::uint64_t> order;
  sim.spawn(request(disk, 5, &order, &sim, nullptr));
  sim.scheduleAfter(10.0, [&] {
    sim.spawn(request(disk, 6, &order, &sim, nullptr));
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{5, 6}));
  EXPECT_EQ(disk.queueLength(), 0u);
}

}  // namespace
}  // namespace mqs::sim
