// Fold-equivalence lockdown (DESIGN.md §14): dynamic query folding is a
// pure execution-sharing optimization — merging concurrent in-flight
// queries onto one shared scan must never change what any query returns,
// only how many times the shared region is scanned and decoded.
//
// Two venues, two kinds of proof:
//
//  * The simulator runs many "threads" on one OS thread in virtual time, so
//    a folding run is fully deterministic: we assert that 'F' steps appear
//    in the recorded plan shapes, that the trace-derived shape (depth-0
//    PROJECT/COMPUTE spans, trace::planShapeOf) matches the planner's
//    recorded shape for every query, and that folding-on reads strictly
//    fewer raw bytes than folding-off on a high-overlap batch.
//
//  * The threaded server really races: whether a particular pair of queries
//    folds depends on timing, so the hard assertion is byte-identity —
//    every result from a folding-on server and a folding-off server must
//    equal the independent reference rendering, across randomized
//    overlapping batches, both with a warm Data Store (cached sources
//    compose with folds) and cold (folding is the only sharing in play).
//    Trace-derived shapes must match the recorded shapes either way, 'F'
//    steps included whenever they occurred.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "driver/workload.hpp"
#include "metrics/metrics.hpp"
#include "server/query_server.hpp"
#include "sim/sim_server.hpp"
#include "sim/simulator.hpp"
#include "storage/synthetic_source.hpp"
#include "trace/analysis.hpp"
#include "trace/trace.hpp"
#include "vm/image.hpp"
#include "vm/vm_executor.hpp"

namespace mqs {
namespace {

constexpr std::uint64_t kSeed = 4242;

/// Overlap-rich batch: browsing clients revisiting aligned neighborhoods,
/// so concurrently dispatched queries want the same regions.
driver::WorkloadConfig foldWorkload(std::uint64_t seed) {
  driver::WorkloadConfig wl;
  wl.datasets = {driver::DatasetSpec{1024, 1024, 96, kSeed}};
  wl.clientsPerDataset = {6};
  wl.queriesPerClient = 6;
  wl.outputSide = 64;
  wl.zoomLevels = {2, 4};
  wl.zoomWeights = {1, 1};
  wl.alignGrid = 8;
  wl.browseProbability = 0.85;
  wl.op = vm::VMOp::Subsample;
  wl.seed = seed;
  return wl;
}

/// True when a fold step *executed*: a fold that fell back to recomputing
/// is recorded as a lower-case 'f'.
bool shapeHasFold(const std::string& shape) {
  return shape.find('F') != std::string::npos;
}

// --- simulator: the deterministic venue ----------------------------------

struct SimRun {
  std::vector<metrics::QueryRecord> records;
  std::vector<trace::Event> events;
  std::uint64_t bytesRead = 0;
  pagespace::ScanRegistry::Stats scans;
};

SimRun runSim(bool foldScans, std::uint64_t seed) {
  vm::VMSemantics sem;
  const auto workloads =
      driver::WorkloadGenerator::generate(foldWorkload(seed), sem);
  sim::Simulator sim;
  sim::SimConfig cfg;
  cfg.threads = 4;
  cfg.policy = "FIFO";
  // The Data Store budget is below a single 64x64 result blob (12 KiB), so
  // every insert fails and every WaitAndProjectFromExecuting wait ends in
  // the raw-recompute fallback; the Page Space is below one scan's working
  // set, so those refetches really hit the device. Folding publishes the
  // scan payload independently of the Data Store, so with folding on the
  // same overlap is served without re-reading — the bytes-scanned win this
  // test pins down.
  cfg.dsBytes = 8ULL << 10;
  cfg.psBytes = 128ULL << 10;
  cfg.foldScans = foldScans;
  cfg.traceSink = std::make_shared<trace::Tracer>();
  sim::SimServer server(sim, &sem, cfg);
  for (const auto& client : workloads) {
    for (const auto& q : client.queries) {
      server.submit(q.clone(), client.client);
    }
  }
  sim.run();
  SimRun run;
  run.records = server.collector().records();
  run.events = cfg.traceSink->drain();
  run.bytesRead = server.ioStats().bytesRead;
  run.scans = server.scanRegistry().stats();
  const auto byId = [](const metrics::QueryRecord& a,
                       const metrics::QueryRecord& b) {
    return a.queryId < b.queryId;
  };
  std::sort(run.records.begin(), run.records.end(), byId);
  return run;
}

TEST(FoldEquivalenceSimTest, FoldingSharesScansAndReducesBytesScanned) {
  const SimRun on = runSim(/*foldScans=*/true, 0xF01D);
  const SimRun off = runSim(/*foldScans=*/false, 0xF01D);

  // Conservation: folding changes how work is shared, never whether a
  // query completes — same queries, same predicates, same outputs owed.
  ASSERT_EQ(on.records.size(), off.records.size());
  for (std::size_t i = 0; i < on.records.size(); ++i) {
    ASSERT_EQ(on.records[i].queryId, off.records[i].queryId);
    EXPECT_EQ(on.records[i].predicate, off.records[i].predicate);
  }

  // Folding-on actually folded (deterministically, in virtual time): 'F'
  // steps in the recorded shapes, fold hits at the registry, and strictly
  // fewer raw bytes scanned. Folding-off must show none of it.
  EXPECT_TRUE(std::any_of(
      on.records.begin(), on.records.end(),
      [](const metrics::QueryRecord& r) { return shapeHasFold(r.planShape); }))
      << "no query folded on the high-overlap batch";
  EXPECT_GT(on.scans.foldHits, 0u);
  const auto sharedBytes = [](const SimRun& run) {
    std::uint64_t total = 0;
    for (const auto& e : run.events) {
      if (e.type == trace::EventType::Counter &&
          e.counterKind() == trace::CounterKind::ScanBytesShared) {
        total += e.value;
      }
    }
    return total;
  };
  EXPECT_GT(sharedBytes(on), 0u);
  EXPECT_EQ(sharedBytes(off), 0u);
  for (const auto& r : off.records) {
    EXPECT_FALSE(shapeHasFold(r.planShape)) << r.predicate;
  }
  EXPECT_EQ(off.scans.foldHits, 0u);
  EXPECT_LT(on.bytesRead, off.bytesRead)
      << "shared scans did not reduce raw bytes read";

  // Trace triangulation, both runs: the span stream reconstructs the
  // planner's recorded shape exactly — fold steps emit PROJECT spans with
  // the fold-source flag, so 'F' must round-trip through the trace too.
  for (const SimRun* run : {&on, &off}) {
    for (const auto& r : run->records) {
      const std::string traceShape =
          trace::planShapeOf(trace::eventsForQuery(run->events, r.queryId));
      EXPECT_EQ(traceShape, r.planShape)
          << "trace disagrees with planner for " << r.predicate;
    }
  }
}

TEST(FoldEquivalenceSimTest, FoldSubscribersNeverOutWaitTheirOwners) {
  // Every fold subscriber blocked on a strictly older execution, so the
  // run terminates (sim.run() returning is itself the no-deadlock proof)
  // and every blocked query still delivered its full output accounting.
  const SimRun on = runSim(/*foldScans=*/true, 0xF01D);
  for (const auto& r : on.records) {
    EXPECT_GE(r.finishTime, r.startTime);
    if (shapeHasFold(r.planShape)) {
      EXPECT_GT(r.bytesReused, 0u) << r.predicate;
      EXPECT_TRUE(r.reusedExecuting) << r.predicate;
    }
  }
}

// --- threaded server: the byte-identity venue -----------------------------

struct RealRun {
  std::vector<metrics::QueryRecord> records;
  std::vector<trace::Event> events;
  pagespace::ScanRegistry::Stats scans;
};

/// Runs the batch against a real server and checks every result against
/// the independent reference renderer (byte identity is asserted HERE, so
/// folding-on and folding-off are byte-identical by transitivity).
RealRun runReal(bool foldScans, bool warmDataStore, std::uint64_t seed) {
  vm::VMSemantics sem;
  const auto workloads =
      driver::WorkloadGenerator::generate(foldWorkload(seed), sem);
  storage::SyntheticSlideSource slide(sem.layout(0), kSeed);
  vm::VMExecutor exec(&sem);
  server::ServerConfig cfg;
  cfg.threads = 4;
  cfg.policy = "FIFO";
  cfg.dsBytes = warmDataStore ? (64ULL << 20) : (1ULL << 20);
  cfg.psBytes = 4ULL << 20;
  cfg.foldScans = foldScans;
  cfg.traceSink = std::make_shared<trace::Tracer>();
  server::QueryServer server(&sem, &exec, cfg);
  server.attach(0, &slide);

  if (warmDataStore) {
    // Pre-seed cached sources so ProjectFromCached steps compose with
    // FoldIntoScan steps in the same plans.
    for (const auto& client : workloads) {
      (void)server.execute(client.queries.front().clone(), client.client);
    }
  }

  std::vector<std::future<server::QueryResult>> futures;
  std::vector<const vm::VMPredicate*> queries;
  for (const auto& client : workloads) {
    for (const auto& q : client.queries) {
      queries.push_back(&q);
      futures.push_back(server.submit(q.clone(), client.client));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto result = futures[i].get();
    const auto& q = *queries[i];
    const auto got =
        vm::ImageRGB::fromBytes(result.bytes, q.outWidth(), q.outHeight());
    EXPECT_EQ(maxAbsDiff(got, renderReference(q, kSeed)), 0)
        << "fold=" << foldScans << " warm=" << warmDataStore << " query " << i
        << ": " << q.describe();
  }
  server.shutdown();
  RealRun run;
  run.records = server.collector().records();
  run.events = cfg.traceSink->drain();
  run.scans = server.pageSpace().scanRegistry().stats();
  return run;
}

class FoldEquivalenceRealTest : public ::testing::TestWithParam<bool> {};

TEST_P(FoldEquivalenceRealTest, FoldingOnAndOffAreByteIdentical) {
  const bool warmDataStore = GetParam();
  // Randomized overlapping batches: distinct seeds reshuffle which queries
  // race, so fold interleavings vary run to run — byte identity may not.
  for (const std::uint64_t seed : {0xA1ULL, 0xB2ULL}) {
    const RealRun on = runReal(/*foldScans=*/true, warmDataStore, seed);
    const RealRun off = runReal(/*foldScans=*/false, warmDataStore, seed);

    // Whether any fold happened is timing-dependent; the plan shapes the
    // planner recorded and the shapes the trace reconstructs must agree
    // exactly either way — including any 'F' steps that did occur.
    for (const RealRun* run : {&on, &off}) {
      for (const auto& r : run->records) {
        const std::string traceShape =
            trace::planShapeOf(trace::eventsForQuery(run->events, r.queryId));
        EXPECT_EQ(traceShape, r.planShape)
            << "trace disagrees with planner for " << r.predicate;
      }
    }
    // A folding-off server must never register or join a scan.
    EXPECT_EQ(off.scans.scansRegistered, 0u);
    EXPECT_EQ(off.scans.foldHits, 0u);
    for (const auto& r : off.records) {
      EXPECT_FALSE(shapeHasFold(r.planShape)) << r.predicate;
    }
    // A fold that executed accounts its reuse bytes; one that found its
    // scan already settled fell back, and its record says 'f' instead.
    for (const auto& r : on.records) {
      if (shapeHasFold(r.planShape)) {
        EXPECT_GT(r.bytesReused, 0u) << r.predicate;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DataStoreTemperature, FoldEquivalenceRealTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& paramInfo) {
                           return paramInfo.param ? "warmDataStore"
                                                  : "coldDataStore";
                         });

}  // namespace
}  // namespace mqs
