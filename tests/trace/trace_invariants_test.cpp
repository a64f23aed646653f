// Lifecycle-trace invariants: the span stream is a faithful, well-formed
// account of every query's life in BOTH engines.
//
// For each query:  spans are well-nested with monotonic timestamps; the
// top-level span durations sum to at most responseTime(); the IO_STALL
// total equals QueryRecord::ioStallTime exactly (the Page Space Manager
// derives both from the same clock reads); the depth-0 PROJECT span count
// equals reuseSources; the reconstructed plan shape equals planShape
// (fell-back steps in lower case in both); bytesReused equals the covered
// bytes of the PROJECT spans that did not fall back; the terminal span is
// DELIVER, carrying the failed flag iff the query failed.
//
// Plus Tracer-core semantics the overhead guard and collectors rely on:
// a disabled tracer buffers nothing, drain() is consuming and complete
// under concurrent writers, and QueryScope attribution nests correctly.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "driver/workload.hpp"
#include "metrics/metrics.hpp"
#include "server/query_server.hpp"
#include "sim/sim_server.hpp"
#include "sim/simulator.hpp"
#include "storage/faulty_source.hpp"
#include "storage/synthetic_source.hpp"
#include "trace/analysis.hpp"
#include "trace/trace.hpp"
#include "vm/vm_executor.hpp"

namespace mqs {
namespace {

constexpr std::uint64_t kSeed = 913;

/// Overlap-rich browsing workload (same construction as the plan
/// equivalence test): aligned rects + revisited neighborhoods, so queries
/// take reuse paths (PROJECT / WAIT_SOURCE spans), not just raw computes.
driver::WorkloadConfig overlapWorkload() {
  driver::WorkloadConfig wl;
  wl.datasets = {driver::DatasetSpec{1024, 1024, 96, kSeed}};
  wl.clientsPerDataset = {3};
  wl.queriesPerClient = 6;
  wl.outputSide = 64;
  wl.zoomLevels = {2, 4};
  wl.zoomWeights = {1, 1};
  wl.alignGrid = 8;
  wl.browseProbability = 0.7;
  wl.op = vm::VMOp::Subsample;
  wl.seed = 0xE0;
  return wl;
}

struct TracedRun {
  std::vector<metrics::QueryRecord> records;
  std::vector<trace::Event> events;
};

TracedRun runRealTraced(int threads) {
  vm::VMSemantics sem;
  const auto workloads =
      driver::WorkloadGenerator::generate(overlapWorkload(), sem);
  storage::SyntheticSlideSource slide(sem.layout(0), kSeed);
  vm::VMExecutor exec(&sem);
  server::ServerConfig cfg;
  cfg.threads = threads;
  cfg.policy = "FIFO";
  cfg.dsBytes = 2ULL << 20;
  cfg.psBytes = 1ULL << 20;
  cfg.maxReuseSources = 4;
  cfg.traceSink = std::make_shared<trace::Tracer>();
  server::QueryServer server(&sem, &exec, cfg);
  server.attach(0, &slide);

  std::vector<std::future<server::QueryResult>> futures;
  for (const auto& client : workloads) {
    for (const auto& q : client.queries) {
      futures.push_back(server.submit(q.clone(), client.client));
    }
  }
  for (auto& f : futures) (void)f.get();
  server.shutdown();

  TracedRun run;
  run.records = server.collector().records();
  run.events = cfg.traceSink->drain();
  return run;
}

TracedRun runSimTraced(int threads) {
  vm::VMSemantics sem;
  const auto workloads =
      driver::WorkloadGenerator::generate(overlapWorkload(), sem);
  sim::Simulator sim;
  sim::SimConfig cfg;
  cfg.threads = threads;
  cfg.policy = "FIFO";
  cfg.dsBytes = 2ULL << 20;
  cfg.psBytes = 1ULL << 20;
  cfg.maxReuseSources = 4;
  cfg.traceSink = std::make_shared<trace::Tracer>();
  sim::SimServer server(sim, &sem, cfg);
  for (const auto& client : workloads) {
    for (const auto& q : client.queries) {
      server.submit(q.clone(), client.client);
    }
  }
  sim.run();

  TracedRun run;
  run.records = server.collector().records();
  run.events = cfg.traceSink->drain();
  return run;
}

/// The per-query invariants shared by both engines. `requireReuse` asserts
/// the workload actually exercised the PROJECT/IO_STALL paths (on the
/// overlap workloads); small special-purpose rigs pass false.
void expectLifecycleInvariants(const TracedRun& run,
                               bool requireReuse = true) {
  ASSERT_FALSE(run.records.empty());
  ASSERT_FALSE(run.events.empty());
  bool sawReuse = false;
  bool sawStall = false;
  for (const auto& rec : run.records) {
    SCOPED_TRACE("query " + std::to_string(rec.queryId) + " " + rec.predicate);
    const auto qe = trace::eventsForQuery(run.events, rec.queryId);
    ASSERT_FALSE(qe.empty()) << "query left no trace";
    const auto tree = trace::buildSpanTree(qe);
    EXPECT_TRUE(tree.wellNested) << tree.error;
    EXPECT_TRUE(tree.monotonic) << tree.error;
    ASSERT_FALSE(tree.spans.empty());

    // Top-level spans are disjoint sub-intervals of [arrival, finish], so
    // their durations sum to at most the response time (tolerance covers
    // only floating-point accumulation, not clock skew: the tracer and the
    // record share one engine clock).
    double topSum = 0.0;
    for (const trace::Span& s : tree.spans) {
      if (s.level == 0) topSum += s.duration();
    }
    EXPECT_LE(topSum, rec.responseTime() + 1e-9);

    // The stall accounting derives record and span from the same clock
    // reads, so this equality is exact, not approximate.
    EXPECT_DOUBLE_EQ(trace::totalDuration(tree, trace::SpanKind::IoStall),
                     rec.ioStallTime);
    sawStall = sawStall || rec.ioStallTime > 0.0;

    // Terminal span: DELIVER, failed flag iff the record failed.
    const trace::Span& last = tree.spans.back();
    EXPECT_EQ(last.kind, trace::SpanKind::Deliver);
    EXPECT_EQ((last.flags & trace::kFlagFailed) != 0, rec.failed);

    if (rec.failed) continue;  // a failed plan executes a prefix of its steps

    int project0 = 0;
    for (const trace::Span& s : tree.spans) {
      if (s.kind == trace::SpanKind::Project && s.depth == 0) ++project0;
    }
    EXPECT_EQ(project0, static_cast<int>(rec.reuseSources));
    EXPECT_EQ(trace::planShapeOf(qe), rec.planShape);
    // Records say what executed: only projections that read their source
    // count as reused bytes, at every nesting depth.
    std::uint64_t projectedBytes = 0;
    for (const trace::Span& s : tree.spans) {
      if (s.kind == trace::SpanKind::Project &&
          (s.flags & trace::kFlagFellBack) == 0) {
        projectedBytes += s.value;
      }
    }
    EXPECT_EQ(rec.bytesReused, projectedBytes);
    sawReuse = sawReuse || rec.reuseSources > 0;
  }
  // The workload is overlap-rich and larger than the page space by
  // construction; a run with no reuse or no stalls would leave the
  // PROJECT / IO_STALL invariants vacuous.
  if (requireReuse) {
    EXPECT_TRUE(sawReuse);
    EXPECT_TRUE(sawStall);
  }
}

TEST(TraceInvariants, RealEngineSingleThread) {
  expectLifecycleInvariants(runRealTraced(1));
}

TEST(TraceInvariants, RealEngineMultiThread) {
  expectLifecycleInvariants(runRealTraced(4));
}

TEST(TraceInvariants, SimEngineSingleThread) {
  expectLifecycleInvariants(runSimTraced(1));
}

TEST(TraceInvariants, SimEngineMultiSlot) {
  const auto run = runSimTraced(4);
  expectLifecycleInvariants(run);
  // The simulator has no failure path: no span may carry the failed flag.
  for (const trace::Event& e : run.events) {
    if (e.type != trace::EventType::Counter) {
      EXPECT_EQ(e.flags & trace::kFlagFailed, 0);
    }
  }
}

TEST(TraceInvariants, FailedQueryEndsInFailedDeliverSpan) {
  index::ChunkLayout layout(1024, 1024, 96);
  vm::VMSemantics sem;
  const auto dsid = sem.addDataset(layout);
  storage::SyntheticSlideSource slide(layout, kSeed);
  vm::VMExecutor exec(&sem);

  const vm::VMPredicate bad(dsid, Rect::ofSize(0, 0, 256, 256), 4,
                            vm::VMOp::Subsample);
  const vm::VMPredicate good(dsid, Rect::ofSize(512, 512, 256, 256), 4,
                             vm::VMOp::Subsample);
  storage::FaultPlan plan;
  const auto chunks = layout.chunksIntersecting(bad.region());
  ASSERT_FALSE(chunks.empty());
  plan.permanentPages = {chunks.front().id};
  storage::FaultySource faulty(slide, plan);

  server::ServerConfig cfg;
  cfg.threads = 2;
  cfg.policy = "CF";
  cfg.dsBytes = 16ULL << 20;
  cfg.psBytes = 8ULL << 20;
  cfg.ioRetryBackoffSec = 0.0;
  cfg.traceSink = std::make_shared<trace::Tracer>();
  server::QueryServer server(&sem, &exec, cfg);
  server.attach(dsid, &faulty);

  auto doomed = server.submit(bad.clone(), 0);
  EXPECT_THROW((void)doomed.get(), server::QueryFailure);
  (void)server.execute(good.clone(), 1);
  server.shutdown();

  TracedRun run;
  run.records = server.collector().records();
  run.events = cfg.traceSink->drain();
  expectLifecycleInvariants(run, /*requireReuse=*/false);

  int failedSpans = 0;
  for (const auto& rec : run.records) {
    const auto tree =
        trace::buildSpanTree(trace::eventsForQuery(run.events, rec.queryId));
    ASSERT_FALSE(tree.spans.empty());
    if ((tree.spans.back().flags & trace::kFlagFailed) != 0) ++failedSpans;
  }
  EXPECT_EQ(failedSpans, 1);  // exactly the poisoned query, nothing else
}

TEST(TraceInvariants, PlanShapeMarksFellBackProjectionsInLowerCase) {
  // A folded projection that fell back, a cached one that did not, and a
  // remainder; the fell-back flag rides on the PROJECT span's end event.
  const auto ev = [](double ts, trace::EventType type, trace::SpanKind kind,
                     std::uint64_t value, std::uint8_t depth,
                     std::uint8_t flags) {
    trace::Event e;
    e.ts = ts;
    e.queryId = 7;
    e.value = value;
    e.type = type;
    e.kind = static_cast<std::uint8_t>(kind);
    e.depth = depth;
    e.flags = flags;
    return e;
  };
  using trace::EventType;
  using trace::SpanKind;
  const std::uint8_t fold = trace::kFlagFoldSource;
  const std::uint8_t cached = trace::kFlagCachedSource;
  const std::vector<trace::Event> events = {
      ev(1, EventType::SpanBegin, SpanKind::Project, 64, 0, fold),
      ev(2, EventType::SpanBegin, SpanKind::Plan, 0, 1, 0),
      ev(3, EventType::SpanEnd, SpanKind::Plan, 0, 1, 0),
      ev(4, EventType::SpanBegin, SpanKind::Compute, 0, 1, 0),
      ev(5, EventType::SpanEnd, SpanKind::Compute, 0, 1, 0),
      ev(6, EventType::SpanEnd, SpanKind::Project, 64,  0,
         fold | trace::kFlagFellBack),
      ev(7, EventType::SpanBegin, SpanKind::Project, 32, 0, cached),
      ev(8, EventType::SpanEnd, SpanKind::Project, 32, 0, cached),
      ev(9, EventType::SpanBegin, SpanKind::Compute, 16, 0, 0),
      ev(10, EventType::SpanEnd, SpanKind::Compute, 16, 0, 0),
  };
  EXPECT_EQ(trace::planShapeOf(events), "f64|C32|R");
}

TEST(TraceInvariants, CountersFlowFromBothSubstrates) {
  const auto run = runRealTraced(2);
  std::uint64_t psMiss = 0;
  std::uint64_t psHit = 0;
  std::uint64_t dsEvents = 0;
  for (const trace::Event& e : run.events) {
    if (e.type != trace::EventType::Counter) continue;
    switch (e.counterKind()) {
      case trace::CounterKind::PsMiss: psMiss += e.value; break;
      case trace::CounterKind::PsHit: psHit += e.value; break;
      case trace::CounterKind::DsHit:
      case trace::CounterKind::DsMiss:
      case trace::CounterKind::DsEvict: dsEvents += e.value; break;
      default: break;
    }
  }
  EXPECT_GT(psMiss, 0u);  // cold reads are inevitable
  EXPECT_GT(psHit, 0u);   // shared pages get re-touched
  EXPECT_GT(dsEvents, 0u);
}

// --- Tracer core semantics --------------------------------------------------

TEST(TracerCore, DisabledTracerBuffersNothing) {
  trace::Tracer tracer;
  tracer.setEnabled(false);
  EXPECT_EQ(tracer.beginSpan(1, trace::SpanKind::Compute),
            trace::Tracer::kDisabledTs);
  EXPECT_EQ(tracer.endSpan(1, trace::SpanKind::Compute),
            trace::Tracer::kDisabledTs);
  tracer.counter(trace::CounterKind::PsHit);
  EXPECT_EQ(tracer.eventCount(), 0u);
  EXPECT_TRUE(tracer.drain().empty());
}

TEST(TracerCore, DrainIsConsumingAndCompleteUnderConcurrentWriters) {
  trace::Tracer tracer;
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&tracer, &go] {
      while (!go.load(std::memory_order_acquire)) {}
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        // value carries the per-thread sequence number so the collector's
        // ordering guarantee (per-buffer emission order) is checkable.
        (void)tracer.beginSpan(/*queryId=*/i, trace::SpanKind::Compute, 0,
                               /*value=*/i);
      }
    });
  }
  go.store(true, std::memory_order_release);

  // Drain concurrently with the writers, then once more after they stop:
  // every event must be seen exactly once, in per-thread emission order.
  std::vector<trace::Event> all;
  for (int i = 0; i < 50; ++i) {
    const auto batch = tracer.drain();
    all.insert(all.end(), batch.begin(), batch.end());
  }
  for (auto& t : writers) t.join();
  const auto rest = tracer.drain();
  all.insert(all.end(), rest.begin(), rest.end());

  EXPECT_EQ(all.size(), kWriters * kPerWriter);
  std::map<std::uint32_t, std::uint64_t> nextPerTid;
  for (const trace::Event& e : all) {
    EXPECT_EQ(e.value, nextPerTid[e.tid]++) << "tid " << e.tid;
  }
  EXPECT_TRUE(tracer.drain().empty());  // consumed, not re-delivered
}

TEST(TracerCore, QueryScopeAttributionNests) {
  trace::Tracer tracer;
  EXPECT_FALSE(tracer.currentThreadQuery().has_value());
  {
    trace::Tracer::QueryScope outer(&tracer, 7);
    EXPECT_EQ(tracer.currentThreadQuery(), std::optional<std::uint64_t>(7));
    {
      trace::Tracer::QueryScope inner(&tracer, 9);
      EXPECT_EQ(tracer.currentThreadQuery(), std::optional<std::uint64_t>(9));
    }
    EXPECT_EQ(tracer.currentThreadQuery(), std::optional<std::uint64_t>(7));
  }
  EXPECT_FALSE(tracer.currentThreadQuery().has_value());
}

TEST(TracerCore, SpanTreeRejectsMalformedStreams) {
  const auto ev = [](trace::EventType type, trace::SpanKind kind, double ts) {
    trace::Event e;
    e.ts = ts;
    e.queryId = 1;
    e.type = type;
    e.kind = static_cast<std::uint8_t>(kind);
    return e;
  };
  using ET = trace::EventType;
  using SK = trace::SpanKind;

  // End without a matching begin.
  auto tree = trace::buildSpanTree({ev(ET::SpanEnd, SK::Compute, 1.0)});
  EXPECT_FALSE(tree.wellNested);

  // Crossed spans: A-begin, B-begin, A-end, B-end.
  tree = trace::buildSpanTree({ev(ET::SpanBegin, SK::Plan, 1.0),
                               ev(ET::SpanBegin, SK::Compute, 2.0),
                               ev(ET::SpanEnd, SK::Plan, 3.0),
                               ev(ET::SpanEnd, SK::Compute, 4.0)});
  EXPECT_FALSE(tree.wellNested);

  // Never-closed span.
  tree = trace::buildSpanTree({ev(ET::SpanBegin, SK::Deliver, 1.0)});
  EXPECT_FALSE(tree.wellNested);

  // Time going backwards.
  tree = trace::buildSpanTree({ev(ET::SpanBegin, SK::Compute, 2.0),
                               ev(ET::SpanEnd, SK::Compute, 1.0)});
  EXPECT_FALSE(tree.monotonic);

  // A correct stream stays clean.
  tree = trace::buildSpanTree({ev(ET::SpanBegin, SK::Plan, 1.0),
                               ev(ET::SpanEnd, SK::Plan, 2.0),
                               ev(ET::SpanBegin, SK::Compute, 2.0),
                               ev(ET::SpanEnd, SK::Compute, 3.0)});
  EXPECT_TRUE(tree.wellNested);
  EXPECT_TRUE(tree.monotonic);
  ASSERT_EQ(tree.spans.size(), 2u);
}

}  // namespace
}  // namespace mqs
