// sim_paper: the paper's client emulator on the deterministic simulator.
//
// paperWorkload(): 16 clients x 16 queries split 8/6/2 over three 8192^2
// slides, 256^2 outputs, on a 24-CPU modeled SMP with 4 query threads and
// the paper's 32 MB Data Store and 32 MB Page Space scaled with the outputs
// by 1/16 (2 MB each). Every workload runs interactively (Fig. 6) and as one
// batch (Fig. 7) under each of the six ranking policies. A run's figures
// come from kSubSeeds workloads whose seeds derive from --seed (one
// workload's figures differ from the next seed's by about 30%; 128 bring a
// run's spread to 1-2%). All times except setup_s and rss_peak_mb are
// modeled, so they do not depend on the host; the remaining --seconds
// replay simulations, which must reproduce their modeled outputs bit for
// bit.
#include <atomic>
#include <memory>
#include <thread>
#include <sstream>

#include "bench.hpp"
#include "driver/workload.hpp"
#include "layers.hpp"
#include "metrics/metrics.hpp"
#include "probes.hpp"
#include "sched/policy.hpp"
#include "sim/sim_server.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

mqs::driver::WorkloadConfig paperWorkload(std::uint64_t seed, bool smoke) {
  mqs::driver::WorkloadConfig cfg;
  const std::int64_t side = smoke ? 2048 : 8192;
  cfg.datasets = {mqs::driver::DatasetSpec{side, side, 146, 11},
                  mqs::driver::DatasetSpec{side, side, 146, 22},
                  mqs::driver::DatasetSpec{side, side, 146, 33}};
  cfg.clientsPerDataset = {8, 6, 2};
  cfg.queriesPerClient = smoke ? 2 : 16;
  cfg.outputSide = smoke ? 64 : 256;
  cfg.zoomLevels = {2, 4, 8, 16};
  cfg.zoomWeights = {2.0, 3.0, 2.0, 1.0};
  cfg.alignGrid = 32;
  cfg.op = mqs::vm::VMOp::Subsample;
  cfg.seed = seed;
  return cfg;
}

namespace {

constexpr int kSubSeeds = 128;
constexpr int kTracedSubSeeds = 8;
constexpr int kSetupRepeats = 256;
constexpr int kSimThreads = 4;

/// The paper's 32 MB Data Store and Page Space, scaled with the outputs.
mqs::sim::SimConfig paperServer(const std::string& policy, bool smoke) {
  mqs::sim::SimConfig cfg;
  cfg.policy = policy;
  cfg.threads = 4;
  cfg.cpus = 24;
  cfg.dsBytes = (32ULL << 20) / (smoke ? 256 : 16);
  cfg.psBytes = (32ULL << 20) / (smoke ? 256 : 16);
  return cfg;
}

/// Everything one simulated run reports.
struct SimRun {
  std::vector<mqs::metrics::QueryRecord> records;
  mqs::sim::SimServer::IoStats io;
  mqs::datastore::DataStore::Stats ds;
  mqs::sched::QueryScheduler::Stats sched;
  std::uint64_t overlapCalls = 0;
  double cpuSeconds = 0;
  double wallS = 0;
  std::vector<mqs::trace::Event> events;

  /// Hash of the modeled outputs, which must repeat exactly for the same
  /// inputs.
  [[nodiscard]] std::size_t fingerprint() const {
    std::ostringstream os;
    os.precision(17);
    os << io.bytesRead << ' ' << io.pageReads << ' ' << cpuSeconds;
    for (const auto& r : records) {
      os << ' ' << r.queryId << ':' << r.arrivalTime << ':' << r.startTime
         << ':' << r.finishTime << ':' << r.planShape;
    }
    return std::hash<std::string>{}(os.str());
  }
};

mqs::sim::Task<void> interactiveClient(mqs::sim::SimServer& server,
                                       const mqs::driver::ClientWorkload* wl) {
  for (const mqs::vm::VMPredicate& q : wl->queries) {
    co_await server.executeAndWait(std::make_unique<mqs::vm::VMPredicate>(q),
                                   wl->client);
  }
}

SimRun simulate(std::uint64_t seed, const std::string& policy, bool batch,
                bool traced, bool smoke) {
  SimRun run;
  const auto t0 = Clock::now();
  const mqs::driver::WorkloadConfig wcfg = paperWorkload(seed, smoke);
  mqs::vm::VMSemantics vmSem;
  const std::vector<mqs::driver::ClientWorkload> clients =
      mqs::driver::WorkloadGenerator::generate(wcfg, vmSem);
  CountingSemantics sem(&vmSem);
  mqs::sim::SimConfig cfg = paperServer(policy, smoke);
  if (traced) cfg.traceSink = std::make_shared<mqs::trace::Tracer>();
  CountingModel model(&vmSem, cfg);
  mqs::sim::Simulator simr;
  mqs::sim::SimServer server(simr, &sem, &model, cfg);

  if (batch) {
    // Round-robin interleaving: the order concurrent clients present. Every
    // client has the same number of queries, so query k is client k % n's.
    const std::vector<mqs::vm::VMPredicate> order =
        mqs::driver::WorkloadGenerator::interleave(clients);
    for (std::size_t k = 0; k < order.size(); ++k) {
      server.submit(std::make_unique<mqs::vm::VMPredicate>(order[k]),
                    clients[k % clients.size()].client);
    }
  } else {
    for (const auto& wl : clients) simr.spawn(interactiveClient(server, &wl));
  }
  simr.run();
  run.wallS = secondsSince(t0);
  run.records = server.collector().records();
  run.io = server.ioStats();
  run.ds = server.dataStore().stats();
  run.sched = server.scheduler().stats();
  run.overlapCalls = sem.overlapCalls.load();
  run.cpuSeconds = model.cpuSeconds;
  if (traced) run.events = cfg.traceSink->drain();
  return run;
}

/// The model's own invariants: every query has one record, timestamps are
/// ordered, nothing failed, and a batch cannot finish faster than the disk
/// farm can stream the bytes it read.
void checkRun(const SimRun& run, std::size_t expected, bool batch,
              const mqs::sim::SimConfig& cfg, const std::string& label,
              std::vector<std::string>& errors) {
  auto fail = [&](const std::string& what) { errors.push_back(label + ": " + what); };
  if (run.records.size() != expected) {
    fail(std::to_string(run.records.size()) + " records for " +
         std::to_string(expected) + " queries");
  }
  std::vector<std::uint64_t> ids;
  double first = 1e300, last = 0;
  for (const auto& r : run.records) {
    ids.push_back(r.queryId);
    if (r.failed || r.shed) fail("query " + r.predicate + " failed");
    if (!(r.arrivalTime <= r.startTime && r.startTime <= r.finishTime)) {
      fail("unordered timestamps for " + r.predicate);
    }
    first = std::min(first, r.arrivalTime);
    last = std::max(last, r.finishTime);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    fail("duplicate query records");
  }
  if (batch) {
    const double bandwidth =
        cfg.diskFarm.disk.bytesPerSecond * cfg.diskFarm.disks;
    const double floorS = static_cast<double>(run.io.bytesRead) / bandwidth;
    if (last - first < floorS * (1 - 1e-9)) {
      fail("makespan " + std::to_string(last - first) +
           " s is below the device floor " + std::to_string(floorS) + " s");
    }
  }
}

/// What the run keeps of one job: its end-to-end figures, and in traced
/// runs the untraced and traced simulations themselves.
struct JobResult {
  std::size_t fingerprint = 0;
  std::vector<std::string> errors;
  std::uint64_t queries = 0, failed = 0;
  std::vector<double> responses;  ///< interactive jobs, seconds
  double makespan = 0, cpuSeconds = 0, deviceBytes = 0;
  std::unique_ptr<SimRun> run, traced;
};

}  // namespace

void runSimPaper(const RunOptions& opt, RunResult& out) {
  const std::vector<std::string>& policies = mqs::sched::paperPolicyNames();
  const int subSeeds = opt.smoke ? 1 : kSubSeeds;
  const int tracedSubSeeds = opt.smoke ? 1 : kTracedSubSeeds;
  const std::size_t perRun = opt.smoke ? 32 : 256;

  // Job j simulates sub-seed j / (2P), policy (j / 2) % P, batch j % 2.
  const std::size_t perSeed = 2 * policies.size();
  const std::size_t jobs = static_cast<std::size_t>(subSeeds) * perSeed;
  const std::size_t tracedJobs = static_cast<std::size_t>(tracedSubSeeds) * perSeed;
  auto seedOf = [&](std::size_t j) {
    return mix64(opt.seed * 1000003ULL + j / perSeed);
  };
  auto policyOf = [&](std::size_t j) { return (j / 2) % policies.size(); };
  auto simulateJob = [&](std::size_t j, bool traced) {
    return simulate(seedOf(j), policies[policyOf(j)], j % 2 == 1, traced,
                    opt.smoke);
  };

  // The simulator is single-threaded and deterministic; independent jobs
  // go to kSimThreads threads. After the measured pass the threads replay
  // jobs until --seconds have passed; a replay must reproduce its job's
  // modeled outputs exactly.
  const auto start = Clock::now();
  // Set-up: generating a workload and starting a simulator, timed alone on
  // this thread kSetupRepeats times.
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    mqs::vm::VMSemantics sem;
    const auto clients = mqs::driver::WorkloadGenerator::generate(
        paperWorkload(seedOf(static_cast<std::size_t>(i) * perSeed), opt.smoke), sem);
    const mqs::sim::SimConfig cfg = paperServer(policies[0], opt.smoke);
    CountingModel model(&sem, cfg);
    mqs::sim::Simulator simr;
    mqs::sim::SimServer server(simr, &sem, &model, cfg);
    setups.push_back(secondsSince(t0));
  }
  std::vector<JobResult> results(jobs);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> replayed{0}, replayMismatches{0};
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < kSimThreads; ++t) {
      pool.emplace_back([&] {
        for (std::size_t j; (j = next.fetch_add(1)) < jobs;) {
          auto run = std::make_unique<SimRun>(simulateJob(j, false));
          JobResult& res = results[j];
          res.fingerprint = run->fingerprint();
          checkRun(*run, perRun, j % 2 == 1,
                   paperServer(policies[policyOf(j)], opt.smoke),
                   policies[policyOf(j)] + (j % 2 ? "/batch" : "/interactive") +
                       "/seed" + std::to_string(seedOf(j)),
                   res.errors);
          res.queries = run->records.size();
          for (const auto& r : run->records) res.failed += r.failed || r.shed;
          if (j % 2 == 1) {
            res.makespan = mqs::metrics::summarize(run->records).makespan;
          } else {
            for (const auto& r : run->records) res.responses.push_back(r.responseTime());
          }
          res.cpuSeconds = run->cpuSeconds;
          res.deviceBytes = static_cast<double>(run->io.bytesRead);
          if (opt.trace && j < tracedJobs) {
            res.traced = std::make_unique<SimRun>(simulateJob(j, true));
            res.run = std::move(run);
          }
        }
      });
    }
  }
  next = 0;
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < kSimThreads; ++t) {
      pool.emplace_back([&] {
        while (secondsSince(start) < opt.seconds) {
          const std::size_t j = next.fetch_add(1) % jobs;
          const SimRun replay = simulateJob(j, false);
          replayed += replay.records.size();
          if (replay.fingerprint() != results[j].fingerprint) ++replayMismatches;
        }
      });
    }
  }
  if (replayMismatches > 0) {
    out.fail(std::to_string(replayMismatches.load()) +
             " replays changed the modeled outputs");
  }
  out.attempted += replayed;

  // Per policy: pooled interactive responses and summed batch makespans.
  std::vector<std::vector<double>> responses(policies.size());
  std::vector<double> makespan(policies.size(), 0.0);
  double cpuS = 0, deviceBytes = 0, queries = 0;
  for (std::size_t j = 0; j < jobs; ++j) {
    const JobResult& res = results[j];
    for (const std::string& e : res.errors) out.fail(e);
    out.attempted += res.queries;
    out.failed += res.failed;
    const std::size_t p = policyOf(j);
    makespan[p] += res.makespan;
    responses[p].insert(responses[p].end(), res.responses.begin(),
                        res.responses.end());
    cpuS += res.cpuSeconds;
    deviceBytes += res.deviceBytes;
    queries += static_cast<double>(res.queries);
  }

  if (!opt.trace) {
    std::vector<double> tput, tmean, p50;
    for (std::size_t p = 0; p < policies.size(); ++p) {
      tput.push_back(static_cast<double>(perRun) * subSeeds / makespan[p]);
      tmean.push_back(trimmedMean95(responses[p]) * 1e3);
      p50.push_back(quantile(responses[p], 50) * 1e3);
    }
    out.put("throughput_qps", geomean(tput), "q/s");
    out.put("response_tmean_ms", geomean(tmean), "ms");
    out.put("response_p50_ms", geomean(p50), "ms");
    out.put("cpu_ms_per_query", cpuS * 1e3 / queries, "ms");
    out.put("device_mb_per_query", deviceBytes / 1e6 / queries, "MB");
    out.put("rss_peak_mb", peakRssMb(), "MB");
    out.put("setup_s", median(setups), "s");
    return;
  }

  // Per-layer figures from the traced sub-seeds.
  LayerAccumulator layers;
  layers.setTraceOut(opt.traceOut);
  double overlapSum = 0, waitSum = 0, tracedWall = 0, untracedWall = 0;
  double tracedQueries = 0, tracedBytes = 0;
  for (std::size_t j = 0; j < tracedJobs; ++j) {
    const SimRun& run = *results[j].run;
    const SimRun& traced = *results[j].traced;
    if (traced.fingerprint() != results[j].fingerprint) {
      out.fail("tracing changed the modeled outputs of job " + std::to_string(j));
    }
    const mqs::metrics::Summary sum = mqs::metrics::summarize(run.records);
    overlapSum += sum.avgOverlap;
    if (j % 2 == 0) waitSum += sum.meanWait;
    untracedWall += run.wallS;
    tracedWall += traced.wallS;
    tracedQueries += static_cast<double>(run.records.size());
    tracedBytes += static_cast<double>(run.io.bytesRead);
    layers.addTrace(traced.events);
    layers.addRecords(run.records, {});
    layers.addDataStore(run.ds);
    mqs::pagespace::PageSpaceManager::Stats ps;
    ps.hits = run.io.pageHits;
    ps.misses = run.io.pageReads;
    ps.merged = run.io.pageMerges;
    layers.addPageSpace(ps);
    layers.addScheduler(run.sched);
    layers.addProbes(run.overlapCalls, 0, 0, 0, 0, 0);
    layers.addDevice(run.io.pageReads,
                     static_cast<std::uint64_t>(run.io.diskBusyIntegral * 1e9));
  }
  // Replay the first sub-seed's batch through a standalone scheduler at the
  // batch's own queue depth.
  {
    const mqs::driver::WorkloadConfig wcfg = paperWorkload(seedOf(0), opt.smoke);
    mqs::vm::VMSemantics sem;
    const auto clients = mqs::driver::WorkloadGenerator::generate(wcfg, sem);
    const std::vector<mqs::vm::VMPredicate> preds =
        mqs::driver::WorkloadGenerator::interleave(clients);
    layers.replayScheduler(sem, preds, preds.size(), "CF");
    layers.timeCodec(preds);
  }
  const auto n = static_cast<double>(tracedJobs);
  layers.setSim(overlapSum / n, waitSum / (n / 2), tracedBytes / 1e9 / n);
  layers.setTraceOverhead(tracedQueries / tracedWall, tracedQueries / untracedWall);
  layers.emit(out);
}

}  // namespace perfbench
