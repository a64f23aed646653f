// The threaded-server workloads: browse, cold_average and zipf_burst.
//
// Each run is a sequence of whole rounds until --seconds of rounds have
// been measured. A round builds its inputs from a seed derived from --seed
// and the round number, starts a fresh QueryServer (and, for zipf_burst,
// a NetServer plus a TCP client) over the benchmark's own device, runs the
// load to completion and shuts everything down. Set-up is timed per round
// from input generation to the first query sent; the timed phase from the
// first query sent to the last answer received. Rounds of a traced run
// alternate untraced and traced servers over the same seeds: the traced
// rounds give the per-layer figures, the pairs the tracing overhead.
//
// Load threads, query workers and I/O threads are sized for a 4-core host;
// the device sleeps through its modeled latency and the closed-loop client
// threads block on their answers, so neither holds a core.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <iostream>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "device.hpp"
#include "driver/workload.hpp"
#include "layers.hpp"
#include "loadgen/workload.hpp"
#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "probes.hpp"
#include "reference.hpp"
#include "server/query_server.hpp"

namespace perfbench {

namespace {

using mqs::metrics::QueryRecord;
using mqs::vm::VMPredicate;

std::uint64_t roundSeed(std::uint64_t seed, int round) {
  return mix64(seed * 7919ULL + static_cast<std::uint64_t>(round));
}

// --- one round's server --------------------------------------------------

/// A QueryServer over BenchSlides, with the probes and the trace sink
/// installed when the round is traced.
class Rig {
 public:
  Rig(const mqs::vm::VMSemantics* vmSem,
      const std::vector<std::uint64_t>& slideSeeds,
      mqs::server::ServerConfig cfg, bool traced)
      : vmExec_(vmSem, 1, cfg.prefetchPages) {
    const mqs::query::QuerySemantics* sem = vmSem;
    const mqs::query::QueryExecutor* exec = &vmExec_;
    if (traced) {
      probeSem_ = std::make_unique<CountingSemantics>(vmSem);
      probeExec_ = std::make_unique<TimedExecutor>(&vmExec_, vmSem);
      sem = probeSem_.get();
      exec = probeExec_.get();
      cfg.traceSink = std::make_shared<mqs::trace::Tracer>();
    }
    server_ = std::make_unique<mqs::server::QueryServer>(sem, exec, cfg);
    for (std::size_t d = 0; d < slideSeeds.size(); ++d) {
      const auto id = static_cast<mqs::storage::DatasetId>(d);
      slides_.push_back(
          std::make_unique<BenchSlide>(vmSem->layout(id), slideSeeds[d], &dev_));
      server_->attach(id, slides_.back().get());
    }
  }

  mqs::server::QueryServer& server() { return *server_; }
  const DeviceCounters& device() const { return dev_; }

  /// Shuts the server down and returns its query records ordered by query
  /// id; a traced round also hands its figures to `layers`.
  std::vector<QueryRecord> finish(LayerAccumulator& layers,
                                  const std::vector<double>& clientResponse) {
    server_->shutdown();
    std::vector<QueryRecord> records = server_->collector().records();
    std::sort(records.begin(), records.end(),
              [](const QueryRecord& a, const QueryRecord& b) {
                return a.queryId < b.queryId;
              });
    if (!probeSem_) return records;
    layers.addRecords(records, clientResponse);
    layers.addDataStore(server_->dataStore().stats());
    layers.addPageSpace(server_->pageSpace().stats());
    layers.addScans(server_->pageSpace().scanRegistry().stats());
    layers.addScheduler(server_->scheduler().stats());
    layers.addDevice(dev_.pages.load(), dev_.readNs.load());
    layers.addProbes(probeSem_->overlapCalls.load(),
                     probeExec_->executeNs.load(),
                     probeExec_->executeCalls.load(),
                     probeExec_->inputBytes.load(),
                     probeExec_->projectNs.load(),
                     probeExec_->projectCalls.load());
    layers.addTrace(server_->tracer()->drain());
    return records;
  }

 private:
  DeviceCounters dev_;
  std::vector<std::unique_ptr<BenchSlide>> slides_;
  mqs::vm::VMExecutor vmExec_;
  std::unique_ptr<CountingSemantics> probeSem_;
  std::unique_ptr<TimedExecutor> probeExec_;
  std::unique_ptr<mqs::server::QueryServer> server_;
};

// --- sampled image checks ------------------------------------------------

/// Keeps a seeded sample of the run's images, plus the first image of each
/// way the server can build one, and checks them against the reference
/// renderer after the timed phase.
class ImageSampler {
 public:
  enum Kind { kRaw = 0, kCached, kWaited, kFolded, kKinds };

  ImageSampler(std::uint64_t seed, int perMille) : seed_(seed), perMille_(perMille) {}

  /// `rec` may be null when the server-side record is unknown.
  void offer(const VMPredicate& q, std::uint64_t slideSeed,
             const QueryRecord* rec, std::span<const std::byte> bytes) {
    const Kind kind = rec == nullptr ? kRaw : kindOf(rec->planShape);
    std::lock_guard lock(mu_);
    const std::uint64_t ordinal = offered_++;
    const bool sampled = mix64(seed_ ^ ordinal) % 1000 <
                         static_cast<std::uint64_t>(perMille_);
    const bool firstOfKind = rec != nullptr && !seen_[kind];
    if (!sampled && !firstOfKind) return;
    seen_[kind] = seen_[kind] || rec != nullptr;
    int tol = 0;
    if (q.op() == mqs::vm::VMOp::Average &&
        (rec == nullptr || rec->bytesReused > 0)) {
      tol = averagingTolerance(q.zoom());
    }
    kept_.push_back(Kept{q, slideSeed, kind, tol,
                         std::vector<std::byte>(bytes.begin(), bytes.end())});
  }

  void check(bool corrupt, RunResult& out) {
    if (corrupt && !kept_.empty()) kept_.front().bytes.back() ^= std::byte{1};
    int perKind[kKinds] = {};
    int inexact = 0;
    for (const Kept& k : kept_) {
      int maxDiff = 0;
      const std::string err = checkImage(k.q, k.slideSeed, k.bytes, k.tol, &maxDiff);
      if (!err.empty()) out.fail("image " + err);
      inexact += maxDiff > 0;
      ++perKind[k.kind];
    }
    std::cerr << "perfbench: checked " << kept_.size() << " images (raw "
              << perKind[kRaw] << ", projected " << perKind[kCached]
              << ", waited " << perKind[kWaited] << ", folded "
              << perKind[kFolded] << "); " << inexact
              << " averaging images differ from a direct render within "
                 "their re-rounding bound\n";
  }

 private:
  struct Kept {
    VMPredicate q;
    std::uint64_t slideSeed;
    Kind kind;
    int tol;
    std::vector<std::byte> bytes;
  };

  static Kind kindOf(const std::string& shape) {
    if (shape.find('F') != std::string::npos) return kFolded;
    if (shape.find('X') != std::string::npos) return kWaited;
    if (shape.find('C') != std::string::npos) return kCached;
    return kRaw;
  }

  std::uint64_t seed_;
  int perMille_;
  std::mutex mu_;
  std::uint64_t offered_ = 0;
  bool seen_[kKinds] = {};
  std::vector<Kept> kept_;
};

// --- run-level bookkeeping ----------------------------------------------

/// The figures of one round.
struct Round {
  double setupS = 0;
  double wallS = 0;
  double cpuS = 0;
  std::uint64_t completed = 0;
  std::uint64_t deviceBytes = 0;
  std::vector<double> responses;  ///< client-seen, seconds
};

/// Peak resident set size while it runs, sampled from /proc/self/statm
/// every 2 ms. Memory freed by earlier rounds is first handed back to the
/// system, so each round's peak is its own.
class RssPeak {
 public:
  RssPeak() {
    malloc_trim(0);
    sampler_ = std::jthread([this](std::stop_token stop) {
      const long page = sysconf(_SC_PAGESIZE);
      while (!stop.stop_requested()) {
        long size = 0, resident = 0;
        if (FILE* f = std::fopen("/proc/self/statm", "r")) {
          if (std::fscanf(f, "%ld %ld", &size, &resident) == 2) {
            peakBytes_ = std::max(peakBytes_.load(), resident * page);
          }
          std::fclose(f);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  double stopMb() {
    sampler_.request_stop();
    sampler_.join();
    return static_cast<double>(peakBytes_.load()) / (1 << 20);
  }

 private:
  std::atomic<long> peakBytes_{0};
  std::jthread sampler_;
};

/// A run's end-to-end figures: each is taken per round and the run reports
/// the median over rounds, so a round caught by a host stall does not move
/// it. Device bytes per query pool all rounds.
struct RunTotals {
  std::vector<double> tput, tmean, p50, cpuPerQ, setup, rss;
  double completed = 0, wallS = 0, deviceBytes = 0;
  double tracedQ = 0, tracedS = 0;

  void add(const Round& r, bool traced, double rssMb) {
    if (traced) {
      tracedQ += static_cast<double>(r.completed);
      tracedS += r.wallS;
      return;
    }
    tput.push_back(static_cast<double>(r.completed) / r.wallS);
    tmean.push_back(trimmedMean95(r.responses) * 1e3);
    p50.push_back(quantile(r.responses, 50) * 1e3);
    cpuPerQ.push_back(r.cpuS * 1e3 / static_cast<double>(r.completed));
    setup.push_back(r.setupS);
    rss.push_back(rssMb);
    completed += static_cast<double>(r.completed);
    wallS += r.wallS;
    deviceBytes += static_cast<double>(r.deviceBytes);
  }

  void emit(RunResult& out) const {
    out.put("throughput_qps", median(tput), "q/s");
    out.put("response_tmean_ms", median(tmean), "ms");
    out.put("response_p50_ms", median(p50), "ms");
    out.put("cpu_ms_per_query", median(cpuPerQ), "ms");
    out.put("device_mb_per_query", deviceBytes / 1e6 / completed, "MB");
    out.put("rss_peak_mb", median(rss), "MB");
    out.put("setup_s", median(setup), "s");
  }
};

/// Runs rounds until `seconds` of timed phases have been measured. `round`
/// runs one round with the given seed and tracing flag.
void runRounds(const RunOptions& opt, RunResult& out, LayerAccumulator& layers,
               const std::function<Round(std::uint64_t, bool)>& round) {
  RunTotals totals;
  double measured = 0;
  for (int i = 0; i == 0 || measured < opt.seconds; ++i) {
    const std::uint64_t seed = roundSeed(opt.seed, i);
    RssPeak rss;
    const Round r = round(seed, false);
    const double rssMb = rss.stopMb();
    totals.add(r, false, rssMb);
    measured += r.wallS;
    std::cerr << "perfbench: round " << i << ": " << r.completed
              << " queries in " << r.wallS << " s, cpu " << r.cpuS
              << " s, tmean " << trimmedMean95(r.responses) * 1e3
              << " ms, p50 " << quantile(r.responses, 50) * 1e3 << " ms, p95 "
              << quantile(r.responses, 95) * 1e3 << " ms, setup " << r.setupS
              << " s, rss " << rssMb << " MB\n";
    if (opt.trace) {
      const Round t = round(seed, true);
      totals.add(t, true, 0);
      measured += t.wallS;
    }
  }
  if (!opt.trace) {
    totals.emit(out);
    return;
  }
  layers.setTraceOverhead(totals.tracedQ / totals.tracedS,
                          totals.completed / totals.wallS);
  layers.emit(out);
}

/// Closed-loop clients on threads of their own: each sends its next query
/// only after the previous answer arrived. Returns the round's figures.
Round closedLoop(Rig& rig, const std::vector<std::vector<VMPredicate>>& streams,
                 const std::vector<std::uint64_t>& slideSeeds,
                 ImageSampler& sampler, RunResult& out,
                 Clock::time_point setupStart) {
  Round r;
  std::mutex mu;
  std::vector<double> responses;
  std::uint64_t failures = 0;
  const double cpu0 = processCpuSeconds();
  const auto t0 = Clock::now();
  r.setupS = std::chrono::duration<double>(t0 - setupStart).count();
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < streams.size(); ++c) {
      clients.emplace_back([&, c] {
        std::vector<double> mine;
        std::uint64_t failed = 0;
        for (const VMPredicate& q : streams[c]) {
          const auto sent = Clock::now();
          try {
            mqs::server::QueryResult res =
                rig.server().submit(q.clone(), static_cast<int>(c)).get();
            mine.push_back(secondsSince(sent));
            sampler.offer(q, slideSeeds[q.dataset()], &res.record, res.bytes);
          } catch (const std::exception& e) {
            ++failed;
            std::lock_guard lock(mu);
            out.fail(q.describe() + " failed: " + e.what());
          }
        }
        std::lock_guard lock(mu);
        responses.insert(responses.end(), mine.begin(), mine.end());
        failures += failed;
      });
    }
  }
  r.wallS = secondsSince(t0);
  r.cpuS = processCpuSeconds() - cpu0;
  r.responses = std::move(responses);
  r.completed = r.responses.size();
  r.deviceBytes = rig.device().bytes.load();
  out.failed += failures;
  for (const auto& s : streams) out.attempted += s.size();
  return r;
}

}  // namespace

// --- browse ---------------------------------------------------------------

void runBrowse(const RunOptions& opt, RunResult& out) {
  // paperWorkload()'s 16 clients (8/6/2 over three 8192^2 slides, the
  // paper's pan/zoom/hotspot model, 256^2 subsampled outputs at zooms 2-16)
  // run as closed loops.
  mqs::server::ServerConfig scfg;
  scfg.policy = "CF";
  scfg.threads = 3;
  scfg.psIoThreads = 4;
  scfg.prefetchPages = 4;
  scfg.dsBytes = 16ULL << 20;
  scfg.psBytes = 16ULL << 20;

  ImageSampler sampler(opt.seed, 20);
  LayerAccumulator layers;
  if (opt.trace) layers.setTraceOut(opt.traceOut);
  bool replayed = false;
  runRounds(opt, out, layers, [&](std::uint64_t seed, bool traced) {
    const auto setupStart = Clock::now();
    const mqs::driver::WorkloadConfig wcfg = paperWorkload(seed, opt.smoke);
    mqs::vm::VMSemantics sem;
    const auto clients = mqs::driver::WorkloadGenerator::generate(wcfg, sem);
    std::vector<std::uint64_t> slideSeeds;
    for (const auto& d : wcfg.datasets) slideSeeds.push_back(mix64(seed ^ d.seed));
    std::vector<std::vector<VMPredicate>> streams;
    for (const auto& c : clients) streams.push_back(c.queries);
    Rig rig(&sem, slideSeeds, scfg, traced);
    Round r = closedLoop(rig, streams, slideSeeds, sampler, out, setupStart);
    rig.finish(layers, r.responses);
    if (traced && !replayed) {
      replayed = true;
      const auto preds = mqs::driver::WorkloadGenerator::interleave(clients);
      layers.replayScheduler(sem, preds, streams.size(), scfg.policy);
      layers.timeCodec(preds);
    }
    return r;
  });
  sampler.check(opt.corrupt, out);
}

// --- cold_average -----------------------------------------------------------

void runColdAverage(const RunOptions& opt, RunResult& out) {
  // One closed-loop client per worker sweeps its own band of two
  // 65536^2 slides in raster order with 512^2 zoom-4 averaging queries.
  // Regions are aligned to the 128-pixel chunks and never repeat, so every
  // byte comes from the device and nothing can be reused.
  const std::int64_t side = opt.smoke ? 8192 : 65536;
  const std::int64_t chunk = 128;
  const std::int64_t region = 512;
  const int perClient = opt.smoke ? 3 : 160;
  mqs::server::ServerConfig scfg;
  scfg.policy = "CF";
  scfg.threads = 3;
  scfg.psIoThreads = 2;
  scfg.prefetchPages = 4;
  scfg.dsBytes = 16ULL << 20;
  scfg.psBytes = 8ULL << 20;

  ImageSampler sampler(opt.seed, 10);
  LayerAccumulator layers;
  if (opt.trace) layers.setTraceOut(opt.traceOut);
  bool replayed = false;
  runRounds(opt, out, layers, [&](std::uint64_t seed, bool traced) {
    const auto setupStart = Clock::now();
    mqs::vm::VMSemantics sem;
    std::vector<std::uint64_t> slideSeeds;
    for (int d = 0; d < 2; ++d) {
      sem.addDataset(mqs::index::ChunkLayout(side, side, chunk));
      slideSeeds.push_back(mix64(seed + static_cast<std::uint64_t>(d)));
    }
    const std::int64_t tilesPerRow = side / region;
    const std::int64_t tiles = tilesPerRow * tilesPerRow;
    std::vector<std::vector<VMPredicate>> streams(
        static_cast<std::size_t>(scfg.threads));
    for (std::size_t c = 0; c < streams.size(); ++c) {
      // Client c sweeps slide c % 2 from a seeded tile; the streams of the
      // two clients sharing a slide start half a slide apart.
      const auto ds = static_cast<mqs::storage::DatasetId>(c % 2);
      const std::int64_t start =
          static_cast<std::int64_t>(mix64(seed + 31 * ds) % static_cast<std::uint64_t>(tiles)) +
          static_cast<std::int64_t>(c / 2) * (tiles / 2);
      for (int i = 0; i < perClient; ++i) {
        const std::int64_t t = (start + i) % tiles;
        const std::int64_t x = (t % tilesPerRow) * region;
        const std::int64_t y = (t / tilesPerRow) * region;
        streams[c].emplace_back(ds, mqs::Rect{x, y, x + region, y + region}, 4,
                                mqs::vm::VMOp::Average);
      }
    }
    Rig rig(&sem, slideSeeds, scfg, traced);
    Round r = closedLoop(rig, streams, slideSeeds, sampler, out, setupStart);
    rig.finish(layers, r.responses);
    if (traced && !replayed) {
      replayed = true;
      std::vector<VMPredicate> preds;
      for (const auto& s : streams) preds.insert(preds.end(), s.begin(), s.end());
      layers.replayScheduler(sem, preds, streams.size(), scfg.policy);
      layers.timeCodec(preds);
    }
    return r;
  });
  sampler.check(opt.corrupt, out);
}

// --- zipf_burst -------------------------------------------------------------

void runZipfBurst(const RunOptions& opt, RunResult& out) {
  // A burst of Zipf-popular 512^2 regions of a 4096^2 slide at zooms 1-8,
  // half of them averaging, pipelined over one TCP connection.
  const int burst = opt.smoke ? 40 : 1000;
  mqs::server::ServerConfig scfg;
  scfg.policy = "CF";
  scfg.threads = 2;
  scfg.psIoThreads = 1;
  scfg.prefetchPages = 4;
  scfg.dsBytes = 32ULL << 20;
  scfg.psBytes = 16ULL << 20;
  const mqs::net::CodecRegistry codecs = mqs::net::CodecRegistry::standard();

  // Images are picked when sent (0.5% plus each round's first four) and
  // all of them are checked.
  ImageSampler sampler(opt.seed, 1000);
  LayerAccumulator layers;
  if (opt.trace) layers.setTraceOut(opt.traceOut);
  bool replayed = false;
  runRounds(opt, out, layers, [&](std::uint64_t seed, bool traced) {
    const auto setupStart = Clock::now();
    mqs::loadgen::WorkloadConfig wcfg;
    wcfg.slideWidth = wcfg.slideHeight = opt.smoke ? 1024 : 4096;
    wcfg.regionSide = 512;
    wcfg.zooms = {1, 2, 4, 8};
    wcfg.averageOpFraction = 0.5;
    wcfg.seed = seed;
    const mqs::loadgen::QueryFactory factory(wcfg);
    mqs::Rng rng(seed ^ 0x6275727374ULL);
    std::vector<VMPredicate> preds;
    for (int i = 0; i < burst; ++i) preds.push_back(factory.make(rng));
    mqs::vm::VMSemantics sem;
    sem.addDataset(mqs::index::ChunkLayout(wcfg.slideWidth, wcfg.slideHeight, 128));
    const std::vector<std::uint64_t> slideSeeds = {mix64(seed + 1)};

    Rig rig(&sem, slideSeeds, scfg, traced);
    mqs::net::NetServer net(rig.server(), &codecs, 0);
    mqs::net::NetClient client("127.0.0.1", net.port(), &codecs);

    Round r;
    std::vector<Clock::time_point> sentAt(preds.size());
    std::vector<std::vector<std::byte>> keep(preds.size());
    std::vector<bool> keepIt(preds.size());
    for (std::size_t i = 0; i < preds.size(); ++i) {
      keepIt[i] = mix64(seed ^ (i * 0x9e37ULL)) % 1000 < 5 || i < 4;
    }
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    r.setupS = std::chrono::duration<double>(t0 - setupStart).count();
    std::mutex sentMu;
    std::jthread sender([&] {
      for (std::size_t i = 0; i < preds.size(); ++i) {
        {
          std::lock_guard lock(sentMu);
          sentAt[i] = Clock::now();
        }
        client.send(preds[i]);
      }
    });
    std::uint64_t failures = 0;
    for (std::size_t n = 0; n < preds.size(); ++n) {
      mqs::net::NetClient::Outcome o = client.receiveAny();
      const auto now = Clock::now();
      const std::size_t i = o.requestId - 1;
      if (i >= preds.size()) throw std::runtime_error("unknown request id");
      if (o.status != mqs::net::NetClient::Outcome::Status::Result) {
        ++failures;
        out.fail(preds[i].describe() + " failed over the wire: " + o.message);
        continue;
      }
      {
        std::lock_guard lock(sentMu);
        r.responses.push_back(std::chrono::duration<double>(now - sentAt[i]).count());
      }
      if (keepIt[i]) keep[i] = std::move(o.bytes);
    }
    sender.join();
    r.wallS = secondsSince(t0);
    r.cpuS = processCpuSeconds() - cpu0;
    r.completed = r.responses.size();
    r.deviceBytes = rig.device().bytes.load();
    out.attempted += preds.size();
    out.failed += failures;
    client.close();
    net.stop();

    // One connection submits in order, so the server's query ids follow
    // the request ids; a record is used only when its predicate agrees.
    const std::vector<QueryRecord> records = rig.finish(layers, r.responses);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (!keepIt[i] || keep[i].empty()) continue;
      const QueryRecord* rec =
          i < records.size() && records[i].predicate == preds[i].describe()
              ? &records[i]
              : nullptr;
      sampler.offer(preds[i], slideSeeds[0], rec, keep[i]);
    }
    if (traced && !replayed) {
      replayed = true;
      layers.replayScheduler(sem, preds, preds.size(), scfg.policy);
      layers.timeCodec(preds);
    }
    return r;
  });
  sampler.check(opt.corrupt, out);
}

}  // namespace perfbench
