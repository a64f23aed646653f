// mqs — command-line front door to the middleware.
//
//   mqs serve  [--port 0] [--policy CF] [--threads 4] [--datasets 3]
//              [--side 8192] [--ds 64MB] [--ps 32MB] [--prefetch 4]
//              [--io-threads 4] [--reuse-sources 4]
//              [--ds-eviction LRU] [--spill-bytes 0] [--spill-dir DIR]
//              [--queue-limit 0] [--client-quota 0]
//              [--client-byte-quota 0] [--deadline 0] [--shed]
//              [--predictive-shed] [--trace-out serve.trace.json]
//       Start a query server on synthetic slides and print the port;
//       runs until stdin closes (pipe `sleep inf |` for a daemon).
//       --queue-limit/--client-quota bound admission, --deadline + --shed
//       drop doomed queries (DESIGN.md §11). --ds-eviction picks the Data
//       Store victim ranker (LRU|LFU|LARGEST|COST) and --spill-bytes > 0
//       enables the disk spill tier (DESIGN.md §13; --spill-dir places the
//       payload files, default in-memory). --trace-out dumps the
//       lifecycle trace on shutdown.
//
//   mqs query  --port P [--dataset 0] [--x 0 --y 0] [--side 1024]
//              [--zoom 4] [--op subsample|average] [--out img.ppm]
//       Execute one remote query; optionally save the image.
//
//   mqs experiment [--policy CF] [--threads 4] [--op subsample]
//                  [--batch] [--ds 64MB] [--ps 32MB] [--full]
//                  [--ds-eviction LRU] [--spill-bytes 0]
//                  [--reuse-sources 4] [--trace-out run.trace.json]
//                  [--query-csv queries.csv]
//       Run the paper's client workload on the deterministic DES and
//       print the summary row. --trace-out writes the query-lifecycle
//       trace as Chrome trace_event JSON (load in ui.perfetto.dev);
//       --query-csv writes one row of lifecycle accounting per query.
//
//   mqs trace-gen --out trace.txt [--seed 42]
//       Generate the paper workload and save it as a replayable trace.
//
//   mqs loadgen --port P [--host 127.0.0.1] [--rate 50] [--duration 10]
//               [--connections 4] [--arrival poisson|bursty|diurnal]
//               [--dataset 0] [--side 8192] [--region 256] [--zipf-s 1.1]
//               [--seed 1] [--json]
//       Open-loop wire-protocol load against a running `mqs serve`
//       (DESIGN.md §11): Poisson/bursty/diurnal arrivals, zipfian region
//       popularity, latency percentiles measured from the *scheduled*
//       arrival (no coordinated omission). Prints a summary table, or the
//       full report as JSON with --json. Pair with the serve overload
//       flags (--queue-limit, --client-quota, --deadline, --shed) to
//       watch admission control and load shedding engage.
#include <iostream>
#include <string>

#include "common/bytes.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "driver/sim_experiment.hpp"
#include "driver/trace.hpp"
#include "loadgen/loadgen.hpp"
#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "storage/synthetic_source.hpp"
#include "trace/export.hpp"
#include "vm/image.hpp"
#include "vm/vm_executor.hpp"

using namespace mqs;

namespace {

int usage() {
  std::cerr << "usage: mqs <serve|query|experiment|trace-gen|loadgen>"
               " [options]\n"
               "see the header of tools/mqs_cli.cpp for the full list\n";
  return 2;
}

driver::WorkloadConfig paperWorkload(const Options& opts) {
  driver::WorkloadConfig wl;
  const bool full = opts.getBool("full", false);
  const std::int64_t side = full ? 30000 : 8192;
  wl.datasets = {driver::DatasetSpec{side, side, 146, 11},
                 driver::DatasetSpec{side, side, 146, 22},
                 driver::DatasetSpec{side, side, 146, 33}};
  wl.outputSide = full ? 1024 : 256;
  wl.zoomLevels = {2, 4, 8, 16};
  wl.zoomWeights = {2, 3, 2, 1};
  wl.alignGrid = 32;
  wl.op = opts.getString("op", "subsample") == "average"
              ? vm::VMOp::Average
              : vm::VMOp::Subsample;
  wl.seed = opts.getInt("seed", 20020415);
  return wl;
}

int cmdServe(const Options& opts) {
  vm::VMSemantics semantics;
  std::vector<std::unique_ptr<storage::SyntheticSlideSource>> sources;
  const auto datasets = opts.getInt("datasets", 3);
  const auto side = opts.getInt("side", 8192);
  for (std::int64_t d = 0; d < datasets; ++d) {
    const auto id =
        semantics.addDataset(index::ChunkLayout(side, side, 146));
    sources.push_back(std::make_unique<storage::SyntheticSlideSource>(
        semantics.layout(id), static_cast<std::uint64_t>(11 * (d + 1))));
  }
  server::ServerConfig cfg;
  cfg.threads = static_cast<int>(opts.getInt("threads", 4));
  cfg.policy = opts.getString("policy", "CF");
  cfg.dsBytes = opts.getBytes("ds", 64 * MiB);
  cfg.psBytes = opts.getBytes("ps", 32 * MiB);
  cfg.prefetchPages = static_cast<int>(opts.getInt("prefetch", 4));
  cfg.psIoThreads = static_cast<int>(opts.getInt("io-threads", 4));
  cfg.maxReuseSources =
      static_cast<int>(opts.getInt("reuse-sources", cfg.maxReuseSources));
  // Cost-aware caching and the spill tier (DESIGN.md §13).
  cfg.dsEviction = opts.getString("ds-eviction", cfg.dsEviction);
  cfg.spillBytes = opts.has("spill-bytes") ? opts.getBytes("spill-bytes", 0)
                                           : cfg.spillBytes;
  cfg.spillDir = opts.getString("spill-dir", cfg.spillDir);
  // Overload defenses (DESIGN.md §11) — all off by default.
  cfg.admissionQueueLimit =
      static_cast<std::size_t>(opts.getInt("queue-limit", 0));
  cfg.maxQueuedPerClient = static_cast<int>(opts.getInt("client-quota", 0));
  cfg.maxQueuedBytesPerClient =
      opts.has("client-byte-quota") ? opts.getBytes("client-byte-quota", 0)
                                    : 0;
  cfg.queryDeadlineSec = opts.getDouble("deadline", cfg.queryDeadlineSec);
  cfg.shedDeadlineMisses = opts.getBool("shed", false);
  cfg.predictiveShedding = opts.getBool("predictive-shed", false);
  if (opts.has("trace-out")) {
    cfg.traceSink = std::make_shared<trace::Tracer>();
  }
  vm::VMExecutor executor(&semantics, /*intraQueryThreads=*/1,
                          cfg.prefetchPages);
  server::QueryServer queryServer(&semantics, &executor, cfg);
  for (std::size_t d = 0; d < sources.size(); ++d) {
    queryServer.attach(static_cast<storage::DatasetId>(d), sources[d].get());
  }

  const auto codecs = net::CodecRegistry::standard();
  net::NetServer netServer(queryServer, &codecs,
                           static_cast<std::uint16_t>(opts.getInt("port", 0)));
  std::cout << "mqs server on 127.0.0.1:" << netServer.port() << " — "
            << datasets << " datasets of " << side << "^2, policy "
            << cfg.policy << "; close stdin to stop\n"
            << std::flush;

  // Serve until stdin closes.
  std::string line;
  while (std::getline(std::cin, line)) {
  }
  const auto summary = metrics::summarize(queryServer.collector().records());
  std::cout << "served " << summary.queries << " queries, reuse rate "
            << summary.reuseRate << "\n";
  netServer.stop();
  queryServer.shutdown();
  if (cfg.traceSink != nullptr) {
    const auto path = opts.getString("trace-out", "serve.trace.json");
    std::cout << (trace::writeChromeTrace(path, cfg.traceSink->drain())
                      ? "wrote "
                      : "FAILED to write ")
              << path << "\n";
  }
  return 0;
}

int cmdQuery(const Options& opts) {
  if (!opts.has("port")) {
    std::cerr << "query requires --port\n";
    return 2;
  }
  const auto codecs = net::CodecRegistry::standard();
  net::NetClient client("127.0.0.1",
                        static_cast<std::uint16_t>(opts.getInt("port", 0)),
                        &codecs);
  const auto zoom = static_cast<std::uint32_t>(opts.getInt("zoom", 4));
  const std::int64_t side = opts.getInt("side", 1024) *
                            static_cast<std::int64_t>(zoom);
  const vm::VMPredicate q(
      static_cast<storage::DatasetId>(opts.getInt("dataset", 0)),
      Rect::ofSize(opts.getInt("x", 0), opts.getInt("y", 0), side, side),
      zoom,
      opts.getString("op", "subsample") == "average" ? vm::VMOp::Average
                                                     : vm::VMOp::Subsample);
  std::cout << "query " << q.describe() << "\n";
  const auto bytes = client.execute(q);
  std::cout << "received " << formatBytes(bytes.size()) << "\n";
  if (opts.has("out")) {
    const auto img =
        vm::ImageRGB::fromBytes(bytes, q.outWidth(), q.outHeight());
    const auto path = opts.getString("out", "query.ppm");
    std::cout << "wrote " << path << ": " << vm::writePpm(img, path) << "\n";
  }
  return 0;
}

int cmdExperiment(const Options& opts) {
  sim::SimConfig cfg;
  cfg.policy = opts.getString("policy", "CF");
  cfg.threads = static_cast<int>(opts.getInt("threads", 4));
  const bool full = opts.getBool("full", false);
  cfg.dsBytes = opts.getBytes("ds", full ? 64 * MiB : 4 * MiB);
  cfg.psBytes = opts.getBytes("ps", full ? 32 * MiB : 2 * MiB);
  cfg.ioModel = opts.getString("io", "kstream");
  cfg.prefetchPages = static_cast<int>(opts.getInt("prefetch", 0));
  cfg.dsEviction = opts.getString("ds-eviction", cfg.dsEviction);
  cfg.spillBytes = opts.has("spill-bytes") ? opts.getBytes("spill-bytes", 0)
                                           : cfg.spillBytes;
  cfg.maxReuseSources =
      static_cast<int>(opts.getInt("reuse-sources", cfg.maxReuseSources));
  if (opts.has("trace-out")) {
    cfg.traceSink = std::make_shared<trace::Tracer>();
  }

  const auto wl = paperWorkload(opts);
  const bool batch = opts.getBool("batch", false);
  const auto result = batch
                          ? driver::SimExperiment::runBatch(wl, cfg)
                          : driver::SimExperiment::runInteractive(wl, cfg);

  if (opts.has("trace-out")) {
    const auto path = opts.getString("trace-out", "experiment.trace.json");
    if (trace::writeChromeTrace(path, result.traceEvents)) {
      std::cout << "wrote " << path << " (" << result.traceEvents.size()
                << " events)\n";
    } else {
      std::cerr << "FAILED to write " << path << "\n";
      return 1;
    }
  }
  if (opts.has("query-csv")) {
    const auto path = opts.getString("query-csv", "queries.csv");
    if (trace::writeQueryCsv(path, result.records)) {
      std::cout << "wrote " << path << " (" << result.records.size()
                << " queries)\n";
    } else {
      std::cerr << "FAILED to write " << path << "\n";
      return 1;
    }
  }

  Table table(std::string("experiment — ") + cfg.policy + ", " +
              (batch ? "batch" : "interactive") + ", " +
              (wl.op == vm::VMOp::Average ? "averaging" : "subsampling"));
  table.setColumns({"metric", "value"});
  table.addRow({"queries", std::to_string(result.summary.queries)});
  table.addRow({"trimmed response (s)",
                formatDouble(result.summary.trimmedResponse, 3)});
  table.addRow({"makespan (s)", formatDouble(result.summary.makespan, 2)});
  table.addRow({"avg overlap", formatDouble(result.summary.avgOverlap, 3)});
  table.addRow({"fairness", formatDouble(result.summary.clientFairness, 3)});
  table.addRow({"device bytes", formatBytes(result.io.bytesRead)});
  table.addRow({"DES events", std::to_string(result.events)});
  if (cfg.spillBytes > 0) {
    table.addRow({"spill demoted / restored",
                  std::to_string(result.spillStats.demoted) + " / " +
                      std::to_string(result.spillStats.restored)});
  }
  table.print(std::cout);
  return 0;
}

int cmdTraceGen(const Options& opts) {
  vm::VMSemantics semantics;
  const auto wl = paperWorkload(opts);
  const auto workloads = driver::WorkloadGenerator::generate(wl, semantics);
  const auto path = opts.getString("out", "trace.txt");
  const bool ok = driver::saveTrace(path, workloads);
  std::cout << (ok ? "wrote " : "FAILED to write ") << path << " ("
            << workloads.size() << " clients)\n";
  return ok ? 0 : 1;
}

int cmdLoadgen(const Options& opts) {
  if (!opts.has("port")) {
    std::cerr << "loadgen requires --port\n";
    return 2;
  }
  loadgen::LoadGenConfig cfg;
  cfg.host = opts.getString("host", "127.0.0.1");
  cfg.port = static_cast<std::uint16_t>(opts.getInt("port", 0));
  cfg.connections = static_cast<int>(opts.getInt("connections", 4));
  cfg.durationSec = opts.getDouble("duration", 10.0);
  cfg.arrival.kind =
      loadgen::parseArrivalKind(opts.getString("arrival", "poisson"));
  cfg.arrival.ratePerSec = opts.getDouble("rate", 50.0);
  cfg.workload.dataset =
      static_cast<storage::DatasetId>(opts.getInt("dataset", 0));
  const auto side = opts.getInt("side", 8192);
  cfg.workload.slideWidth = side;
  cfg.workload.slideHeight = side;
  cfg.workload.regionSide = opts.getInt("region", 256);
  cfg.workload.zipfS = opts.getDouble("zipf-s", 1.1);
  cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed", 1));

  const auto codecs = net::CodecRegistry::standard();
  std::cout << "loadgen: " << loadgen::toString(cfg.arrival.kind)
            << " arrivals at " << cfg.arrival.ratePerSec << " q/s over "
            << cfg.connections << " connections for " << cfg.durationSec
            << "s\n"
            << std::flush;
  const loadgen::LoadGenReport rep = loadgen::runLoad(cfg, &codecs);

  if (opts.getBool("json", false)) {
    std::cout << rep.toJson() << "\n";
    return 0;
  }
  const auto pctMs = [&rep](double p) {
    return formatDouble(
        static_cast<double>(rep.latency.percentileNanos(p)) / 1e6, 1);
  };
  Table table("loadgen — open-loop, measured from scheduled arrival");
  table.setColumns({"metric", "value"});
  table.addRow({"offered", std::to_string(rep.offered)});
  table.addRow({"completed", std::to_string(rep.completed)});
  table.addRow({"failed", std::to_string(rep.failed)});
  table.addRow({"rejected (queue full)",
                std::to_string(rep.rejectedQueueFull)});
  table.addRow({"rejected (client quota)",
                std::to_string(rep.rejectedQuota)});
  table.addRow({"shed (deadline)", std::to_string(rep.shedDeadline)});
  table.addRow({"errors / timeouts / send failures",
                std::to_string(rep.errors) + " / " +
                    std::to_string(rep.timeouts) + " / " +
                    std::to_string(rep.sendFailures)});
  table.addRow({"goodput (q/s)", formatDouble(rep.goodputPerSec(), 1)});
  table.addRow({"shed+reject rate", formatDouble(rep.shedRate(), 3)});
  table.addRow({"p50 / p95 / p99 / p99.9 (ms)",
                pctMs(50) + " / " + pctMs(95) + " / " + pctMs(99) + " / " +
                    pctMs(99.9)});
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  if (opts.positional().empty()) return usage();
  const std::string& cmd = opts.positional()[0];
  try {
    if (cmd == "serve") return cmdServe(opts);
    if (cmd == "query") return cmdQuery(opts);
    if (cmd == "experiment") return cmdExperiment(opts);
    if (cmd == "trace-gen") return cmdTraceGen(opts);
    if (cmd == "loadgen") return cmdLoadgen(opts);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
