// Shared vocabulary of the benchmark driver: run options, the metric sink,
// sample statistics and process resource readings.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/workload.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the smoke self-test (every check still runs).
  bool smoke = false;
  /// Flip one byte of one sampled image before checking (smoke self-test:
  /// the image check must catch it).
  bool corrupt = false;
  /// Traced runs: where to write the first traced round's Chrome trace.
  std::string traceOut;
};

/// One run's outcome: the JSON object printed as the last stdout line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< check failures, printed to stderr
  std::map<std::string, std::pair<double, std::string>> metrics;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& what) {
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- sample statistics ---------------------------------------------------

double median(std::vector<double> xs);
/// p in [0, 100], linear interpolation between order statistics.
double quantile(std::vector<double> xs, double p);
/// The paper's 95%-trimmed mean: drop the lowest and highest 2.5%.
double trimmedMean95(std::vector<double> xs);
double geomean(const std::vector<double>& xs);

// --- process readings ----------------------------------------------------

/// User + system CPU seconds of this process so far.
double processCpuSeconds();
/// Peak resident set size of this process, in MB.
double peakRssMb();

/// Stable 64-bit mix (SplitMix64 finalizer) for seeded sampling decisions.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- workloads -----------------------------------------------------------

/// The paper's client emulator at the figure benches' reduced scale: 16
/// clients x 16 queries split 8/6/2 over three 8192^2 slides, 256^2
/// subsampled outputs at zooms 2-16 (smoke: 2048^2 slides, 64^2 outputs, 2
/// queries per client). Used by sim_paper and browse.
mqs::driver::WorkloadConfig paperWorkload(std::uint64_t seed, bool smoke);

void runSimPaper(const RunOptions& opt, RunResult& out);
void runBrowse(const RunOptions& opt, RunResult& out);
void runColdAverage(const RunOptions& opt, RunResult& out);
void runZipfBurst(const RunOptions& opt, RunResult& out);

}  // namespace perfbench
