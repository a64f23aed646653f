// perfbench: the repository's benchmark driver.
//
//   perfbench --workload <sim_paper|browse|cold_average|zipf_burst>
//             --seed N --seconds S --trace 0|1 [--smoke 1] [--corrupt 1]
//             [--trace-out FILE]
//
// Runs one workload for about S seconds of measurement, checks the
// program's outputs, and prints one JSON object as the last stdout line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits non-zero when any check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> xs) { return quantile(std::move(xs), 50); }

double quantile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double trimmedMean95(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto drop = static_cast<std::size_t>(
      std::floor(0.025 * static_cast<double>(xs.size())));
  double acc = 0.0;
  for (std::size_t i = drop; i < xs.size() - drop; ++i) acc += xs[i];
  return acc / static_cast<double>(xs.size() - 2 * drop);
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += std::log(x);
  return std::exp(acc / static_cast<double>(xs.size()));
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

namespace {

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <sim_paper|browse|cold_average|"
               "zipf_burst> --seed N --seconds S --trace 0|1 [--smoke 1] "
               "[--corrupt 1] [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (key == "--smoke") {
        opt.smoke = std::stoi(val) != 0;
      } else if (key == "--corrupt") {
        opt.corrupt = std::stoi(val) != 0;
      } else if (key == "--trace-out") {
        opt.traceOut = val;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (!(opt.seconds > 0 && opt.seconds <= 600)) {
    return usage("--seconds must be in (0, 600]");
  }

  RunResult result;
  try {
    if (opt.workload == "sim_paper") {
      runSimPaper(opt, result);
    } else if (opt.workload == "browse") {
      runBrowse(opt, result);
    } else if (opt.workload == "cold_average") {
      runColdAverage(opt, result);
    } else if (opt.workload == "zipf_burst") {
      runZipfBurst(opt, result);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  for (const auto& [name, m] : result.metrics) {
    if (!std::isfinite(m.first)) result.fail("metric " + name + " is not finite");
  }
  if (result.attempted == 0) result.fail("no operation attempted");
  for (const std::string& e : result.errors) {
    std::cerr << "perfbench: check failed: " << e << "\n";
  }

  std::ostringstream os;
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
       << jsonNumber(std::isfinite(m.first) ? m.first : 0.0)
       << ", \"unit\": \"" << m.second << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return result.correct ? 0 : 1;
}
