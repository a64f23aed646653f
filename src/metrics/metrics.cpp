#include "metrics/metrics.hpp"

#include <algorithm>
#include <map>

#include "common/stats.hpp"

namespace mqs::metrics {

void Collector::add(QueryRecord record) {
  MutexLock lock(mu_);
  records_.push_back(std::move(record));
}

std::vector<QueryRecord> Collector::records() const {
  MutexLock lock(mu_);
  return records_;
}

std::size_t Collector::count() const {
  MutexLock lock(mu_);
  return records_.size();
}

Summary summarize(const std::vector<QueryRecord>& records) {
  Summary s;
  s.queries = records.size();
  if (records.empty()) return s;

  std::vector<double> response, wait, exec;
  response.reserve(records.size());
  double firstArrival = records.front().arrivalTime;
  double lastFinish = records.front().finishTime;
  double overlapSum = 0.0;
  double stallSum = 0.0;
  std::size_t reused = 0;
  std::int64_t sourceSum = 0;
  for (const QueryRecord& r : records) {
    if (r.failed) ++s.failedQueries;
    if (r.shed) ++s.shedQueries;
    response.push_back(r.responseTime());
    wait.push_back(r.waitTime());
    exec.push_back(r.execTime());
    firstArrival = std::min(firstArrival, r.arrivalTime);
    lastFinish = std::max(lastFinish, r.finishTime);
    overlapSum += r.overlapUsed;
    stallSum += r.ioStallTime;
    if (r.overlapUsed > 0.0) ++reused;
    s.totalDiskBytes += r.bytesFromDisk;
    s.totalReusedBytes += r.bytesReused;
    sourceSum += r.reuseSources;
    if (r.reuseSources > 1) ++s.multiSourceQueries;
  }
  s.trimmedResponse = trimmedMean95(response);
  s.p50Response = percentile(response, 50);
  s.p95Response = percentile(response, 95);
  s.p99Response = percentile(response, 99);
  s.p999Response = percentile(response, 99.9);
  s.meanResponse = mean(response);
  s.meanWait = mean(wait);
  s.meanExec = mean(exec);
  s.meanIoStall = stallSum / static_cast<double>(records.size());
  s.makespan = lastFinish - firstArrival;
  s.avgOverlap = overlapSum / static_cast<double>(records.size());
  s.reuseRate = static_cast<double>(reused) / static_cast<double>(records.size());
  s.avgReuseSources =
      static_cast<double>(sourceSum) / static_cast<double>(records.size());
  std::vector<double> clientMeans;
  for (const auto& [client, meanResp] : perClientMeanResponse(records)) {
    clientMeans.push_back(meanResp);
  }
  s.clientFairness = jainFairness(clientMeans);
  return s;
}

std::vector<std::pair<int, double>> perClientMeanResponse(
    const std::vector<QueryRecord>& records) {
  std::map<int, std::pair<double, std::size_t>> acc;  // sum, count
  for (const QueryRecord& r : records) {
    if (r.client < 0) continue;
    auto& [sum, count] = acc[r.client];
    sum += r.responseTime();
    ++count;
  }
  std::vector<std::pair<int, double>> out;
  out.reserve(acc.size());
  for (const auto& [client, sc] : acc) {
    out.emplace_back(client, sc.first / static_cast<double>(sc.second));
  }
  return out;
}

double jainFairness(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0, sumSq = 0.0;
  for (double x : xs) {
    sum += x;
    sumSq += x * x;
  }
  if (sumSq <= 0.0) return 1.0;  // all zeros: perfectly equal
  return (sum * sum) / (static_cast<double>(xs.size()) * sumSq);
}

}  // namespace mqs::metrics
