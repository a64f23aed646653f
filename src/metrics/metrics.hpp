// Experiment measurement: per-query records and run-level summaries.
//
// The paper reports (a) the 95%-trimmed mean of query response time (wait in
// queue + execution), (b) the average overlap achieved, and (c) total batch
// execution time. QueryRecord captures everything needed for all three plus
// the reuse/I/O accounting used by the caching-effect experiment (E1).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace mqs::metrics {

struct QueryRecord {
  std::uint64_t queryId = 0;
  int client = -1;
  std::string predicate;

  double arrivalTime = 0.0;  ///< submitted to the scheduler
  double startTime = 0.0;    ///< dequeued (begins executing)
  double finishTime = 0.0;   ///< result delivered

  double overlapUsed = 0.0;      ///< Eq. 4 value of the reuse source (0 = none)
  bool reusedExecuting = false;  ///< blocked on a still-executing source
  double blockedTime = 0.0;      ///< time spent waiting on that source

  /// Seconds the query thread was blocked on device I/O inside the Page
  /// Space Manager (stall not hidden by the prefetch pipeline).
  double ioStallTime = 0.0;

  std::uint64_t inputBytes = 0;    ///< qinputsize
  std::uint64_t outputBytes = 0;   ///< qoutsize
  std::uint64_t bytesFromDisk = 0; ///< raw bytes actually read for this query
  std::uint64_t bytesReused = 0;   ///< output bytes satisfied via projection

  /// Reuse-plan accounting (query::Planner). `reuseSources` counts the
  /// projection steps of the top-level plan; `bytesReusedPerSource` holds
  /// each step's *marginal* covered-output bytes in plan order;
  /// `planBytesCovered` is their sum as planned (actual reuse can fall
  /// short when a still-executing source's result vanishes before use).
  int reuseSources = 0;
  std::vector<std::uint64_t> bytesReusedPerSource;
  std::uint64_t planBytesCovered = 0;
  /// Compact plan signature ("C49152|X4096|R|R"): C = project from cached,
  /// X = wait on executing then project, R = compute remainder. Stable
  /// across engines — the sim-vs-real equivalence test compares it.
  std::string planShape;

  /// Terminal FAILED status: the query raised an error (unreadable page,
  /// deadline exceeded mid-execution) and delivered an exception instead
  /// of bytes.
  bool failed = false;
  /// Terminal SHED status (DESIGN.md §11): the query was admitted but
  /// dropped at dispatch — its deadline had already passed (or was
  /// predicted to pass) before it consumed any compute. Disjoint from
  /// `failed`; a query is never both completed and shed.
  bool shed = false;
  std::string failureReason;

  [[nodiscard]] double waitTime() const { return startTime - arrivalTime; }
  [[nodiscard]] double execTime() const { return finishTime - startTime; }
  [[nodiscard]] double responseTime() const { return finishTime - arrivalTime; }
};

/// Thread-safe collector; one per experiment run. records() returns the
/// records in add order.
class Collector {
 public:
  void add(QueryRecord record);

  [[nodiscard]] std::vector<QueryRecord> records() const;
  [[nodiscard]] std::size_t count() const;

 private:
  mutable Mutex mu_{lockorder::Rank::kMetrics, "Collector::mu_"};
  std::vector<QueryRecord> records_ GUARDED_BY(mu_);
};

/// Run-level summary over a set of query records.
struct Summary {
  std::size_t queries = 0;
  std::size_t failedQueries = 0;  ///< records with the FAILED status
  std::size_t shedQueries = 0;    ///< records with the SHED status
  double trimmedResponse = 0.0;  ///< 95%-trimmed mean response time
  double meanResponse = 0.0;
  double meanWait = 0.0;
  double meanExec = 0.0;
  double meanIoStall = 0.0;      ///< mean per-query I/O-stall seconds
  double makespan = 0.0;         ///< last finish - first arrival
  double avgOverlap = 0.0;       ///< mean overlapUsed across queries
  double reuseRate = 0.0;        ///< fraction of queries with overlap > 0
  std::uint64_t totalDiskBytes = 0;
  std::uint64_t totalReusedBytes = 0;
  /// Mean projection-step count of the top-level reuse plans, and how many
  /// queries composed more than one reuse source (the multi-source win).
  double avgReuseSources = 0.0;
  std::size_t multiSourceQueries = 0;
  /// Jain fairness index over per-client mean response times, in
  /// (0, 1]; 1 = every client experienced the same mean response. FIFO
  /// "targets fairness" (§4) — this makes the claim measurable. 0 when no
  /// client ids were recorded.
  double clientFairness = 0.0;
  /// Response-time tail: median / 95th / 99th / 99.9th percentiles.
  double p50Response = 0.0;
  double p95Response = 0.0;
  double p99Response = 0.0;
  double p999Response = 0.0;
};

Summary summarize(const std::vector<QueryRecord>& records);

/// Per-client mean response times (clients with id >= 0), keyed by id.
std::vector<std::pair<int, double>> perClientMeanResponse(
    const std::vector<QueryRecord>& records);

/// Jain's fairness index: (sum x)^2 / (n * sum x^2) for positive samples.
double jainFairness(const std::vector<double>& xs);

}  // namespace mqs::metrics
