// Per-layer metrics of the traced runs: what each round's stats accessors,
// probes, device counters and lifecycle trace report, summed over rounds
// and emitted under the names BENCHMARK.json lists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "datastore/data_store.hpp"
#include "metrics/metrics.hpp"
#include "pagespace/page_space_manager.hpp"
#include "pagespace/scan_registry.hpp"
#include "sched/scheduler.hpp"
#include "trace/trace.hpp"
#include "vm/vm_predicate.hpp"
#include "vm/vm_semantics.hpp"

namespace perfbench {

/// Lifecycle span kinds reported as trace.<name>_self_ms_mean.
inline constexpr int kSpanKinds = 7;

class LayerAccumulator {
 public:
  /// One round's query records, with the client-seen response (seconds) of
  /// each completed query in any order.
  void addRecords(const std::vector<mqs::metrics::QueryRecord>& records,
                  const std::vector<double>& clientResponse);
  void addDataStore(const mqs::datastore::DataStore::Stats& s);
  void addPageSpace(const mqs::pagespace::PageSpaceManager::Stats& s);
  void addScans(const mqs::pagespace::ScanRegistry::Stats& s);
  void addScheduler(const mqs::sched::QueryScheduler::Stats& s);
  void addProbes(std::uint64_t overlapCalls, std::uint64_t executeNs,
                 std::uint64_t executeCalls, std::uint64_t inputBytes,
                 std::uint64_t projectNs, std::uint64_t projectCalls);
  void addDevice(std::uint64_t pages, std::uint64_t readNs);
  /// Self time per span kind, from one round's drained trace. The first
  /// trace added is also written as Chrome trace JSON to `traceOut` when
  /// that is set.
  void addTrace(const std::vector<mqs::trace::Event>& events);
  void setTraceOut(std::string path) { traceOut_ = std::move(path); }
  /// Standalone QueryScheduler replay of the workload's own predicates at
  /// queue depth `depth` under `policy`: times every submit() and dequeue().
  void replayScheduler(const mqs::vm::VMSemantics& semantics,
                       const std::vector<mqs::vm::VMPredicate>& preds,
                       std::size_t depth, const std::string& policy);
  /// Times CodecRegistry encode + decode of each predicate's Query frame.
  void timeCodec(const std::vector<mqs::vm::VMPredicate>& preds);
  /// Modeled simulator figures (sim_paper only).
  void setSim(double overlap, double waitS, double deviceGb);
  /// Traced vs untraced throughput of the same workload.
  void setTraceOverhead(double tracedQps, double untracedQps);

  void emit(RunResult& out) const;

 private:
  std::uint64_t queries_ = 0;
  double waitS_ = 0, execS_ = 0, blockedS_ = 0, ioStallS_ = 0;
  double reuseSteps_ = 0;
  double reusedBytes_ = 0, outputBytes_ = 0;
  std::vector<double> clientResp_, serverResp_;
  mqs::datastore::DataStore::Stats ds_{};
  mqs::pagespace::PageSpaceManager::Stats ps_{};
  mqs::pagespace::ScanRegistry::Stats scans_{};
  mqs::sched::QueryScheduler::Stats sched_{};
  std::uint64_t overlapCalls_ = 0, executeNs_ = 0, executeCalls_ = 0,
                inputBytes_ = 0, projectNs_ = 0, projectCalls_ = 0;
  std::uint64_t devPages_ = 0, devReadNs_ = 0;
  double selfS_[kSpanKinds] = {};
  std::uint64_t tracedQueries_ = 0;
  double submitNs_ = 0, dequeueNs_ = 0;
  std::uint64_t submits_ = 0, dequeues_ = 0;
  double codecNs_ = 0;
  std::uint64_t codecOps_ = 0;
  double simOverlap_ = 0, simWaitS_ = 0, simDeviceGb_ = 0;
  double traceOverheadPct_ = 0;
  std::string traceOut_;
};

}  // namespace perfbench
