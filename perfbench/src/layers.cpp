#include "layers.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "net/codecs.hpp"
#include "sched/policy.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double nsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

constexpr const char* kSpanNames[kSpanKinds] = {
    "queued", "plan", "wait_source", "project", "compute", "io_stall",
    "deliver"};

}  // namespace

void LayerAccumulator::addRecords(
    const std::vector<mqs::metrics::QueryRecord>& records,
    const std::vector<double>& clientResponse) {
  for (const auto& r : records) {
    ++queries_;
    waitS_ += r.waitTime();
    execS_ += r.execTime();
    blockedS_ += r.blockedTime;
    ioStallS_ += r.ioStallTime;
    reuseSteps_ += r.reuseSources;
    reusedBytes_ += static_cast<double>(r.bytesReused);
    outputBytes_ += static_cast<double>(r.outputBytes);
    serverResp_.push_back(r.responseTime());
  }
  clientResp_.insert(clientResp_.end(), clientResponse.begin(),
                     clientResponse.end());
}

void LayerAccumulator::addDataStore(const mqs::datastore::DataStore::Stats& s) {
  ds_.lookups += s.lookups;
  ds_.hits += s.hits;
  ds_.evictions += s.evictions;
}

void LayerAccumulator::addPageSpace(
    const mqs::pagespace::PageSpaceManager::Stats& s) {
  ps_.hits += s.hits;
  ps_.misses += s.misses;
  ps_.merged += s.merged;
  ps_.prefetchIssued += s.prefetchIssued;
  ps_.prefetchHits += s.prefetchHits;
}

void LayerAccumulator::addScans(const mqs::pagespace::ScanRegistry::Stats& s) {
  scans_.foldHits += s.foldHits;
  scans_.bytesShared += s.bytesShared;
}

void LayerAccumulator::addScheduler(
    const mqs::sched::QueryScheduler::Stats& s) {
  sched_.rankEvaluations += s.rankEvaluations;
  sched_.staleHeapPops += s.staleHeapPops;
}

void LayerAccumulator::addProbes(std::uint64_t overlapCalls,
                                 std::uint64_t executeNs,
                                 std::uint64_t executeCalls,
                                 std::uint64_t inputBytes,
                                 std::uint64_t projectNs,
                                 std::uint64_t projectCalls) {
  overlapCalls_ += overlapCalls;
  executeNs_ += executeNs;
  executeCalls_ += executeCalls;
  inputBytes_ += inputBytes;
  projectNs_ += projectNs;
  projectCalls_ += projectCalls;
}

void LayerAccumulator::addDevice(std::uint64_t pages, std::uint64_t readNs) {
  devPages_ += pages;
  devReadNs_ += readNs;
}

void LayerAccumulator::addTrace(const std::vector<mqs::trace::Event>& events) {
  if (!traceOut_.empty()) {
    if (!mqs::trace::writeChromeTrace(traceOut_, events)) {
      throw std::runtime_error("cannot write " + traceOut_);
    }
    traceOut_.clear();
  }
  std::unordered_map<std::uint64_t, std::vector<mqs::trace::Event>> byQuery;
  for (const auto& e : events) {
    if (e.type != mqs::trace::EventType::Counter) byQuery[e.queryId].push_back(e);
  }
  for (const auto& [id, evs] : byQuery) {
    const mqs::trace::SpanTree tree =
        mqs::trace::buildSpanTree(mqs::trace::eventsForQuery(evs, id));
    ++tracedQueries_;
    const auto& spans = tree.spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      double self = spans[i].duration();
      for (std::size_t j = i + 1;
           j < spans.size() && spans[j].level > spans[i].level; ++j) {
        if (spans[j].level == spans[i].level + 1) self -= spans[j].duration();
      }
      const auto k = static_cast<std::size_t>(spans[i].kind);
      if (k < kSpanKinds) selfS_[k] += self;
    }
  }
}

void LayerAccumulator::replayScheduler(
    const mqs::vm::VMSemantics& semantics,
    const std::vector<mqs::vm::VMPredicate>& preds, std::size_t depth,
    const std::string& policy) {
  if (depth == 0) return;
  for (std::size_t base = 0; base < preds.size(); base += depth) {
    mqs::sched::QueryScheduler sched(&semantics,
                                     mqs::sched::makePolicy(policy), true);
    const std::size_t end = std::min(preds.size(), base + depth);
    for (std::size_t i = base; i < end; ++i) {
      mqs::query::PredicatePtr p = preds[i].clone();
      const auto t0 = Clock::now();
      (void)sched.submit(std::move(p));
      submitNs_ += nsSince(t0);
      ++submits_;
    }
    for (;;) {
      const auto t0 = Clock::now();
      const auto node = sched.dequeue();
      if (!node) break;
      dequeueNs_ += nsSince(t0);
      ++dequeues_;
      sched.completed(*node);
    }
  }
}

void LayerAccumulator::timeCodec(const std::vector<mqs::vm::VMPredicate>& preds) {
  const mqs::net::CodecRegistry codecs = mqs::net::CodecRegistry::standard();
  for (const auto& p : preds) {
    const auto t0 = Clock::now();
    mqs::net::Writer w;
    w.u64(codecOps_);
    codecs.encode(p, w);
    const std::vector<std::byte> frame =
        mqs::net::packFrame(mqs::net::FrameType::Query, w.bytes());
    mqs::net::Reader r(std::span<const std::byte>(frame).subspan(5));
    (void)r.u64();
    const mqs::query::PredicatePtr back = codecs.decode(r);
    codecNs_ += nsSince(t0);
    ++codecOps_;
    if (back->describe() != p.describe()) {
      throw std::runtime_error("codec round trip changed " + p.describe());
    }
  }
}

void LayerAccumulator::setSim(double overlap, double waitS, double deviceGb) {
  simOverlap_ = overlap;
  simWaitS_ = waitS;
  simDeviceGb_ = deviceGb;
}

void LayerAccumulator::setTraceOverhead(double tracedQps, double untracedQps) {
  traceOverheadPct_ = tracedQps > 0 ? (untracedQps / tracedQps - 1.0) * 100.0
                                    : 0.0;
}

void LayerAccumulator::emit(RunResult& out) const {
  const auto q = static_cast<double>(queries_);
  out.put("server.queue_wait_ms_mean", ratio(waitS_ * 1e3, q), "ms");
  out.put("server.exec_ms_mean", ratio(execS_ * 1e3, q), "ms");
  out.put("server.blocked_ms_mean", ratio(blockedS_ * 1e3, q), "ms");

  out.put("sched.submit_us", ratio(submitNs_ / 1e3, submits_), "us");
  out.put("sched.dequeue_us", ratio(dequeueNs_ / 1e3, dequeues_), "us");
  out.put("sched.rank_evals_per_query",
          ratio(static_cast<double>(sched_.rankEvaluations), q), "count");
  out.put("sched.stale_pops_per_query",
          ratio(static_cast<double>(sched_.staleHeapPops), q), "count");
  out.put("sched.overlap_calls_per_query",
          ratio(static_cast<double>(overlapCalls_), q), "count");

  out.put("query.plan_ms_mean",
          ratio(selfS_[static_cast<int>(mqs::trace::SpanKind::Plan)] * 1e3,
                static_cast<double>(tracedQueries_)),
          "ms");
  out.put("query.reuse_steps_per_query", ratio(reuseSteps_, q), "count");

  out.put("datastore.hit_ratio",
          ratio(static_cast<double>(ds_.hits), static_cast<double>(ds_.lookups)),
          "ratio");
  out.put("datastore.reused_share", ratio(reusedBytes_, outputBytes_), "ratio");
  out.put("datastore.evictions_per_query",
          ratio(static_cast<double>(ds_.evictions), q), "count");

  const double psFetches =
      static_cast<double>(ps_.hits + ps_.misses + ps_.merged);
  out.put("pagespace.hit_ratio", ratio(static_cast<double>(ps_.hits), psFetches),
          "ratio");
  out.put("pagespace.prefetch_hit_ratio",
          ratio(static_cast<double>(ps_.prefetchHits),
                static_cast<double>(ps_.prefetchIssued)),
          "ratio");
  out.put("pagespace.io_stall_ms_mean", ratio(ioStallS_ * 1e3, q), "ms");
  out.put("pagespace.fold_hits_per_query",
          ratio(static_cast<double>(scans_.foldHits), q), "count");
  out.put("pagespace.fold_mb_shared_per_query",
          ratio(static_cast<double>(scans_.bytesShared) / 1e6, q), "MB");

  out.put("storage.read_us_per_page",
          ratio(static_cast<double>(devReadNs_) / 1e3,
                static_cast<double>(devPages_)),
          "us");
  out.put("storage.pages_per_query", ratio(static_cast<double>(devPages_), q),
          "count");

  out.put("vm.execute_ms_mean",
          ratio(static_cast<double>(executeNs_) / 1e6,
                static_cast<double>(executeCalls_)),
          "ms");
  const double kernelS = static_cast<double>(executeNs_) / 1e9 - ioStallS_;
  out.put("vm.kernel_mb_per_s",
          kernelS > 0 ? static_cast<double>(inputBytes_) / 1e6 / kernelS : 0.0,
          "MB/s");
  out.put("vm.project_ms_mean",
          ratio(static_cast<double>(projectNs_) / 1e6,
                static_cast<double>(projectCalls_)),
          "ms");

  out.put("net.delivery_ms_p50",
          clientResp_.empty() || serverResp_.empty()
              ? 0.0
              : (median(clientResp_) - median(serverResp_)) * 1e3,
          "ms");
  out.put("net.codec_us_per_query",
          ratio(codecNs_ / 1e3, static_cast<double>(codecOps_)), "us");

  for (int k = 0; k < kSpanKinds; ++k) {
    out.put(std::string("trace.") + kSpanNames[k] + "_self_ms_mean",
            ratio(selfS_[k] * 1e3, static_cast<double>(tracedQueries_)), "ms");
  }
  out.put("trace.overhead_pct", traceOverheadPct_, "%");

  out.put("sim.modeled_overlap", simOverlap_, "ratio");
  out.put("sim.modeled_wait_s", simWaitS_, "s");
  out.put("sim.modeled_device_gb", simDeviceGb_, "GB");
}

}  // namespace perfbench
