// The plan-step interpreter both engines run (DESIGN.md §7).
//
// The planner decides *what* answers a query; PlanRunner executes the
// ReusePlan: spans, waits, restores, projections, the fallback to
// recomputing a step whose source is gone, nested remainder plans, and
// the record's reuse accounting. An engine supplies only what a step
// costs, as hooks on the Engine type (DESIGN.md §7 lists what each engine
// does in each):
//
//   awaitables:  awaitExecuting(node), awaitScan(scan), payPlanning(),
//                payRestore(seconds), project(src, step, pred, out),
//                computeRaw(pred, rec) -> Output
//   synchronous: now(), checkDeadline(rec), holdBlob(blob), makeOutput(pred),
//                place(part, sub, pred, out), cachePart(part, sub, rec),
//                publishScan(scan, out) -> subscribers, resultOf(node),
//                rebind(spillId, blob)   (the last two: ResultCatalog under
//                the engine's lock)
//
// The simulator's awaitables advance virtual time. The threaded server's
// complete inline (Ready, std::suspend_never), so there the interpreter
// never suspends, runs to completion under Task::syncWait on the worker
// thread, and rethrows whatever a hook threw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/task.hpp"
#include "datastore/data_store.hpp"
#include "datastore/spill_tier.hpp"
#include "metrics/metrics.hpp"
#include "pagespace/scan_registry.hpp"
#include "query/planner.hpp"
#include "sched/scheduler.hpp"
#include "trace/trace.hpp"

namespace mqs::query {

/// What a projection step reads from. In the simulator every field stays
/// empty; only its presence matters.
struct ProjectionSource {
  std::span<const std::byte> bytes;
  datastore::DataStore::PinGuard pin;  ///< keeps a Data Store blob resident
  std::vector<std::byte> owned;        ///< a restored spill payload
};

/// The engine state a PlanRunner works on; all of it outlives the runner.
struct PlanContext {
  const Planner* planner = nullptr;
  datastore::DataStore* ds = nullptr;
  datastore::SpillTier* spill = nullptr;  ///< null without a spill tier
  sched::QueryScheduler* scheduler = nullptr;
  pagespace::ScanRegistry* scans = nullptr;
  trace::Tracer* tracer = nullptr;  ///< null when tracing is off
  bool foldScans = false;   ///< foldScans && allowWaitOnExecuting
  bool cacheParts = false;  ///< dataStoreEnabled && cacheSubqueryResults
};

/// Lowercase the kind letter of step `step` in a plan shape
/// ("C64|F32|R" -> "C64|f32|R"): the record's mark for a step that fell
/// back to recomputing instead of reading its source.
inline void markFellBack(std::string& shape, std::size_t step) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < step; ++i) pos = shape.find('|', pos) + 1;
  shape[pos] = static_cast<char>(shape[pos] - 'A' + 'a');
}

template <typename Engine>
class PlanRunner {
 public:
  using Output = typename Engine::Output;

  PlanRunner(Engine& engine, PlanContext ctx) : e_(engine), ctx_(ctx) {}

  /// Plan the top-level query `pred` at graph node `node`, record the plan
  /// in `rec`, and execute it.
  Task<Output> runQuery(sched::NodeId node, const Predicate& pred,
                        metrics::QueryRecord& rec) {
    // The PLAN span covers the planning overhead, the fold snapshot and
    // the planner call. Fold candidates are snapshotted before planning
    // (cloned predicates), so the plan stays valid however the scans
    // resolve afterwards: a scan that settled falls back at execution.
    trace::SpanScope planSpan(ctx_.tracer, node, trace::SpanKind::Plan);
    co_await e_.payPlanning();
    std::vector<FoldCandidate> folds;
    if (ctx_.foldScans) {
      folds = ctx_.scans->candidatesFor(
          ctx_.scheduler->execSeq(node),
          static_cast<std::size_t>(ctx_.planner->config().candidatePoolSize));
    }
    ReusePlan plan = ctx_.planner->plan(pred, *ctx_.ds, ctx_.scheduler, node,
                                        /*depth=*/0, ctx_.spill, folds);
    rec.overlapUsed = plan.primaryOverlap;
    rec.reuseSources = plan.reuseSources();
    rec.planBytesCovered = plan.planBytesCovered;
    rec.planShape = plan.shape();
    for (const PlanStep& step : plan.steps) {
      if (step.kind != PlanStep::Kind::ComputeRemainder) {
        rec.bytesReusedPerSource.push_back(step.bytesCovered);
      }
    }
    planSpan.close();
    co_return co_await execute(std::move(plan), pred, /*depth=*/0, rec);
  }

 private:
  using Kind = PlanStep::Kind;

  /// Execute `plan` for `pred` (the query, or a remainder part at nesting
  /// level `depth`).
  Task<Output> execute(ReusePlan plan, const Predicate& pred, int depth,
                       metrics::QueryRecord& rec) {
    trace::Tracer* const tracer = ctx_.tracer;
    const auto d8 = static_cast<std::uint8_t>(depth);
    // Raw fast path: a plan without projection steps is a single
    // ComputeRemainder step covering `pred`; compute it directly (and, at
    // depth 0, as a shared scan) without caching a sub-result.
    if (!plan.hasReuse()) {
      trace::SpanScope compute(tracer, rec.queryId, trace::SpanKind::Compute,
                               d8);
      pagespace::ScanRegistry::ScanGuard scan = beginScan(pred, rec, depth);
      Output raw = co_await e_.computeRaw(pred, rec);
      publish(scan, raw);
      co_return raw;
    }

    Output out = e_.makeOutput(pred);
    std::size_t pinIdx = 0;  // plan.pins parallels the ProjectFromCached steps
    for (std::size_t i = 0; i < plan.steps.size(); ++i) {
      PlanStep& step = plan.steps[i];
      if (step.kind == Kind::ComputeRemainder) {
        trace::SpanScope compute(tracer, rec.queryId,
                                 trace::SpanKind::Compute, d8,
                                 step.bytesCovered);
        pagespace::ScanRegistry::ScanGuard scan =
            beginScan(*step.pred, rec, depth);
        Output sub = co_await computePart(*step.pred, depth + 1, rec);
        publish(scan, sub);
        e_.place(*step.pred, sub, pred, out);
        continue;
      }

      // A projection step. Its PROJECT span covers the whole step, the
      // fallback included, so a query's depth-0 PROJECT count always
      // equals its reuseSources.
      const std::uint8_t sourceFlag =
          step.kind == Kind::ProjectFromCached ? trace::kFlagCachedSource
          : step.kind == Kind::WaitAndProjectFromExecuting
              ? trace::kFlagExecutingSource
          : step.kind == Kind::RestoreFromSpill ? trace::kFlagSpillSource
                                                : trace::kFlagFoldSource;
      trace::SpanScope project(tracer, rec.queryId, trace::SpanKind::Project,
                               d8, step.bytesCovered, sourceFlag);
      std::optional<ProjectionSource> src;
      pagespace::ScanRegistry::ScanPtr scan;
      switch (step.kind) {
        case Kind::ProjectFromCached:
          // The threaded planner pinned the blob, so it is still resident;
          // the simulator plans unpinned, so this re-checks residency.
          src = e_.holdBlob(step.blob);
          if (pinIdx < plan.pins.size()) plan.pins[pinIdx++].release();
          break;
        case Kind::WaitAndProjectFromExecuting: {
          co_await waitSource(
              [&] { return e_.awaitExecuting(step.node); }, rec, d8);
          const std::optional<datastore::BlobId> blob =
              e_.resultOf(step.node);
          if (blob) src = e_.holdBlob(*blob);
          if (src) ctx_.ds->noteReuse(*blob, step.overlap);
          break;
        }
        case Kind::RestoreFromSpill: {
          std::optional<datastore::EvictedBlob> restored =
              ctx_.spill != nullptr ? ctx_.spill->restore(step.spillId)
                                    : std::nullopt;
          if (!restored) break;
          // The read is the tier's own cost, not a Page Space IO_STALL, so
          // a query's IO_STALL total still equals its ioStallTime.
          co_await e_.payRestore(step.restoreCostSec);
          src.emplace();
          src->owned = restored->payload;  // the Data Store takes the original
          src->bytes = src->owned;
          // Re-insert with the blob's *original* traced cost: the restore
          // is not billed to this query's ledger.
          const std::optional<datastore::BlobId> nb = ctx_.ds->insert(
              std::move(restored->predicate), std::move(restored->payload),
              restored->logicalBytes, restored->recomputeCostSec);
          e_.rebind(step.spillId, nb);
          break;
        }
        case Kind::FoldIntoScan: {
          scan = ctx_.scans->subscribe(step.scanId);
          if (scan == nullptr) break;
          // The fold is real: annotate the graph (rank feedback sees the
          // shared scan once, on the owner) and wait for the scan.
          ctx_.scheduler->noteFold(rec.queryId, step.node);
          if (tracer != nullptr) tracer->counter(trace::CounterKind::FoldHit);
          co_await waitSource([&] { return e_.awaitScan(scan); }, rec, d8);
          if (scan->state == pagespace::ScanRegistry::ScanState::Published &&
              scan->payload != nullptr) {
            src.emplace().bytes = *scan->payload;
          }
          break;
        }
        case Kind::ComputeRemainder:
          break;  // handled above
      }

      if (src) {
        co_await e_.project(*src, step, pred, out);
        rec.bytesReused += step.bytesCovered;
        if (scan != nullptr && tracer != nullptr) {
          tracer->counter(trace::CounterKind::ScanBytesShared,
                          static_cast<double>(step.bytesCovered));
        }
        continue;
      }
      // The source failed, was evicted, dropped from the tier, or its scan
      // settled before we joined: compute this step's share from raw data
      // instead (its coveredParts tile it). A subscriber never hangs and
      // never inherits a failure its own region does not have (§14). The
      // span and the record say the step fell back.
      project.setEndFlags(trace::kFlagFellBack);
      if (depth == 0) markFellBack(rec.planShape, i);
      for (const PredicatePtr& cp : step.coveredParts) {
        Output sub = co_await computePart(*cp, depth + 1, rec);
        e_.place(*cp, sub, pred, out);
      }
    }
    co_return out;
  }

  /// Block on an older execution or scan (`startWait()` returns the
  /// awaitable) inside a WAIT_SOURCE span. Sources are strictly older, so
  /// the wait graph stays acyclic; the thread-pool slot stays occupied
  /// (§4), and the wait can outlast the deadline.
  template <typename StartWait>
  Task<void> waitSource(StartWait startWait, metrics::QueryRecord& rec,
                        std::uint8_t d8) {
    rec.reusedExecuting = true;
    const double t0 = e_.now();
    {
      trace::SpanScope wait(ctx_.tracer, rec.queryId,
                            trace::SpanKind::WaitSource, d8);
      co_await startWait();
    }
    rec.blockedTime += e_.now() - t0;
    e_.checkDeadline(rec);
  }

  /// Plan and execute one remainder part (depth >= 1), then cache it. Parts
  /// are "processed just like any other query" (§2), except that they
  /// never wait on executing queries: they have no graph node, and a nested
  /// wait would stack latch waits.
  Task<Output> computePart(const Predicate& part, int depth,
                           metrics::QueryRecord& rec) {
    ReusePlan plan = [&] {
      trace::SpanScope planSpan(ctx_.tracer, rec.queryId,
                                trace::SpanKind::Plan,
                                static_cast<std::uint8_t>(depth));
      return ctx_.planner->plan(part, *ctx_.ds, nullptr, sched::kInvalidNode,
                                depth);
    }();
    Output out = co_await execute(std::move(plan), part, depth, rec);
    if (ctx_.cacheParts) e_.cachePart(part, out, rec);
    co_return out;
  }

  /// Register a depth-0 compute over `pred` as a shared scan when folding
  /// is on (DESIGN.md §14); an inactive guard otherwise. The guard fails
  /// the scan if the compute unwinds before publish().
  pagespace::ScanRegistry::ScanGuard beginScan(
      const Predicate& pred, const metrics::QueryRecord& rec, int depth) {
    if (!ctx_.foldScans || depth != 0) return {};
    return ctx_.scans->beginScan(pred, rec.queryId,
                                 ctx_.scheduler->execSeq(rec.queryId));
  }

  /// Publish a computed scan to its subscribers, with the FOLD_SUBSCRIBERS
  /// gauge when anybody folded in.
  void publish(pagespace::ScanRegistry::ScanGuard& scan, const Output& out) {
    if (!scan.active()) return;
    const int subscribers = e_.publishScan(scan, out);
    if (subscribers > 0 && ctx_.tracer != nullptr) {
      ctx_.tracer->counter(trace::CounterKind::FoldSubscribers, subscribers);
    }
  }

  Engine& e_;
  const PlanContext ctx_;
};

}  // namespace mqs::query
