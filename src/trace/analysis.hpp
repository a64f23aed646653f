// Trace-stream analysis: per-query views, well-nesting validation, and
// plan-shape reconstruction.
//
// Every QueryRecord field is derivable from the span stream; the helpers
// here do those derivations so the invariant tests (tests/trace/) can
// cross-check the two representations, and so exporters can group events
// per query without re-implementing the merge rules.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace mqs::trace {

/// All events of one query, in span order: filtered from a drained stream
/// (which concatenates per-thread buffers) and stably sorted by timestamp.
/// The only cross-thread event of a query is its QUEUED begin (emitted on
/// the submitting thread), which the sort keys first among ties.
[[nodiscard]] std::vector<Event> eventsForQuery(const std::vector<Event>& all,
                                                std::uint64_t queryId);

/// One matched span (begin/end pair) of a query.
struct Span {
  SpanKind kind = SpanKind::Queued;
  double begin = 0.0;
  double end = 0.0;
  std::uint64_t value = 0;  ///< begin event's value (PROJECT bytes covered)
  std::uint8_t depth = 0;
  std::uint8_t flags = 0;   ///< begin | end flags
  int level = 0;            ///< nesting level within the query (0 = top)

  [[nodiscard]] double duration() const { return end - begin; }
};

/// Result of pairing a query's events into spans with a stack discipline.
struct SpanTree {
  std::vector<Span> spans;  ///< in begin order
  bool wellNested = true;   ///< every end matched its begin LIFO
  bool monotonic = true;    ///< timestamps never decreased
  std::string error;        ///< first violation, for test diagnostics
};

/// Pair a query's events (as returned by eventsForQuery) into spans.
[[nodiscard]] SpanTree buildSpanTree(const std::vector<Event>& queryEvents);

/// Reconstruct the executed plan signature from a query's trace, in the
/// exact vocabulary of metrics::QueryRecord::planShape: "C<bytes>" per
/// cached projection, "X<bytes>" per executing-source projection,
/// "S<bytes>" per spill restore, "F<bytes>" per folded scan, "R" per
/// remainder compute — top-level (depth 0) spans only, '|'-separated. A
/// projection whose span ends with kFlagFellBack gets its letter in lower
/// case ("f4096"): it recomputed instead. Identical across engines for
/// identical executions.
[[nodiscard]] std::string planShapeOf(const std::vector<Event>& queryEvents);

/// Distinct query ids appearing in span events, in first-seen order.
[[nodiscard]] std::vector<std::uint64_t> queryIds(
    const std::vector<Event>& all);

/// Sum of a query's span durations for one kind (e.g. IO_STALL).
[[nodiscard]] double totalDuration(const SpanTree& tree, SpanKind kind);

}  // namespace mqs::trace
