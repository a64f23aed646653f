#include "trace/analysis.hpp"

#include <algorithm>

namespace mqs::trace {

namespace {

/// Sort rank for timestamp ties: a QUEUED begin (the one event emitted on
/// the submitting thread) precedes everything else at the same instant; a
/// span end at the same instant as a sibling begin keeps emission order
/// via stable sort, which preserves per-buffer order for same-tid events.
int tieRank(const Event& e) {
  if (e.type == EventType::SpanBegin && e.spanKind() == SpanKind::Queued) {
    return 0;
  }
  return 1;
}

}  // namespace

std::vector<Event> eventsForQuery(const std::vector<Event>& all,
                                  std::uint64_t queryId) {
  std::vector<Event> out;
  for (const Event& e : all) {
    if (e.type != EventType::Counter && e.queryId == queryId) {
      out.push_back(e);
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    return tieRank(a) < tieRank(b);
  });
  return out;
}

SpanTree buildSpanTree(const std::vector<Event>& queryEvents) {
  SpanTree tree;
  struct Open {
    std::size_t spanIdx;
    SpanKind kind;
    std::uint8_t depth;
  };
  std::vector<Open> stack;
  double lastTs = -1.0;
  for (const Event& e : queryEvents) {
    if (e.type == EventType::Counter) continue;
    if (e.ts < lastTs) {
      tree.monotonic = false;
      if (tree.error.empty()) {
        tree.error = "timestamp decreased at " + std::string(toString(
                         e.spanKind()));
      }
    }
    lastTs = std::max(lastTs, e.ts);
    if (e.type == EventType::SpanBegin) {
      Span s;
      s.kind = e.spanKind();
      s.begin = e.ts;
      s.end = e.ts;
      s.value = e.value;
      s.depth = e.depth;
      s.flags = e.flags;
      s.level = static_cast<int>(stack.size());
      stack.push_back({tree.spans.size(), s.kind, s.depth});
      tree.spans.push_back(s);
    } else {
      if (stack.empty() || stack.back().kind != e.spanKind() ||
          stack.back().depth != e.depth) {
        tree.wellNested = false;
        if (tree.error.empty()) {
          tree.error = "unmatched span end " +
                       std::string(toString(e.spanKind()));
        }
        continue;
      }
      Span& s = tree.spans[stack.back().spanIdx];
      s.end = e.ts;
      s.flags |= e.flags;
      stack.pop_back();
    }
  }
  if (!stack.empty()) {
    tree.wellNested = false;
    if (tree.error.empty()) {
      tree.error = "span never closed: " +
                   std::string(toString(stack.back().kind));
    }
  }
  return tree;
}

std::string planShapeOf(const std::vector<Event>& queryEvents) {
  std::string out;
  // Spans, not begin events: the fell-back flag is only known at the end.
  for (const Span& s : buildSpanTree(queryEvents).spans) {
    if (s.depth != 0) continue;
    char c = 0;
    if (s.kind == SpanKind::Project) {
      // Fold wins first (a folded projection waits on the scan owner, so
      // its span can also look executing-sourced), then spill before the
      // executing/cached split: a restore step is a projection, but
      // sourced from the tier.
      c = (s.flags & kFlagFoldSource) != 0        ? 'F'
          : (s.flags & kFlagSpillSource) != 0     ? 'S'
          : (s.flags & kFlagExecutingSource) != 0 ? 'X'
                                                  : 'C';
      if ((s.flags & kFlagFellBack) != 0) c = static_cast<char>(c - 'A' + 'a');
    } else if (s.kind == SpanKind::Compute) {
      c = 'R';
    } else {
      continue;
    }
    if (!out.empty()) out += '|';
    out += c;
    if (c != 'R') out += std::to_string(s.value);
  }
  return out;
}

std::vector<std::uint64_t> queryIds(const std::vector<Event>& all) {
  std::vector<std::uint64_t> ids;
  for (const Event& e : all) {
    if (e.type == EventType::Counter) continue;
    if (std::find(ids.begin(), ids.end(), e.queryId) == ids.end()) {
      ids.push_back(e.queryId);
    }
  }
  return ids;
}

double totalDuration(const SpanTree& tree, SpanKind kind) {
  double total = 0.0;
  for (const Span& s : tree.spans) {
    if (s.kind == kind) total += s.duration();
  }
  return total;
}

}  // namespace mqs::trace
