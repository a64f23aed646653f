// QueryScheduler: the priority queue of §4, implemented over the scheduling
// graph with incremental rank maintenance.
//
// Ranks live in a lazy max-heap: every (re)ranking pushes a fresh entry
// stamped with the node's current version; dequeue pops entries until it
// finds one whose stamp is still valid. Graph events re-rank only the
// affected node's waiting neighborhood ("updates to the query scheduling
// graph and topological sort are done in an incremental fashion"); a
// full-recompute mode exists for the A3 ablation and for property tests.
//
// Thread-safe: the threaded query server calls into one instance from many
// query threads.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "query/predicate.hpp"
#include "query/semantics.hpp"
#include "sched/graph.hpp"
#include "sched/policy.hpp"
#include "sched/state.hpp"
#include "trace/trace.hpp"

namespace mqs::sched {

class QueryScheduler {
 public:
  QueryScheduler(const query::QuerySemantics* semantics, PolicyPtr policy,
                 bool incremental = true);

  /// Enqueue a new query (WAITING). Returns its graph node id.
  NodeId submit(query::PredicatePtr predicate);

  /// Highest-ranked waiting query, moved to EXECUTING; std::nullopt when no
  /// query is waiting. Assigns the node's execution sequence number.
  std::optional<NodeId> dequeue();

  /// EXECUTING -> CACHED (results now reusable).
  void completed(NodeId n);

  /// CACHED -> SWAPPED_OUT: the result left memory but survives in the
  /// spill tier, so the node *and its edges stay in the graph* (§4's
  /// retained vertex state) awaiting restored() or retired(). Waiting
  /// neighbors are re-ranked; reuse-source selection skips SWAPPED_OUT
  /// nodes until they come back.
  void swappedOut(NodeId n);

  /// SWAPPED_OUT -> CACHED: the spilled result was restored into the Data
  /// Store and is reusable again. Waiting neighbors are re-ranked.
  void restored(NodeId n);

  /// Terminal drop of a CACHED or SWAPPED_OUT node: the result is gone for
  /// good (evicted with no spill tier, or dropped from the spill tier), so
  /// the node and its edges leave the graph and waiting neighbors are
  /// re-ranked. Dropping a CACHED node also counts one swap-out — exactly
  /// the historical terminal swappedOut() semantics, which engines with
  /// spill disabled reproduce by calling retired() where they used to call
  /// swappedOut().
  void retired(NodeId n);

  /// EXECUTING -> FAILED: the query's execution raised an error. The node
  /// and its edges leave the graph at once (a failed query has no reusable
  /// result) and waiting neighbors are re-ranked, exactly as for swap-out.
  void failed(NodeId n);

  /// Record that executing query `subscriber` folded into a shared scan
  /// owned by executing query `owner` (a FoldIntoScan plan step,
  /// DESIGN.md §14): a fold edge owner → subscriber is added to the graph
  /// and the subscriber's waiting neighborhood is re-ranked (incremental
  /// mode) or the waiting set recomputed (full mode) — the fold-edge
  /// transition the scheduler property test drives in lockstep. Tolerant
  /// by design: by the time a subscriber's fold step runs, the owner may
  /// already have completed, failed, or been retired out of the graph —
  /// the scan itself lives at the registry, so a missing endpoint is
  /// simply not recorded. Rank feedback therefore sees shared work once:
  /// the owner alone reports the scan's compute outcome; each subscriber
  /// reports only its own achieved reuse.
  void noteFold(NodeId subscriber, NodeId owner);

  /// Runtime feedback for self-tuning policies: the achieved Eq.-2 overlap
  /// of a finished query, and a normalized I/O-congestion signal. Return at
  /// once (no lock) unless the policy's ranks depend on feedback; otherwise
  /// the hook is applied under the lock and the waiting set is reranked
  /// once at the next scheduling event (submit/dequeue/completed/...), so
  /// a burst of reports costs one rerank, not one per report.
  void reportQueryOutcome(double achievedOverlap);
  void reportResourceSignal(double ioCongestion);

  struct ReuseSource {
    NodeId node = kInvalidNode;
    double overlap = 0.0;
    QueryState state = QueryState::Cached;
  };

  /// ALL eligible EXECUTING reuse sources for `n`: every in-edge peer that
  /// began executing before `n` (the deadlock-avoidance rule: wait-for
  /// edges always point to older executions, so waiting on any subset
  /// keeps the wait graph acyclic), sorted by overlap descending with ties
  /// toward the older execution. Candidate generation for the multi-source
  /// planner, which takes cached sources from the Data Store instead.
  [[nodiscard]] std::vector<ReuseSource> executingSources(NodeId n) const;

  /// Snapshot of a node's current state (nullopt if no longer in graph).
  [[nodiscard]] std::optional<QueryState> stateOf(NodeId n) const;

  /// Clone of a node's predicate, taken under the scheduler lock (safe
  /// against concurrent graph mutation); nullptr if the node is no longer
  /// in the graph (failed() or retired() since the caller saw it).
  [[nodiscard]] query::PredicatePtr predicateOf(NodeId n) const;

  /// Current policy rank of a waiting node (test/diagnostic hook).
  [[nodiscard]] double rankOf(NodeId n) const;

  [[nodiscard]] std::size_t waitingCount() const;
  [[nodiscard]] std::size_t executingCount() const;

  /// Order in which the query started executing (1, 2, ...); 0 if it has
  /// not been dequeued yet.
  [[nodiscard]] std::uint64_t execSeq(NodeId n) const;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t completedCount = 0;
    std::uint64_t swappedOutCount = 0;  ///< CACHED left memory (demote/drop)
    std::uint64_t restoredCount = 0;    ///< SWAPPED_OUT -> CACHED revivals
    std::uint64_t retiredCount = 0;     ///< terminal drops (retired())
    std::uint64_t failedCount = 0;
    std::uint64_t foldEdges = 0;        ///< fold edges recorded (noteFold)
    std::uint64_t rankEvaluations = 0;  ///< policy->rank() calls
    std::uint64_t staleHeapPops = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Access to the underlying graph for tests and diagnostics. The caller
  /// must not use this concurrently with mutating scheduler calls (hence
  /// the analysis opt-out: it returns a guarded member by reference).
  [[nodiscard]] const SchedulingGraph& graphUnsafe() const
      NO_THREAD_SAFETY_ANALYSIS {
    return graph_;
  }

  [[nodiscard]] const RankingPolicy& policy() const { return *policy_; }

  /// Attach a lifecycle tracer: submit() opens a QUEUED span for the node
  /// and dequeue() closes it (queue-wait becomes a first-class span). The
  /// tracer must outlive the scheduler; node ids double as trace query ids.
  void setTracer(trace::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct HeapEntry {
    double rank = 0.0;
    std::uint64_t arrival = 0;
    std::uint64_t version = 0;
    NodeId node = kInvalidNode;
  };
  struct HeapCmp {
    // std::priority_queue keeps the *largest* on top under this "less".
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.rank != b.rank) return a.rank < b.rank;
      return a.arrival > b.arrival;  // older queries win ties
    }
  };
  struct NodeRt {
    std::uint64_t version = 0;
    std::uint64_t execSeq = 0;
  };

  void rerankLocked(NodeId n) REQUIRES(mu_);
  void rerankNeighborsLocked(NodeId n) REQUIRES(mu_);
  void rerankAllWaitingLocked() REQUIRES(mu_);
  void afterEventLocked(NodeId n) REQUIRES(mu_);
  /// Rerank the waiting set once if feedback arrived since the last
  /// scheduling event.
  void rerankAfterFeedbackLocked() REQUIRES(mu_);

  /// Set once before any worker thread exists (QueryServer's constructor
  /// installs it before spawning workers); the pointee synchronizes itself.
  trace::Tracer* tracer_ = nullptr;

  mutable Mutex mu_{lockorder::Rank::kScheduler, "QueryScheduler::mu_"};
  SchedulingGraph graph_ GUARDED_BY(mu_);
  PolicyPtr policy_;        ///< immutable after construction; rank() is const
  bool incremental_;        ///< immutable after construction
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapCmp> heap_
      GUARDED_BY(mu_);
  std::unordered_map<NodeId, NodeRt> rt_ GUARDED_BY(mu_);
  std::uint64_t nextExecSeq_ GUARDED_BY(mu_) = 1;
  std::size_t waiting_ GUARDED_BY(mu_) = 0;
  std::size_t executing_ GUARDED_BY(mu_) = 0;
  Stats stats_ GUARDED_BY(mu_);
  /// A feedback hook ran since the last scheduling event, so the waiting
  /// ranks are stale.
  bool feedbackPending_ GUARDED_BY(mu_) = false;
};

}  // namespace mqs::sched
