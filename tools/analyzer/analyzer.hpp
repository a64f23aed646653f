// mqs-analyze — whole-program static analysis for the MQS lock discipline
// (DESIGN.md §15).
//
// Three checks, run across every TU named by compile_commands.json plus
// every header under --src-root, then merged:
//
//   1. lock-graph     Extract every Mutex acquisition together with the set
//                     of ranked locks provably held at that point
//                     (intra-procedural hold-set propagation, seeded by
//                     REQUIRES annotations on *Locked helpers, widened by a
//                     call-summary fixpoint so `server.submit()` under a
//                     lock contributes the scheduler locks submit takes).
//                     Report rank inversions (edge from rank a to rank
//                     b <= a), cycles among the per-mutex graph, and any
//                     disagreement with the DESIGN.md §9 rank table.
//   2. guarded-by     In any record that owns a Mutex, every mutable
//                     non-const, non-atomic data member must carry
//                     GUARDED_BY / PT_GUARDED_BY, an `immutable after
//                     construction` comment, or an allowlist entry —
//                     closing the hole where an unannotated field escapes
//                     -Werror=thread-safety entirely.
//   3. blocking       Calls from a configurable blocking set (file I/O,
//                     sleeps, future/queue waits, CondVar::wait on a
//                     *different* mutex) made while a shard-leaf rank
//                     (>= --blocking-min-rank, default 44) is held.
//
// Frontend: a built-in C++ lexer with zero dependencies feeds the token
// stream into the analysis core.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace mqs::analyze {

// ---------------------------------------------------------------------------
// Tokens (the frontend contract)

struct Tok {
  enum class Kind : std::uint8_t { Ident, Punct, Number, String, Char };
  Kind kind = Kind::Punct;
  std::string text;
  int line = 1;
};

struct LexedFile {
  std::string path;  ///< as given (repo-relative preferred)
  std::vector<Tok> toks;
  /// line -> concatenated comment text on that line (for the
  /// `immutable after construction` member exemption).
  std::unordered_map<int, std::string> comments;
};

/// Lex `text` (C++ source) into tokens, skipping preprocessor directives
/// and recording comment text per line.
LexedFile lexSource(const std::string& path, const std::string& text);

/// Load TU paths from a compile_commands.json (built-in minimal parser).
std::vector<std::string> compileCommandsFiles(const std::string& dbPath);

// ---------------------------------------------------------------------------
// Program model (what the parser extracts)

struct MutexDecl {
  std::string path;      ///< qualified, e.g. "datastore::SpillTier::mu_"
  std::string rankName;  ///< "kSpillTier"; empty = unranked
  int rank = 0;          ///< numeric rank; 0 = unranked
  /// The debug-name string literal from the initializer (the runtime lock
  /// checker's identity, e.g. "logging::gMutex"). Used as an alias when
  /// matching the DESIGN.md rank table: anonymous namespaces make the
  /// declared path lose its logical scope.
  std::string nameLiteral;
  std::string file;
  int line = 0;
};

struct MemberDecl {
  std::string name;
  std::string typeText;  ///< type tokens joined with spaces
  int line = 0;
  bool isConst = false;    ///< top-level const (or reference member)
  bool isAtomic = false;   ///< std::atomic<...>
  bool isStatic = false;
  bool isGuarded = false;  ///< GUARDED_BY / PT_GUARDED_BY present
  bool hasImmutableComment = false;  ///< "immutable after construction"
};

struct RecordDecl {
  std::string path;  ///< qualified record name
  std::string file;
  int line = 0;
  std::vector<MemberDecl> members;
  std::vector<std::string> mutexMembers;  ///< names of Mutex-typed members
  [[nodiscard]] bool ownsMutex() const { return !mutexMembers.empty(); }
};

/// One Mutex acquisition inside a function body, with the hold set at
/// that point (indices into Program::mutexes).
struct AcquireEvent {
  int mutexIdx = -1;
  std::vector<int> held;
  int line = 0;
};

/// A call made with locks held; resolved to zero or more callee keys.
struct CallEvent {
  std::string callee;  ///< resolved function key ("Record::name" or "name")
  std::vector<int> held;
  int line = 0;
};

/// A call to a configured blocking operation, with the hold set.
struct BlockingEvent {
  std::string what;  ///< e.g. "std::fwrite", "BlockingQueue::pop"
  std::vector<int> held;
  int waitedMutexIdx = -1;  ///< CondVar::wait target (exempt from check)
  int line = 0;
};

struct FuncDef {
  std::string key;     ///< "Record::name" (record-qualified) or bare name
  std::string record;  ///< enclosing record path, or empty
  std::string file;
  int line = 0;
  std::string returnTypeText;
  std::vector<std::string> requiresExprs;  ///< REQUIRES(...) argument texts
  std::vector<std::string> acquireExprs;   ///< ACQUIRE(...) argument texts
  /// Parameter name -> type text (for receiver resolution).
  std::vector<std::pair<std::string, std::string>> params;
  std::size_t bodyBegin = 0, bodyEnd = 0;  ///< token range of `{...}` body
  bool hasBody = false;

  // Filled by the body walk:
  std::vector<AcquireEvent> acquires;
  std::vector<CallEvent> calls;
  std::vector<BlockingEvent> blocking;
};

struct Program {
  std::vector<MutexDecl> mutexes;
  std::map<std::string, RecordDecl> records;  ///< by qualified path
  std::vector<FuncDef> funcs;
  /// Annotations from declarations without bodies: key -> REQUIRES exprs.
  std::map<std::string, std::vector<std::string>> declRequires;
  std::map<std::string, int> rankValues;  ///< "kSpillTier" -> 44
  /// Namespace-scope variable name -> type text (e.g. logging::gMutex).
  std::map<std::string, std::string> globals;

  [[nodiscard]] int mutexIndex(const std::string& path) const {
    for (std::size_t i = 0; i < mutexes.size(); ++i)
      if (mutexes[i].path == path) return static_cast<int>(i);
    return -1;
  }
};

/// Parse one lexed file into `prog` (declarations, records, function
/// definitions with body token ranges). Safe to call once per file.
void parseFile(const LexedFile& file, Program& prog);

// ---------------------------------------------------------------------------
// Checks

struct Finding {
  std::string check;  ///< lock-inversion | lock-cycle | guarded-by-gap |
                      ///< blocking-under-lock | rank-table-mismatch
  std::string file;
  std::string where;  ///< function or Record::member
  std::string detail;
  int line = 0;

  /// Stable identity (no line numbers, so unrelated edits don't churn the
  /// baseline).
  [[nodiscard]] std::string id() const {
    return check + ": " + file + ": " + where + ": " + detail;
  }
};

struct Edge {
  int from = -1, to = -1;  ///< indices into Program::mutexes
  std::vector<std::string> sites;  ///< "file:line (function)"
};

struct Config {
  int blockingMinRank = 44;
  /// Blocking operations: bare/qualified names and Type::method entries.
  std::set<std::string> blockingNames;
  std::set<std::string> blockingMethods;  ///< "Type::name"
  /// GUARDED_BY coverage: member types exempt by construction (internally
  /// synchronized or lifecycle handles) and Record::member allowlist.
  std::set<std::string> exemptMemberTypes;
  std::set<std::string> memberAllowlist;

  static Config defaults();
  /// Extend from a config file: lines `blocking: name`, `blocking: T::m`,
  /// `exempt-type: Name`, `allow-member: Record::member` (# comments).
  void loadFile(const std::string& path);
};

/// Walk every function body: propagate hold sets, record acquisitions,
/// calls, and blocking events; then run the call-summary fixpoint.
void analyzeBodies(const std::vector<LexedFile>& files, Program& prog,
                   const Config& cfg);

/// Lock-graph edges merged across all functions (after analyzeBodies).
std::vector<Edge> lockGraph(const Program& prog);

std::vector<Finding> checkLockGraph(const Program& prog,
                                    const std::vector<Edge>& edges);
std::vector<Finding> checkGuardedBy(const Program& prog, const Config& cfg);
std::vector<Finding> checkBlocking(const Program& prog, const Config& cfg);

/// DESIGN.md §9 cross-check: every ranked mutex in code appears in the
/// table with the same rank, and vice versa. `designText` is the whole
/// DESIGN.md; rows look like `| 44 | \`datastore::SpillTier::mu_\` | ... |`.
std::vector<Finding> checkDesignTable(const Program& prog,
                                      const std::string& designText,
                                      const std::string& designPath);

// ---------------------------------------------------------------------------
// Fragments + merge + reporting

/// Serialize one TU's extraction (acquisition edges + findings inputs) as
/// JSON; `mergeFragments` parses them back. Round-tripping through disk is
/// how multi-process CI runs merge (and the self-test exercises it).
std::string fragmentJson(const Program& prog, const std::string& tu,
                         const std::vector<const FuncDef*>& funcs);

/// Parse fragment JSON texts back into a merged, deduplicated edge list
/// (paths resolved against `prog.mutexes`; unknown paths dropped).
std::vector<Edge> mergeFragments(const Program& prog,
                                 const std::vector<std::string>& fragmentTexts);

/// Merged lock graph as JSON for results/lockgraph.json.
std::string lockGraphJson(const Program& prog, const std::vector<Edge>& edges,
                          const std::vector<Finding>& findings);

/// Baseline: one Finding::id() per line, '#' comments. Returns the subset
/// of `findings` NOT in the baseline (i.e. new findings that fail CI).
std::vector<Finding> applyBaseline(const std::vector<Finding>& findings,
                                   const std::set<std::string>& baseline,
                                   std::vector<std::string>* staleEntries);

std::set<std::string> loadBaseline(const std::string& path);

// Small shared helpers (used by checks + main).
std::string readFileOrDie(const std::string& path);
std::string jsonEscape(const std::string& s);

}  // namespace mqs::analyze
