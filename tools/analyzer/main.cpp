// mqs-analyze entry point: file gathering (compile_commands.json + header
// scan), check orchestration, fragment/merge, baseline application,
// lockgraph.json emission, and the fixtures self-test.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer.hpp"

namespace fs = std::filesystem;
using namespace mqs::analyze;

namespace {

struct Options {
  std::string db;          // compile_commands.json
  std::string srcRoot;     // directory scanned for headers/sources
  std::string design;      // DESIGN.md to cross-check (empty = skip)
  std::string baseline;    // baseline file ('' = none)
  std::string lockgraphOut;
  std::string fragmentsDir;
  std::string configFile;
  std::string filterPrefix = "src/";  // keep only these TUs from the db
  std::string fixtures;    // self-test fixture dir
  bool updateBaseline = false;
  bool selfTest = false;
  bool verbose = false;
  int blockingMinRank = -1;      // -1 = config default
};

void usage() {
  std::fprintf(
      stderr,
      "usage: mqs-analyze [-p compile_commands.json] [--src-root DIR]\n"
      "                   [--design DESIGN.md] [--baseline FILE]\n"
      "                   [--update-baseline] [--lockgraph-out FILE]\n"
      "                   [--fragments-dir DIR] [--config FILE]\n"
      "                   [--filter-prefix P] [--blocking-min-rank N]\n"
      "                   [-v]\n"
      "       mqs-analyze --self-test --fixtures DIR\n");
}

bool parseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "-p" || a == "--db") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->db = v;
    } else if (a == "--src-root") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->srcRoot = v;
    } else if (a == "--design") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->design = v;
    } else if (a == "--baseline") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->baseline = v;
    } else if (a == "--lockgraph-out") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->lockgraphOut = v;
    } else if (a == "--fragments-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->fragmentsDir = v;
    } else if (a == "--config") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->configFile = v;
    } else if (a == "--filter-prefix") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->filterPrefix = v;
    } else if (a == "--fixtures") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->fixtures = v;
    } else if (a == "--blocking-min-rank") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->blockingMinRank = std::atoi(v);
    } else if (a == "--update-baseline") {
      opt->updateBaseline = true;
    } else if (a == "--self-test") {
      opt->selfTest = true;
    } else if (a == "-v" || a == "--verbose") {
      opt->verbose = true;
    } else if (a == "-h" || a == "--help") {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "mqs-analyze: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

std::string relToCwd(const std::string& path) {
  std::error_code ec;
  const fs::path cwd = fs::current_path(ec);
  if (ec) return path;
  const std::string prefix = cwd.string() + "/";
  if (path.rfind(prefix, 0) == 0) return path.substr(prefix.size());
  return path;
}

bool isSourceExt(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".cpp" || e == ".cc" || e == ".cxx";
}
bool isHeaderExt(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".hpp" || e == ".hh" || e == ".h";
}

/// Gather analysis inputs: headers sort before sources so out-of-class
/// definitions in .cpp files resolve against records declared in headers.
std::vector<std::string> gatherFiles(const Options& opt) {
  std::set<std::string> headers, sources;
  auto add = [&](const std::string& raw) {
    std::error_code ec;
    fs::path p = fs::weakly_canonical(raw, ec);
    if (ec) p = raw;
    const std::string rel = relToCwd(p.string());
    if (isHeaderExt(p)) headers.insert(rel);
    else if (isSourceExt(p)) sources.insert(rel);
  };
  if (!opt.db.empty()) {
    for (const auto& tu : compileCommandsFiles(opt.db)) {
      const std::string rel = relToCwd(tu);
      if (!opt.filterPrefix.empty() && rel.rfind(opt.filterPrefix, 0) != 0)
        continue;
      add(rel);
    }
  }
  if (!opt.srcRoot.empty() && fs::exists(opt.srcRoot)) {
    for (const auto& ent : fs::recursive_directory_iterator(opt.srcRoot)) {
      if (!ent.is_regular_file()) continue;
      if (isHeaderExt(ent.path()) || isSourceExt(ent.path()))
        add(ent.path().string());
    }
  }
  std::vector<std::string> out(headers.begin(), headers.end());
  out.insert(out.end(), sources.begin(), sources.end());
  return out;
}

struct Analysis {
  Program prog;
  std::vector<LexedFile> files;
  std::vector<Edge> edges;
  std::vector<Finding> findings;
};

std::string fragmentFileName(const std::string& tu) {
  std::string s = tu;
  for (char& c : s)
    if (c == '/' || c == '\\') c = '_';
  return s + ".json";
}

Analysis runAnalysis(const Options& opt, const Config& cfg) {
  Analysis an;
  const std::vector<std::string> paths = gatherFiles(opt);
  if (paths.empty()) {
    std::fprintf(stderr, "mqs-analyze: no input files (need -p/--src-root)\n");
    std::exit(2);
  }
  an.files.reserve(paths.size());
  for (const auto& p : paths) {
    an.files.push_back(lexSource(p, readFileOrDie(p)));
  }
  for (const auto& f : an.files) parseFile(f, an.prog);
  analyzeBodies(an.files, an.prog, cfg);

  if (!opt.fragmentsDir.empty()) {
    // Serialize per-TU edge fragments, then merge by reading them back —
    // the same path a sharded CI run takes.
    std::error_code ec;
    fs::create_directories(opt.fragmentsDir, ec);
    std::vector<std::string> texts;
    for (const auto& f : an.files) {
      std::vector<const FuncDef*> funcs;
      for (const auto& fn : an.prog.funcs)
        if (fn.file == f.path) funcs.push_back(&fn);
      const std::string json = fragmentJson(an.prog, f.path, funcs);
      const fs::path out =
          fs::path(opt.fragmentsDir) / fragmentFileName(f.path);
      std::ofstream(out.string()) << json;
      texts.push_back(readFileOrDie(out.string()));
    }
    an.edges = mergeFragments(an.prog, texts);
  } else {
    an.edges = lockGraph(an.prog);
  }

  an.findings = checkLockGraph(an.prog, an.edges);
  for (auto& f : checkGuardedBy(an.prog, cfg)) an.findings.push_back(f);
  for (auto& f : checkBlocking(an.prog, cfg)) an.findings.push_back(f);
  if (!opt.design.empty()) {
    const std::string designText = readFileOrDie(opt.design);
    for (auto& f :
         checkDesignTable(an.prog, designText, relToCwd(opt.design)))
      an.findings.push_back(f);
  }
  std::sort(an.findings.begin(), an.findings.end(),
            [](const Finding& a, const Finding& b) { return a.id() < b.id(); });
  return an;
}

// ---------------------------------------------------------------------------
// Self-test (mirrors scripts/lint_rules.py --self-test)

struct Expect {
  const char* substr;  ///< matched against Finding::id()
  bool mustFind;
};

int selfTest(const Options& optIn) {
  Options opt = optIn;
  opt.db.clear();
  opt.srcRoot = opt.fixtures;
  opt.design.clear();
  opt.filterPrefix.clear();
  const Config cfg = Config::defaults();

  int failures = 0;
  auto report = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  Analysis an = runAnalysis(opt, cfg);
  std::vector<std::string> ids;
  ids.reserve(an.findings.size());
  for (const auto& f : an.findings) ids.push_back(f.id());
  auto anyContains = [&](const char* sub) {
    for (const auto& id : ids)
      if (id.find(sub) != std::string::npos) return true;
    return false;
  };
  auto countCheck = [&](const char* check) {
    std::size_t n = 0;
    for (const auto& f : an.findings)
      if (f.check == check) ++n;
    return n;
  };

  const Expect expects[] = {
      // True positives, one per check.
      {"InvOwner::hi_ -> fx::InvOwner::lo_", true},
      {"ReqOwner::hi_ -> fx::ReqOwner::lo_", true},
      {"CallProp::hi_ -> fx::CallProp::lo_", true},
      {"lock-cycle", true},
      {"CycA::ma_", true},
      {"CycA::mb_", true},
      {"guarded-by-gap", true},
      {"Guarded::counter_", true},
      {"blocking-under-lock", true},
      {"Spiller::writeOut", true},
      // True negatives: correctly ordered / annotated / unlocked fixtures.
      {"OrderOwner", false},
      {"NonBlocker", false},
      {"AllGood", false},
      {"WithoutMutex", false},
      {"annotated_", false},
      {"limit_", false},
      {"hits_", false},
      {"capacity_", false},
  };
  for (const auto& e : expects) {
    const bool found = anyContains(e.substr);
    report(found == e.mustFind,
           std::string(e.mustFind ? "finds " : "does not flag ") + e.substr);
  }
  report(countCheck("lock-inversion") == 3, "exactly 3 lock-inversions");
  report(countCheck("lock-cycle") == 1, "exactly 1 lock-cycle");
  report(countCheck("guarded-by-gap") == 1, "exactly 1 guarded-by-gap");
  report(countCheck("blocking-under-lock") == 1,
         "exactly 1 blocking-under-lock");

  // Fragment round-trip: per-TU JSON fragments merge back to the same graph.
  {
    std::vector<std::string> texts;
    for (const auto& f : an.files) {
      std::vector<const FuncDef*> funcs;
      for (const auto& fn : an.prog.funcs)
        if (fn.file == f.path) funcs.push_back(&fn);
      texts.push_back(fragmentJson(an.prog, f.path, funcs));
    }
    const std::vector<Edge> merged = mergeFragments(an.prog, texts);
    std::set<std::pair<int, int>> a, b;
    for (const auto& e : an.edges) a.insert({e.from, e.to});
    for (const auto& e : merged) b.insert({e.from, e.to});
    report(a == b, "fragment JSON round-trip preserves the edge set");
  }

  // DESIGN table cross-check against seeded good/bad tables.
  {
    const std::string okPath = opt.fixtures + "/design_ok.md";
    const std::string badPath = opt.fixtures + "/design_bad.md";
    const auto okFindings =
        checkDesignTable(an.prog, readFileOrDie(okPath), okPath);
    report(okFindings.empty(), "design_ok.md table matches fixture ranks");
    for (const auto& f : okFindings)
      std::printf("     unexpected: %s\n", f.id().c_str());
    const auto badFindings =
        checkDesignTable(an.prog, readFileOrDie(badPath), badPath);
    auto badHas = [&](const char* sub) {
      for (const auto& f : badFindings)
        if (f.id().find(sub) != std::string::npos) return true;
      return false;
    };
    report(badHas("fx::CallProp::hi_") && badHas("missing from the section 9"),
           "design_bad.md: detects a mutex missing from the table");
    report(badHas("table says rank 30"),
           "design_bad.md: detects a wrong rank in the table");
    report(badHas("fx::Ghost::mu_") && badHas("no matching ranked mutex"),
           "design_bad.md: detects a stale table row");
  }

  // Baseline mechanics: a baselined id is suppressed, stale ids reported.
  {
    std::set<std::string> baseline = {ids.empty() ? "x" : ids[0],
                                      "bogus-entry-not-a-finding"};
    std::vector<std::string> stale;
    const auto fresh = applyBaseline(an.findings, baseline, &stale);
    report(fresh.size() == an.findings.size() - (ids.empty() ? 0 : 1),
           "baseline suppresses a known finding");
    report(stale.size() == 1 && stale[0] == "bogus-entry-not-a-finding",
           "baseline reports stale entries");
  }

  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parseArgs(argc, argv, &opt)) {
    usage();
    return 2;
  }
  if (opt.selfTest) {
    if (opt.fixtures.empty()) {
      std::fprintf(stderr, "mqs-analyze: --self-test requires --fixtures\n");
      return 2;
    }
    return selfTest(opt);
  }

  Config cfg = Config::defaults();
  if (!opt.configFile.empty()) cfg.loadFile(opt.configFile);
  if (opt.blockingMinRank >= 0) cfg.blockingMinRank = opt.blockingMinRank;

  const Analysis an = runAnalysis(opt, cfg);
  if (opt.verbose) {
    std::printf("mqs-analyze: %zu files, %zu records, %zu functions, "
                "%zu mutexes, %zu edges\n",
                an.files.size(), an.prog.records.size(), an.prog.funcs.size(),
                an.prog.mutexes.size(), an.edges.size());
    for (const auto& m : an.prog.mutexes)
      std::printf("  mutex %-45s rank %3d  (%s:%d)\n", m.path.c_str(), m.rank,
                  m.file.c_str(), m.line);
  }

  if (!opt.lockgraphOut.empty()) {
    std::error_code ec;
    const fs::path p(opt.lockgraphOut);
    if (p.has_parent_path()) fs::create_directories(p.parent_path(), ec);
    std::ofstream(opt.lockgraphOut)
        << lockGraphJson(an.prog, an.edges, an.findings);
  }

  if (opt.updateBaseline) {
    if (opt.baseline.empty()) {
      std::fprintf(stderr,
                   "mqs-analyze: --update-baseline requires --baseline\n");
      return 2;
    }
    std::ofstream out(opt.baseline);
    out << "# mqs-analyze baseline: grandfathered findings, one Finding id\n"
           "# per line. CI fails on any finding NOT listed here; shrink on\n"
           "# sight, never grow (see CONTRIBUTING.md).\n";
    for (const auto& f : an.findings) out << f.id() << "\n";
    std::printf("mqs-analyze: wrote %zu baseline entries to %s\n",
                an.findings.size(), opt.baseline.c_str());
    return 0;
  }

  const std::set<std::string> baseline =
      opt.baseline.empty() ? std::set<std::string>{}
                           : loadBaseline(opt.baseline);
  std::vector<std::string> stale;
  const std::vector<Finding> fresh =
      applyBaseline(an.findings, baseline, &stale);

  for (const auto& f : an.findings) {
    const bool isNew = baseline.count(f.id()) == 0;
    std::printf("%s:%d: [%s] %s: %s%s\n", f.file.c_str(), f.line,
                f.check.c_str(), f.where.c_str(), f.detail.c_str(),
                isNew ? "" : " [baselined]");
  }
  for (const auto& s : stale)
    std::printf("mqs-analyze: warning: stale baseline entry (fixed? remove "
                "it): %s\n",
                s.c_str());
  std::printf("mqs-analyze: %zu finding(s), %zu baselined, %zu new\n",
              an.findings.size(), an.findings.size() - fresh.size(),
              fresh.size());
  return fresh.empty() ? 0 : 1;
}
