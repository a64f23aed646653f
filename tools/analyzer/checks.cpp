// Analysis core for mqs-analyze: the function-body walk that propagates
// hold sets (RAII MutexLock scopes, manual lock()/unlock(), REQUIRES
// seeding), the call-summary fixpoint, the three whole-program checks,
// the DESIGN.md §9 cross-check, and the fragment/merge/baseline plumbing.
#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "analyzer.hpp"

namespace mqs::analyze {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string parentScope(const std::string& path) {
  const std::size_t pos = path.rfind("::");
  return pos == std::string::npos ? std::string() : path.substr(0, pos);
}

bool typeHasToken(const std::string& typeText, const std::string& tok) {
  std::size_t pos = 0;
  while ((pos = typeText.find(tok, pos)) != std::string::npos) {
    const bool l = pos == 0 ||
                   !(std::isalnum(static_cast<unsigned char>(
                         typeText[pos - 1])) ||
                     typeText[pos - 1] == '_');
    const std::size_t end = pos + tok.size();
    const bool r = end >= typeText.size() ||
                   !(std::isalnum(static_cast<unsigned char>(typeText[end])) ||
                     typeText[end] == '_');
    if (l && r) return true;
    pos = end;
  }
  return false;
}

std::vector<int> setToVec(const std::set<int>& s) {
  return {s.begin(), s.end()};
}

}  // namespace

// ---------------------------------------------------------------------------
// Config

Config Config::defaults() {
  Config c;
  c.blockingMinRank = 44;
  c.blockingNames = {
      // C stdio / POSIX file & socket I/O (bare names match free calls only).
      "fopen", "fwrite", "fread", "fclose", "fflush", "fseek", "fsync",
      "fdatasync", "pread", "pwrite", "sendto", "recvfrom", "send", "recv",
      "connect", "accept", "poll", "select", "system", "popen",
      // Sleeps.
      "sleep", "usleep", "nanosleep",
      "this_thread::sleep_for", "this_thread::sleep_until",
      // Filesystem ops (qualified only: bare `remove` is std::remove).
      "fs::remove", "filesystem::remove", "fs::remove_all",
      "filesystem::remove_all", "fs::rename", "filesystem::rename",
      "fs::create_directories", "filesystem::create_directories",
      "fs::resize_file", "filesystem::resize_file", "fs::copy_file",
      "filesystem::copy_file",
  };
  c.blockingMethods = {
      "BlockingQueue::pop", "future::get", "future::wait",
      "shared_future::get", "shared_future::wait", "thread::join",
      "jthread::join", "ofstream::write", "ofstream::flush",
      "fstream::write", "fstream::flush", "ostream::write", "ostream::flush",
      "ifstream::read", "istream::read", "SpillTier::flush",
  };
  c.exemptMemberTypes = {
      // Internally synchronized or lifecycle-only handles; annotating them
      // GUARDED_BY would be wrong (they are the synchronization).
      "Mutex", "CondVar", "MutexLock", "BlockingQueue", "thread", "jthread",
      "mutex", "shared_mutex", "condition_variable", "condition_variable_any",
      "once_flag", "stop_source", "atomic", "atomic_flag", "ThreadPool",
  };
  return c;
}

void Config::loadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = trim(line.substr(0, colon));
    const std::string val = trim(line.substr(colon + 1));
    if (val.empty()) continue;
    if (key == "blocking") {
      if (val.find("::") != std::string::npos &&
          val.find("::") == val.rfind("::") &&
          std::isupper(static_cast<unsigned char>(val[0])))
        blockingMethods.insert(val);
      else
        blockingNames.insert(val);
    } else if (key == "exempt-type") {
      exemptMemberTypes.insert(val);
    } else if (key == "allow-member") {
      memberAllowlist.insert(val);
    } else if (key == "blocking-min-rank") {
      blockingMinRank = std::atoi(val.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Name resolution shared by the body walker

namespace {

class Resolver {
 public:
  explicit Resolver(const Program& prog) : prog_(prog) {}

  /// Map a declared type text to a known record path, trying the context
  /// record's scope chain first (nested records), then exact and
  /// unique-suffix matches.
  std::string recordOfType(const std::string& typeText,
                           const std::string& context) const {
    for (const std::string& cand : qualifiedCandidates(typeText)) {
      std::string ctx = context;
      while (true) {
        const std::string q = ctx.empty() ? cand : ctx + "::" + cand;
        if (prog_.records.count(q) != 0) return q;
        if (ctx.empty()) break;
        ctx = parentScope(ctx);
      }
      if (const std::string u = uniqueRecordSuffix(cand); !u.empty()) return u;
    }
    return {};
  }

  /// Member lookup walking the record scope chain outward.
  const MemberDecl* findMember(const std::string& record,
                               const std::string& name,
                               std::string* owningRecord) const {
    std::string ctx = record;
    while (!ctx.empty()) {
      auto it = prog_.records.find(ctx);
      if (it != prog_.records.end()) {
        for (const auto& m : it->second.members)
          if (m.name == name) {
            if (owningRecord != nullptr) *owningRecord = ctx;
            return &m;
          }
      }
      ctx = parentScope(ctx);
    }
    return nullptr;
  }

  int mutexBySuffix(const std::string& name) const {
    int found = -1;
    for (std::size_t i = 0; i < prog_.mutexes.size(); ++i) {
      const std::string& p = prog_.mutexes[i].path;
      if (p == name || (p.size() > name.size() + 2 &&
                        p.compare(p.size() - name.size(), name.size(), name) ==
                            0 &&
                        p.compare(p.size() - name.size() - 2, 2, "::") == 0)) {
        if (found >= 0) return -1;  // ambiguous
        found = static_cast<int>(i);
      }
    }
    return found;
  }

 private:
  /// "std :: vector < Shard * >" -> {"std::vector", "Shard", ...}:
  /// '::'-joined runs plus each bare identifier, longest first.
  static std::vector<std::string> qualifiedCandidates(
      const std::string& typeText) {
    std::vector<std::string> toks;
    std::istringstream ss(typeText);
    std::string t;
    while (ss >> t) toks.push_back(t);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i] == "::" || !std::isalpha(static_cast<unsigned char>(
                                 toks[i].empty() ? '0' : toks[i][0])))
        continue;
      std::string q = toks[i];
      std::size_t j = i;
      while (j + 2 < toks.size() && toks[j + 1] == "::") {
        q += "::" + toks[j + 2];
        j += 2;
      }
      if (q != toks[i]) out.push_back(q);
    }
    for (const auto& tk : toks) {
      if (tk == "::" || tk.empty()) continue;
      if (std::isalpha(static_cast<unsigned char>(tk[0])) || tk[0] == '_')
        out.push_back(tk);
    }
    return out;
  }

  std::string uniqueRecordSuffix(const std::string& name) const {
    std::string found;
    for (const auto& [path, rec] : prog_.records) {
      (void)rec;
      if (path == name) return path;
      if (path.size() > name.size() + 2 &&
          path.compare(path.size() - name.size(), name.size(), name) == 0 &&
          path.compare(path.size() - name.size() - 2, 2, "::") == 0) {
        if (!found.empty()) return {};  // ambiguous
        found = path;
      }
    }
    return found;
  }

  const Program& prog_;
};

// ---------------------------------------------------------------------------
// Body walker

struct Chain {
  std::vector<std::string> segs;  ///< collapsed segments, method last
  std::vector<std::string> seps;  ///< separator before segs[i+1]
  bool complexBase = false;       ///< base was `)`/`]` — unresolvable
  bool globalQualified = false;   ///< leading `::`
  [[nodiscard]] bool allScopeSeps() const {
    for (const auto& s : seps)
      if (s != "::") return false;
    return true;
  }
};

class BodyWalker {
 public:
  BodyWalker(const LexedFile& f, Program& prog, FuncDef& fn, const Config& cfg)
      : f_(f), t_(f.toks), prog_(prog), fn_(fn), cfg_(cfg), res_(prog) {
    for (const auto& [name, type] : fn_.params) locals_[name] = type;
    seedEntryHeld();
  }

  void run() {
    raii_.emplace_back();  // function scope
    i_ = fn_.bodyBegin;
    while (i_ < fn_.bodyEnd && i_ < t_.size()) step();
  }

 private:
  const LexedFile& f_;
  const std::vector<Tok>& t_;
  Program& prog_;
  FuncDef& fn_;
  const Config& cfg_;
  Resolver res_;
  std::size_t i_ = 0;

  std::vector<std::vector<int>> raii_;
  std::set<int> manual_;
  std::set<int> entry_;
  std::map<std::string, std::string> locals_;
  std::map<std::string, std::string> autoInit_;  ///< auto local -> init head

  [[nodiscard]] const Tok& tok(std::size_t k) const { return t_[k]; }
  [[nodiscard]] bool isP(std::size_t k, const char* s) const {
    return k < t_.size() && t_[k].kind == Tok::Kind::Punct && t_[k].text == s;
  }
  [[nodiscard]] bool isI(std::size_t k) const {
    return k < t_.size() && t_[k].kind == Tok::Kind::Ident;
  }

  [[nodiscard]] std::vector<int> heldNow() const {
    std::set<int> h = entry_;
    for (const auto& sc : raii_) h.insert(sc.begin(), sc.end());
    h.insert(manual_.begin(), manual_.end());
    return setToVec(h);
  }

  void seedEntryHeld() {
    std::vector<std::string> exprs = fn_.requiresExprs;
    auto it = prog_.declRequires.find(fn_.key);
    if (it != prog_.declRequires.end())
      exprs.insert(exprs.end(), it->second.begin(), it->second.end());
    for (const auto& e : exprs) {
      const int idx = resolveMutexText(e);
      if (idx >= 0) entry_.insert(idx);
    }
  }

  int resolveMutexText(const std::string& expr) {
    const LexedFile lf = lexSource("<expr>", expr);
    if (lf.toks.empty()) return -1;
    return resolveMutexToks(lf.toks, 0, lf.toks.size());
  }

  /// Resolve a mutex expression given as a token range [b, e).
  int resolveMutexToks(const std::vector<Tok>& v, std::size_t b,
                       std::size_t e) {
    // Split into segments on '.'/'->' (collapsing '::'-qualified names),
    // dropping leading '*' / '&' / 'this'.
    std::vector<std::string> segs;
    std::string cur;
    bool qualified = false;
    for (std::size_t k = b; k < e; ++k) {
      const Tok& tk = v[k];
      if (tk.kind == Tok::Kind::Punct &&
          (tk.text == "*" || tk.text == "&") && cur.empty() && segs.empty())
        continue;
      if (tk.kind == Tok::Kind::Punct && tk.text == "::") {
        cur += "::";
        qualified = true;
        continue;
      }
      if (tk.kind == Tok::Kind::Punct &&
          (tk.text == "." || tk.text == "->")) {
        if (!cur.empty()) segs.push_back(cur);
        cur.clear();
        continue;
      }
      if (tk.kind == Tok::Kind::Ident) {
        cur += tk.text;
        continue;
      }
      return -1;  // indexing/calls in the expression — give up
    }
    if (!cur.empty()) segs.push_back(cur);
    if (!segs.empty() && segs.front() == "this") segs.erase(segs.begin());
    if (segs.empty()) return -1;

    if (segs.size() == 1) {
      const std::string& s = segs[0];
      if (qualified) {
        if (const int idx = prog_.mutexIndex(s); idx >= 0) return idx;
        // `lockorder::x` style partial qualification.
        return res_.mutexBySuffix(lastSegment(s));
      }
      // Local / parameter of Mutex type: statically unknowable identity.
      if (auto it = locals_.find(s);
          it != locals_.end() && typeHasToken(it->second, "Mutex"))
        return -1;
      // Member of the enclosing record chain.
      std::string ctx = fn_.record;
      while (!ctx.empty()) {
        if (const int idx = prog_.mutexIndex(ctx + "::" + s); idx >= 0)
          return idx;
        ctx = parentScope(ctx);
      }
      return res_.mutexBySuffix(s);
    }

    // Multi-segment: resolve the base object's record, walk members.
    std::string rec = resolveBaseRecord(segs[0]);
    if (rec.empty()) return res_.mutexBySuffix(segs.back());
    for (std::size_t k = 1; k + 1 < segs.size(); ++k) {
      std::string owner;
      const MemberDecl* m = res_.findMember(rec, segs[k], &owner);
      if (m == nullptr) return res_.mutexBySuffix(segs.back());
      rec = res_.recordOfType(m->typeText, owner);
      if (rec.empty()) return res_.mutexBySuffix(segs.back());
    }
    std::string owner = rec;
    if (const MemberDecl* m = res_.findMember(rec, segs.back(), &owner);
        m != nullptr) {
      if (const int idx = prog_.mutexIndex(owner + "::" + segs.back());
          idx >= 0)
        return idx;
    }
    return res_.mutexBySuffix(segs.back());
  }

  static std::string lastSegment(const std::string& q) {
    const std::size_t pos = q.rfind("::");
    return pos == std::string::npos ? q : q.substr(pos + 2);
  }

  /// Type text of a base identifier (local, member, global), or "".
  std::string typeOfBase(const std::string& name, int depth = 0) {
    if (depth > 4) return {};
    if (name == "this") return fn_.record;
    if (auto it = locals_.find(name); it != locals_.end()) {
      if (it->second == "auto") {
        auto ai = autoInit_.find(name);
        if (ai != autoInit_.end()) return typeOfBase(ai->second, depth + 1);
        return {};
      }
      return it->second;
    }
    std::string owner;
    if (const MemberDecl* m = res_.findMember(fn_.record, name, &owner);
        m != nullptr)
      return m->typeText;
    for (const auto& [gname, gtype] : prog_.globals) {
      if (gname == name || lastSegment(gname) == name) return gtype;
    }
    // A call: use the (record-local, then unique) function's return type.
    std::string ctx = fn_.record;
    while (!ctx.empty()) {
      for (const auto& fd : prog_.funcs)
        if (fd.key == ctx + "::" + name) return fd.returnTypeText;
      ctx = parentScope(ctx);
    }
    return {};
  }

  std::string resolveBaseRecord(const std::string& base) {
    if (base == "this") return fn_.record;
    const std::string type = typeOfBase(base);
    if (!type.empty()) {
      const std::string rec = res_.recordOfType(type, fn_.record);
      if (!rec.empty()) return rec;
    }
    // Static access through a type name (Record::member).
    return res_.recordOfType(base, fn_.record);
  }

  // -- walking --------------------------------------------------------------
  void step() {
    const Tok& tk = t_[i_];
    if (tk.kind == Tok::Kind::Punct) {
      if (tk.text == "{") {
        raii_.emplace_back();
        ++i_;
        return;
      }
      if (tk.text == "}") {
        if (raii_.size() > 1) raii_.pop_back();
        ++i_;
        return;
      }
      ++i_;
      return;
    }
    if (tk.kind != Tok::Kind::Ident) {
      ++i_;
      return;
    }

    maybeLocalDecl();

    if (tk.text == "MutexLock" && isI(i_ + 1) &&
        (isP(i_ + 2, "(") || isP(i_ + 2, "{"))) {
      handleMutexLockDecl();
      return;
    }
    if (i_ + 1 < t_.size() && isP(i_ + 1, "(")) {
      handleCallish();
      return;
    }
    ++i_;
  }

  /// At a statement-start identifier, record `Type [*&] name [=({;]` local
  /// declarations for later receiver typing. Never consumes tokens.
  void maybeLocalDecl() {
    if (i_ > fn_.bodyBegin) {
      const Tok& prev = t_[i_ - 1];
      if (!(prev.kind == Tok::Kind::Punct &&
            (prev.text == ";" || prev.text == "{" || prev.text == "}")))
        return;
    }
    std::size_t k = i_;
    std::string type;
    if (isI(k) && t_[k].text == "const") {
      type = "const";
      ++k;
    }
    if (!isI(k)) return;
    static const std::set<std::string> kStmtKw = {
        "if",     "while",  "for",   "switch", "return", "break", "continue",
        "do",     "goto",   "case",  "else",   "throw",  "try",   "catch",
        "delete", "new",    "using", "static", "co_return", "co_await"};
    if (kStmtKw.count(t_[k].text) != 0) return;
    // Type: ident (:: ident)* (< ... >)?
    type += (type.empty() ? "" : " ") + t_[k].text;
    ++k;
    while (isP(k, "::") && isI(k + 1)) {
      type += " :: " + t_[k + 1].text;
      k += 2;
    }
    if (isP(k, "<")) {
      int depth = 0;
      while (k < t_.size()) {
        if (isP(k, "<")) ++depth;
        else if (isP(k, ">")) {
          --depth;
          type += " " + t_[k].text;
          ++k;
          if (depth == 0) break;
          continue;
        } else if (isP(k, "(") || isP(k, ";")) {
          return;  // not a simple template type
        }
        type += " " + t_[k].text;
        ++k;
      }
    }
    while (isP(k, "*") || isP(k, "&")) {
      type += " " + t_[k].text;
      ++k;
    }
    if (!isI(k)) return;
    const std::string name = t_[k].text;
    ++k;
    if (!(isP(k, "=") || isP(k, ";") || isP(k, "{") || isP(k, "("))) return;
    locals_[name] = type;
    if (typeHasToken(type, "auto") && isP(k, "=")) {
      // First identifier of the initializer, for auto resolution.
      std::size_t j = k + 1;
      while (j < t_.size() && !isI(j) &&
             !(t_[j].kind == Tok::Kind::Punct &&
               (t_[j].text == ";" || t_[j].text == "{")))
        ++j;
      if (isI(j)) autoInit_[name] = t_[j].text;
    }
  }

  void handleMutexLockDecl() {
    const int line = t_[i_].line;
    i_ += 2;  // MutexLock NAME
    const char* close = isP(i_, "(") ? ")" : "}";
    ++i_;
    const std::size_t exprB = i_;
    int depth = 1;
    while (i_ < t_.size() && depth > 0) {
      if (t_[i_].kind == Tok::Kind::Punct) {
        if (t_[i_].text == "(" || t_[i_].text == "{") ++depth;
        else if (t_[i_].text == ")" || t_[i_].text == "}") --depth;
      }
      if (depth > 0) ++i_;
    }
    const std::size_t exprE = i_;
    if (i_ < t_.size()) ++i_;  // close
    (void)close;
    const int idx = resolveMutexToks(t_, exprB, exprE);
    if (idx < 0) return;
    fn_.acquires.push_back({idx, heldNow(), line});
    raii_.back().push_back(idx);
  }

  Chain collectChain(std::size_t methodPos) const {
    Chain ch;
    ch.segs.push_back(t_[methodPos].text);
    std::ptrdiff_t k = static_cast<std::ptrdiff_t>(methodPos) - 1;
    while (k >= 0 && t_[k].kind == Tok::Kind::Punct &&
           (t_[k].text == "." || t_[k].text == "->" || t_[k].text == "::")) {
      if (k == 0 || t_[k - 1].kind != Tok::Kind::Ident) {
        if (t_[k].text == "::") ch.globalQualified = true;
        else ch.complexBase = true;
        break;
      }
      ch.segs.insert(ch.segs.begin(), t_[k - 1].text);
      ch.seps.insert(ch.seps.begin(), t_[k].text);
      k -= 2;
    }
    return ch;
  }

  /// cur() is an identifier followed by '(': method call, free call, or
  /// neither (keyword/macro). Records acquire/call/blocking events.
  void handleCallish() {
    const std::size_t methodPos = i_;
    const std::string& name = t_[methodPos].text;
    const int line = t_[methodPos].line;
    static const std::set<std::string> kNotCalls = {
        "if",    "while",  "for",       "switch",    "return", "catch",
        "sizeof", "alignof", "decltype", "co_await",  "co_return", "assert",
        "MQS_CHECK", "MQS_DCHECK", "MQS_LOG", "defined"};
    if (kNotCalls.count(name) != 0) {
      ++i_;
      return;
    }
    const Chain ch = collectChain(methodPos);
    const bool methodCall =
        !ch.seps.empty() &&
        (ch.seps.back() == "." || ch.seps.back() == "->");
    ++i_;  // move onto '(' — arg tokens walked by the main loop afterwards

    if (methodCall && (name == "lock" || name == "unlock") &&
        isP(i_, "(") && isP(i_ + 1, ")")) {
      // Receiver = chain minus the method.
      const int idx = resolveChainReceiverMutex(ch);
      if (idx >= 0) {
        if (name == "lock") {
          fn_.acquires.push_back({idx, heldNow(), line});
          manual_.insert(idx);
        } else {
          manual_.erase(idx);
        }
      }
      i_ += 2;
      return;
    }

    if (methodCall) {
      const std::string recvType = receiverTypeText(ch);
      const std::string recvName = typeNameForBlocking(recvType);
      if (name == "wait" && recvName == "CondVar") {
        // Argument is the mutex being waited on (and temporarily released).
        const int waited = firstArgMutex();
        BlockingEvent ev;
        ev.what = "CondVar::wait";
        ev.held = heldNow();
        ev.waitedMutexIdx = waited;
        ev.line = line;
        fn_.blocking.push_back(ev);
        return;
      }
      if (!recvName.empty() &&
          cfg_.blockingMethods.count(recvName + "::" + name) != 0) {
        fn_.blocking.push_back({recvName + "::" + name, heldNow(), -1, line});
        return;
      }
      // Method call on a known record: contributes callee's acquisitions.
      const std::string rec =
          recvType.empty() ? std::string()
                           : res_.recordOfType(recvType, fn_.record);
      if (!rec.empty()) {
        fn_.calls.push_back({rec + "::" + name, heldNow(), line});
      }
      return;
    }

    // '::'-qualified or bare free call.
    if (ch.segs.size() > 1 || ch.globalQualified) {
      // Try joined suffixes of the qualified name against the blocking set.
      std::string suffix;
      for (std::size_t k = ch.segs.size(); k-- > 0;) {
        suffix = suffix.empty() ? ch.segs[k] : ch.segs[k] + "::" + suffix;
        if (cfg_.blockingNames.count(suffix) != 0) {
          fn_.blocking.push_back({suffix, heldNow(), -1, line});
          return;
        }
      }
      return;
    }
    if (cfg_.blockingNames.count(name) != 0) {
      fn_.blocking.push_back({name, heldNow(), -1, line});
      return;
    }
    // Bare call: same-record method (possibly an out-of-line *Locked
    // helper), else a namespace function we parsed.
    std::string ctx = fn_.record;
    while (!ctx.empty()) {
      const std::string key = ctx + "::" + name;
      if (funcKeyExists(key)) {
        fn_.calls.push_back({key, heldNow(), line});
        return;
      }
      ctx = parentScope(ctx);
    }
    if (const std::string key = uniqueFuncSuffix(name); !key.empty()) {
      fn_.calls.push_back({key, heldNow(), line});
    }
  }

  [[nodiscard]] bool funcKeyExists(const std::string& key) const {
    for (const auto& fd : prog_.funcs)
      if (fd.key == key) return true;
    return prog_.declRequires.count(key) != 0;
  }

  [[nodiscard]] std::string uniqueFuncSuffix(const std::string& name) const {
    std::string found;
    for (const auto& fd : prog_.funcs) {
      if (lastSegment(fd.key) != name) continue;
      if (!found.empty() && found != fd.key) return {};
      found = fd.key;
    }
    return found;
  }

  int resolveChainReceiverMutex(const Chain& ch) {
    if (ch.complexBase || ch.segs.size() < 2) return -1;
    // Rebuild receiver tokens (chain minus method) and reuse the resolver.
    std::vector<Tok> v;
    for (std::size_t k = 0; k + 1 < ch.segs.size(); ++k) {
      if (k > 0) v.push_back({Tok::Kind::Punct, ch.seps[k - 1], 0});
      v.push_back({Tok::Kind::Ident, ch.segs[k], 0});
    }
    return resolveMutexToks(v, 0, v.size());
  }

  [[nodiscard]] std::string receiverTypeText(const Chain& ch) {
    if (ch.complexBase || ch.segs.size() < 2) return {};
    std::string type = typeOfBase(ch.segs[0]);
    std::string rec =
        type.empty() ? std::string() : res_.recordOfType(type, fn_.record);
    for (std::size_t k = 1; k + 1 < ch.segs.size(); ++k) {
      std::string owner;
      const std::string scope = rec.empty() ? fn_.record : rec;
      const MemberDecl* m = res_.findMember(scope, ch.segs[k], &owner);
      if (m == nullptr) return {};
      type = m->typeText;
      rec = res_.recordOfType(type, owner);
    }
    return type;
  }

  /// Last plausible type name in a type text ("std :: future < X >" ->
  /// "future"; "CondVar" -> "CondVar").
  static std::string typeNameForBlocking(const std::string& typeText) {
    std::istringstream ss(typeText);
    std::string t, best;
    while (ss >> t) {
      if (t.empty()) continue;
      if (!(std::isalpha(static_cast<unsigned char>(t[0])) || t[0] == '_'))
        continue;
      if (t == "const" || t == "std" || t == "mutable" || t == "typename")
        continue;
      best = t;
      if (t == "future" || t == "shared_future" || t == "CondVar" ||
          t == "BlockingQueue" || t == "thread" || t == "jthread")
        return t;
    }
    return best;
  }

  /// cur() is '(' of a call whose first argument names a mutex.
  int firstArgMutex() {
    if (!isP(i_, "(")) return -1;
    std::size_t b = i_ + 1, k = b;
    int depth = 1;
    while (k < t_.size() && depth > 0) {
      if (t_[k].kind == Tok::Kind::Punct) {
        if (t_[k].text == "(") ++depth;
        else if (t_[k].text == ")") --depth;
        else if (t_[k].text == "," && depth == 1) break;
      }
      if (depth > 0) ++k;
    }
    i_ = k;  // main loop continues from the arg end
    return resolveMutexToks(t_, b, k);
  }
};

// ---------------------------------------------------------------------------
// Summaries + edges

std::map<std::string, std::set<int>> computeSummaries(const Program& prog) {
  std::map<std::string, std::set<int>> sum;
  for (const auto& fn : prog.funcs) {
    auto& s = sum[fn.key];
    for (const auto& a : fn.acquires) s.insert(a.mutexIdx);
  }
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 64) {
    changed = false;
    for (const auto& fn : prog.funcs) {
      auto& s = sum[fn.key];
      const std::size_t before = s.size();
      for (const auto& c : fn.calls) {
        auto it = sum.find(c.callee);
        if (it != sum.end()) s.insert(it->second.begin(), it->second.end());
      }
      if (s.size() != before) changed = true;
    }
  }
  return sum;
}

std::string siteString(const FuncDef& fn, int line) {
  return fn.file + ":" + std::to_string(line) + " (" + fn.key + ")";
}

void addEdge(std::map<std::pair<int, int>, std::vector<std::string>>& acc,
             int from, int to, const std::string& site) {
  auto& sites = acc[{from, to}];
  if (std::find(sites.begin(), sites.end(), site) == sites.end())
    sites.push_back(site);
}

std::map<std::pair<int, int>, std::vector<std::string>> edgesForFuncs(
    const std::map<std::string, std::set<int>>& sum,
    const std::vector<const FuncDef*>& funcs) {
  std::map<std::pair<int, int>, std::vector<std::string>> acc;
  for (const FuncDef* fn : funcs) {
    for (const auto& a : fn->acquires)
      for (int h : a.held)
        if (h != a.mutexIdx || true)  // keep self-edges: reentrancy
          addEdge(acc, h, a.mutexIdx, siteString(*fn, a.line));
    for (const auto& c : fn->calls) {
      auto it = sum.find(c.callee);
      if (it == sum.end()) continue;
      for (int h : c.held)
        for (int m : it->second)
          addEdge(acc, h, m, siteString(*fn, c.line));
    }
  }
  return acc;
}

std::vector<Edge> toEdgeVec(
    const std::map<std::pair<int, int>, std::vector<std::string>>& acc) {
  std::vector<Edge> out;
  for (const auto& [key, sites] : acc) {
    Edge e;
    e.from = key.first;
    e.to = key.second;
    e.sites = sites;
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace

void analyzeBodies(const std::vector<LexedFile>& files, Program& prog,
                   const Config& cfg) {
  // Resolve symbolic ranks now that every file (incl. lock_order.hpp) is in.
  for (auto& m : prog.mutexes) {
    if (m.rankName.empty()) continue;
    auto it = prog.rankValues.find(m.rankName);
    if (it != prog.rankValues.end()) m.rank = it->second;
  }
  std::map<std::string, const LexedFile*> byPath;
  for (const auto& f : files) byPath[f.path] = &f;
  for (auto& fn : prog.funcs) {
    if (!fn.hasBody) continue;
    auto it = byPath.find(fn.file);
    if (it == byPath.end()) continue;
    BodyWalker(*it->second, prog, fn, cfg).run();
  }
}

std::vector<Edge> lockGraph(const Program& prog) {
  const auto sum = computeSummaries(prog);
  std::vector<const FuncDef*> all;
  all.reserve(prog.funcs.size());
  for (const auto& fn : prog.funcs) all.push_back(&fn);
  return toEdgeVec(edgesForFuncs(sum, all));
}

// ---------------------------------------------------------------------------
// Checks

std::vector<Finding> checkLockGraph(const Program& prog,
                                    const std::vector<Edge>& edges) {
  std::vector<Finding> out;
  std::set<std::string> seen;
  auto emit = [&](Finding f) {
    if (seen.insert(f.id()).second) out.push_back(std::move(f));
  };
  auto siteFileLine = [](const std::string& site, std::string* file,
                         int* line) {
    const std::size_t colon = site.rfind(" (");
    std::string head =
        colon == std::string::npos ? site : site.substr(0, colon);
    const std::size_t c2 = head.rfind(':');
    if (c2 == std::string::npos) {
      *file = head;
      *line = 0;
      return;
    }
    *file = head.substr(0, c2);
    *line = std::atoi(head.c_str() + c2 + 1);
  };

  for (const auto& e : edges) {
    if (e.from < 0 || e.to < 0) continue;
    const MutexDecl& a = prog.mutexes[static_cast<std::size_t>(e.from)];
    const MutexDecl& b = prog.mutexes[static_cast<std::size_t>(e.to)];
    std::string file = a.file;
    int line = a.line;
    if (!e.sites.empty()) siteFileLine(e.sites[0], &file, &line);
    if (e.from == e.to) {
      Finding f;
      f.check = "lock-inversion";
      f.file = file;
      f.line = line;
      f.where = a.path + " -> " + a.path;
      f.detail = "reentrant acquisition of the same mutex";
      emit(std::move(f));
      continue;
    }
    if (a.rank > 0 && b.rank > 0 && b.rank <= a.rank) {
      Finding f;
      f.check = "lock-inversion";
      f.file = file;
      f.line = line;
      f.where = a.path + " -> " + b.path;
      f.detail = "acquires rank " + std::to_string(b.rank) + " (" + b.path +
                 ") while holding rank " + std::to_string(a.rank) + " (" +
                 a.path + ")";
      emit(std::move(f));
    }
  }

  // Cycles over the full per-mutex graph (catches unranked mutexes that the
  // rank comparison can't see). Tarjan SCC, deterministic order.
  const int n = static_cast<int>(prog.mutexes.size());
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (const auto& e : edges)
    if (e.from >= 0 && e.to >= 0 && e.from != e.to)
      adj[static_cast<std::size_t>(e.from)].push_back(e.to);

  std::vector<int> index(static_cast<std::size_t>(n), -1),
      low(static_cast<std::size_t>(n), 0);
  std::vector<bool> onStack(static_cast<std::size_t>(n), false);
  std::vector<int> stack;
  int counter = 0;
  std::vector<std::vector<int>> sccs;
  // Iterative Tarjan.
  struct Frame {
    int v;
    std::size_t child;
  };
  for (int root = 0; root < n; ++root) {
    if (index[static_cast<std::size_t>(root)] != -1) continue;
    std::vector<Frame> frames{{root, 0}};
    while (!frames.empty()) {
      Frame& fr = frames.back();
      const auto v = static_cast<std::size_t>(fr.v);
      if (fr.child == 0) {
        index[v] = low[v] = counter++;
        stack.push_back(fr.v);
        onStack[v] = true;
      }
      bool descended = false;
      while (fr.child < adj[v].size()) {
        const int w = adj[v][fr.child++];
        const auto wu = static_cast<std::size_t>(w);
        if (index[wu] == -1) {
          frames.push_back({w, 0});
          descended = true;
          break;
        }
        if (onStack[wu]) low[v] = std::min(low[v], index[wu]);
      }
      if (descended) continue;
      if (low[v] == index[v]) {
        std::vector<int> scc;
        while (true) {
          const int w = stack.back();
          stack.pop_back();
          onStack[static_cast<std::size_t>(w)] = false;
          scc.push_back(w);
          if (w == fr.v) break;
        }
        if (scc.size() > 1) {
          std::sort(scc.begin(), scc.end());
          sccs.push_back(std::move(scc));
        }
      }
      const int finished = fr.v;
      frames.pop_back();
      if (!frames.empty()) {
        const auto p = static_cast<std::size_t>(frames.back().v);
        low[p] = std::min(low[p], low[static_cast<std::size_t>(finished)]);
      }
    }
  }
  for (const auto& scc : sccs) {
    std::string cyc;
    for (int v : scc) {
      if (!cyc.empty()) cyc += " -> ";
      cyc += prog.mutexes[static_cast<std::size_t>(v)].path;
    }
    cyc += " -> " + prog.mutexes[static_cast<std::size_t>(scc[0])].path;
    Finding f;
    f.check = "lock-cycle";
    f.file = prog.mutexes[static_cast<std::size_t>(scc[0])].file;
    f.line = prog.mutexes[static_cast<std::size_t>(scc[0])].line;
    f.where = "cycle";
    f.detail = cyc;
    emit(std::move(f));
  }
  return out;
}

std::vector<Finding> checkGuardedBy(const Program& prog, const Config& cfg) {
  std::vector<Finding> out;
  for (const auto& [path, rec] : prog.records) {
    if (!rec.ownsMutex()) continue;
    for (const auto& m : rec.members) {
      if (m.isGuarded || m.isConst || m.isAtomic || m.isStatic ||
          m.hasImmutableComment)
        continue;
      if (std::find(rec.mutexMembers.begin(), rec.mutexMembers.end(),
                    m.name) != rec.mutexMembers.end())
        continue;
      bool exempt = false;
      for (const auto& t : cfg.exemptMemberTypes)
        if (typeHasToken(m.typeText, t)) {
          exempt = true;
          break;
        }
      if (exempt) continue;
      if (cfg.memberAllowlist.count(path + "::" + m.name) != 0) continue;
      Finding f;
      f.check = "guarded-by-gap";
      f.file = rec.file;
      f.line = m.line;
      f.where = path + "::" + m.name;
      f.detail = "mutable member of a mutex-owning record has no GUARDED_BY, "
                 "const, atomic, or allowlist exemption (type: " +
                 m.typeText + ")";
      out.push_back(std::move(f));
    }
  }
  return out;
}

std::vector<Finding> checkBlocking(const Program& prog, const Config& cfg) {
  std::vector<Finding> out;
  std::set<std::string> seen;
  for (const auto& fn : prog.funcs) {
    for (const auto& b : fn.blocking) {
      const MutexDecl* worst = nullptr;
      for (int h : b.held) {
        if (h == b.waitedMutexIdx) continue;  // released for the wait
        const MutexDecl& m = prog.mutexes[static_cast<std::size_t>(h)];
        if (m.rank < cfg.blockingMinRank) continue;
        if (worst == nullptr || m.rank > worst->rank) worst = &m;
      }
      if (worst == nullptr) continue;
      Finding f;
      f.check = "blocking-under-lock";
      f.file = fn.file;
      f.line = b.line;
      f.where = fn.key;
      f.detail = "calls " + b.what + " while holding " + worst->path +
                 " (rank " + std::to_string(worst->rank) + ")";
      if (seen.insert(f.id()).second) out.push_back(std::move(f));
    }
  }
  return out;
}

std::vector<Finding> checkDesignTable(const Program& prog,
                                      const std::string& designText,
                                      const std::string& designPath) {
  std::vector<Finding> out;
  // Collect `| <rank> | `name` | ... |` rows inside section ## 9.
  std::map<std::string, int> tableRank;
  std::map<std::string, int> tableLine;
  std::istringstream ss(designText);
  std::string line;
  int lineNo = 0;
  bool inSection = false;
  while (std::getline(ss, line)) {
    ++lineNo;
    if (line.rfind("## ", 0) == 0) {
      inSection = line.rfind("## 9", 0) == 0;
      continue;
    }
    if (!inSection || line.empty() || line[0] != '|') continue;
    // Cells.
    std::vector<std::string> cells;
    std::string cell;
    for (std::size_t i = 1; i < line.size(); ++i) {
      if (line[i] == '|') {
        cells.push_back(trim(cell));
        cell.clear();
      } else {
        cell += line[i];
      }
    }
    if (cells.size() < 2) continue;
    char* end = nullptr;
    const long rank = std::strtol(cells[0].c_str(), &end, 10);
    if (end == cells[0].c_str() || rank <= 0) continue;  // header/separator
    // Name: backticked token in cell 1; strip `mqs::` and template args.
    std::string name = cells[1];
    const std::size_t b1 = name.find('`');
    const std::size_t b2 = name.rfind('`');
    if (b1 == std::string::npos || b2 <= b1) continue;
    name = name.substr(b1 + 1, b2 - b1 - 1);
    if (name.rfind("mqs::", 0) == 0) name = name.substr(5);
    std::string stripped;
    int angle = 0;
    for (char c : name) {
      if (c == '<') ++angle;
      else if (c == '>') --angle;
      else if (angle == 0) stripped += c;
    }
    tableRank[stripped] = static_cast<int>(rank);
    tableLine[stripped] = lineNo;
  }

  std::set<std::string> declaredRanked;
  for (const auto& m : prog.mutexes) {
    if (m.rank <= 0) continue;
    declaredRanked.insert(m.path);
    if (!m.nameLiteral.empty()) declaredRanked.insert(m.nameLiteral);
    // Match by declared path, falling back to the debug-name literal
    // (anonymous namespaces strip the logical scope from the path).
    auto it = tableRank.find(m.path);
    if (it == tableRank.end() && !m.nameLiteral.empty())
      it = tableRank.find(m.nameLiteral);
    if (it == tableRank.end()) {
      Finding f;
      f.check = "rank-table-mismatch";
      f.file = designPath;
      f.line = 0;
      f.where = m.path;
      f.detail = "ranked mutex (rank " + std::to_string(m.rank) +
                 ", declared at " + m.file + ") missing from the section 9 "
                 "rank table";
      out.push_back(std::move(f));
    } else if (it->second != m.rank) {
      Finding f;
      f.check = "rank-table-mismatch";
      f.file = designPath;
      f.line = tableLine[it->first];
      f.where = m.path;
      f.detail = "table says rank " + std::to_string(it->second) +
                 " but code declares rank " + std::to_string(m.rank);
      out.push_back(std::move(f));
    }
  }
  for (const auto& [name, rank] : tableRank) {
    if (declaredRanked.count(name) != 0) continue;
    Finding f;
    f.check = "rank-table-mismatch";
    f.file = designPath;
    f.line = tableLine[name];
    f.where = name;
    f.detail = "table row (rank " + std::to_string(rank) +
               ") has no matching ranked mutex in code";
    out.push_back(std::move(f));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fragments, merge, JSON, baseline

std::string fragmentJson(const Program& prog, const std::string& tu,
                         const std::vector<const FuncDef*>& funcs) {
  const auto sum = computeSummaries(prog);
  const auto acc = edgesForFuncs(sum, funcs);
  std::ostringstream out;
  out << "{\n  \"tu\": \"" << jsonEscape(tu) << "\",\n  \"edges\": [";
  bool first = true;
  for (const auto& [key, sites] : acc) {
    if (key.first < 0 || key.second < 0) continue;
    for (const auto& site : sites) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "    {\"from\": \""
          << jsonEscape(prog.mutexes[static_cast<std::size_t>(key.first)].path)
          << "\", \"to\": \""
          << jsonEscape(
                 prog.mutexes[static_cast<std::size_t>(key.second)].path)
          << "\", \"site\": \"" << jsonEscape(site) << "\"}";
    }
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::vector<Edge> mergeFragments(
    const Program& prog, const std::vector<std::string>& fragmentTexts) {
  std::map<std::pair<int, int>, std::vector<std::string>> acc;
  for (const auto& text : fragmentTexts) {
    // Same minimal scanner idea as compileCommandsFiles: collect the
    // from/to/site string values per object, flush on '}'.
    std::string from, to, site;
    std::size_t i = 0;
    const std::size_t n = text.size();
    auto parseString = [&](std::size_t& p) {
      std::string s;
      ++p;
      while (p < n && text[p] != '"') {
        if (text[p] == '\\' && p + 1 < n) {
          const char e = text[p + 1];
          s += (e == 'n' ? '\n' : e == 't' ? '\t' : e);
          p += 2;
        } else {
          s += text[p++];
        }
      }
      ++p;
      return s;
    };
    while (i < n) {
      if (text[i] == '"') {
        const std::string key = parseString(i);
        while (i < n && std::isspace(static_cast<unsigned char>(text[i])))
          ++i;
        if (i < n && text[i] == ':') {
          ++i;
          while (i < n && std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
          if (i < n && text[i] == '"') {
            const std::string val = parseString(i);
            if (key == "from") from = val;
            else if (key == "to") to = val;
            else if (key == "site") site = val;
          }
        }
      } else if (text[i] == '}') {
        const int f = prog.mutexIndex(from);
        const int t = prog.mutexIndex(to);
        if (f >= 0 && t >= 0) addEdge(acc, f, t, site);
        from.clear();
        to.clear();
        site.clear();
        ++i;
      } else {
        ++i;
      }
    }
  }
  return toEdgeVec(acc);
}

std::string lockGraphJson(const Program& prog, const std::vector<Edge>& edges,
                          const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\n  \"mutexes\": [";
  for (std::size_t i = 0; i < prog.mutexes.size(); ++i) {
    const MutexDecl& m = prog.mutexes[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"path\": \"" << jsonEscape(m.path) << "\", \"rank\": "
        << m.rank << ", \"file\": \"" << jsonEscape(m.file)
        << "\", \"line\": " << m.line << "}";
  }
  out << "\n  ],\n  \"edges\": [";
  bool first = true;
  for (const auto& e : edges) {
    if (e.from < 0 || e.to < 0) continue;
    const MutexDecl& a = prog.mutexes[static_cast<std::size_t>(e.from)];
    const MutexDecl& b = prog.mutexes[static_cast<std::size_t>(e.to)];
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"from\": \"" << jsonEscape(a.path)
        << "\", \"fromRank\": " << a.rank << ", \"to\": \""
        << jsonEscape(b.path) << "\", \"toRank\": " << b.rank
        << ", \"sites\": [";
    for (std::size_t s = 0; s < e.sites.size(); ++s) {
      if (s > 0) out << ", ";
      out << "\"" << jsonEscape(e.sites[s]) << "\"";
    }
    out << "]}";
  }
  out << "\n  ],\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"check\": \"" << jsonEscape(f.check) << "\", \"file\": \""
        << jsonEscape(f.file) << "\", \"line\": " << f.line
        << ", \"where\": \"" << jsonEscape(f.where) << "\", \"detail\": \""
        << jsonEscape(f.detail) << "\"}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::vector<Finding> applyBaseline(const std::vector<Finding>& findings,
                                   const std::set<std::string>& baseline,
                                   std::vector<std::string>* staleEntries) {
  std::vector<Finding> fresh;
  std::set<std::string> hit;
  for (const auto& f : findings) {
    if (baseline.count(f.id()) != 0)
      hit.insert(f.id());
    else
      fresh.push_back(f);
  }
  if (staleEntries != nullptr) {
    for (const auto& b : baseline)
      if (hit.count(b) == 0) staleEntries->push_back(b);
  }
  return fresh;
}

std::set<std::string> loadBaseline(const std::string& path) {
  std::set<std::string> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    line = trim(line);
    if (line.empty() || line[0] == '#') continue;
    out.insert(line);
  }
  return out;
}

}  // namespace mqs::analyze
