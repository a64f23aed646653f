// Exporter contracts: the Chrome trace_event JSON is schema-complete and
// parseable (validated with a strict mini JSON parser, no dependencies),
// byte-stable for a fixed seed (virtual-time determinism end to end), and
// the flat CSV/JSON query exporters survive adversarial predicate strings
// — embedded quotes, commas, CR/LF — via an exhaustive RFC-4180 round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/lock_stats.hpp"
#include "driver/workload.hpp"
#include "index/chunk_layout.hpp"
#include "metrics/metrics.hpp"
#include "server/query_server.hpp"
#include "sim/sim_server.hpp"
#include "sim/simulator.hpp"
#include "storage/synthetic_source.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "vm/vm_executor.hpp"

namespace mqs {
namespace {

// --- strict mini JSON parser (tests only) -----------------------------------

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;  // Array
  std::vector<std::pair<std::string, JsonValue>> members;  // Object

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  static std::optional<JsonValue> parse(const std::string& text) {
    JsonParser p(text);
    JsonValue v;
    if (!p.parseValue(v)) return std::nullopt;
    p.skipWs();
    if (p.pos_ != text.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  explicit JsonParser(const std::string& text) : text_(text) {}

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* s) {
    std::size_t i = 0;
    while (s[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != s[i]) return false;
      ++i;
    }
    pos_ += i;
    return true;
  }

  bool parseString(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            // The exporters only \u-escape control chars (< 0x20).
            if (code >= 0x80) return false;
            out += static_cast<char>(code);
            break;
          }
          default: return false;
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      out += c;
    }
    return false;  // unterminated
  }

  bool parseNumber(JsonValue& v) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool digits = false;
    const auto eat = [&] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        digits = true;
      }
    };
    eat();
    if (pos_ < text_.size() && text_[pos_] == '.') { ++pos_; eat(); }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
      eat();
    }
    if (!digits) return false;
    v.kind = JsonValue::Kind::Number;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  bool parseValue(JsonValue& v) {
    skipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      v.kind = JsonValue::Kind::Object;
      skipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') { ++pos_; return true; }
      while (true) {
        skipWs();
        std::string key;
        if (!parseString(key)) return false;
        skipWs();
        if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
        JsonValue member;
        if (!parseValue(member)) return false;
        v.members.emplace_back(std::move(key), std::move(member));
        skipWs();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') { ++pos_; continue; }
        if (text_[pos_] == '}') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = JsonValue::Kind::Array;
      skipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') { ++pos_; return true; }
      while (true) {
        JsonValue item;
        if (!parseValue(item)) return false;
        v.items.push_back(std::move(item));
        skipWs();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') { ++pos_; continue; }
        if (text_[pos_] == ']') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '"') {
      v.kind = JsonValue::Kind::String;
      return parseString(v.str);
    }
    if (c == 't') { v.kind = JsonValue::Kind::Bool; v.boolean = true; return literal("true"); }
    if (c == 'f') { v.kind = JsonValue::Kind::Bool; v.boolean = false; return literal("false"); }
    if (c == 'n') { v.kind = JsonValue::Kind::Null; return literal("null"); }
    return parseNumber(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --- RFC-4180 CSV parser (tests only) ---------------------------------------

std::vector<std::vector<std::string>> parseCsv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool inQuotes = false;
  bool fieldQuoted = false;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (inQuotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          i += 2;
          continue;
        }
        inQuotes = false;
        ++i;
        continue;
      }
      field += c;
      ++i;
      continue;
    }
    if (c == '"' && field.empty() && !fieldQuoted) {
      inQuotes = true;
      fieldQuoted = true;
      ++i;
      continue;
    }
    if (c == ',') {
      row.push_back(std::move(field));
      field.clear();
      fieldQuoted = false;
      ++i;
      continue;
    }
    if (c == '\n') {
      row.push_back(std::move(field));
      field.clear();
      fieldQuoted = false;
      rows.push_back(std::move(row));
      row.clear();
      ++i;
      continue;
    }
    field += c;
    ++i;
  }
  if (!field.empty() || fieldQuoted || !row.empty()) {
    row.push_back(field);
    rows.push_back(row);
  }
  return rows;
}

/// Exhaustive adversarial strings: every string of length <= 3 over an
/// alphabet of CSV/JSON metacharacters, plus a few longer classics.
std::vector<std::string> adversarialStrings() {
  const std::string alphabet = "a,\"\n\r";
  std::vector<std::string> out = {""};
  std::vector<std::string> frontier = {""};
  for (int len = 1; len <= 3; ++len) {
    std::vector<std::string> next;
    for (const std::string& prefix : frontier) {
      for (const char c : alphabet) {
        next.push_back(prefix + c);
      }
    }
    out.insert(out.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  out.push_back("zoom=4 region=\"0,0,256,256\"");
  out.push_back("line1\r\nline2,with\ttab");
  out.push_back("\"\"quoted\"\",trailing,");
  return out;
}

std::vector<metrics::QueryRecord> adversarialRecords() {
  std::vector<metrics::QueryRecord> records;
  std::uint64_t id = 1;
  for (const std::string& s : adversarialStrings()) {
    metrics::QueryRecord r;
    r.queryId = id;
    r.client = static_cast<int>(id % 7);
    r.predicate = s;
    r.planShape = s.empty() ? "R" : "C100|" + s;
    r.failed = (id % 3) == 0;
    r.failureReason = r.failed ? s : "";
    r.arrivalTime = 0.25 * static_cast<double>(id);
    r.finishTime = r.arrivalTime + 1.5;
    ++id;
    records.push_back(std::move(r));
  }
  return records;
}

// --- traced sim run shared by the schema/stability tests --------------------

std::vector<trace::Event> tracedSimEvents() {
  driver::WorkloadConfig wl;
  wl.datasets = {driver::DatasetSpec{1024, 1024, 96, 99}};
  wl.clientsPerDataset = {3};
  wl.queriesPerClient = 5;
  wl.outputSide = 64;
  wl.zoomLevels = {2, 4};
  wl.zoomWeights = {1, 1};
  wl.alignGrid = 8;
  wl.browseProbability = 0.7;
  wl.op = vm::VMOp::Subsample;
  wl.seed = 0xBEE;

  vm::VMSemantics sem;
  const auto workloads = driver::WorkloadGenerator::generate(wl, sem);
  sim::Simulator sim;
  sim::SimConfig cfg;
  cfg.threads = 4;
  cfg.policy = "FIFO";
  cfg.dsBytes = 2ULL << 20;
  cfg.psBytes = 1ULL << 20;
  cfg.traceSink = std::make_shared<trace::Tracer>();
  sim::SimServer server(sim, &sem, cfg);
  for (const auto& client : workloads) {
    for (const auto& q : client.queries) {
      server.submit(q.clone(), client.client);
    }
  }
  sim.run();
  return cfg.traceSink->drain();
}

std::string chromeTraceString(const std::vector<trace::Event>& events) {
  std::ostringstream os;
  trace::exportChromeTrace(os, events);
  return os.str();
}

TEST(ChromeTraceExport, SchemaCompleteAndParseable) {
  const auto events = tracedSimEvents();
  ASSERT_FALSE(events.empty());
  const auto parsed = JsonParser::parse(chromeTraceString(events));
  ASSERT_TRUE(parsed.has_value()) << "Chrome trace is not valid JSON";
  ASSERT_EQ(parsed->kind, JsonValue::Kind::Object);

  const JsonValue* traceEvents = parsed->find("traceEvents");
  ASSERT_NE(traceEvents, nullptr);
  ASSERT_EQ(traceEvents->kind, JsonValue::Kind::Array);
  ASSERT_EQ(traceEvents->items.size(), events.size());

  int spans = 0;
  int counters = 0;
  for (const JsonValue& e : traceEvents->items) {
    ASSERT_EQ(e.kind, JsonValue::Kind::Object);
    // Required trace_event fields on *every* entry.
    for (const char* key : {"ph", "ts", "pid", "tid", "name"}) {
      ASSERT_NE(e.find(key), nullptr) << "missing field " << key;
    }
    ASSERT_EQ(e.find("ph")->kind, JsonValue::Kind::String);
    ASSERT_EQ(e.find("ts")->kind, JsonValue::Kind::Number);
    ASSERT_EQ(e.find("pid")->kind, JsonValue::Kind::Number);
    ASSERT_EQ(e.find("tid")->kind, JsonValue::Kind::Number);
    ASSERT_EQ(e.find("name")->kind, JsonValue::Kind::String);
    const std::string& ph = e.find("ph")->str;
    ASSERT_TRUE(ph == "b" || ph == "e" || ph == "C") << "ph=" << ph;
    if (ph == "C") {
      ++counters;
      const JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("total"), nullptr);
    } else {
      ++spans;
      // Async spans need the pairing id and category.
      ASSERT_NE(e.find("id"), nullptr);
      ASSERT_NE(e.find("cat"), nullptr);
    }
  }
  EXPECT_GT(spans, 0);
  EXPECT_GT(counters, 0);
}

TEST(ChromeTraceExport, ByteStableForFixedSeed) {
  // Two fully independent runs of the identical virtual-time configuration
  // must serialize to the identical bytes — determinism of the engine, the
  // tracer and the fixed-point formatter, end to end.
  const std::string a = chromeTraceString(tracedSimEvents());
  const std::string b = chromeTraceString(tracedSimEvents());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ChromeTraceExport, CounterTracksAreCumulative) {
  const auto events = tracedSimEvents();
  const auto parsed = JsonParser::parse(chromeTraceString(events));
  ASSERT_TRUE(parsed.has_value());
  std::map<std::string, double> lastTotal;
  for (const JsonValue& e : parsed->find("traceEvents")->items) {
    if (e.find("ph")->str != "C") continue;
    const std::string& name = e.find("name")->str;
    const double total = e.find("args")->find("total")->number;
    auto it = lastTotal.find(name);
    if (it != lastTotal.end()) {
      EXPECT_GE(total, it->second) << "counter " << name << " went backwards";
    }
    lastTotal[name] = total;
  }
  EXPECT_FALSE(lastTotal.empty());
}

TEST(ChromeTraceExport, ServerExportsPageSpaceLockWaitCountAndMicros) {
  vm::VMSemantics sem;
  const auto dataset = sem.addDataset(index::ChunkLayout(256, 256, 64));
  const storage::SyntheticSlideSource slide(sem.layout(dataset), /*seed=*/5);
  const vm::VMExecutor exec(&sem);
  server::ServerConfig cfg;
  cfg.threads = 1;
  cfg.traceSink = std::make_shared<trace::Tracer>();
  server::QueryServer server(&sem, &exec, cfg);
  server.attach(dataset, &slide);
  // No query runs, so these two acquisitions, blocked 3.0005 ms and
  // 4.0005 ms, are the run's only Page Space lock waits.
  lockstats::recordContended(lockorder::Rank::kPageSpace, 3'000'500);
  lockstats::recordContended(lockorder::Rank::kPageSpace, 4'000'500);
  server.shutdown();

  const auto events = cfg.traceSink->drain();
  std::map<std::string, std::uint64_t> sums;
  for (const auto& e : events) {
    if (e.type == trace::EventType::Counter) {
      sums[std::string(trace::toString(e.counterKind()))] += e.value;
    }
  }
  EXPECT_EQ(sums["lock_wait_ps"], 2u);
  EXPECT_EQ(sums["lock_wait_ps_us"], 7001u);

  const auto parsed = JsonParser::parse(chromeTraceString(events));
  ASSERT_TRUE(parsed.has_value());
  std::map<std::string, double> exported;
  for (const JsonValue& e : parsed->find("traceEvents")->items) {
    if (e.find("ph")->str == "C") {
      exported[e.find("name")->str] = e.find("args")->find("total")->number;
    }
  }
  EXPECT_EQ(exported["lock_wait_ps"], 2.0);
  EXPECT_EQ(exported["lock_wait_ps_us"], 7001.0);
}

TEST(CsvExport, RoundTripsAdversarialPredicates) {
  const auto records = adversarialRecords();
  std::ostringstream os;
  trace::exportQueryCsv(os, records);
  const auto rows = parseCsv(os.str());
  ASSERT_EQ(rows.size(), records.size() + 1);  // header + one per record

  const std::size_t columns = rows[0].size();
  EXPECT_EQ(rows[0][0], "queryId");
  EXPECT_EQ(rows[0][2], "predicate");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& row = rows[i + 1];
    ASSERT_EQ(row.size(), columns) << "ragged row " << i;
    EXPECT_EQ(row[0], std::to_string(records[i].queryId));
    EXPECT_EQ(row[2], records[i].predicate) << "predicate mangled, row " << i;
    EXPECT_EQ(row[columns - 3], records[i].planShape);
    EXPECT_EQ(row[columns - 2], records[i].failed ? "1" : "0");
    EXPECT_EQ(row[columns - 1], records[i].failureReason);
  }
}

TEST(CsvExport, QuotingIsMinimalAndReversible) {
  EXPECT_EQ(trace::csvQuote("plain"), "plain");
  EXPECT_EQ(trace::csvQuote(""), "");
  EXPECT_EQ(trace::csvQuote("a,b"), "\"a,b\"");
  EXPECT_EQ(trace::csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(trace::csvQuote("line\nbreak"), "\"line\nbreak\"");
  for (const std::string& s : adversarialStrings()) {
    const auto rows = parseCsv(trace::csvQuote(s) + "\n");
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].size(), 1u);
    EXPECT_EQ(rows[0][0], s);
  }
}

TEST(JsonExport, QueryJsonParsesWithAdversarialStrings) {
  const auto records = adversarialRecords();
  std::ostringstream os;
  trace::exportQueryJson(os, records);
  const auto parsed = JsonParser::parse(os.str());
  ASSERT_TRUE(parsed.has_value()) << "query JSON is not valid JSON";
  ASSERT_EQ(parsed->kind, JsonValue::Kind::Array);
  ASSERT_EQ(parsed->items.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonValue& obj = parsed->items[i];
    ASSERT_EQ(obj.kind, JsonValue::Kind::Object);
    EXPECT_EQ(obj.find("queryId")->number,
              static_cast<double>(records[i].queryId));
    EXPECT_EQ(obj.find("predicate")->str, records[i].predicate);
    EXPECT_EQ(obj.find("failed")->boolean, records[i].failed);
    EXPECT_EQ(obj.find("failureReason")->str, records[i].failureReason);
  }
}

TEST(JsonExport, JsonQuoteRoundTripsControlCharacters) {
  for (const std::string& s : adversarialStrings()) {
    const auto parsed = JsonParser::parse(trace::jsonQuote(s));
    ASSERT_TRUE(parsed.has_value()) << "unparseable quoting of: " << s;
    ASSERT_EQ(parsed->kind, JsonValue::Kind::String);
    EXPECT_EQ(parsed->str, s);
  }
}

TEST(JsonExport, SummaryJsonIsParseable) {
  std::vector<metrics::QueryRecord> records = adversarialRecords();
  const auto parsed =
      JsonParser::parse(trace::summaryJson(metrics::summarize(records)));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->kind, JsonValue::Kind::Object);
  ASSERT_NE(parsed->find("queries"), nullptr);
  EXPECT_EQ(parsed->find("queries")->number,
            static_cast<double>(records.size()));
  ASSERT_NE(parsed->find("trimmedResponse"), nullptr);
  ASSERT_NE(parsed->find("p99Response"), nullptr);
}

}  // namespace
}  // namespace mqs
