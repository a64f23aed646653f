#include "trace/export.hpp"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace mqs::trace {

namespace {

/// Fixed-point microsecond formatting: deterministic across runs for equal
/// double inputs (no locale, no shortest-round-trip variance).
std::string formatMicros(double seconds) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.3f", seconds * 1e6);
  return buf.data();
}

}  // namespace

std::string jsonQuote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf.data();
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string csvQuote(const std::string& field) {
  const bool needsQuoting =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needsQuoting) return field;
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void exportChromeTrace(std::ostream& os, const std::vector<Event>& events) {
  os << "{\"traceEvents\":[";
  bool first = true;
  // Counters are exported as running totals so a Perfetto counter track
  // shows cumulative hits/misses over time. AdmissionQueueDepth is the one
  // gauge in the vocabulary: its value is already the instantaneous depth,
  // so it is exported as-is instead of summed.
  std::array<std::uint64_t, 32> counterTotals{};
  for (const Event& e : events) {
    if (!first) os << ",\n";
    first = false;
    if (e.type == EventType::Counter) {
      const auto idx = static_cast<std::size_t>(e.kind) % counterTotals.size();
      const bool gauge = e.counterKind() == CounterKind::AdmissionQueueDepth ||
                         e.counterKind() == CounterKind::DsSpillBytes;
      if (!gauge) counterTotals[idx] += e.value;
      os << "{\"ph\":\"C\",\"ts\":" << formatMicros(e.ts)
         << ",\"pid\":1,\"tid\":" << e.tid << ",\"name\":"
         << jsonQuote(std::string(toString(e.counterKind())))
         << ",\"args\":{\"total\":" << (gauge ? e.value : counterTotals[idx])
         << "}}";
      continue;
    }
    const bool begin = e.type == EventType::SpanBegin;
    os << "{\"ph\":\"" << (begin ? 'b' : 'e') << "\",\"ts\":"
       << formatMicros(e.ts) << ",\"pid\":1,\"tid\":" << e.tid
       << ",\"cat\":\"query\",\"id\":" << e.queryId << ",\"name\":"
       << jsonQuote(std::string(toString(e.spanKind())));
    if (begin) {
      os << ",\"args\":{\"query\":" << e.queryId
         << ",\"depth\":" << static_cast<int>(e.depth);
      if (e.spanKind() == SpanKind::Project) {
        os << ",\"bytes\":" << e.value << ",\"source\":\""
           << ((e.flags & kFlagFoldSource) != 0        ? "folded"
               : (e.flags & kFlagSpillSource) != 0      ? "spilled"
               : (e.flags & kFlagExecutingSource) != 0 ? "executing"
                                                       : "cached")
           << "\"";
      }
      os << "}";
    } else if ((e.flags & kFlagFellBack) != 0) {
      os << ",\"args\":{\"fell_back\":true}";
    } else if ((e.flags & kFlagFailed) != 0) {
      os << ",\"args\":{\"failed\":true}";
    } else if ((e.flags & kFlagShed) != 0) {
      os << ",\"args\":{\"shed\":true}";
    }
    os << "}";
  }
  os << "]}\n";
}

bool writeChromeTrace(const std::string& path,
                      const std::vector<Event>& events) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  exportChromeTrace(out, events);
  return static_cast<bool>(out);
}

namespace {

const char* const kQueryColumns =
    "queryId,client,predicate,arrivalTime,startTime,finishTime,waitTime,"
    "execTime,responseTime,blockedTime,ioStallTime,overlapUsed,reuseSources,"
    "planBytesCovered,bytesReused,inputBytes,outputBytes,bytesFromDisk,shed,"
    "planShape,failed,failureReason";

std::string formatSeconds(double seconds) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.9f", seconds);
  return buf.data();
}

}  // namespace

void exportQueryCsv(std::ostream& os,
                    const std::vector<metrics::QueryRecord>& records) {
  os << kQueryColumns << "\n";
  for (const metrics::QueryRecord& r : records) {
    os << r.queryId << ',' << r.client << ',' << csvQuote(r.predicate) << ','
       << formatSeconds(r.arrivalTime) << ',' << formatSeconds(r.startTime)
       << ',' << formatSeconds(r.finishTime) << ','
       << formatSeconds(r.waitTime()) << ',' << formatSeconds(r.execTime())
       << ',' << formatSeconds(r.responseTime()) << ','
       << formatSeconds(r.blockedTime) << ',' << formatSeconds(r.ioStallTime)
       << ',' << formatSeconds(r.overlapUsed) << ',' << r.reuseSources << ','
       << r.planBytesCovered << ',' << r.bytesReused << ',' << r.inputBytes
       << ',' << r.outputBytes << ',' << r.bytesFromDisk << ','
       << (r.shed ? 1 : 0) << ',' << csvQuote(r.planShape) << ','
       << (r.failed ? 1 : 0) << ',' << csvQuote(r.failureReason) << "\n";
  }
}

bool writeQueryCsv(const std::string& path,
                   const std::vector<metrics::QueryRecord>& records) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  exportQueryCsv(out, records);
  return static_cast<bool>(out);
}

void exportQueryJson(std::ostream& os,
                     const std::vector<metrics::QueryRecord>& records) {
  os << "[";
  bool first = true;
  for (const metrics::QueryRecord& r : records) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"queryId\":" << r.queryId << ",\"client\":" << r.client
       << ",\"predicate\":" << jsonQuote(r.predicate)
       << ",\"arrivalTime\":" << formatSeconds(r.arrivalTime)
       << ",\"startTime\":" << formatSeconds(r.startTime)
       << ",\"finishTime\":" << formatSeconds(r.finishTime)
       << ",\"responseTime\":" << formatSeconds(r.responseTime())
       << ",\"blockedTime\":" << formatSeconds(r.blockedTime)
       << ",\"ioStallTime\":" << formatSeconds(r.ioStallTime)
       << ",\"overlapUsed\":" << formatSeconds(r.overlapUsed)
       << ",\"reuseSources\":" << r.reuseSources
       << ",\"planBytesCovered\":" << r.planBytesCovered
       << ",\"bytesReused\":" << r.bytesReused
       << ",\"inputBytes\":" << r.inputBytes
       << ",\"outputBytes\":" << r.outputBytes
       << ",\"bytesFromDisk\":" << r.bytesFromDisk
       << ",\"planShape\":" << jsonQuote(r.planShape)
       << ",\"failed\":" << (r.failed ? "true" : "false")
       << ",\"shed\":" << (r.shed ? "true" : "false")
       << ",\"failureReason\":" << jsonQuote(r.failureReason) << "}";
  }
  os << "]\n";
}

std::string summaryJson(const metrics::Summary& s) {
  std::string out = "{";
  const auto num = [&out](const char* key, double v, bool comma = true) {
    out += '"';
    out += key;
    out += "\":";
    out += formatSeconds(v);
    if (comma) out += ',';
  };
  out += "\"queries\":" + std::to_string(s.queries) + ",";
  out += "\"failedQueries\":" + std::to_string(s.failedQueries) + ",";
  out += "\"shedQueries\":" + std::to_string(s.shedQueries) + ",";
  num("trimmedResponse", s.trimmedResponse);
  num("meanResponse", s.meanResponse);
  num("meanWait", s.meanWait);
  num("meanExec", s.meanExec);
  num("meanIoStall", s.meanIoStall);
  num("makespan", s.makespan);
  num("avgOverlap", s.avgOverlap);
  num("reuseRate", s.reuseRate);
  out += "\"totalDiskBytes\":" + std::to_string(s.totalDiskBytes) + ",";
  out += "\"totalReusedBytes\":" + std::to_string(s.totalReusedBytes) + ",";
  num("avgReuseSources", s.avgReuseSources);
  out += "\"multiSourceQueries\":" + std::to_string(s.multiSourceQueries) +
         ",";
  num("clientFairness", s.clientFairness);
  num("p50Response", s.p50Response);
  num("p95Response", s.p95Response);
  num("p99Response", s.p99Response);
  num("p999Response", s.p999Response, /*comma=*/false);
  out += "}";
  return out;
}

}  // namespace mqs::trace
