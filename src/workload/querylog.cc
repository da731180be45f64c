#include "workload/querylog.h"

#include <fstream>
#include <sstream>

#include "common/json.h"

namespace dimsum {
namespace {

void WriteMs(std::ostream& out, const char* key, double value) {
  out << "\"" << key << "\": ";
  JsonWriteNumber(out, value);
}

/// Lowercase hex of a 64-bit hash, fixed width (JSON numbers cannot carry
/// full uint64 precision, so the signature travels as a string).
std::string HexU64(uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace

void FillResourceTotals(const ExecMetrics& metrics, QueryLogRecord& record) {
  for (const OperatorActual& actual : metrics.operator_actuals) {
    record.cpu_elapsed_ms += actual.cpu_ms;
    record.disk_elapsed_ms += actual.disk_ms;
    record.net_elapsed_ms += actual.net_ms;
    record.stall_elapsed_ms += actual.stall_ms;
  }
}

uint64_t HashPlanSignature(const std::string& signature) {
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64 offset basis
  for (const char c : signature) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ULL;  // FNV-1a 64 prime
  }
  return hash;
}

std::string QueryLogJson(const QueryLogRecord& record) {
  std::ostringstream out;
  out << "{\"schema\": \"dimsum.querylog.v1\""
      << ", \"policy\": \"" << JsonEscape(record.policy) << "\""
      << ", \"ticket\": " << record.ticket
      << ", \"client\": " << record.client
      << ", \"plan_signature\": \"" << HexU64(record.plan_signature) << "\""
      << ", \"fanout\": [";
  for (size_t i = 0; i < record.fanout.size(); ++i) {
    if (i > 0) out << ", ";
    out << record.fanout[i];
  }
  out << "], \"outcome\": \"" << JsonEscape(record.outcome) << "\", ";
  WriteMs(out, "issue_ms", record.issue_ms);
  out << ", ";
  WriteMs(out, "submit_ms", record.submit_ms);
  out << ", ";
  WriteMs(out, "complete_ms", record.complete_ms);
  out << ", ";
  WriteMs(out, "response_ms", record.response_ms);
  out << ", \"retries\": " << record.attempts.size() << ", \"attempts\": [";
  for (size_t i = 0; i < record.attempts.size(); ++i) {
    const QueryLogAttempt& attempt = record.attempts[i];
    if (i > 0) out << ", ";
    out << "{";
    WriteMs(out, "start_ms", attempt.start_ms);
    out << ", ";
    WriteMs(out, "wait_ms", attempt.wait_ms);
    out << ", \"reoptimized\": " << (attempt.reoptimized ? "true" : "false")
        << "}";
  }
  out << "], \"resources\": {";
  WriteMs(out, "cpu_ms", record.cpu_elapsed_ms);
  out << ", ";
  WriteMs(out, "disk_ms", record.disk_elapsed_ms);
  out << ", ";
  WriteMs(out, "net_ms", record.net_elapsed_ms);
  out << ", ";
  WriteMs(out, "stall_ms", record.stall_elapsed_ms);
  out << "}, \"critical_path\": {";
  WriteMs(out, "total_ms", record.path.total_ms);
  out << ", ";
  WriteMs(out, "untracked_ms", record.path.untracked_ms);
  out << ", \"segments\": [";
  for (size_t i = 0; i < record.path.segments.size(); ++i) {
    const PathSegment& segment = record.path.segments[i];
    if (i > 0) out << ", ";
    out << "{\"label\": \"" << segment.Label() << "\", \"kind\": \""
        << PathKindName(segment.kind) << "\", \"queueing\": "
        << (segment.queueing ? "true" : "false")
        << ", \"site\": " << segment.site << ", ";
    WriteMs(out, "ms", segment.ms);
    out << "}";
  }
  out << "]}}";
  return out.str();
}

bool WriteQueryLogFile(const std::string& path,
                       const std::vector<QueryLogRecord>& records) {
  std::ofstream out(path);
  if (!out) return false;
  for (const QueryLogRecord& record : records) {
    out << QueryLogJson(record) << "\n";
  }
  return out.good();
}

}  // namespace dimsum
