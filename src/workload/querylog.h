#ifndef DIMSUM_WORKLOAD_QUERYLOG_H_
#define DIMSUM_WORKLOAD_QUERYLOG_H_

// Wide-event query log: one structured record per query of a workload run,
// carrying everything needed to explain that query's response time -- the
// replica policy, plan signature, server fan-out, submission attempts
// (crash retries), the per-resource elapsed split, and the critical-path
// decomposition extracted from its causal spans (core/critical_path.h).
//
// Records serialize to one JSON object per line ("dimsum.querylog.v1"),
// suitable for line-oriented tooling (tools/tail_report.py). Serialization
// uses round-trippable number formatting, and records are built from the
// deterministic simulation outputs only, so a (workload, seed) pair yields
// a byte-identical log regardless of host threading.

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "core/critical_path.h"
#include "exec/metrics.h"

namespace dimsum {

/// One aborted submission attempt of a query on a faulted run (the crash
/// detection/retry loop of workload/driver.h). `wait_ms` is the virtual
/// time the attempt consumed: the detection timeout plus the backoff (or
/// the wait for a restart once retries ran out).
struct QueryLogAttempt {
  double start_ms = 0.0;
  double wait_ms = 0.0;
  /// The attempt triggered recovery re-optimization around the crash.
  bool reoptimized = false;
};

/// One query's wide event.
struct QueryLogRecord {
  /// Replica-policy label of the run (e.g. "first-copy", "least-out").
  std::string policy;
  /// Session ticket (submission order).
  int ticket = -1;
  /// Home client site.
  SiteId client = kUnboundSite;
  /// FNV-1a 64 hash of the submitted plan's canonical signature
  /// (opt/cost_cache.h); 0 for queries that never submitted.
  uint64_t plan_signature = 0;
  /// Server sites the submitted plan touches (scan fan-out after replica
  /// selection and shard expansion).
  std::vector<SiteId> fanout;
  /// "ok" (completed), "aborted" (admitted but never executed), or "shed"
  /// (dropped at the admission door).
  std::string outcome = "ok";

  /// Closed loop: the instant the client began issuing (before crash
  /// retries). Open loop: the arrival instant.
  double issue_ms = 0.0;
  double submit_ms = 0.0;
  double complete_ms = 0.0;
  /// Closed loop: complete - submit (recovery surfaced via `attempts`).
  /// Open loop: complete - issue (admission wait included, surfaced as an
  /// "admission" critical-path segment).
  double response_ms = 0.0;

  /// Aborted submission attempts before the successful one.
  std::vector<QueryLogAttempt> attempts;

  /// Per-resource elapsed totals summed over the plan's operators
  /// (EXPLAIN ANALYZE actuals; overlapping, unlike the critical path).
  double cpu_elapsed_ms = 0.0;
  double disk_elapsed_ms = 0.0;
  double net_elapsed_ms = 0.0;
  double stall_elapsed_ms = 0.0;

  /// Critical-path decomposition; its segments (admission included) sum to
  /// response_ms within accumulation error for completed queries.
  CriticalPath path;
};

/// Folds a query's per-operator elapsed totals (ExecMetrics::
/// operator_actuals) into the record's cpu/disk/net/stall fields.
void FillResourceTotals(const ExecMetrics& metrics, QueryLogRecord& record);

/// Serializes one record as a single JSON line (no trailing newline),
/// leading with {"schema": "dimsum.querylog.v1", ...}.
std::string QueryLogJson(const QueryLogRecord& record);

/// Writes records as JSONL; returns false when the file cannot be opened.
bool WriteQueryLogFile(const std::string& path,
                       const std::vector<QueryLogRecord>& records);

/// FNV-1a 64 over the canonical plan-signature bytes.
uint64_t HashPlanSignature(const std::string& signature);

}  // namespace dimsum

#endif  // DIMSUM_WORKLOAD_QUERYLOG_H_
