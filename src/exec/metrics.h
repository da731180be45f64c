#ifndef DIMSUM_EXEC_METRICS_H_
#define DIMSUM_EXEC_METRICS_H_

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "common/metrics.h"

namespace dimsum {

/// Aggregate disk-model detail across all disks of the simulated system:
/// the arm's busy time split into its mechanical components plus the
/// controller-cache and read-ahead behavior that the detailed disk model
/// (sim/disk.h) exists to capture.
struct DiskDetail {
  double seek_ms = 0.0;      // settle + sqrt-curve seek
  double rotate_ms = 0.0;    // rotational latency
  double transfer_ms = 0.0;  // page transfer
  double overhead_ms = 0.0;  // controller/command overhead
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t cache_hits = 0;
  uint64_t readahead_pages = 0;
  uint64_t readahead_aborts = 0;
  int max_queue_depth = 0;
};

/// Per-operator measured attribution for EXPLAIN ANALYZE and bottleneck
/// attribution, collected on every run. The times are elapsed
/// virtual time the operator spent awaiting each resource class, so they
/// include queueing behind other users of that resource -- they attribute
/// where the operator's lifetime went, the measured counterpart of the
/// estimate's per-resource demand (cost/explain.h). Channel waits
/// (pipeline backpressure) are excluded. Collection is pure observation:
/// clock reads and double accumulation only, never a simulation event.
struct OperatorActual {
  double cpu_ms = 0.0;
  double disk_ms = 0.0;
  /// Wire occupancy awaited: network operator transfers and client-scan
  /// page-fault round trips (includes retransmission backoff under link
  /// faults).
  double net_ms = 0.0;
  /// Crash-window stalls (fault injection), also in fault_stall_ms.
  double stall_ms = 0.0;
  double start_ms = 0.0;  ///< virtual time the operator process started
  double end_ms = 0.0;    ///< virtual time it finished
  int64_t pages_in = 0;
  int64_t pages_out = 0;
};

/// Measured results of one simulated query execution.
struct ExecMetrics {
  /// Elapsed virtual time from query initiation until the last result tuple
  /// is displayed at the client (the paper's response-time metric), ms.
  double response_ms = 0.0;
  /// Data pages shipped over the network, including pages faulted in by
  /// client scans (the paper's "pages sent" metric).
  int64_t data_pages_sent = 0;
  /// All network messages (data pages + fault requests).
  int64_t messages = 0;
  /// Total bytes on the wire.
  int64_t bytes_sent = 0;
  /// Network busy time, ms.
  double network_busy_ms = 0.0;
  /// Total time messages spent queued behind the shared link, ms.
  double network_wait_ms = 0.0;
  /// Per-site resource usage, ms. Small sorted-vector maps: site counts
  /// are tiny and an ExecMetrics is built per simulated query.
  FlatMap<SiteId, double> cpu_busy_ms;
  FlatMap<SiteId, double> disk_busy_ms;
  /// Per-site CPU queueing time (wait excludes service), ms.
  FlatMap<SiteId, double> cpu_wait_ms;
  /// System-wide disk-model detail.
  DiskDetail disk;
  /// Distributions, populated only when SystemConfig::collect_histograms
  /// is set: per-arm-operation disk service time and per-message network
  /// queueing delay.
  Histogram disk_service_ms;
  Histogram net_queue_delay_ms;

  // --- fault injection (all zero on healthy runs) -----------------------
  /// Virtual time this query's operators spent stalled on crashed sites
  /// (summed per stalled request; concurrent operators can overlap, so
  /// this can exceed the wall-clock stretch), ms.
  double fault_stall_ms = 0.0;
  /// Link-fault retransmissions attributed to this query, and their bytes
  /// (already included in messages/bytes on the wire).
  int64_t retransmits = 0;
  int64_t retransmitted_bytes = 0;

  /// Per-operator actuals indexed by the plan node's pre-order id (display
  /// root is 0), one per plan node; the net operator pairs inserted on
  /// site-crossing edges attribute into the consuming operator's record,
  /// mirroring the estimator's accounting.
  std::vector<OperatorActual> operator_actuals;
};

/// Folds one execution's metrics into `registry` under "exec."-prefixed
/// instrument names (counters for page/message totals, gauges for times,
/// histogram merges for the distributions). No-op histogram merges when
/// the histograms were not collected.
void FoldExecMetrics(const ExecMetrics& metrics, MetricsRegistry& registry);

}  // namespace dimsum

#endif  // DIMSUM_EXEC_METRICS_H_
