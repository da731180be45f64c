#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's four workloads. Each one is a stream of "trials" -- one
// what-if question a user of the library asks and waits for -- built from
// a seed, plus a fixed per-layer profile for the traced run. See README.md
// for why each workload exists and which layers it stresses.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "workload/driver.h"
#include "workload/querylog.h"

namespace perfbench {

/// SplitMix64 step: derives independent child seeds from (seed, index).
inline uint64_t Mix(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a 64 over the exact bytes of the virtual outputs folded in, so two
/// runs agree only when every simulated number is bit-identical.
class Digest {
 public:
  void Add(std::string_view bytes) {
    for (const unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 1099511628211ULL;
    }
  }
  void Add(double value) {
    char bytes[sizeof(double)];
    std::memcpy(bytes, &value, sizeof(double));
    Add(std::string_view(bytes, sizeof(bytes)));
  }
  void Add(int64_t value) {
    char bytes[sizeof(int64_t)];
    std::memcpy(bytes, &value, sizeof(int64_t));
    Add(std::string_view(bytes, sizeof(bytes)));
  }
  std::string Hex() const;

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

/// Raw counts behind one accounting identity, checked by the wrapper
/// (run.py): kind "open" carries arrivals/dispatched/shed/aborted/completed,
/// kind "closed" carries clients/queries_per_client/completions.
struct Accounting {
  std::string kind;
  std::vector<std::pair<std::string, int64_t>> counts;
};

/// One trial's outcome.
struct TrialResult {
  /// Host latency of the whole trial, ms.
  double ms = 0.0;
  /// Host time spent inside simulation calls, ms.
  double sim_ms = 0.0;
  /// Simulated queries completed.
  int64_t sim_queries = 0;
  /// Output checks that failed (empty when the trial is correct).
  std::vector<std::string> failures;
  std::vector<Accounting> accounting;
  /// Digest of the trial's virtual outputs (equal on every repetition).
  std::string digest;
};

/// Counts of the last simulation cell run (Workload::SimCell), for the
/// per-layer report.
struct CellStats {
  int64_t runs = 0;
  int64_t disk_reads = 0;
  int64_t disk_cache_hits = 0;
  int64_t net_bytes = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t aborted = 0;
  int64_t retries = 0;
  int64_t reopts = 0;
  std::vector<dimsum::QueryLogRecord> log;

  void AddOpen(const dimsum::OpenLoopResult& r);
  void AddClosed(const dimsum::DriverResult& r);
};

/// Per-layer metrics of the traced run, by name (see BENCHMARK.json).
using Layers = std::map<std::string, double>;

/// Records `ok` as a check; a failed check is kept with its description.
inline void Expect(bool ok, const std::string& what,
                   std::vector<std::string>& failures) {
  if (!ok) failures.push_back(what);
}
inline bool FinitePositive(double value) {
  return std::isfinite(value) && value > 0.0;
}

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds what the timed trials reuse (catalogs, optimized and bound
  /// plans). Timed as setup_s. Failed checks go to setup_failures().
  virtual void Setup(uint64_t seed) = 0;
  const std::vector<std::string>& setup_failures() const {
    return setup_failures_;
  }

  /// The library's global pool runs at this many threads during the whole
  /// run, or at the number of allowed CPUs when that is smaller.
  virtual int max_pool_threads() const { return 4; }

  /// Trials come in blocks of this many (one per sweep cell); runs stop
  /// only at whole blocks so every cell is equally represented.
  virtual int64_t trial_block() const { return 1; }

  /// Runs trial `index` of the seeded stream, checks its outputs and folds
  /// every virtual output into `digest`.
  virtual TrialResult Trial(int64_t index, Digest& digest) = 0;

  /// Runs the workload's simulation cell (trial 0's simulations) and
  /// returns the host ms spent simulating; `capture` turns per-query
  /// capture (spans / query log) on. Virtual outputs go to `digest`.
  virtual double SimCell(bool capture, Digest& digest) = 0;
  const CellStats& cell() const { return cell_; }

  /// Per-layer measurements on the workload's fixed corpus; failed
  /// checks are appended to `failures`.
  virtual void Profile(Layers& layers, std::vector<std::string>& failures) = 0;

 protected:
  uint64_t seed_ = 0;
  std::vector<std::string> setup_failures_;
  CellStats cell_;
};

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
