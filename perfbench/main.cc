// perfbench: the host-time benchmark's measuring binary. run.py builds it,
// runs it, applies the accounting and digest checks and prints the result
// line; see README.md.
//
//   perfbench --workload W --seed S --seconds R --trace 0|1
//       Set-up, the fixed verification trials, then the timed trials
//       (--trace 0), or an untraced and a traced pass over the same trials
//       followed by the per-layer profile (--trace 1). A traced run writes
//       its spans to spans/W-seedS.jsonl beside the binary.
//   perfbench --workload W --seed S --sim-cell
//       Only the workload's simulation cell: its host time and digest, for
//       comparing event queues (DIMSUM_EVENT_QUEUE) across processes.
//
// The library's pool runs at the workload's thread count (at most the
// allowed CPUs). Prints one JSON document on stdout.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/thread_pool.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unspecified"
#endif

namespace perfbench {
namespace {

/// Seed of the verification trials whose digest is recorded beside the
/// benchmark (digests.json). They run first in every run: at least two
/// trials, and one whole block of a sweep.
constexpr uint64_t kGoldenSeed = 1;
/// Set-up samples per run, spread over the timed phase; the wrapper
/// reports their median.
constexpr int kSetupSamples = 31;
/// A sample repeats set-up until this much set-up time has passed and
/// reports the mean, so a set-up of a fraction of a millisecond is not
/// timed as one interval between two clock reads.
constexpr double kSetupSampleMs = 10.0;
/// Distinct timed trials per run, at least: ten then lie beyond the 90th
/// percentile.
constexpr int64_t kMinTrials = 100;

struct Options {
  std::string workload;
  uint64_t seed = kGoldenSeed;
  double seconds = 10.0;
  bool trace = false;
  bool sim_cell = false;
};

bool ParseOptions(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = std::stoi(value()) != 0;
    } else if (arg == "--sim-cell") {
      options.sim_cell = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  return !options.workload.empty() && options.seconds > 0.0;
}

std::string Quoted(const std::string& text) {
  return "\"" + dimsum::JsonEscape(text) + "\"";
}

std::string StringList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + Quoted(items[i]);
  }
  return out + "]";
}

std::string TrialJson(const TrialResult& trial) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"ms\": " << trial.ms << ", \"sim_ms\": " << trial.sim_ms
      << ", \"sim_queries\": " << trial.sim_queries
      << ", \"failures\": " << StringList(trial.failures)
      << ", \"accounting\": [";
  for (std::size_t i = 0; i < trial.accounting.size(); ++i) {
    const Accounting& a = trial.accounting[i];
    out << (i ? ", " : "") << "{\"kind\": " << Quoted(a.kind);
    for (const auto& [name, count] : a.counts) {
      out << ", " << Quoted(name) << ": " << count;
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

std::string TrialsJson(const std::vector<TrialResult>& trials) {
  std::string out = "[";
  for (std::size_t i = 0; i < trials.size(); ++i) {
    out += (i ? ",\n  " : "\n  ") + TrialJson(trials[i]);
  }
  return out + "]";
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Set-up timings spread over the run: one sample now and then one per
/// `interval_ms` of trials, each set-up on a fresh workload object, so that
/// host interference during one moment of the run cannot move the median.
class SetupSampler {
 public:
  SetupSampler(const Options& options, double interval_ms)
      : options_(options), interval_ms_(interval_ms) {}

  /// Times full set-ups until kSetupSampleMs have passed and returns the
  /// workload the last one built.
  std::unique_ptr<Workload> Sample() {
    std::unique_ptr<Workload> workload;
    double total_ms = 0.0;
    int count = 0;
    while (count == 0 || total_ms < kSetupSampleMs) {
      workload = MakeWorkload(options_.workload);
      const Clock::time_point start = Clock::now();
      Traced("setup", [&] { workload->Setup(options_.seed); });
      last_ = Clock::now();
      total_ms += MsBetween(start, last_);
      ++count;
    }
    ms_.push_back(total_ms / count);
    return workload;
  }
  void MaybeSample() {
    if (MsBetween(last_, Clock::now()) >= interval_ms_) Sample();
  }
  const std::vector<double>& ms() const { return ms_; }

 private:
  const Options& options_;
  double interval_ms_;
  Clock::time_point last_ = Clock::now();
  std::vector<double> ms_;
};

/// One pass over the seeded trial stream from trial 0: until `seconds`
/// have passed and at least `count` trials ran (stopping only at whole
/// blocks), or exactly `count` trials when `seconds` is zero.
std::vector<TrialResult> RunPass(Workload& workload, int64_t count,
                                 double seconds, int64_t block,
                                 SetupSampler& setups) {
  Tracer& tracer = GlobalTracer();
  std::vector<TrialResult> trials;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0;; ++i) {
    if (seconds == 0.0 && i == count) break;
    tracer.set_op(i);
    Digest digest;
    trials.push_back(
        Traced("trial", [&] { return workload.Trial(i, digest); }));
    trials.back().digest = digest.Hex();
    tracer.set_op(-1);
    const int64_t done = i + 1;
    if (done % block != 0) continue;
    setups.MaybeSample();
    if (seconds == 0.0) continue;
    const double elapsed = MsBetween(start, Clock::now()) / 1000.0;
    if (done >= count && elapsed >= seconds) break;
  }
  return trials;
}

/// Folds the failed checks of a repeated pass into `trials`; a repetition
/// whose virtual outputs differ is a failure too.
void CheckRepetition(std::vector<TrialResult>& trials,
                     const std::vector<TrialResult>& again) {
  for (std::size_t i = 0; i < trials.size(); ++i) {
    TrialResult& first = trials[i];
    const TrialResult& repeat = again[i];
    first.failures.insert(first.failures.end(), repeat.failures.begin(),
                          repeat.failures.end());
    Expect(first.digest == repeat.digest,
           "trial: a repetition gave different simulated results",
           first.failures);
  }
}

double TotalMs(const std::vector<TrialResult>& trials) {
  double ms = 0.0;
  for (const TrialResult& t : trials) ms += t.ms;
  return ms;
}

/// Per-layer self time as a share of the traced trials' time. Span names
/// are the library functions the trials call, and the trial's own root
/// span. Trials call no plan or cost function directly (the optimizer and
/// the drivers call them inside their own spans), so those layers have no
/// self share; cost.share and plan.move_us measure them instead.
void AddSelfShares(const Tracer& tracer, Layers& layers) {
  static const std::vector<std::pair<std::string, std::vector<std::string>>>
      kLayers = {
          {"bench", {"trial"}},
          {"workload", {"MakeChainWorkload", "QueryLogJson"}},
          {"opt", {"Optimize"}},
          {"sim", {"Execute", "RunOpenLoop", "RunClosedLoop"}},
      };
  const std::map<std::string, double> self = tracer.TrialSelfMsByName();
  double total = 0.0;
  for (const auto& [name, ms] : self) total += ms;
  for (const auto& [layer, names] : kLayers) {
    double ms = 0.0;
    for (const std::string& name : names) {
      const auto it = self.find(name);
      if (it != self.end()) ms += it->second;
    }
    layers["self." + layer + "_share"] = total > 0.0 ? ms / total : 0.0;
  }
  layers["trace.spans"] = static_cast<double>(tracer.spans().size());
}

/// spans/<workload>-seed<seed>.jsonl beside the binary (created), or empty.
std::string SpansPath(const Options& options) {
  namespace fs = std::filesystem;
  std::error_code error;
  const fs::path exe = fs::read_symlink("/proc/self/exe", error);
  if (error) return "";
  const fs::path dir = exe.parent_path() / "spans";
  fs::create_directories(dir, error);
  if (error) return "";
  return (dir / (options.workload + "-seed" + std::to_string(options.seed) +
                 ".jsonl"))
      .string();
}

int Run(const Options& options) {
#if !defined(__OPTIMIZE__)
  std::cerr << "perfbench: refusing to measure an unoptimized build ("
            << PERFBENCH_BUILD_TYPE << ")\n";
  return 3;
#endif
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload " << options.workload << "\n";
    return 2;
  }
  dimsum::SetGlobalThreadCount(
      std::min(workload->max_pool_threads(), CpuCount()));

  if (options.sim_cell) {
    workload->Setup(options.seed);
    Digest digest;
    double best = workload->SimCell(false, digest);
    for (int rep = 0; rep < 2; ++rep) {
      Digest again;
      best = std::min(best, workload->SimCell(false, again));
    }
    std::cout.precision(17);
    std::cout << "{\"sim_ms\": " << best
              << ", \"digest\": " << Quoted(digest.Hex()) << "}\n";
    return 0;
  }

  // Verification trials at the recorded seed; they also warm the process
  // (first-use allocations, page faults) before anything is timed.
  std::unique_ptr<Workload> golden = MakeWorkload(options.workload);
  golden->Setup(kGoldenSeed);
  Digest digest;
  std::vector<TrialResult> golden_trials;
  const int64_t golden_count = std::max<int64_t>(2, golden->trial_block());
  for (int64_t i = 0; i < golden_count; ++i) {
    golden_trials.push_back(golden->Trial(i, digest));
  }
  std::vector<std::string> setup_failures = golden->setup_failures();
  golden.reset();

  Tracer& tracer = GlobalTracer();
  tracer.set_enabled(options.trace);
  SetupSampler setups(options,
                      options.seconds * 1000.0 / (kSetupSamples - 1));
  workload = setups.Sample();
  setup_failures.insert(setup_failures.end(),
                        workload->setup_failures().begin(),
                        workload->setup_failures().end());

  const int64_t block = workload->trial_block();
  std::vector<TrialResult> trials;
  Layers layers;
  std::vector<std::string> profile_failures;
  if (!options.trace) {
    trials = RunPass(*workload, kMinTrials, options.seconds, block, setups);
  } else {
    // The same trials untraced, then traced: their time ratio is the
    // tracing overhead.
    tracer.set_enabled(false);
    trials = RunPass(*workload, block, options.seconds / 2.0, block, setups);
    tracer.set_enabled(true);
    const std::vector<TrialResult> traced = RunPass(
        *workload, static_cast<int64_t>(trials.size()), 0.0, block, setups);
    layers["trace.overhead"] = TotalMs(traced) / TotalMs(trials);
    CheckRepetition(trials, traced);
    Traced("profile", [&] { workload->Profile(layers, profile_failures); });
    tracer.set_enabled(false);
    AddSelfShares(tracer, layers);
    const std::string spans = SpansPath(options);
    if (spans.empty() || !tracer.WriteJsonl(spans)) {
      profile_failures.push_back("could not write the spans file " + spans);
    }
  }

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);

  std::cout.precision(17);
  std::cout << "{\"workload\": " << Quoted(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"build_type\": " << Quoted(PERFBENCH_BUILD_TYPE)
            << ", \"optimized\": true, \"threads\": "
            << dimsum::GlobalThreadPool().thread_count()
            << ", \"nproc\": " << CpuCount()
            << ",\n \"golden_seed\": " << kGoldenSeed
            << ", \"golden_digest\": " << Quoted(digest.Hex())
            << ",\n \"golden_trials\": " << TrialsJson(golden_trials)
            << ",\n \"setup_ms\": [";
  for (std::size_t i = 0; i < setups.ms().size(); ++i) {
    std::cout << (i ? ", " : "") << setups.ms()[i];
  }
  std::cout << "],\n \"setup_failures\": " << StringList(setup_failures)
            << ",\n \"trials\": " << TrialsJson(trials)
            << ",\n \"peak_rss_kb\": " << usage.ru_maxrss
            << ",\n \"profile_failures\": " << StringList(profile_failures)
            << ",\n \"layers\": {";
  bool first = true;
  for (const auto& [name, value] : layers) {
    std::cout << (first ? "" : ", ") << Quoted(name) << ": ";
    dimsum::JsonWriteNumber(std::cout, value);
    first = false;
  }
  std::cout << "}}\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    if (!perfbench::ParseOptions(argc, argv, options)) {
      std::cerr << "usage: perfbench --workload W --seed S --seconds R "
                   "--trace 0|1 | --sim-cell\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  return perfbench::Run(options);
}
