#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/system.h"
#include "cost/response_time.h"
#include "opt/cost_cache.h"
#include "opt/optimizer.h"
#include "opt/two_step.h"
#include "plan/binding.h"
#include "plan/shard.h"
#include "plan/transforms.h"
#include "plan/validate.h"
#include "sim/fault.h"
#include "trace.h"
#include "workload/benchmark.h"
#include "workload/driver.h"
#include "workload/querylog.h"

namespace perfbench {

using namespace dimsum;

std::string Digest::Hex() const {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash_));
  return hex;
}

void CellStats::AddOpen(const OpenLoopResult& r) {
  disk_reads += static_cast<int64_t>(r.totals.disk.reads);
  disk_cache_hits += static_cast<int64_t>(r.totals.disk.cache_hits);
  net_bytes += r.totals.bytes_sent;
  completed += r.completed;
  shed += r.shed;
  aborted += r.aborted;
  log.insert(log.end(), r.query_log.begin(), r.query_log.end());
}

void CellStats::AddClosed(const DriverResult& r) {
  disk_reads += static_cast<int64_t>(r.totals.disk.reads);
  disk_cache_hits += static_cast<int64_t>(r.totals.disk.cache_hits);
  net_bytes += r.totals.bytes_sent;
  completed += static_cast<int64_t>(r.completions.size());
  retries += r.total_retries;
  reopts += r.total_reopts;
  log.insert(log.end(), r.query_log.begin(), r.query_log.end());
}

namespace {

/// Optimizer effort of the paper-figure harnesses (the fig08 setting):
/// 12 II starts, patience 48, 8 SA moves per join and stage. Fixed here
/// rather than shared with the harnesses so the benchmark's work cannot
/// change when a figure's settings do.
OptimizerConfig FigureEffort() {
  OptimizerConfig config;
  config.ii_starts = 12;
  config.ii_patience = 48;
  config.sa_stage_moves_per_join = 8;
  return config;
}

/// Mean host ms per call of `fn`, repeating until at least `min_ms` of
/// calls and `min_reps` calls have run.
template <typename F>
double MeanMs(F&& fn, double min_ms = 20.0, int min_reps = 3) {
  int reps = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  while (reps < min_reps || elapsed < min_ms) {
    fn();
    ++reps;
    elapsed = MsBetween(start, Clock::now());
  }
  return elapsed / reps;
}

double Ratio(int64_t numerator, int64_t denominator) {
  return static_cast<double>(numerator) /
         static_cast<double>(std::max<int64_t>(1, denominator));
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void CheckPlan(const Plan& plan, const QueryGraph& query,
               ShippingPolicy policy, const std::string& where,
               std::vector<std::string>& failures) {
  const bool valid = IsStructurallyValid(plan);
  Expect(valid, where + ": plan is not structurally valid", failures);
  if (!valid) return;
  Expect(IsWellFormed(plan), where + ": plan is not well-formed", failures);
  Expect(MatchesQuery(plan, query), where + ": plan does not match the query",
         failures);
  Expect(InPolicySpace(plan, PolicySpace::For(policy)),
         where + ": plan leaves the policy's space", failures);
}

void AddOptimizeResult(const OptimizeResult& result, Digest& digest) {
  digest.Add(PlanSignature(result.plan));
  digest.Add(result.cost);
  digest.Add(static_cast<int64_t>(result.plans_evaluated));
  digest.Add(result.cache_hits);
  digest.Add(result.cache_misses);
}

void AddExecMetrics(const ExecMetrics& metrics, Digest& digest) {
  digest.Add(metrics.response_ms);
  digest.Add(metrics.data_pages_sent);
  digest.Add(metrics.messages);
  digest.Add(metrics.bytes_sent);
  digest.Add(static_cast<int64_t>(metrics.disk.reads));
  digest.Add(static_cast<int64_t>(metrics.disk.cache_hits));
  digest.Add(metrics.fault_stall_ms);
}

void AddTotals(const BatchTotals& totals, Digest& digest) {
  digest.Add(totals.bytes_sent);
  digest.Add(totals.network_busy_ms);
  digest.Add(static_cast<int64_t>(totals.disk.reads));
  digest.Add(static_cast<int64_t>(totals.disk.cache_hits));
  digest.Add(totals.crashes);
  digest.Add(totals.crash_downtime_ms);
}

Accounting OpenAccounting(const OpenLoopResult& r) {
  return Accounting{"open",
                    {{"arrivals", r.arrivals},
                     {"dispatched", r.dispatched},
                     {"shed", r.shed},
                     {"aborted", r.aborted},
                     {"completed", r.completed}}};
}

void AddOpen(const OpenLoopResult& r, Digest& digest) {
  digest.Add(r.arrivals);
  digest.Add(r.dispatched);
  digest.Add(r.shed);
  digest.Add(r.aborted);
  digest.Add(r.completed);
  digest.Add(static_cast<int64_t>(r.processed_events));
  digest.Add(static_cast<int64_t>(r.peak_event_queue_depth));
  digest.Add(r.makespan_ms);
  digest.Add(r.mean_response_ms);
  for (const OpenLoopCompletion& c : r.completions) {
    digest.Add(static_cast<int64_t>(c.ticket));
    digest.Add(c.complete_ms);
  }
  for (const ExecMetrics& m : r.per_query) AddExecMetrics(m, digest);
  AddTotals(r.totals, digest);
}

void CheckResponses(const std::vector<ExecMetrics>& per_query,
                    const std::string& where,
                    std::vector<std::string>& failures) {
  for (const ExecMetrics& m : per_query) {
    if (!FinitePositive(m.response_ms)) {
      failures.push_back(where + ": simulated response time not finite "
                                 "and positive");
      return;
    }
  }
}

/// One optimization problem of a workload's profile corpus.
struct OptProblem {
  const ClientServerSystem* system = nullptr;
  QueryGraph query;
  ShippingPolicy policy = ShippingPolicy::kHybridShipping;
  uint64_t seed = 0;
  /// Configuration of the 2-step run-time site selection measured on the
  /// problem's final plan.
  OptimizerConfig site_select;
};

/// A problem whose site selection runs with the figure effort in the
/// problem's own policy space.
OptProblem Problem(const ClientServerSystem& system, const QueryGraph& query,
                   ShippingPolicy policy, uint64_t seed) {
  OptProblem p;
  p.system = &system;
  p.query = query;
  p.policy = policy;
  p.seed = seed;
  p.site_select = FigureEffort();
  p.site_select.policy = policy;
  return p;
}

/// Open-loop run configuration of ext_openloop and ext_taillat: Poisson
/// arrivals, 128 queries in flight, 512 pending.
OpenLoopConfig AdmittedPoisson(double rate_qps, double duration_ms,
                               uint64_t seed, bool capture) {
  OpenLoopConfig openloop;
  openloop.arrival.kind = ArrivalKind::kPoisson;
  openloop.arrival.rate_per_sec = rate_qps;
  openloop.admission.max_in_flight = 128;
  openloop.admission.max_pending = 512;
  openloop.duration_ms = duration_ms;
  openloop.num_batches = 8;
  openloop.seed = seed;
  openloop.collect_query_log = capture;
  return openloop;
}

/// Physical (shard-expanded, bound) form of a plan for estimation and
/// execution.
Plan PhysicalPlan(const Plan& plan, const Catalog& catalog, SiteId client) {
  Plan physical = NeedsShardExpansion(plan, catalog)
                      ? Traced("ExpandShards",
                               [&] { return ExpandShards(plan, catalog); })
                      : plan.Clone();
  Traced("BindSites", [&] { BindSites(physical, catalog, client); });
  return physical;
}

/// Optimizer, coster, plan-transform and executor layers on `problems`:
/// opt.*, cost.*, plan.*, exec.execute_ms and common.pool_speedup.
void ProfileSearch(const std::vector<OptProblem>& problems, Layers& layers,
                   std::vector<std::string>& failures) {
  const int threads = GlobalThreadPool().thread_count();
  auto optimize = [](const OptProblem& p, const OptimizerConfig& effort) {
    Rng rng(p.seed);
    return Traced("Optimize", [&] {
      return p.system->Optimize(p.query, p.policy,
                                OptimizeMetric::kResponseTime, rng, &effort);
    });
  };
  OptimizerConfig full = FigureEffort();
  OptimizerConfig ii_only = full;
  ii_only.enable_sa = false;

  double full_ms = 0.0, ii_ms = 0.0, single_ms = 0.0;
  int64_t evaluated = 0, hits = 0, misses = 0, proposed = 0, accepted = 0;
  std::vector<OptimizeResult> results;
  for (const OptProblem& p : problems) {
    OptimizeResult result;
    full_ms += MeanMs([&] { result = optimize(p, full); });
    ii_ms += MeanMs([&] { optimize(p, ii_only); });
    evaluated += result.plans_evaluated;
    hits += result.cache_hits;
    misses += result.cache_misses;
    proposed += result.ii_moves.total_proposed() +
                result.sa_moves.total_proposed();
    accepted += result.ii_moves.total_accepted() +
                result.sa_moves.total_accepted();
    CheckPlan(result.plan, p.query, p.policy, "profile", failures);
    Expect(FinitePositive(result.cost), "profile: estimate not finite",
           failures);
    results.push_back(std::move(result));
  }
  // The same problems at one pool thread: the speedup denominator, and the
  // determinism check (results must not depend on the thread count).
  SetGlobalThreadCount(1);
  for (std::size_t i = 0; i < problems.size(); ++i) {
    OptimizeResult single;
    single_ms += MeanMs([&] { single = optimize(problems[i], full); });
    Digest a, b;
    AddOptimizeResult(single, a);
    AddOptimizeResult(results[i], b);
    Expect(a.Hex() == b.Hex(),
           "profile: optimizer result differs between 1 and " +
               std::to_string(threads) + " threads",
           failures);
  }
  SetGlobalThreadCount(threads);

  const double n = static_cast<double>(problems.size());
  layers["opt.optimize_ms"] = full_ms / n;
  layers["opt.ii_ms"] = ii_ms / n;
  layers["opt.sa_ms"] = (full_ms - ii_ms) / n;
  layers["opt.plans_evaluated"] = static_cast<double>(evaluated) / n;
  layers["opt.cache_hit_rate"] = Ratio(hits, hits + misses);
  layers["opt.acceptance_ratio"] = Ratio(accepted, proposed);
  layers["cost.calls"] = static_cast<double>(misses) / n;
  layers["common.pool_speedup"] = single_ms / full_ms;

  // Plan corpus: each final plan plus up to eight random neighbours.
  struct CorpusPlan {
    const OptProblem* problem;
    Plan plan;
  };
  std::vector<CorpusPlan> corpus;
  double move_ms = 0.0;
  double select_ms = 0.0, expand_ms = 0.0, execute_ms = 0.0, rel_err = 0.0;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const OptProblem& p = problems[i];
    const Catalog& catalog = p.system->catalog();
    const SiteId client = p.query.home_client;
    OptimizerConfig policy_config = full;
    policy_config.policy = p.policy;
    TransformConfig transform = policy_config.MakeTransformConfig();
    transform.catalog = &catalog;
    Rng move_rng(Mix(p.seed, 7));
    std::vector<Plan> neighbours;
    move_ms += MeanMs([&] {
      neighbours.clear();
      Rng rng = move_rng;
      for (int k = 0; k < 8; ++k) {
        std::optional<Plan> next = Traced("TryRandomMove", [&] {
          return TryRandomMove(results[i].plan, p.query, transform, rng);
        });
        if (next) neighbours.push_back(std::move(*next));
      }
    }) / 8.0;
    corpus.push_back({&p, PhysicalPlan(results[i].plan, catalog, client)});
    for (const Plan& plan : neighbours) {
      corpus.push_back({&p, PhysicalPlan(plan, catalog, client)});
    }

    expand_ms += MeanMs([&] {
      Traced("ExpandShards",
             [&] { return ExpandShards(results[i].plan, catalog); });
    });
    const CostModel model = p.system->MakeCostModel();
    select_ms += MeanMs([&] {
      Rng rng(Mix(p.seed, 11));
      Traced("TwoStepSiteSelection", [&] {
        return TwoStepSiteSelection(model, results[i].plan, p.query,
                                    p.site_select, rng);
      });
    });
    const Plan physical = PhysicalPlan(results[i].plan, catalog, client);
    ExecMetrics simulated;
    execute_ms += MeanMs([&] {
      simulated = Traced("Execute", [&] {
        return p.system->Execute(physical, p.query, p.seed);
      });
    });
    const TimeEstimate estimate =
        EstimateTime(physical, catalog, p.query, p.system->config().params,
                     p.system->ServerDiskUtilization());
    Expect(FinitePositive(estimate.response_ms) &&
               FinitePositive(simulated.response_ms),
           "profile: estimate or simulation not finite and positive",
           failures);
    rel_err += std::abs(estimate.response_ms - simulated.response_ms) /
               simulated.response_ms;
  }
  const double estimate_ms = MeanMs([&] {
    for (const CorpusPlan& c : corpus) {
      const ClientServerSystem& system = *c.problem->system;
      Traced("EstimateTime", [&] {
        return EstimateTime(c.plan, system.catalog(), c.problem->query,
                            system.config().params,
                            system.ServerDiskUtilization());
      });
    }
  });
  layers["cost.estimate_us"] =
      estimate_ms * 1000.0 / static_cast<double>(corpus.size());
  layers["cost.share"] = layers["cost.calls"] * layers["cost.estimate_us"] /
                         (layers["opt.optimize_ms"] * 1000.0);
  layers["cost.model_rel_err"] = rel_err / n;
  layers["plan.move_us"] = move_ms * 1000.0 / n;
  layers["plan.expand_shards_us"] = expand_ms * 1000.0 / n;
  layers["opt.site_select_ms"] = select_ms / n;
  layers["exec.execute_ms"] = execute_ms / n;
}

/// Kernel, device, driver and capture layers on the workload's simulation
/// cell: sim.*, workload.* (except gen_ms) and sim.capture_overhead.
void ProfileCell(Workload& workload, Layers& layers,
                 std::vector<std::string>& failures) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  registry.set_enabled(true);
  Digest counted;
  workload.SimCell(false, counted);
  registry.set_enabled(false);
  const double events =
      static_cast<double>(registry.counter("kernel.processed_events").value());
  const double hits =
      static_cast<double>(registry.counter("kernel.frame_pool.hits").value());
  const double misses =
      static_cast<double>(registry.counter("kernel.frame_pool.misses").value());
  layers["sim.events"] = events;
  layers["sim.peak_queue_depth"] =
      registry.gauge("kernel.peak_event_queue_depth").value();
  layers["sim.calendar_resizes"] = static_cast<double>(
      registry.counter("kernel.calendar_resizes").value());
  layers["sim.frame_pool_hit_rate"] = hits / std::max(1.0, hits + misses);

  // Capture off and on, alternating; the medians give the run time and the
  // capture overhead. Capture is pure observation, so virtual outputs must
  // not change with it.
  std::vector<double> off_ms, on_ms;
  for (int rep = 0; rep < 3; ++rep) {
    Digest off, on;
    off_ms.push_back(workload.SimCell(false, off));
    on_ms.push_back(workload.SimCell(true, on));
    Expect(off.Hex() == counted.Hex() && on.Hex() == counted.Hex(),
           "profile: capture or metrics changed the simulation's results",
           failures);
  }
  // The last call ran with capture on, so its counts include the log.
  const CellStats& cell = workload.cell();
  const double run_ms = Median(off_ms);
  layers["sim.ns_per_event"] = run_ms * 1e6 / std::max(1.0, events);
  layers["sim.capture_overhead"] = Median(on_ms) / run_ms;
  layers["workload.run_ms"] = run_ms / static_cast<double>(cell.runs);
  layers["sim.disk.reads"] = static_cast<double>(cell.disk_reads);
  layers["sim.disk.cache_hit_rate"] =
      Ratio(cell.disk_cache_hits, cell.disk_reads);
  layers["sim.net.bytes"] = static_cast<double>(cell.net_bytes);
  layers["workload.completed"] = static_cast<double>(cell.completed);
  layers["workload.shed"] = static_cast<double>(cell.shed);
  layers["workload.aborted"] = static_cast<double>(cell.aborted);
  layers["workload.retries"] = static_cast<double>(cell.retries);
  layers["workload.reopts"] = static_cast<double>(cell.reopts);
  layers["workload.querylog_records"] = static_cast<double>(cell.log.size());
  double json_ms = 0.0;
  if (!cell.log.empty()) {
    json_ms = MeanMs([&] {
      for (const QueryLogRecord& record : cell.log) {
        Traced("QueryLogJson", [&] { return QueryLogJson(record); });
      }
    });
  }
  Expect(!cell.log.empty(), "profile: the captured cell wrote no query log",
         failures);
  layers["workload.querylog_json_us"] =
      json_ms * 1000.0 / std::max(1.0, static_cast<double>(cell.log.size()));
}

// ---------------------------------------------------------------------------
// fig_sweep: sequential 10-way chain-join what-if trials (the fig08 sweep).
// ---------------------------------------------------------------------------

constexpr ShippingPolicy kSweepPolicies[] = {ShippingPolicy::kDataShipping,
                                             ShippingPolicy::kQueryShipping,
                                             ShippingPolicy::kHybridShipping};
constexpr int kSweepServers[] = {1, 2, 4, 8};
constexpr int kSweepCells = 12;

struct SweepCell {
  ShippingPolicy policy;
  int servers;
};

SweepCell SweepCellAt(int64_t index) {
  const int cell = static_cast<int>(index % kSweepCells);
  return {kSweepPolicies[cell / 4], kSweepServers[cell % 4]};
}

WorkloadSpec SweepSpec(int servers) {
  WorkloadSpec spec;
  spec.num_relations = 10;
  spec.num_servers = servers;
  return spec;
}

SystemConfig SweepConfig(int servers) {
  SystemConfig config;
  config.num_servers = servers;
  config.params.buf_alloc = BufAlloc::kMinimum;
  return config;
}

class FigSweep : public Workload {
 public:
  /// One system per sweep cell, placed from the run seed: the corpus of
  /// the per-layer profile and of the simulation cell.
  void Setup(uint64_t seed) override {
    seed_ = seed;
    grid_.clear();
    for (int c = 0; c < kSweepCells; ++c) {
      const SweepCell cell = SweepCellAt(c);
      Rng rng(Mix(seed, 1000 + static_cast<uint64_t>(c)));
      BenchmarkWorkload generated = Traced("MakeChainWorkload", [&] {
        return MakeChainWorkload(SweepSpec(cell.servers), rng);
      });
      grid_.push_back(std::make_unique<GridEntry>(GridEntry{
          cell,
          ClientServerSystem(std::move(generated.catalog),
                             SweepConfig(cell.servers)),
          std::move(generated.query), Plan()}));
    }
  }

  int64_t trial_block() const override { return kSweepCells; }

  TrialResult Trial(int64_t index, Digest& digest) override {
    TrialResult out;
    const SweepCell cell = SweepCellAt(index);
    const uint64_t seed = Mix(seed_, static_cast<uint64_t>(index));
    const OptimizerConfig effort = FigureEffort();
    const Clock::time_point start = Clock::now();
    Rng rng(seed);
    BenchmarkWorkload generated = Traced("MakeChainWorkload", [&] {
      return MakeChainWorkload(SweepSpec(cell.servers), rng);
    });
    const ClientServerSystem system(std::move(generated.catalog),
                                    SweepConfig(cell.servers));
    Rng opt_rng(Mix(seed, 1));
    const OptimizeResult optimized = Traced("Optimize", [&] {
      return system.Optimize(generated.query, cell.policy,
                             OptimizeMetric::kResponseTime, opt_rng, &effort);
    });
    const Clock::time_point sim_start = Clock::now();
    const ExecMetrics executed = Traced("Execute", [&] {
      return system.Execute(optimized.plan, generated.query, seed);
    });
    const Clock::time_point end = Clock::now();
    out.ms = MsBetween(start, end);
    out.sim_ms = MsBetween(sim_start, end);
    out.sim_queries = 1;

    CheckPlan(optimized.plan, generated.query, cell.policy, "trial",
              out.failures);
    Expect(FinitePositive(optimized.cost),
           "trial: estimate not finite and positive", out.failures);
    Expect(FinitePositive(executed.response_ms),
           "trial: simulated response time not finite and positive",
           out.failures);
    AddOptimizeResult(optimized, digest);
    AddExecMetrics(executed, digest);
    return out;
  }

  /// Each cell's optimized plan through the closed-loop driver, one client
  /// and one query: the query log comes from the same driver path.
  double SimCell(bool capture, Digest& digest) override {
    OptimizeGrid();
    cell_ = CellStats{};
    double ms = 0.0;
    for (const auto& entry : grid_) {
      std::vector<ClientWorkload> clients = {
          ClientWorkload{&entry->plan, &entry->query}};
      DriverConfig driver;
      driver.queries_per_client = 1;
      driver.num_batches = 1;
      driver.seed = seed_;
      driver.collect_query_log = capture;
      const Clock::time_point start = Clock::now();
      const DriverResult result = Traced("RunClosedLoop", [&] {
        return RunClosedLoop(clients, entry->system.catalog(),
                             entry->system.config(), driver);
      });
      ms += MsBetween(start, Clock::now());
      ++cell_.runs;
      cell_.AddClosed(result);
      for (const ExecMetrics& m : result.per_query) AddExecMetrics(m, digest);
    }
    return ms;
  }

  void Profile(Layers& layers, std::vector<std::string>& failures) override {
    std::vector<OptProblem> problems;
    for (std::size_t c = 0; c < grid_.size(); ++c) {
      problems.push_back(Problem(grid_[c]->system, grid_[c]->query,
                                 grid_[c]->cell.policy, Mix(seed_, 2000 + c)));
    }
    ProfileSearch(problems, layers, failures);
    layers["workload.gen_ms"] = MeanMs([&] {
      for (int c = 0; c < kSweepCells; ++c) {
        Rng rng(Mix(seed_, 1000 + static_cast<uint64_t>(c)));
        Traced("MakeChainWorkload", [&] {
          return MakeChainWorkload(SweepSpec(SweepCellAt(c).servers), rng);
        });
      }
    }) / kSweepCells;
    ProfileCell(*this, layers, failures);
  }

 private:
  struct GridEntry {
    SweepCell cell;
    ClientServerSystem system;
    QueryGraph query;
    Plan plan;  // optimized lazily by OptimizeGrid
  };

  void OptimizeGrid() {
    const OptimizerConfig effort = FigureEffort();
    for (std::size_t c = 0; c < grid_.size(); ++c) {
      GridEntry& entry = *grid_[c];
      if (!entry.plan.empty()) continue;
      Rng rng(Mix(seed_, 2000 + c));
      entry.plan = Traced("Optimize", [&] {
        return entry.system
            .Optimize(entry.query, entry.cell.policy,
                      OptimizeMetric::kResponseTime, rng, &effort)
            .plan;
      });
    }
  }

  std::vector<std::unique_ptr<GridEntry>> grid_;
};

// ---------------------------------------------------------------------------
// openloop: 1000 clients, Poisson arrivals, admission 128/512 (ext_openloop).
// ---------------------------------------------------------------------------

constexpr int kOpenClients = 1000;

struct OpenCell {
  const char* name;
  ShippingPolicy policy;
  double cached_fraction;
  double rate_qps;
  double duration_ms;
};

/// ds at a high rate (deep event queue: every client joins locally) and qs
/// at its knee (one server disk, shallow queue).
constexpr OpenCell kOpenCells[] = {
    {"ds", ShippingPolicy::kDataShipping, 1.0, 200.0, 600.0},
    {"qs", ShippingPolicy::kQueryShipping, 0.0, 0.7, 30000.0},
};

class OpenLoop : public Workload {
 public:
  void Setup(uint64_t seed) override {
    seed_ = seed;
    cells_.clear();
    for (const OpenCell& spec : kOpenCells) {
      auto cell = std::make_unique<Cell>();
      cell->spec = spec;
      Catalog catalog =
          Traced("BuildCatalog", [&] { return MakeCatalog(spec); });
      SystemConfig config;
      config.num_clients = kOpenClients;
      config.num_servers = 1;
      config.params.buf_alloc = BufAlloc::kMaximum;
      cell->system =
          std::make_unique<ClientServerSystem>(std::move(catalog), config);
      QueryGraph query = QueryGraph::Chain({0, 1});
      query.home_client = ClientSite(0);
      const OptimizerConfig effort = FigureEffort();
      Rng rng(Mix(seed, 3000));
      cell->optimized = Traced("Optimize", [&] {
        return cell->system
            ->Optimize(query, spec.policy, OptimizeMetric::kResponseTime,
                       rng, &effort)
            .plan;
      });
      CheckPlan(cell->optimized, query, spec.policy,
                std::string("setup ") + spec.name, setup_failures_);
      cell->queries.reserve(kOpenClients);
      cell->plans.reserve(kOpenClients);
      for (int c = 0; c < kOpenClients; ++c) {
        cell->queries.push_back(QueryGraph::Chain({0, 1}));
        cell->queries.back().home_client = ClientSite(c);
        cell->plans.push_back(cell->optimized.Clone());
        Traced("BindSites", [&] {
          BindSites(cell->plans.back(), cell->system->catalog(), ClientSite(c));
        });
      }
      for (int c = 0; c < kOpenClients; ++c) {
        cell->clients.push_back(
            ClientWorkload{&cell->plans[c], &cell->queries[c]});
      }
      cells_.push_back(std::move(cell));
    }
  }

  TrialResult Trial(int64_t index, Digest& digest) override {
    TrialResult out;
    for (std::size_t k = 0; k < cells_.size(); ++k) {
      const OpenLoopResult r =
          RunCell(*cells_[k], Mix(seed_, static_cast<uint64_t>(index) * 2 + k),
                  false, &out.ms);
      out.sim_queries += r.completed;
      out.accounting.push_back(OpenAccounting(r));
      CheckOpen(r, cells_[k]->spec.name, out.failures);
      AddOpen(r, digest);
    }
    out.sim_ms = out.ms;
    return out;
  }

  double SimCell(bool capture, Digest& digest) override {
    cell_ = CellStats{};
    double ms = 0.0;
    for (std::size_t k = 0; k < cells_.size(); ++k) {
      const OpenLoopResult r = RunCell(*cells_[k], Mix(seed_, k), capture, &ms);
      ++cell_.runs;
      cell_.AddOpen(r);
      AddOpen(r, digest);
    }
    return ms;
  }

  void Profile(Layers& layers, std::vector<std::string>& failures) override {
    std::vector<OptProblem> problems;
    for (const auto& cell : cells_) {
      problems.push_back(Problem(*cell->system, cell->queries[0],
                                 cell->spec.policy, Mix(seed_, 3000)));
    }
    ProfileSearch(problems, layers, failures);
    layers["workload.gen_ms"] = MeanMs([&] {
      for (const OpenCell& spec : kOpenCells) {
        Traced("BuildCatalog", [&] { return MakeCatalog(spec); });
      }
    }) / static_cast<double>(std::size(kOpenCells));
    ProfileCell(*this, layers, failures);
  }

 private:
  struct Cell {
    OpenCell spec;
    std::unique_ptr<ClientServerSystem> system;
    Plan optimized;
    std::vector<QueryGraph> queries;
    std::vector<Plan> plans;
    std::vector<ClientWorkload> clients;
  };

  static Catalog MakeCatalog(const OpenCell& spec) {
    Catalog catalog(kOpenClients);
    for (int i = 0; i < 2; ++i) {
      catalog.AddRelation("R" + std::to_string(i), 4000, 100);
      catalog.PlaceRelation(i, ServerSite(0, kOpenClients));
      for (int c = 0; c < kOpenClients; ++c) {
        catalog.SetCachedFraction(i, ClientSite(c), spec.cached_fraction);
      }
    }
    return catalog;
  }

  static OpenLoopResult RunCell(const Cell& cell, uint64_t seed, bool capture,
                                double* ms) {
    const OpenLoopConfig openloop = AdmittedPoisson(
        cell.spec.rate_qps, cell.spec.duration_ms, seed, capture);
    const Clock::time_point start = Clock::now();
    OpenLoopResult result = Traced("RunOpenLoop", [&] {
      return RunOpenLoop(cell.clients, cell.system->catalog(),
                         cell.system->config(), openloop);
    });
    *ms += MsBetween(start, Clock::now());
    return result;
  }

  static void CheckOpen(const OpenLoopResult& r, const std::string& where,
                        std::vector<std::string>& failures) {
    Expect(r.completed > 0, where + ": no query completed", failures);
    CheckResponses(r.per_query, where, failures);
  }

  std::vector<std::unique_ptr<Cell>> cells_;
};

// ---------------------------------------------------------------------------
// tail: the ext_taillat cluster at its knee, query log on.
// ---------------------------------------------------------------------------

constexpr int kTailClients = 1000;
constexpr int kTailServers = 4;
constexpr int kTailCopies = 2;
constexpr double kTailRateQps = 120.0;
constexpr double kTailDurationMs = 3000.0;

class Tail : public Workload {
 public:
  void Setup(uint64_t seed) override {
    seed_ = seed;
    Catalog catalog = Traced("BuildCatalog", [] { return MakeCatalog(); });
    SystemConfig config;
    config.num_clients = kTailClients;
    config.num_servers = kTailServers;
    config.params.num_disks = 2;
    config.params.buf_alloc = BufAlloc::kMaximum;
    system_ = std::make_unique<ClientServerSystem>(std::move(catalog), config);
    QueryGraph query = QueryGraph::Chain({0});
    query.home_client = ClientSite(0);
    const OptimizerConfig effort = FigureEffort();
    Rng rng(Mix(seed, 4000));
    optimized_ = Traced("Optimize", [&] {
      return system_
          ->Optimize(query, ShippingPolicy::kQueryShipping,
                     OptimizeMetric::kResponseTime, rng, &effort)
          .plan;
    });
    CheckPlan(optimized_, query, ShippingPolicy::kQueryShipping, "setup",
              setup_failures_);
    const Catalog& placed = system_->catalog();
    queries_.clear();
    plans_.clear();
    clients_.clear();
    queries_.reserve(kTailClients);
    plans_.reserve(kTailClients);
    for (int c = 0; c < kTailClients; ++c) {
      queries_.push_back(QueryGraph::Chain({0}));
      queries_.back().home_client = ClientSite(c);
      // Each client scans a width-1/4 key range, rotated per client, so
      // shard pruning leaves one fragment per query.
      Plan logical = optimized_.Clone();
      const double lo = static_cast<double>(c % kTailServers) / kTailServers;
      logical.ForEachMutable([&](PlanNode& node) {
        if (node.type == OpType::kScan) {
          node.key_lo = lo;
          node.key_hi = lo + 1.0 / kTailServers;
        }
      });
      plans_.push_back(PhysicalPlan(logical, placed, ClientSite(c)));
      Expect(IsFullyBound(plans_.back()), "setup: plan not bound",
             setup_failures_);
    }
    for (int c = 0; c < kTailClients; ++c) {
      clients_.push_back(ClientWorkload{&plans_[c], &queries_[c]});
    }
  }

  TrialResult Trial(int64_t index, Digest& digest) override {
    TrialResult out;
    const OpenLoopResult r =
        RunCell(Mix(seed_, static_cast<uint64_t>(index)), true, &out.sim_ms);
    const Clock::time_point start = Clock::now();
    std::vector<std::string> lines;
    lines.reserve(r.query_log.size());
    for (const QueryLogRecord& record : r.query_log) {
      lines.push_back(
          Traced("QueryLogJson", [&] { return QueryLogJson(record); }));
    }
    out.ms = out.sim_ms + MsBetween(start, Clock::now());
    out.sim_queries = r.completed;
    out.accounting.push_back(OpenAccounting(r));
    Expect(r.completed > 0, "trial: no query completed", out.failures);
    CheckResponses(r.per_query, "trial", out.failures);
    Expect(static_cast<int64_t>(r.query_log.size()) ==
               r.completed + r.shed + r.aborted,
           "trial: query log misses arrivals", out.failures);
    for (const QueryLogRecord& record : r.query_log) {
      if (record.outcome != "ok") continue;
      const double tolerance = 1e-6 * std::max(1.0, record.response_ms);
      if (std::abs(record.path.SumMs() - record.response_ms) > tolerance) {
        out.failures.push_back(
            "trial: critical path does not tile the response time");
        break;
      }
    }
    AddOpen(r, digest);
    for (const std::string& line : lines) digest.Add(line);
    return out;
  }

  double SimCell(bool capture, Digest& digest) override {
    cell_ = CellStats{};
    double ms = 0.0;
    const OpenLoopResult r = RunCell(Mix(seed_, 0), capture, &ms);
    ++cell_.runs;
    cell_.AddOpen(r);
    AddOpen(r, digest);
    return ms;
  }

  void Profile(Layers& layers, std::vector<std::string>& failures) override {
    ProfileSearch({Problem(*system_, queries_[0],
                           ShippingPolicy::kQueryShipping, Mix(seed_, 4000))},
                  layers, failures);
    layers["workload.gen_ms"] =
        MeanMs([] { Traced("BuildCatalog", [] { return MakeCatalog(); }); });
    ProfileCell(*this, layers, failures);
  }

 private:
  static Catalog MakeCatalog() {
    Catalog catalog(kTailClients);
    catalog.AddRelation("R0", 4000, 100);
    std::vector<SiteId> sites;
    for (int s = 0; s < kTailServers; ++s) {
      sites.push_back(ServerSite(s, kTailClients));
    }
    catalog.ShardRelation(0, std::move(sites), ShardScheme::kRange,
                          kTailCopies);
    return catalog;
  }

  OpenLoopResult RunCell(uint64_t seed, bool capture, double* ms) const {
    OpenLoopConfig openloop =
        AdmittedPoisson(kTailRateQps, kTailDurationMs, seed, capture);
    openloop.replica_policy = ReplicaPolicy::kLeastOutstanding;
    openloop.policy_label = "lo";
    const Clock::time_point start = Clock::now();
    OpenLoopResult result = Traced("RunOpenLoop", [&] {
      return RunOpenLoop(clients_, system_->catalog(), system_->config(),
                         openloop);
    });
    *ms += MsBetween(start, Clock::now());
    return result;
  }

  std::unique_ptr<ClientServerSystem> system_;
  Plan optimized_;
  std::vector<QueryGraph> queries_;
  std::vector<Plan> plans_;
  std::vector<ClientWorkload> clients_;
};

// ---------------------------------------------------------------------------
// closedloop_faults: closed-loop clients, renewal crashes, 2-step re-opt.
// ---------------------------------------------------------------------------

/// The trial stream cycles through these cluster sizes, so the latency
/// distribution spans a range of work (as fig_sweep's cells do) rather
/// than one size whose percentiles would measure only host noise. An odd
/// count of equally frequent sizes puts the median inside the middle size
/// and the 90th percentile inside the largest, not on a boundary between
/// two sizes.
constexpr int kFaultClientCounts[] = {8, 14, 20, 26, 32};
constexpr int kFaultSizes = static_cast<int>(std::size(kFaultClientCounts));
constexpr int kFaultQueriesPerClient = 3;
constexpr double kFaultThinkMs = 2000.0;

class ClosedLoopFaults : public Workload {
 public:
  void Setup(uint64_t seed) override {
    seed_ = seed;
    reopt_ = OptimizerConfig{};
    reopt_.policy = ShippingPolicy::kHybridShipping;
    reopt_.metric = OptimizeMetric::kResponseTime;
    reopt_.ii_starts = 4;
    clusters_.clear();
    for (const int clients : kFaultClientCounts) {
      clusters_.push_back(MakeCluster(clients, seed));
    }
  }

  /// The optimizations here (set-up, and re-optimizations inside the
  /// simulation) are two-relation searches, too small to gain from the
  /// pool. At four threads on a shared four-CPU host the pool made them
  /// slower and spread run-to-run latency by up to 2x; at one thread the
  /// same runs agreed within a few percent.
  int max_pool_threads() const override { return 1; }

  int64_t trial_block() const override { return kFaultSizes; }

  TrialResult Trial(int64_t index, Digest& digest) override {
    TrialResult out;
    const Cluster& cluster = *clusters_[index % kFaultSizes];
    const DriverResult r = RunCell(
        cluster, Mix(seed_, static_cast<uint64_t>(index)), false, &out.ms);
    out.sim_ms = out.ms;
    out.sim_queries = static_cast<int64_t>(r.completions.size());
    out.accounting.push_back(Accounting{
        "closed",
        {{"clients", cluster.clients},
         {"queries_per_client", kFaultQueriesPerClient},
         {"completions", static_cast<int64_t>(r.completions.size())}}});
    CheckResponses(r.per_query, "trial", out.failures);
    Expect(FinitePositive(r.mean_response_ms),
           "trial: mean response not finite and positive", out.failures);
    AddClosed(r, digest);
    return out;
  }

  double SimCell(bool capture, Digest& digest) override {
    cell_ = CellStats{};
    double ms = 0.0;
    for (int k = 0; k < kFaultSizes; ++k) {
      const DriverResult r =
          RunCell(*clusters_[k], Mix(seed_, k), capture, &ms);
      ++cell_.runs;
      cell_.AddClosed(r);
      AddClosed(r, digest);
    }
    return ms;
  }

  void Profile(Layers& layers, std::vector<std::string>& failures) override {
    std::vector<OptProblem> problems;
    for (const auto& cluster : clusters_) {
      OptProblem p =
          Problem(*cluster->system, cluster->queries[0],
                  ShippingPolicy::kQueryShipping, Mix(seed_, 5000));
      // Site selection as the driver runs it during recovery: hybrid
      // space, the crashed server unavailable.
      p.site_select = reopt_;
      p.site_select.unavailable_sites = {ServerSite(0, cluster->clients)};
      problems.push_back(std::move(p));
    }
    ProfileSearch(problems, layers, failures);
    layers["workload.gen_ms"] = MeanMs([] {
      for (const int clients : kFaultClientCounts) {
        Traced("BuildCatalog", [&] { return MakeCatalog(clients); });
      }
    }) / kFaultSizes;
    ProfileCell(*this, layers, failures);
  }

 private:
  struct Cluster {
    int clients = 0;
    std::unique_ptr<ClientServerSystem> system;
    std::unique_ptr<CostModel> reopt_model;
    std::vector<QueryGraph> queries;
    std::vector<Plan> plans;
    std::vector<ClientWorkload> workloads;
  };

  static Catalog MakeCatalog(int clients) {
    Catalog catalog(clients);
    for (int i = 0; i < 2; ++i) {
      catalog.AddRelation("R" + std::to_string(i), 10000, 100);
      catalog.PlaceRelation(i, ServerSite(0, clients));
      for (int c = 0; c < clients; ++c) {
        catalog.SetCachedFraction(i, ClientSite(c), 1.0);
      }
    }
    return catalog;
  }

  std::unique_ptr<Cluster> MakeCluster(int clients, uint64_t seed) {
    auto cluster = std::make_unique<Cluster>();
    cluster->clients = clients;
    Catalog catalog =
        Traced("BuildCatalog", [&] { return MakeCatalog(clients); });
    SystemConfig config;
    config.num_clients = clients;
    config.num_servers = 1;
    config.params.buf_alloc = BufAlloc::kMaximum;
    cluster->system =
        std::make_unique<ClientServerSystem>(std::move(catalog), config);
    const ClientServerSystem& system = *cluster->system;
    // The compiled plan: query shipping puts scans and join on the server,
    // so a server crash forces recovery; re-optimization searches the
    // hybrid space and can move the work to the (fully cached) clients.
    QueryGraph query = QueryGraph::Chain({0, 1});
    query.home_client = ClientSite(0);
    const OptimizerConfig effort = FigureEffort();
    Rng rng(Mix(seed, 5000));
    const Plan compiled = Traced("Optimize", [&] {
      return system
          .Optimize(query, ShippingPolicy::kQueryShipping,
                    OptimizeMetric::kResponseTime, rng, &effort)
          .plan;
    });
    CheckPlan(compiled, query, ShippingPolicy::kQueryShipping, "setup",
              setup_failures_);
    cluster->reopt_model = std::make_unique<CostModel>(system.MakeCostModel());
    cluster->queries.reserve(clients);
    cluster->plans.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      cluster->queries.push_back(QueryGraph::Chain({0, 1}));
      cluster->queries.back().home_client = ClientSite(c);
      cluster->plans.push_back(compiled.Clone());
      Traced("BindSites", [&] {
        BindSites(cluster->plans.back(), system.catalog(), ClientSite(c));
      });
    }
    for (int c = 0; c < clients; ++c) {
      cluster->workloads.push_back(
          ClientWorkload{&cluster->plans[c], &cluster->queries[c],
                         cluster->reopt_model.get(), &reopt_});
    }
    return cluster;
  }

  /// An outage at t=0 (so every run exercises detection, retry and
  /// re-optimization) on top of a seeded renewal crash process.
  static std::string CrashSpec(int clients, uint64_t seed) {
    const std::string site = std::to_string(ServerSite(0, clients));
    return "crash:site=" + site + ",at=0,for=3000;crash:site=" + site +
           ",mtbf=10000,mttr=5000,seed=" + std::to_string(seed % 1000000007);
  }

  static DriverResult RunCell(const Cluster& cluster, uint64_t seed,
                              bool capture, double* ms) {
    const sim::FaultSchedule faults =
        sim::ParseFaultSpec(CrashSpec(cluster.clients, seed));
    SystemConfig config = cluster.system->config();
    config.faults = &faults;
    DriverConfig driver;
    driver.queries_per_client = kFaultQueriesPerClient;
    driver.think_time_mean_ms = kFaultThinkMs;
    driver.warmup_queries = cluster.clients;
    driver.num_batches = 6;
    driver.seed = seed;
    driver.retry.reoptimize = true;
    driver.collect_query_log = capture;
    const Clock::time_point start = Clock::now();
    DriverResult result = Traced("RunClosedLoop", [&] {
      return RunClosedLoop(cluster.workloads, cluster.system->catalog(),
                           config, driver);
    });
    *ms += MsBetween(start, Clock::now());
    return result;
  }

  static void AddClosed(const DriverResult& r, Digest& digest) {
    for (const Completion& c : r.completions) {
      digest.Add(static_cast<int64_t>(c.ticket));
      digest.Add(static_cast<int64_t>(c.client));
      digest.Add(c.submit_ms);
      digest.Add(c.complete_ms);
    }
    for (const ExecMetrics& m : r.per_query) AddExecMetrics(m, digest);
    digest.Add(r.total_retries);
    digest.Add(r.total_reopts);
    digest.Add(r.abort_rate);
    digest.Add(r.makespan_ms);
    digest.Add(r.mean_response_ms);
    AddTotals(r.totals, digest);
  }

  OptimizerConfig reopt_;
  std::vector<std::unique_ptr<Cluster>> clusters_;
};

}  // namespace

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "fig_sweep") return std::make_unique<FigSweep>();
  if (name == "openloop") return std::make_unique<OpenLoop>();
  if (name == "tail") return std::make_unique<Tail>();
  if (name == "closedloop_faults") return std::make_unique<ClosedLoopFaults>();
  return nullptr;
}

}  // namespace perfbench
