// Extension: cost-model calibration harness. For every configuration of a
// (query size x shipping policy x cache state) sweep, optimize a chain
// join, cost the chosen plan with per-operator estimate capture, execute
// it with per-operator actual collection, and join the two sides into an
// EXPLAIN ANALYZE report (core/report.h). The recorded series quantifies
// how far the GHK92-style analytic model strays from the detailed
// simulator -- per configuration (response-time and total-cost relative
// error) and within each plan (mean/max per-operator error), so model
// regressions show up as calibration drift rather than silent plan-quality
// loss.
//
// Deterministic: round-robin placement, fixed seed, results bit-identical
// for any DIMSUM_THREADS.
//
// Writes BENCH_calibration.json; pass --smoke for the reduced CI
// configuration. CI gates on the mean response-time relative error (see
// tools/check_bench.py and the workflow's calibration step).

#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "cost/response_time.h"

using namespace dimsum;
using namespace dimsum::bench;

namespace {

constexpr int kServers = 2;

struct Point {
  std::string policy;
  int relations = 0;
  double cached = 0.0;
  double est_response_ms = 0.0;
  double sim_response_ms = 0.0;
  double response_rel_err = 0.0;  // |est - sim| / sim
  double est_total_ms = 0.0;
  double sim_total_ms = 0.0;
  double total_rel_err = 0.0;
  double mean_op_rel_err = 0.0;  // mean |symmetric err| over active ops
  double max_op_rel_err = 0.0;
};

const char* PolicyName(ShippingPolicy policy) {
  switch (policy) {
    case ShippingPolicy::kDataShipping:
      return "ds";
    case ShippingPolicy::kQueryShipping:
      return "qs";
    case ShippingPolicy::kHybridShipping:
      return "hy";
  }
  return "?";
}

double RelErr(double est, double sim) {
  return sim > 0.0 ? std::abs(est - sim) / sim : 0.0;
}

Point RunConfig(int relations, ShippingPolicy policy, double cached) {
  WorkloadSpec spec;
  spec.num_relations = relations;
  spec.num_servers = kServers;
  spec.cached_fraction = cached;
  BenchmarkWorkload workload = MakeChainWorkloadRoundRobin(spec);

  SystemConfig config;
  config.num_servers = kServers;
  config.params.buf_alloc = BufAlloc::kMinimum;
  config.collect_histograms = MetricsRegistry::Global().enabled();

  ClientServerSystem system(std::move(workload.catalog), config);
  const OptimizerConfig opt = HarnessOptimizer();
  auto result = system.Run(workload.query, policy,
                           OptimizeMetric::kResponseTime, /*seed=*/1, &opt);

  // Re-cost the chosen plan with estimate capture; the returned numbers
  // are identical to what the optimizer saw (collection is side-band).
  PlanEstimate est;
  EstimateTime(result.optimize.plan, system.catalog(), workload.query,
               system.config().params, system.ServerDiskUtilization(), &est);
  const ExplainReport report = BuildExplainReport(est, result.execute);

  Point point;
  point.policy = PolicyName(policy);
  point.relations = relations;
  point.cached = cached;
  point.est_response_ms = report.est_response_ms;
  point.sim_response_ms = report.act_response_ms;
  point.response_rel_err =
      RelErr(report.est_response_ms, report.act_response_ms);
  point.est_total_ms = report.est_total_ms;
  point.sim_total_ms = report.act_total_ms;
  point.total_rel_err = RelErr(report.est_total_ms, report.act_total_ms);
  point.mean_op_rel_err = report.mean_op_err;
  point.max_op_rel_err = report.max_op_err;
  return point;
}

void WriteJson(const std::string& path, const BenchMeta& meta,
               const std::vector<Point>& points) {
  std::ofstream out(path);
  out << "{\"meta\": " << BenchMetaJson(meta) << ",\n \"records\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    out << "  {\"policy\": \"" << p.policy
        << "\", \"relations\": " << p.relations << ", \"cached\": " << p.cached
        << ", \"est_response_ms\": " << p.est_response_ms
        << ", \"sim_response_ms\": " << p.sim_response_ms
        << ", \"response_rel_err\": " << p.response_rel_err
        << ", \"est_total_ms\": " << p.est_total_ms
        << ", \"sim_total_ms\": " << p.sim_total_ms
        << ", \"total_rel_err\": " << p.total_rel_err
        << ", \"mean_op_rel_err\": " << p.mean_op_rel_err
        << ", \"max_op_rel_err\": " << p.max_op_rel_err << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  if (MetricsRegistry::Global().enabled()) {
    MetricsRegistry::Global().WriteJsonFile("BENCH_calibration.metrics.json");
  }
}

}  // namespace

int main(int argc, char** argv) {
  ApplyThreadFlag(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::vector<int> sizes =
      smoke ? std::vector<int>{2, 6} : std::vector<int>{2, 6, 10};
  const std::vector<double> cache_states{0.0, 1.0};

  std::cout << "==== Extension: cost-model calibration ====\n"
            << "chain joins on " << kServers
            << " servers, round-robin placement, minimum allocation;\n"
               "estimated vs simulated response time / total cost, with\n"
               "per-operator attribution error from EXPLAIN ANALYZE\n\n";

  std::vector<Point> points;
  ReportTable table({"policy", "rels", "cached", "est resp [s]",
                     "sim resp [s]", "resp err", "total err", "op err mean",
                     "op err max"});
  double err_sum = 0.0;
  double err_max = 0.0;
  for (const int relations : sizes) {
    for (const double cached : cache_states) {
      for (const ShippingPolicy policy :
           {ShippingPolicy::kDataShipping, ShippingPolicy::kQueryShipping,
            ShippingPolicy::kHybridShipping}) {
        const Point p = RunConfig(relations, policy, cached);
        points.push_back(p);
        err_sum += p.response_rel_err;
        err_max = std::max(err_max, p.response_rel_err);
        table.AddRow({p.policy, std::to_string(p.relations), Fmt(p.cached, 1),
                      Fmt(p.est_response_ms / 1000.0),
                      Fmt(p.sim_response_ms / 1000.0),
                      Fmt(p.response_rel_err * 100.0, 1) + " %",
                      Fmt(p.total_rel_err * 100.0, 1) + " %",
                      Fmt(p.mean_op_rel_err * 100.0, 1) + " %",
                      Fmt(p.max_op_rel_err * 100.0, 1) + " %"});
      }
    }
  }
  table.Print(std::cout);
  const double mean_err = err_sum / static_cast<double>(points.size());
  std::cout << "\nmean response-time relative error "
            << Fmt(mean_err * 100.0, 1) << " %, max "
            << Fmt(err_max * 100.0, 1)
            << " % (the model is deliberately optimistic: full overlap "
               "within a\nphase, no cross-operator disk queueing)\n";
  WriteJson("BENCH_calibration.json",
            MakeBenchMeta("dimsum.bench.calibration.v1",
                          std::string("chain est-vs-sim, servers=2, ") +
                              (smoke ? "smoke" : "full")),
            points);
  std::cout << "\nWrote BENCH_calibration.json\n";
  return 0;
}
