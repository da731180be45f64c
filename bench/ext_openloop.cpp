// Extension: open-loop arrivals at 1000-client scale. The paper (and the
// closed-loop driver in workload/driver.h) paces each client by think
// time, so offered load self-throttles as the system saturates. Here the
// arrival process is *open*: queries arrive at rate lambda regardless of
// completions (web-front-end traffic), are assigned round-robin to 1000
// fully simulated client sites, and pass admission control -- a bounded
// in-flight window plus a bounded pending queue that sheds overflow --
// before executing.
//
// The sweep crosses arrival rate with the shipping policy of every
// client's 2-way join:
//   qs  cold caches, join at the server (query shipping): the single
//       server disk is the bottleneck; past its service rate the pending
//       queue fills and arrivals are shed.
//   ds  warm caches, join at the client (data shipping): each query runs
//       on its own client's resources, so capacity scales with the client
//       population and the same lambda stays uncongested.
//   hy  hybrid: outer relation cached at the client, inner scanned at the
//       server, join at the client.
//
// Writes BENCH_openloop.json; pass --smoke for the reduced CI sweep.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "core/report.h"
#include "exec/runtime.h"
#include "plan/binding.h"
#include "plan/plan.h"
#include "plan/query.h"
#include "workload/driver.h"

using namespace dimsum;

namespace {

constexpr int kNumClients = 1000;

struct Point {
  std::string policy;
  double rate_qps = 0.0;
  OpenLoopResult result;
};

/// Runs one (policy, lambda) cell: Poisson arrivals at `rate_qps` for
/// `duration_ms`, round-robin over kNumClients clients, each issuing the
/// same 2-way join under the given shipping policy.
Point RunConfig(const std::string& policy, double rate_qps,
                double duration_ms, int warmup) {
  SiteAnnotation scan0 = SiteAnnotation::kPrimaryCopy;
  SiteAnnotation scan1 = SiteAnnotation::kPrimaryCopy;
  SiteAnnotation join = SiteAnnotation::kInnerRel;
  double cached0 = 0.0;
  double cached1 = 0.0;
  if (policy == "ds") {
    scan0 = scan1 = SiteAnnotation::kClient;
    join = SiteAnnotation::kConsumer;
    cached0 = cached1 = 1.0;
  } else if (policy == "hy") {
    scan0 = SiteAnnotation::kClient;  // outer: client cache
    join = SiteAnnotation::kConsumer;
    cached0 = 1.0;
  } else {
    DIMSUM_CHECK(policy == "qs");
  }

  Catalog catalog(kNumClients);
  catalog.AddRelation("R0", 4000, 100);
  catalog.AddRelation("R1", 4000, 100);
  for (int i = 0; i < 2; ++i) {
    catalog.PlaceRelation(i, ServerSite(0, kNumClients));
  }
  for (int c = 0; c < kNumClients; ++c) {
    catalog.SetCachedFraction(0, ClientSite(c), cached0);
    catalog.SetCachedFraction(1, ClientSite(c), cached1);
  }
  SystemConfig config;
  config.num_clients = kNumClients;
  config.num_servers = 1;
  config.params.buf_alloc = BufAlloc::kMaximum;
  config.collect_histograms = MetricsRegistry::Global().enabled();

  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  plans.reserve(kNumClients);
  queries.reserve(kNumClients);
  for (int c = 0; c < kNumClients; ++c) {
    queries.push_back(QueryGraph::Chain({0, 1}));
    queries.back().home_client = ClientSite(c);
    plans.emplace_back(
        MakeDisplay(MakeJoin(MakeScan(0, scan0), MakeScan(1, scan1), join)));
    BindSites(plans.back(), catalog, ClientSite(c));
  }
  std::vector<ClientWorkload> clients;
  clients.reserve(kNumClients);
  for (int c = 0; c < kNumClients; ++c) {
    clients.push_back(ClientWorkload{&plans[c], &queries[c]});
  }

  OpenLoopConfig openloop;
  openloop.arrival.kind = ArrivalKind::kPoisson;
  openloop.arrival.rate_per_sec = rate_qps;
  openloop.admission.max_in_flight = 128;
  openloop.admission.max_pending = 512;
  openloop.duration_ms = duration_ms;
  openloop.warmup_completions = warmup;
  openloop.num_batches = 8;
  openloop.seed = 42;

  Point point;
  point.policy = policy;
  point.rate_qps = rate_qps;
  point.result = RunOpenLoop(clients, catalog, config, openloop);
  return point;
}

/// BENCH_openloop.json: one record per (policy, lambda) cell, plus the
/// sibling metrics snapshot when DIMSUM_METRICS is armed.
void WriteJson(const std::string& path, const bench::BenchMeta& meta,
               const std::vector<Point>& points) {
  std::ofstream out(path);
  out << "{\"meta\": " << bench::BenchMetaJson(meta) << ",\n \"records\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const OpenLoopResult& r = p.result;
    out << "  {\"policy\": \"" << p.policy << "\", \"arrival\": \"poisson\""
        << ", \"rate_qps\": " << p.rate_qps << ", \"clients\": " << kNumClients
        << ", \"offered_qps\": " << r.offered_qps
        << ", \"throughput_qps\": " << r.throughput_qps
        << ", \"mean_response_ms\": " << r.mean_response_ms
        << ", \"response_ci90_ms\": " << r.response_ci90_ms
        << ", \"mean_queue_wait_ms\": " << r.mean_queue_wait_ms
        << ", \"arrivals\": " << r.arrivals
        << ", \"dispatched\": " << r.dispatched << ", \"shed\": " << r.shed
        << ", \"aborted\": " << r.aborted
        << ", \"peak_in_flight\": " << r.peak_in_flight
        << ", \"peak_pending\": " << r.peak_pending
        << ", \"processed_events\": " << r.processed_events
        << ", \"peak_event_queue_depth\": " << r.peak_event_queue_depth
        << ", \"bottleneck\": \"" << r.bottleneck.Summary(kNumClients)
        << "\"}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  if (MetricsRegistry::Global().enabled()) {
    MetricsRegistry::Global().WriteJsonFile("BENCH_openloop.metrics.json");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::ApplyThreadFlag(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::vector<double> rates =
      smoke ? std::vector<double>{20.0, 100.0}
            : std::vector<double>{20.0, 50.0, 100.0, 200.0};
  const double duration_ms = smoke ? 5'000.0 : 30'000.0;
  const int warmup = smoke ? 20 : 50;

  std::cout << "==== Extension: open-loop arrivals, " << kNumClients
            << " clients ====\n"
            << "Poisson arrivals at lambda q/s round-robin over "
            << kNumClients << " clients, 2-way join per query;\n"
            << "admission: 128 in flight, 512 pending, overflow shed. "
               "Response measured from arrival.\n\n";

  std::vector<Point> points;
  ReportTable table({"policy", "lambda", "offered", "done qps", "resp [ms]",
                     "wait [ms]", "shed", "peak pend"});
  for (double rate : rates) {
    for (const std::string policy : {"qs", "hy", "ds"}) {
      Point p = RunConfig(policy, rate, duration_ms, warmup);
      const OpenLoopResult& r = p.result;
      table.AddRow({policy, Fmt(rate), Fmt(r.offered_qps),
                    Fmt(r.throughput_qps),
                    FmtCi(r.mean_response_ms, r.response_ci90_ms, 0),
                    Fmt(r.mean_queue_wait_ms),
                    std::to_string(r.shed),
                    std::to_string(r.peak_pending)});
      points.push_back(std::move(p));
    }
  }
  table.Print(std::cout);

  std::cout << "\nbottleneck attribution (dominant resource, site, queueing "
               "vs service per cell):\n";
  for (const Point& p : points) {
    std::cout << "  " << p.policy << " @ " << Fmt(p.rate_qps, 0)
              << " q/s: " << p.result.bottleneck.Summary(kNumClients) << "\n";
  }

  WriteJson("BENCH_openloop.json",
            bench::MakeBenchMeta("dimsum.bench.openloop.v1",
                                 std::string("poisson sweep, 1000 clients, ") +
                                     (smoke ? "smoke" : "full")),
            points);

  std::cout << "\nAn open loop does not self-throttle: when lambda exceeds "
               "the service rate the\npending queue fills and admission "
               "control sheds the excess -- visible above as\nqs shedding "
               "at high lambda while ds, whose capacity scales with the "
               "client\npopulation, absorbs the same offered load.\n";
  // Attribute the qs saturation knee with numbers: at the highest offered
  // rate, every query funnels through the one server disk, so the
  // attribution should name server-disk queueing as dominant.
  const Point* qs_knee = nullptr;
  for (const Point& p : points) {
    if (p.policy == "qs" &&
        (qs_knee == nullptr || p.rate_qps > qs_knee->rate_qps)) {
      qs_knee = &p;
    }
  }
  if (qs_knee != nullptr && !qs_knee->result.bottleneck.empty()) {
    std::cout << "\nThe qs knee, attributed: at lambda="
              << Fmt(qs_knee->rate_qps, 0) << " q/s the run was "
              << qs_knee->result.bottleneck.Summary(kNumClients) << ".\n";
  }
  std::cout << "\nWrote BENCH_openloop.json\n";
  return 0;
}
