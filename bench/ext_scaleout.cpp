// Extension: replica-aware scale-out of the query-shipping saturation
// knee. ext_openloop showed that under open-loop arrivals the QS policy
// saturates at the single server's disk service rate: past the knee the
// pending queue fills, admission control sheds, and bottleneck
// attribution names server-disk queueing as dominant. This harness asks
// the capacity question that follows: does adding servers *with
// replicated relations and submission-time load balancing* actually move
// that knee?
//
// The sweep crosses arrival rate lambda with cluster shape:
//   servers x degree    placement
//   1 x 1               baseline: both relations on the one server
//   2 x 1               partitioned: R0@S0, R1@S1 (no copies; the join
//                       site still serializes most of the work)
//   2 x 2, 4 x 4        fully replicated: every relation on every server,
//                       least-outstanding replica selection spreads whole
//                       queries across the copies
//   4 x 1               partitioned over 4 (only 2 relations: 2 idle)
//
// Every query is the same cold-cache QS 2-way join issued round-robin
// over 1000 fully simulated client sites. Expected shape: at the former
// knee the replicated configurations complete what arrives; saturation
// throughput rises monotonically 1 -> 2 -> 4 servers, and the server-disk
// queueing share of attributed time collapses.
//
// Writes BENCH_scaleout.json; pass --smoke for the reduced CI sweep.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "core/bottleneck.h"
#include "core/report.h"
#include "exec/runtime.h"
#include "plan/binding.h"
#include "plan/plan.h"
#include "plan/query.h"
#include "workload/driver.h"

using namespace dimsum;

namespace {

constexpr int kNumClients = 1000;

struct Shape {
  int servers = 1;
  int degree = 1;  // copies per relation, round-robin from the primary
};

struct Point {
  Shape shape;
  double rate_qps = 0.0;
  double server_disk_queueing_share = 0.0;
  OpenLoopResult result;
};

/// Share of run-attributed time spent *queueing* for disks at server
/// sites: the numeric fingerprint of the QS knee (ext_openloop's dominant
/// bucket), comparable across cluster shapes.
double ServerDiskQueueingShare(const BottleneckReport& report) {
  if (report.attributed_ms <= 0.0) return 0.0;
  double queueing = 0.0;
  for (const BottleneckBucket& b : report.buckets) {
    if (b.resource == BottleneckResource::kDisk && b.site >= kNumClients) {
      queueing += b.queueing_ms;
    }
  }
  return queueing / report.attributed_ms;
}

/// Runs one (shape, lambda) cell: Poisson arrivals at `rate_qps` for
/// `duration_ms`, round-robin over kNumClients clients, each issuing the
/// same cold-cache QS 2-way join; least-outstanding replica selection at
/// submission (a no-op when degree == 1).
Point RunConfig(const Shape& shape, double rate_qps, double duration_ms,
                int warmup) {
  Catalog catalog(kNumClients);
  catalog.AddRelation("R0", 4000, 100);
  catalog.AddRelation("R1", 4000, 100);
  for (int i = 0; i < 2; ++i) {
    for (int copy = 0; copy < shape.degree; ++copy) {
      catalog.PlaceRelation(
          i, ServerSite((i + copy) % shape.servers, kNumClients));
    }
  }
  SystemConfig config;
  config.num_clients = kNumClients;
  config.num_servers = shape.servers;
  // Two disks per site: each server holds at most one relation extent per
  // disk, so a co-located (fully replicated) join still scans both
  // relations sequentially instead of seeking between extents.
  config.params.num_disks = 2;
  config.params.buf_alloc = BufAlloc::kMaximum;
  config.collect_histograms = MetricsRegistry::Global().enabled();

  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  plans.reserve(kNumClients);
  queries.reserve(kNumClients);
  for (int c = 0; c < kNumClients; ++c) {
    queries.push_back(QueryGraph::Chain({0, 1}));
    queries.back().home_client = ClientSite(c);
    plans.emplace_back(MakeDisplay(
        MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                 MakeScan(1, SiteAnnotation::kPrimaryCopy),
                 SiteAnnotation::kInnerRel)));
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
  openloop.replica_policy = ReplicaPolicy::kLeastOutstanding;

  Point point;
  point.shape = shape;
  point.rate_qps = rate_qps;
  point.result = RunOpenLoop(clients, catalog, config, openloop);
  point.server_disk_queueing_share =
      ServerDiskQueueingShare(point.result.bottleneck);
  return point;
}

/// BENCH_scaleout.json: one record per (servers, degree, lambda) cell,
/// plus the sibling metrics snapshot when DIMSUM_METRICS is armed.
void WriteJson(const std::string& path, const bench::BenchMeta& meta,
               const std::vector<Point>& points) {
  std::ofstream out(path);
  out << "{\"meta\": " << bench::BenchMetaJson(meta) << ",\n \"records\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const OpenLoopResult& r = p.result;
    out << "  {\"servers\": " << p.shape.servers
        << ", \"replicas\": " << p.shape.degree
        << ", \"policy\": \"lo\", \"arrival\": \"poisson\""
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
        << ", \"server_disk_queueing_share\": "
        << p.server_disk_queueing_share
        << ", \"bottleneck\": \"" << r.bottleneck.Summary(kNumClients)
        << "\"}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  if (MetricsRegistry::Global().enabled()) {
    MetricsRegistry::Global().WriteJsonFile("BENCH_scaleout.metrics.json");
  }
}

const Point* Find(const std::vector<Point>& points, int servers, int degree,
                  double rate) {
  for (const Point& p : points) {
    if (p.shape.servers == servers && p.shape.degree == degree &&
        p.rate_qps == rate) {
      return &p;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ApplyThreadFlag(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::vector<double> rates =
      smoke ? std::vector<double>{4.0, 100.0}
            : std::vector<double>{4.0, 20.0, 100.0, 200.0};
  const double duration_ms = smoke ? 5'000.0 : 30'000.0;
  const int warmup = smoke ? 5 : 20;
  const std::vector<Shape> shapes = {
      {1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 4},
  };

  std::cout << "==== Extension: replica-aware scale-out, " << kNumClients
            << " clients ====\n"
            << "Cold-cache QS 2-way join under Poisson arrivals; servers x "
               "replication degree\nsweep with least-outstanding replica "
               "selection at submission. Degree 1 keeps\nthe pre-replication "
               "submission path bit for bit.\n\n";

  std::vector<Point> points;
  ReportTable table({"servers", "deg", "lambda", "offered", "done qps",
                     "resp [ms]", "shed", "srv disk q"});
  for (const Shape& shape : shapes) {
    for (double rate : rates) {
      Point p = RunConfig(shape, rate, duration_ms, warmup);
      const OpenLoopResult& r = p.result;
      table.AddRow({std::to_string(shape.servers),
                    std::to_string(shape.degree), Fmt(rate, 0),
                    Fmt(r.offered_qps), Fmt(r.throughput_qps),
                    FmtCi(r.mean_response_ms, r.response_ci90_ms, 0),
                    std::to_string(r.shed),
                    Fmt(p.server_disk_queueing_share)});
      points.push_back(std::move(p));
    }
  }
  table.Print(std::cout);

  // The knee, quantified: saturation throughput of the replicated
  // configurations at the top offered rate must rise with server count,
  // and the server-disk queueing share at the former knee must fall.
  const double top = rates.back();
  const Point* base = Find(points, 1, 1, top);
  const Point* two = Find(points, 2, 2, top);
  const Point* four = Find(points, 4, 4, top);
  std::cout << "\nSaturation throughput at lambda=" << Fmt(top, 0)
            << " q/s (replicated shapes):\n";
  for (const Point* p : {base, two, four}) {
    if (p == nullptr) continue;
    std::cout << "  " << p->shape.servers << " server(s) x degree "
              << p->shape.degree << ": " << Fmt(p->result.throughput_qps)
              << " q/s done, " << p->result.shed << " shed, server disk "
              << "queueing share " << Fmt(p->server_disk_queueing_share)
              << "\n";
  }
  if (base != nullptr && two != nullptr && four != nullptr) {
    const bool monotone =
        base->result.throughput_qps < two->result.throughput_qps &&
        two->result.throughput_qps < four->result.throughput_qps;
    std::cout << (monotone
                      ? "\nThe knee moves: adding replicated servers raises "
                        "saturation throughput\nmonotonically 1 -> 2 -> 4.\n"
                      : "\nWARNING: saturation throughput is NOT monotone in "
                        "server count; the knee\ndid not move as expected.\n");
  }
  const double former_knee = smoke ? 100.0 : 100.0;
  const Point* knee_base = Find(points, 1, 1, former_knee);
  const Point* knee_four = Find(points, 4, 4, former_knee);
  if (knee_base != nullptr && knee_four != nullptr) {
    std::cout << "\nAt the former knee (lambda=" << Fmt(former_knee, 0)
              << "): server disk queueing share "
              << Fmt(knee_base->server_disk_queueing_share) << " (1x1) -> "
              << Fmt(knee_four->server_disk_queueing_share) << " (4x4); "
              << (knee_four->server_disk_queueing_share <
                          knee_base->server_disk_queueing_share
                      ? "the disk queue drains."
                      : "WARNING: share did not drop.")
              << "\n";
  }

  std::string config_text = std::string("scaleout, 1000 clients, ") +
                            (smoke ? "smoke" : "full") + ", shapes 1x1 2x1 "
                            "2x2 4x1 4x4, lo policy";
  WriteJson("BENCH_scaleout.json",
            bench::MakeBenchMeta("dimsum.bench.scaleout.v1", config_text),
            points);
  std::cout << "\nWrote BENCH_scaleout.json\n";
  return 0;
}
