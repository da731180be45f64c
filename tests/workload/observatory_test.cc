// Driver-level observability: run-level bottleneck rollups in the closed-
// and open-loop drivers, the admission-control telemetry gauges, and the
// driver.* metrics counters.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/metrics.h"
#include "plan/binding.h"
#include "plan/plan.h"
#include "sim/telemetry.h"
#include "workload/driver.h"

namespace dimsum {
namespace {

Catalog SmallCatalog(int num_clients, int relations, double cached) {
  Catalog catalog(num_clients);
  for (int i = 0; i < relations; ++i) {
    catalog.AddRelation("R" + std::to_string(i), 2000, 100);
    catalog.PlaceRelation(i, ServerSite(0, num_clients));
    for (int c = 0; c < num_clients; ++c) {
      catalog.SetCachedFraction(i, ClientSite(c), cached);
    }
  }
  return catalog;
}

struct Workload {
  Catalog catalog;
  SystemConfig config;
  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  std::vector<ClientWorkload> clients;
};

/// Per-client single-relation scan; `cached` selects client-local (DS)
/// versus server-side (QS) execution.
Workload ScanWorkload(int num_clients, bool cached) {
  Workload w{SmallCatalog(num_clients, 1, cached ? 1.0 : 0.0), {}, {}, {}, {}};
  w.config.num_clients = num_clients;
  w.config.num_servers = 1;
  w.plans.reserve(num_clients);
  w.queries.reserve(num_clients);
  for (int c = 0; c < num_clients; ++c) {
    w.queries.push_back(QueryGraph::Chain({0}));
    w.queries.back().home_client = ClientSite(c);
    w.plans.emplace_back(MakeDisplay(MakeScan(
        0, cached ? SiteAnnotation::kClient : SiteAnnotation::kPrimaryCopy)));
    BindSites(w.plans.back(), w.catalog, ClientSite(c));
  }
  for (int c = 0; c < num_clients; ++c) {
    w.clients.push_back(ClientWorkload{&w.plans[c], &w.queries[c]});
  }
  return w;
}

OpenLoopConfig PoissonConfig(double rate_qps, double duration_ms) {
  OpenLoopConfig openloop;
  openloop.arrival.kind = ArrivalKind::kPoisson;
  openloop.arrival.rate_per_sec = rate_qps;
  openloop.duration_ms = duration_ms;
  openloop.num_batches = 4;
  openloop.seed = 7;
  return openloop;
}

TEST(ObservatoryTest, ClosedLoopRollupAttributesTheRun) {
  Workload w = ScanWorkload(4, /*cached=*/false);
  DriverConfig driver;
  driver.queries_per_client = 3;
  driver.think_time_mean_ms = 0.0;
  driver.warmup_queries = 0;
  const DriverResult r =
      RunClosedLoop(w.clients, w.catalog, w.config, driver);
  ASSERT_FALSE(r.bottleneck.empty());
  // Every query ran its submitted plan: all twelve fold into the rollup.
  EXPECT_EQ(r.bottleneck.queries, 12);
  EXPECT_DOUBLE_EQ(r.bottleneck.response_ms, r.makespan_ms);
  EXPECT_GT(r.bottleneck.attributed_ms, 0.0);
  // Four QS clients scanning one uncached server relation contend for the
  // server's disk: the dominant triple names it, mostly queueing.
  const BottleneckBucket* dominant = r.bottleneck.dominant();
  ASSERT_NE(dominant, nullptr);
  EXPECT_EQ(dominant->resource, BottleneckResource::kDisk);
  EXPECT_EQ(dominant->site, ServerSite(0, 4));
  EXPECT_TRUE(r.bottleneck.dominant_is_queueing());
  const std::string summary = r.bottleneck.Summary(/*num_clients=*/4);
  EXPECT_NE(summary.find("server disk queueing"), std::string::npos)
      << summary;
}

TEST(ObservatoryTest, OpenLoopRollupAndAdmissionGauges) {
  Workload w = ScanWorkload(4, /*cached=*/false);
  sim::TelemetrySampler telemetry(5.0);
  w.config.telemetry = &telemetry;
  const OpenLoopResult r = RunOpenLoop(w.clients, w.catalog, w.config,
                                       PoissonConfig(40.0, 2'000.0));
  ASSERT_GT(r.completed, 0);
  ASSERT_FALSE(r.bottleneck.empty());
  EXPECT_EQ(r.bottleneck.queries, r.completed);
  EXPECT_GT(r.bottleneck.attributed_ms, 0.0);

  // The driver registered admission gauges alongside the resource probes.
  ASSERT_TRUE(telemetry.finalized());
  std::ostringstream out;
  telemetry.WriteJson(out);
  std::string error;
  const auto doc = JsonValue::Parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  bool in_flight = false;
  bool pending = false;
  for (const JsonValue& series : doc->Find("series")->array_items()) {
    if (series.Find("resource")->string_value() != "admission") continue;
    const std::string metric = series.Find("metric")->string_value();
    in_flight = in_flight || metric == "in_flight";
    pending = pending || metric == "pending";
    EXPECT_EQ(series.Find("kind")->string_value(), "gauge");
  }
  EXPECT_TRUE(in_flight);
  EXPECT_TRUE(pending);
}

TEST(ObservatoryTest, DriverCountersReachTheRegistry) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  registry.set_enabled(true);

  Workload w = ScanWorkload(2, /*cached=*/true);
  const OpenLoopResult r = RunOpenLoop(w.clients, w.catalog, w.config,
                                       PoissonConfig(20.0, 1'000.0));
  EXPECT_EQ(registry.counter("driver.arrivals").value(), r.arrivals);
  EXPECT_EQ(registry.counter("driver.dispatched").value(), r.dispatched);
  EXPECT_EQ(registry.counter("driver.completions").value(), r.completed);
  EXPECT_EQ(registry.counter("driver.shed").value(), r.shed);
  EXPECT_EQ(registry.counter("driver.aborted").value(), r.aborted);
  EXPECT_EQ(registry.gauge("driver.peak_pending").value(),
            static_cast<double>(r.peak_pending));

  DriverConfig driver;
  driver.queries_per_client = 2;
  driver.think_time_mean_ms = 0.0;
  driver.warmup_queries = 0;
  RunClosedLoop(w.clients, w.catalog, w.config, driver);
  EXPECT_EQ(registry.counter("driver.completions").value(),
            r.completed + 4);

  registry.Reset();
  registry.set_enabled(false);
}

}  // namespace
}  // namespace dimsum
