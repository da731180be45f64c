// Golden bit-identity corpus for the two workload drivers. Each cell runs
// RunClosedLoop or RunOpenLoop on a small fixed cluster and renders every
// output the drivers fold -- completions, per-query metrics, run totals,
// bottleneck attribution, the warmup/batch-means estimate, the
// healthy/degraded split, admission counters, and every query-log record
// as its dimsum.querylog.v1 JSON line -- with doubles printed as hexfloats.
// The matrix spans the three replica policies, range shards with two
// copies each, a crash schedule with retries and re-optimization,
// admission control that sheds and aborts, bursty and diurnal arrivals,
// and runs with the query log on and off. Any change in event order,
// fold order or record construction fails here even when it moves a
// figure by one ulp.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cost/cost_model.h"
#include "opt/optimizer.h"
#include "plan/binding.h"
#include "plan/plan.h"
#include "plan/shard.h"
#include "sim/fault.h"
#include "workload/driver.h"
#include "workload/querylog.h"

namespace dimsum {
namespace {

constexpr int kClients = 2;

/// Renders one keyed row of values per line, doubles as hexfloats.
class Dump {
 public:
  Dump& Row(const std::string& key) {
    if (!text_.empty()) text_ += '\n';
    text_ += key;
    return *this;
  }
  Dump& F(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %a", value);
    text_ += buf;
    return *this;
  }
  Dump& I(int64_t value) {
    text_ += ' ';
    text_ += std::to_string(value);
    return *this;
  }
  template <typename Map>
  Dump& Sites(const Map& per_site) {
    for (const auto& [site, value] : per_site) I(site).F(value);
    return *this;
  }
  Dump& Stat(const RunningStat& stat) {
    return I(stat.count()).F(stat.mean()).F(stat.variance());
  }
  std::string Finish() { return text_ + '\n'; }

 private:
  std::string text_;
};

/// The fields both drivers' results carry.
template <typename Result>
void DumpShared(Dump& d, const Result& r) {
  for (std::size_t t = 0; t < r.per_query.size(); ++t) {
    const ExecMetrics& m = r.per_query[t];
    d.Row("query")
        .I(static_cast<int64_t>(t))
        .F(m.response_ms)
        .I(m.data_pages_sent)
        .I(m.messages)
        .I(m.bytes_sent)
        .F(m.network_busy_ms)
        .F(m.network_wait_ms)
        .F(m.fault_stall_ms)
        .I(m.retransmits)
        .I(static_cast<int64_t>(m.operator_actuals.size()))
        .I(static_cast<int64_t>(m.disk.reads))
        .I(static_cast<int64_t>(m.disk.cache_hits));
    d.Row(" cpu").Sites(m.cpu_busy_ms);
    d.Row(" cpu_wait").Sites(m.cpu_wait_ms);
    d.Row(" disk").Sites(m.disk_busy_ms);
  }
  const BatchTotals& totals = r.totals;
  d.Row("totals")
      .I(totals.bytes_sent)
      .F(totals.network_busy_ms)
      .F(totals.network_wait_ms)
      .I(totals.crashes)
      .F(totals.crash_downtime_ms);
  d.Row("totals.cpu").Sites(totals.cpu_busy_ms);
  d.Row("totals.cpu_wait").Sites(totals.cpu_wait_ms);
  d.Row("totals.disk").Sites(totals.disk_busy_ms);
  d.Row("totals.disk_detail")
      .F(totals.disk.seek_ms)
      .F(totals.disk.rotate_ms)
      .F(totals.disk.transfer_ms)
      .F(totals.disk.overhead_ms)
      .I(static_cast<int64_t>(totals.disk.reads))
      .I(static_cast<int64_t>(totals.disk.writes))
      .I(static_cast<int64_t>(totals.disk.cache_hits))
      .I(static_cast<int64_t>(totals.disk.readahead_pages));
  d.Row("makespan_ms").F(r.makespan_ms);
  d.Row("bottleneck")
      .F(r.bottleneck.response_ms)
      .F(r.bottleneck.attributed_ms)
      .I(r.bottleneck.queries);
  for (const BottleneckBucket& b : r.bottleneck.buckets) {
    d.Row(std::string(" bucket ") + ToString(b.resource))
        .I(b.site)
        .F(b.elapsed_ms)
        .F(b.service_ms)
        .F(b.queueing_ms)
        .F(b.share);
  }
  d.Row("steady")
      .F(r.warmup_end_ms)
      .I(r.measured)
      .F(r.throughput_qps)
      .F(r.mean_response_ms)
      .F(r.response_ci90_ms);
  d.Row("batch_means").Stat(r.batch_means);
  for (const QueryLogRecord& record : r.query_log) {
    d.Row("log " + QueryLogJson(record));
  }
}

std::string Render(const DriverResult& r) {
  Dump d;
  for (const Completion& c : r.completions) {
    d.Row("done").I(c.ticket).I(c.client).F(c.submit_ms).F(c.complete_ms);
  }
  for (std::size_t t = 0; t < r.query_client.size(); ++t) {
    d.Row("ticket")
        .I(static_cast<int64_t>(t))
        .I(r.query_client[t])
        .I(r.retries_per_query[t]);
  }
  d.Row("faults")
      .I(r.total_retries)
      .I(r.total_reopts)
      .F(r.abort_rate)
      .F(r.fault_stall_ms)
      .I(r.retransmits);
  d.Row("healthy").Stat(r.healthy_response_ms).F(r.healthy_ci90_ms);
  d.Row("degraded").Stat(r.degraded_response_ms).F(r.degraded_ci90_ms);
  DumpShared(d, r);
  return d.Finish();
}

std::string Render(const OpenLoopResult& r) {
  Dump d;
  d.Row("arrivals")
      .I(r.arrivals)
      .I(r.dispatched)
      .I(r.shed)
      .I(r.aborted)
      .I(r.completed)
      .F(r.offered_qps);
  for (const OpenLoopCompletion& c : r.completions) {
    d.Row("done")
        .I(c.ticket)
        .I(c.client)
        .F(c.arrival_ms)
        .F(c.submit_ms)
        .F(c.complete_ms);
  }
  d.Row("admission")
      .F(r.mean_queue_wait_ms)
      .I(r.peak_in_flight)
      .I(r.peak_pending);
  d.Row("kernel")
      .I(static_cast<int64_t>(r.processed_events))
      .I(static_cast<int64_t>(r.peak_event_queue_depth));
  DumpShared(d, r);
  return d.Finish();
}

/// A cluster of kClients clients, each re-issuing its own bound plan.
struct Cluster {
  Catalog catalog{kClients};
  SystemConfig config;
  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  std::vector<ClientWorkload> clients;

  /// Binds one plan per client (`make` builds the logical plan) and wires
  /// the workloads; sharded relations are expanded first.
  void Bind(const std::function<Plan()>& make) {
    config.num_clients = kClients;
    plans.reserve(kClients);
    queries.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      Plan logical = make();
      std::vector<RelationId> relations;
      logical.ForEach([&](const PlanNode& node) {
        if (node.type == OpType::kScan) relations.push_back(node.relation);
      });
      queries.push_back(QueryGraph::Chain(relations));
      queries.back().home_client = ClientSite(c);
      plans.push_back(NeedsShardExpansion(logical, catalog)
                          ? ExpandShards(logical, catalog)
                          : std::move(logical));
      BindSites(plans.back(), catalog, ClientSite(c));
    }
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(ClientWorkload{&plans[c], &queries[c]});
    }
  }
};

Plan ServerJoin() {
  return Plan(MakeDisplay(MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                                   MakeScan(1, SiteAnnotation::kPrimaryCopy),
                                   SiteAnnotation::kInnerRel)));
}

Plan ServerScan() {
  return Plan(MakeDisplay(MakeScan(0, SiteAnnotation::kPrimaryCopy)));
}

/// Two 100-page relations, each with a copy on both of two servers.
void Replicated(Cluster& w) {
  w.config.num_servers = 2;
  for (int i = 0; i < 2; ++i) {
    w.catalog.AddRelation("R" + std::to_string(i), 4000, 100);
    w.catalog.PlaceRelation(i, ServerSite(0, kClients));
    w.catalog.PlaceRelation(i, ServerSite(1, kClients));
  }
  w.Bind(ServerJoin);
}

/// One relation range-sharded over two servers, two copies per shard.
void Sharded(Cluster& w) {
  w.config.num_servers = 2;
  w.catalog.AddRelation("R0", 4000, 100);
  w.catalog.ShardRelation(
      0, {ServerSite(0, kClients), ServerSite(1, kClients)},
      ShardScheme::kRange, /*replication=*/2);
  w.Bind(ServerScan);
}

/// One server holding one 10-page relation: short scans, so admission
/// control sees many completions within a short arrival window.
void SmallScan(Cluster& w) {
  w.config.num_servers = 1;
  w.catalog.AddRelation("R0", 400, 100);
  w.catalog.PlaceRelation(0, ServerSite(0, kClients));
  w.Bind(ServerScan);
}

/// One server holding two 250-page relations; `cached` is every client's
/// cached fraction of both.
void SingleServer(Cluster& w, double cached) {
  w.config.num_servers = 1;
  w.config.params.buf_alloc = BufAlloc::kMaximum;
  for (int i = 0; i < 2; ++i) {
    w.catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    w.catalog.PlaceRelation(i, ServerSite(0, kClients));
    for (int c = 0; c < kClients; ++c) {
      w.catalog.SetCachedFraction(i, ClientSite(c), cached);
    }
  }
  w.Bind(ServerJoin);
}

DriverConfig Closed(ReplicaPolicy policy, bool log) {
  DriverConfig driver;
  driver.queries_per_client = 4;
  driver.think_time_mean_ms = 40.0;
  driver.warmup_queries = 1;
  driver.num_batches = 2;
  driver.seed = 5;
  driver.replica_policy = policy;
  driver.collect_query_log = log;
  return driver;
}

OpenLoopConfig Open(ArrivalKind kind, ReplicaPolicy policy, bool log) {
  OpenLoopConfig openloop;
  openloop.arrival.kind = kind;
  openloop.arrival.rate_per_sec = 40.0;
  openloop.arrival.burst_on_mean_ms = 60.0;
  openloop.arrival.burst_off_mean_ms = 90.0;
  openloop.arrival.burst_factor = 3.0;
  openloop.arrival.diurnal_period_ms = 200.0;
  openloop.arrival.diurnal_amplitude = 0.8;
  openloop.duration_ms = 300.0;
  openloop.warmup_completions = 2;
  openloop.num_batches = 3;
  openloop.seed = 9;
  openloop.replica_policy = policy;
  openloop.collect_query_log = log;
  return openloop;
}

/// Crash schedule: the server is down at the first submission and
/// crashes again under a seeded renewal process.
std::string CrashSpec() {
  const std::string site = std::to_string(ServerSite(0, kClients));
  return "crash:site=" + site + ",at=0,for=2000;crash:site=" + site +
         ",mtbf=8000,mttr=2000,seed=7";
}

/// A closed loop of server joins under CrashSpec: with `reoptimize`, warm
/// client caches let 2-step site selection move the join off the server.
std::string FaultCell(bool reoptimize, bool log) {
  Cluster w;
  SingleServer(w, reoptimize ? 1.0 : 0.0);
  const sim::FaultSchedule faults = sim::ParseFaultSpec(CrashSpec());
  w.config.faults = &faults;
  const CostModel model(w.catalog, w.config.params);
  OptimizerConfig reopt;
  reopt.policy = ShippingPolicy::kHybridShipping;
  reopt.ii_starts = 4;
  for (ClientWorkload& work : w.clients) {
    work.reopt_model = &model;
    work.reopt_config = &reopt;
  }
  DriverConfig driver = Closed(ReplicaPolicy::kFirstCopy, log);
  driver.think_time_mean_ms = 1000.0;
  driver.seed = 42;
  driver.retry.reoptimize = reoptimize;
  driver.retry.max_retries = 3;
  return Render(RunClosedLoop(w.clients, w.catalog, w.config, driver));
}

struct Cell {
  const char* name;
  std::function<std::string()> run;
};

std::vector<Cell> Cells() {
  return {
      {"closed.first_copy.log",
       [] {
         Cluster w;
         Replicated(w);
         return Render(RunClosedLoop(
             w.clients, w.catalog, w.config,
             Closed(ReplicaPolicy::kFirstCopy, /*log=*/true)));
       }},
      {"closed.round_robin.actuals",
       [] {
         Cluster w;
         Replicated(w);
         return Render(RunClosedLoop(
             w.clients, w.catalog, w.config,
             Closed(ReplicaPolicy::kRoundRobin, /*log=*/false)));
       }},
      {"closed.least_outstanding.log",
       [] {
         Cluster w;
         Replicated(w);
         return Render(RunClosedLoop(
             w.clients, w.catalog, w.config,
             Closed(ReplicaPolicy::kLeastOutstanding, /*log=*/true)));
       }},
      {"closed.range_shards_x2.least_outstanding.log",
       [] {
         Cluster w;
         Sharded(w);
         return Render(RunClosedLoop(
             w.clients, w.catalog, w.config,
             Closed(ReplicaPolicy::kLeastOutstanding, /*log=*/true)));
       }},
      {"closed.crash.retry_reopt.log",
       [] { return FaultCell(/*reoptimize=*/true, /*log=*/true); }},
      {"closed.crash.retry_wait.plain",
       [] { return FaultCell(/*reoptimize=*/false, /*log=*/false); }},
      {"open.poisson.shed_abort.log",
       [] {
         Cluster w;
         SmallScan(w);
         OpenLoopConfig openloop = Open(ArrivalKind::kPoisson,
                                        ReplicaPolicy::kFirstCopy, true);
         openloop.arrival.rate_per_sec = 60.0;
         openloop.admission.max_in_flight = 1;
         openloop.admission.max_pending = 2;
         openloop.admission.abort_wait_ms = 30.0;
         return Render(RunOpenLoop(w.clients, w.catalog, w.config, openloop));
       }},
      {"open.bursty.round_robin.actuals",
       [] {
         Cluster w;
         Replicated(w);
         return Render(RunOpenLoop(
             w.clients, w.catalog, w.config,
             Open(ArrivalKind::kBursty, ReplicaPolicy::kRoundRobin, false)));
       }},
      {"open.diurnal.least_outstanding.log",
       [] {
         Cluster w;
         Replicated(w);
         return Render(RunOpenLoop(w.clients, w.catalog, w.config,
                                   Open(ArrivalKind::kDiurnal,
                                        ReplicaPolicy::kLeastOutstanding,
                                        true)));
       }},
      {"open.range_shards_x2.round_robin.plain",
       [] {
         Cluster w;
         Sharded(w);
         return Render(RunOpenLoop(
             w.clients, w.catalog, w.config,
             Open(ArrivalKind::kPoisson, ReplicaPolicy::kRoundRobin, false)));
       }},
  };
}

struct GoldenCell {
  const char* name;
  const char* text;
};

// Expected renderings of Cells(), in order.
#include "driver_golden_data.inc"

TEST(DriverGoldenTest, OutputsAreBitIdenticalToTheCapturedCorpus) {
  const std::vector<Cell> cells = Cells();
  ASSERT_EQ(std::size(kGolden), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].name);
    EXPECT_STREQ(kGolden[i].name, cells[i].name);
    EXPECT_EQ(cells[i].run(), kGolden[i].text);
  }
}

}  // namespace
}  // namespace dimsum
