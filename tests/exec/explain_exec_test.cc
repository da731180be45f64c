// Actual-side EXPLAIN ANALYZE collection: per-operator attribution must
// be pure observation -- every measured field of ExecMetrics bit-identical
// with collection on or off -- and the collected records must be
// internally consistent (span ordering, page conservation, resource time
// accounting including net-pair attribution to the consumer).

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/metrics.h"
#include "plan/binding.h"
#include "sim/trace.h"

namespace dimsum {
namespace {

Catalog PaperCatalog(int relations, int servers, double cached = 0.0) {
  Catalog catalog;
  for (int i = 0; i < relations; ++i) {
    const RelationId id =
        catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    catalog.PlaceRelation(id, ServerSite(i % servers));
    catalog.SetCachedFraction(id, cached);
  }
  return catalog;
}

QueryGraph ChainQuery(int n) {
  std::vector<RelationId> rels;
  for (int i = 0; i < n; ++i) rels.push_back(i);
  return QueryGraph::Chain(std::move(rels));
}

/// Server scans feeding client joins: site-crossing edges (net operator
/// pairs), disks on both sides, and with minimum allocation a blocking
/// sort/temp path too.
Plan LeftDeepPlan(int n) {
  std::unique_ptr<PlanNode> tree = MakeScan(0, SiteAnnotation::kPrimaryCopy);
  for (int i = 1; i < n; ++i) {
    tree = MakeJoin(MakeScan(i, SiteAnnotation::kPrimaryCopy),
                    std::move(tree), SiteAnnotation::kConsumer);
  }
  return Plan(MakeDisplay(std::move(tree)));
}

struct TestSetup {
  Catalog catalog = PaperCatalog(3, 2, /*cached=*/0.25);
  QueryGraph query = ChainQuery(3);
  Plan plan = LeftDeepPlan(3);
  SystemConfig config;

  TestSetup() {
    config.num_servers = 2;
    BindSites(plan, catalog);
  }
};

void ExpectBitIdentical(const ExecMetrics& a, const ExecMetrics& b) {
  EXPECT_EQ(a.response_ms, b.response_ms);
  EXPECT_EQ(a.data_pages_sent, b.data_pages_sent);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.network_busy_ms, b.network_busy_ms);
  EXPECT_EQ(a.network_wait_ms, b.network_wait_ms);
  EXPECT_TRUE(a.cpu_busy_ms == b.cpu_busy_ms);
  EXPECT_TRUE(a.cpu_wait_ms == b.cpu_wait_ms);
  EXPECT_TRUE(a.disk_busy_ms == b.disk_busy_ms);
  EXPECT_EQ(a.disk.seek_ms, b.disk.seek_ms);
  EXPECT_EQ(a.disk.rotate_ms, b.disk.rotate_ms);
  EXPECT_EQ(a.disk.transfer_ms, b.disk.transfer_ms);
  EXPECT_EQ(a.disk.reads, b.disk.reads);
  EXPECT_EQ(a.disk.writes, b.disk.writes);
  EXPECT_EQ(a.disk.cache_hits, b.disk.cache_hits);
  EXPECT_EQ(a.fault_stall_ms, b.fault_stall_ms);
}

TEST(ExplainExecTest, CollectionComposesWithOtherObservability) {
  // Explain + trace + histograms together must still match the bare run:
  // observation layers may not interact into a perturbation.
  TestSetup setup;
  const ExecMetrics off =
      ExecutePlan(setup.plan, setup.catalog, setup.query, setup.config);
  sim::TraceSink trace;
  SystemConfig with = setup.config;
  with.collect_histograms = true;
  with.trace = &trace;
  const ExecMetrics on =
      ExecutePlan(setup.plan, setup.catalog, setup.query, with);
  EXPECT_GT(trace.num_events(), 0u);
  EXPECT_GT(on.disk_service_ms.count(), 0);
  ExpectBitIdentical(off, on);
}

TEST(ExplainExecTest, ActualsAreInternallyConsistent) {
  TestSetup setup;
  const ExecMetrics metrics =
      ExecutePlan(setup.plan, setup.catalog, setup.query, setup.config);

  int nodes = 0;
  setup.plan.ForEach([&nodes](const PlanNode&) { ++nodes; });
  ASSERT_EQ(static_cast<int>(metrics.operator_actuals.size()), nodes);

  for (const OperatorActual& op : metrics.operator_actuals) {
    EXPECT_GE(op.cpu_ms, 0.0);
    EXPECT_GE(op.disk_ms, 0.0);
    EXPECT_GE(op.net_ms, 0.0);
    EXPECT_EQ(op.stall_ms, 0.0);  // healthy run
    EXPECT_GE(op.end_ms, op.start_ms);
    // No single resource class is awaited longer than the operator lived.
    // (The *sum* can exceed the span: net-pair transfers attribute into
    // the consumer's record while it concurrently awaits its own disk.)
    for (double ms : {op.cpu_ms, op.disk_ms, op.net_ms}) {
      EXPECT_LE(ms, op.end_ms - op.start_ms + 1e-6);
    }
  }
  // The display (op 0) finishes last and defines the response time.
  EXPECT_NEAR(metrics.operator_actuals[0].end_ms, metrics.response_ms, 1e-9);
  EXPECT_GT(metrics.operator_actuals[0].pages_in, 0);

  // Scans produced their relations' pages; with crossing edges the net
  // time lands on consumer records.
  double net_total = 0.0;
  int next = 0;
  int64_t scan_pages = 0;
  setup.plan.ForEach([&](const PlanNode& node) {
    const OperatorActual& op = metrics.operator_actuals[next++];
    if (node.type == OpType::kScan) scan_pages += op.pages_out;
    net_total += op.net_ms;
  });
  EXPECT_GT(scan_pages, 0);
  EXPECT_GT(net_total, 0.0);
}

TEST(ExplainExecTest, SessionReusePreservesPerQueryAttribution) {
  // Two submissions through one ExecSession must each get their own
  // actuals vector sized to their own plan.
  TestSetup setup;
  ExecSession session(setup.catalog, setup.config, /*seed=*/0);
  session.ExpectQueries(2);
  const int t1 = session.Submit(setup.plan, setup.query);
  const int t2 = session.Submit(setup.plan, setup.query);
  session.Run();
  int nodes = 0;
  setup.plan.ForEach([&nodes](const PlanNode&) { ++nodes; });
  for (int ticket : {t1, t2}) {
    ASSERT_TRUE(session.IsDone(ticket));
    EXPECT_EQ(
        static_cast<int>(session.Metrics(ticket).operator_actuals.size()),
        nodes);
    EXPECT_GT(session.Metrics(ticket).operator_actuals[0].pages_in, 0);
  }
}

}  // namespace
}  // namespace dimsum
