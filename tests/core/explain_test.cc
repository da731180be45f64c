// The joined EXPLAIN ANALYZE report: BuildExplainReport over a real
// estimate + simulation pair, the invariants of its error metrics, the
// "dimsum.explain.v1" JSON document (parsed back through common/json),
// and the --explain mode parser.

#include "core/report.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "cost/response_time.h"
#include "exec/executor.h"
#include "plan/binding.h"

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

Plan LeftDeepPlan(int n) {
  std::unique_ptr<PlanNode> tree = MakeScan(0, SiteAnnotation::kPrimaryCopy);
  for (int i = 1; i < n; ++i) {
    tree = MakeJoin(MakeScan(i, SiteAnnotation::kPrimaryCopy),
                    std::move(tree), SiteAnnotation::kConsumer);
  }
  return Plan(MakeDisplay(std::move(tree)));
}

/// One costed + simulated 4-way plan, shared across the report tests.
struct Joined {
  Catalog catalog = PaperCatalog(4, 2, /*cached=*/0.25);
  QueryGraph query = ChainQuery(4);
  Plan plan = LeftDeepPlan(4);
  SystemConfig config;
  PlanEstimate est;
  ExecMetrics act;
  int nodes = 0;

  Joined() {
    config.num_servers = 2;
    config.collect_histograms = true;
    BindSites(plan, catalog);
    EstimateTime(plan, catalog, query, config.params, {}, &est);
    act = ExecutePlan(plan, catalog, query, config);
    plan.ForEach([this](const PlanNode&) { ++nodes; });
  }
};

TEST(ExplainReportTest, JoinsEstimatesAndActualsPerOperator) {
  Joined j;
  const ExplainReport report = BuildExplainReport(j.est, j.act);

  EXPECT_EQ(report.est_response_ms, j.est.response_ms);
  EXPECT_EQ(report.act_response_ms, j.act.response_ms);
  EXPECT_GT(report.act_total_ms, 0.0);
  ASSERT_EQ(static_cast<int>(report.ops.size()), j.nodes);

  for (int i = 0; i < static_cast<int>(report.ops.size()); ++i) {
    const ExplainOp& op = report.ops[i];
    EXPECT_EQ(op.est.op_id, i);
    EXPECT_FALSE(op.label.empty());
    EXPECT_NEAR(op.act_total_ms, op.act.cpu_ms + op.act.disk_ms + op.act.net_ms,
                1e-12);
    for (double err : {op.err_cpu, op.err_disk, op.err_net, op.err_total}) {
      EXPECT_TRUE(std::isfinite(err));
      EXPECT_GE(err, -1.0);
      EXPECT_LE(err, 1.0);
    }
  }
  EXPECT_TRUE(std::isfinite(report.response_err));
  EXPECT_GE(report.mean_op_err, 0.0);
  EXPECT_GE(report.max_op_err, report.mean_op_err);
  EXPECT_LE(report.max_op_err, 1.0);

  // worst is a permutation of all op ids ordered by |est-act| ms.
  ASSERT_EQ(report.worst.size(), report.ops.size());
  auto abs_diff = [&](int id) {
    return std::abs(report.ops[id].est.total_ms() -
                    report.ops[id].act_total_ms);
  };
  for (size_t i = 1; i < report.worst.size(); ++i) {
    EXPECT_GE(abs_diff(report.worst[i - 1]), abs_diff(report.worst[i]));
  }

  // Histograms were collected, so the distribution summaries are present.
  ASSERT_TRUE(report.disk_service.has_value());
  EXPECT_GT(report.disk_service->count, 0);
  EXPECT_LE(report.disk_service->p50, report.disk_service->p99);
}

TEST(ExplainReportTest, TextRendersEveryOperatorAndRollup) {
  Joined j;
  const ExplainReport report = BuildExplainReport(j.est, j.act);
  const std::string text = ExplainToText(report, j.plan);
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(text.find("phases"), std::string::npos);
  EXPECT_NE(text.find("worst"), std::string::npos);
  // One est/sim annotation pair under every operator of the tree.
  size_t est_lines = 0, sim_lines = 0;
  for (size_t pos = 0; (pos = text.find("est ", pos)) != std::string::npos;
       ++pos) {
    ++est_lines;
  }
  for (size_t pos = 0; (pos = text.find("sim ", pos)) != std::string::npos;
       ++pos) {
    ++sim_lines;
  }
  EXPECT_GE(est_lines, report.ops.size());
  EXPECT_GE(sim_lines, report.ops.size());
}

TEST(ExplainReportTest, JsonMatchesTheV1Schema) {
  Joined j;
  const ExplainReport report = BuildExplainReport(j.est, j.act);
  std::ostringstream out;
  WriteExplainJson(report, out);

  std::string error;
  const std::optional<JsonValue> doc = JsonValue::Parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  for (const char* key : {"schema", "estimated", "simulated", "errors",
                          "operators", "phases", "sites", "worst"}) {
    EXPECT_NE(doc->Find(key), nullptr) << key;
  }
  EXPECT_EQ(doc->Find("schema")->string_value(), "dimsum.explain.v1");
  EXPECT_EQ(static_cast<int>(doc->Find("operators")->array_items().size()),
            j.nodes);

  for (const JsonValue& op : doc->Find("operators")->array_items()) {
    for (const char* key : {"op_id", "label", "type", "site", "phase", "est",
                            "sim", "err"}) {
      ASSERT_NE(op.Find(key), nullptr) << key;
    }
    for (const char* key : {"cpu", "disk", "net", "total"}) {
      const double err = op.Find("err")->Find(key)->number_value();
      EXPECT_TRUE(std::isfinite(err));
      EXPECT_GE(err, -1.0);
      EXPECT_LE(err, 1.0);
    }
  }
  // Histograms were collected, so distributions must be present.
  ASSERT_NE(doc->Find("distributions"), nullptr);
  ASSERT_NE(doc->Find("distributions")->Find("disk_service_ms"), nullptr);
  EXPECT_GT(doc->Find("distributions")
                ->Find("disk_service_ms")
                ->Find("count")
                ->number_value(),
            0.0);
}

TEST(ExplainReportTest, PhaseAndSiteRowsCoverBothSides) {
  Joined j;
  const ExplainReport report = BuildExplainReport(j.est, j.act);
  ASSERT_FALSE(report.phases.empty());
  for (const ExplainPhaseRow& phase : report.phases) {
    EXPECT_GE(phase.act_span_ms, 0.0);
    EXPECT_FALSE(phase.ops.empty());
    EXPECT_TRUE(std::is_sorted(phase.ops.begin(), phase.ops.end()));
  }
  ASSERT_FALSE(report.sites.empty());
  double est_cpu = 0.0, act_cpu = 0.0;
  for (const ExplainSiteRow& site : report.sites) {
    est_cpu += site.est_cpu_ms;
    act_cpu += site.act_cpu_ms;
  }
  EXPECT_GT(est_cpu, 0.0);
  EXPECT_GT(act_cpu, 0.0);
}

TEST(ExplainRelErrTest, IsSymmetricBoundedAndEpsilonSafe) {
  EXPECT_EQ(ExplainRelErr(0.0, 0.0), 0.0);
  EXPECT_EQ(ExplainRelErr(1e-9, 1e-9), 0.0);  // both below eps
  EXPECT_DOUBLE_EQ(ExplainRelErr(2.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(ExplainRelErr(1.0, 2.0), -0.5);
  EXPECT_DOUBLE_EQ(ExplainRelErr(5.0, 0.0), 1.0);   // pure over-estimate
  EXPECT_DOUBLE_EQ(ExplainRelErr(0.0, 5.0), -1.0);  // pure under-estimate
  for (double est : {0.0, 0.5, 3.0}) {
    for (double act : {0.0, 0.5, 3.0}) {
      const double err = ExplainRelErr(est, act);
      EXPECT_TRUE(std::isfinite(err));
      EXPECT_GE(err, -1.0);
      EXPECT_LE(err, 1.0);
      EXPECT_DOUBLE_EQ(err, -ExplainRelErr(act, est));
    }
  }
}

TEST(ParseExplainModeTest, AcceptsDocumentedValuesRejectsOthers) {
  EXPECT_EQ(ParseExplainMode(""), ExplainMode::kText);
  EXPECT_EQ(ParseExplainMode("1"), ExplainMode::kText);
  EXPECT_EQ(ParseExplainMode("text"), ExplainMode::kText);
  EXPECT_EQ(ParseExplainMode("json"), ExplainMode::kJson);
  EXPECT_EQ(ParseExplainMode("0"), ExplainMode::kOff);
  EXPECT_EQ(ParseExplainMode("off"), ExplainMode::kOff);
  EXPECT_FALSE(ParseExplainMode("bogus").has_value());
  EXPECT_FALSE(ParseExplainMode("TEXT").has_value());
  EXPECT_FALSE(ParseExplainMode("jsonx").has_value());
  EXPECT_FALSE(ParseExplainMode(" json").has_value());
}

}  // namespace
}  // namespace dimsum
