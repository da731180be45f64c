#include "cost/response_time.h"

#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "cost/cost_model.h"
#include "plan/binding.h"

namespace dimsum {
namespace {

Catalog PaperCatalog(int relations, int servers) {
  Catalog catalog;
  for (int i = 0; i < relations; ++i) {
    const RelationId id =
        catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    catalog.PlaceRelation(id, ServerSite(i % servers));
  }
  return catalog;
}

Plan TwoWayPlan(SiteAnnotation scan, SiteAnnotation join) {
  return Plan(MakeDisplay(
      MakeJoin(MakeScan(0, scan), MakeScan(1, scan), join)));
}

TEST(ResponseTimeTest, ResponseNeverExceedsTotal) {
  Catalog catalog = PaperCatalog(2, 1);
  QueryGraph query = QueryGraph::Chain({0, 1});
  for (BufAlloc alloc : {BufAlloc::kMinimum, BufAlloc::kMaximum}) {
    CostParams params;
    params.buf_alloc = alloc;
    Plan plan = TwoWayPlan(SiteAnnotation::kClient, SiteAnnotation::kConsumer);
    BindSites(plan, catalog);
    TimeEstimate estimate = EstimateTime(plan, catalog, query, params);
    EXPECT_GT(estimate.response_ms, 0.0);
    EXPECT_LE(estimate.response_ms, estimate.total_ms + 1e-9);
  }
}

TEST(ResponseTimeTest, MaxAllocationFasterThanMin) {
  Catalog catalog = PaperCatalog(2, 1);
  QueryGraph query = QueryGraph::Chain({0, 1});
  CostParams min_params;
  min_params.buf_alloc = BufAlloc::kMinimum;
  CostParams max_params;
  max_params.buf_alloc = BufAlloc::kMaximum;
  Plan plan = TwoWayPlan(SiteAnnotation::kPrimaryCopy, SiteAnnotation::kInnerRel);
  BindSites(plan, catalog);
  const double t_min = EstimateTime(plan, catalog, query, min_params).response_ms;
  const double t_max = EstimateTime(plan, catalog, query, max_params).response_ms;
  EXPECT_LT(t_max, t_min);  // no temp I/O with maximum allocation
}

TEST(ResponseTimeTest, MinAllocQsSlowerThanDsNoCache) {
  // Figure 3 at 0% cache: executing the join at the client while scanning
  // at the server exploits disk parallelism; QS piles everything on the
  // server disk.
  Catalog catalog = PaperCatalog(2, 1);
  QueryGraph query = QueryGraph::Chain({0, 1});
  CostParams params;
  params.buf_alloc = BufAlloc::kMinimum;
  Plan ds = TwoWayPlan(SiteAnnotation::kClient, SiteAnnotation::kConsumer);
  Plan qs = TwoWayPlan(SiteAnnotation::kPrimaryCopy, SiteAnnotation::kInnerRel);
  BindSites(ds, catalog);
  BindSites(qs, catalog);
  const double t_ds = EstimateTime(ds, catalog, query, params).response_ms;
  const double t_qs = EstimateTime(qs, catalog, query, params).response_ms;
  EXPECT_LT(t_ds, t_qs);
}

TEST(ResponseTimeTest, ServerLoadInflatesQueryShipping) {
  Catalog catalog = PaperCatalog(2, 1);
  QueryGraph query = QueryGraph::Chain({0, 1});
  CostParams params;
  Plan qs = TwoWayPlan(SiteAnnotation::kPrimaryCopy, SiteAnnotation::kInnerRel);
  BindSites(qs, catalog);
  const double unloaded = EstimateTime(qs, catalog, query, params).response_ms;
  const double loaded =
      EstimateTime(qs, catalog, query, params, {{ServerSite(0), 0.75}})
          .response_ms;
  EXPECT_GT(loaded, unloaded * 2.5);
}

TEST(ResponseTimeTest, CachingSpeedsUpDataShippingWithMaxAlloc) {
  // With maximum allocation there is no temp I/O, so reading cached data
  // locally (no page-fault round trips) is faster.
  Catalog catalog = PaperCatalog(2, 1);
  QueryGraph query = QueryGraph::Chain({0, 1});
  CostParams params;
  params.buf_alloc = BufAlloc::kMaximum;
  Plan ds0 = TwoWayPlan(SiteAnnotation::kClient, SiteAnnotation::kConsumer);
  BindSites(ds0, catalog);
  const double uncached = EstimateTime(ds0, catalog, query, params).response_ms;
  catalog.SetCachedFraction(0, 1.0);
  catalog.SetCachedFraction(1, 1.0);
  Plan ds1 = TwoWayPlan(SiteAnnotation::kClient, SiteAnnotation::kConsumer);
  BindSites(ds1, catalog);
  const double cached = EstimateTime(ds1, catalog, query, params).response_ms;
  EXPECT_LT(cached, uncached);
}

TEST(ResponseTimeTest, FaultingScanIsSlowerThanShippedScan) {
  // Same data volume crosses the wire, but the faulting scan is a serial
  // request/response chain while query shipping pipelines (Figure 5's
  // beyond-50% crossover effect).
  Catalog catalog = PaperCatalog(1, 1);
  QueryGraph query = QueryGraph::Chain({0});
  CostParams params;
  Plan faulting(MakeDisplay(MakeScan(0, SiteAnnotation::kClient)));
  Plan shipped(MakeDisplay(MakeScan(0, SiteAnnotation::kPrimaryCopy)));
  BindSites(faulting, catalog);
  BindSites(shipped, catalog);
  const double t_fault = EstimateTime(faulting, catalog, query, params).response_ms;
  const double t_ship = EstimateTime(shipped, catalog, query, params).response_ms;
  EXPECT_GT(t_fault, t_ship);
}

TEST(ResponseTimeTest, BushyPlanExploitsServersUnderMinAlloc) {
  // Four relations on four servers: a bushy plan with joins spread across
  // servers beats the same joins all at one site.
  Catalog catalog = PaperCatalog(4, 4);
  QueryGraph query = QueryGraph::Complete({0, 1, 2, 3});
  CostParams params;
  params.buf_alloc = BufAlloc::kMinimum;

  auto bushy_join = MakeJoin(
      MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
               MakeScan(1, SiteAnnotation::kPrimaryCopy),
               SiteAnnotation::kInnerRel),
      MakeJoin(MakeScan(2, SiteAnnotation::kPrimaryCopy),
               MakeScan(3, SiteAnnotation::kPrimaryCopy),
               SiteAnnotation::kInnerRel),
      SiteAnnotation::kInnerRel);
  Plan bushy(MakeDisplay(std::move(bushy_join)));
  BindSites(bushy, catalog);

  // All joins forced to server 1 by consumer annotations under a join at R0.
  auto deep = MakeJoin(
      MakeJoin(MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                        MakeScan(1, SiteAnnotation::kPrimaryCopy),
                        SiteAnnotation::kInnerRel),
               MakeScan(2, SiteAnnotation::kPrimaryCopy),
               SiteAnnotation::kInnerRel),
      MakeScan(3, SiteAnnotation::kPrimaryCopy), SiteAnnotation::kInnerRel);
  Plan deep_plan(MakeDisplay(std::move(deep)));
  BindSites(deep_plan, catalog);

  const double t_bushy = EstimateTime(bushy, catalog, query, params).response_ms;
  const double t_deep =
      EstimateTime(deep_plan, catalog, query, params).response_ms;
  EXPECT_LT(t_bushy, t_deep);
}

TEST(CostModelTest, MetricsSelectable) {
  Catalog catalog = PaperCatalog(2, 1);
  QueryGraph query = QueryGraph::Chain({0, 1});
  CostModel model(catalog, CostParams{});
  Plan plan = TwoWayPlan(SiteAnnotation::kClient, SiteAnnotation::kConsumer);
  EXPECT_EQ(model.PlanCost(plan, query, OptimizeMetric::kPagesSent), 500.0);
  const double response =
      model.PlanCost(plan, query, OptimizeMetric::kResponseTime);
  const double total = model.PlanCost(plan, query, OptimizeMetric::kTotalCost);
  EXPECT_GT(response, 0.0);
  EXPECT_GE(total, response);
}

TEST(CostModelTest, BindsPlanAsSideEffect) {
  Catalog catalog = PaperCatalog(2, 1);
  QueryGraph query = QueryGraph::Chain({0, 1});
  CostModel model(catalog, CostParams{});
  Plan plan = TwoWayPlan(SiteAnnotation::kClient, SiteAnnotation::kConsumer);
  model.PlanCost(plan, query, OptimizeMetric::kPagesSent);
  EXPECT_TRUE(IsFullyBound(plan));
}

// Cost inputs are validated once, up front: by the CostModel constructor
// and at the top of EstimateTime, not lazily per disk charge.
TEST(CostInputsDeathTest, ServerDiskLoadMustLieInZeroToOne) {
  Catalog catalog = PaperCatalog(2, 1);
  QueryGraph query = QueryGraph::Chain({0, 1});
  Plan plan = TwoWayPlan(SiteAnnotation::kPrimaryCopy,
                         SiteAnnotation::kInnerRel);
  BindSites(plan, catalog);
  for (const double load :
       {-0.1, 1.0, 1.5, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    const std::map<SiteId, double> loads{{ServerSite(0), load}};
    EXPECT_DEATH(CostModel(catalog, CostParams{}, loads),
                 "utilization must lie in \\[0, 1\\)")
        << load;
    EXPECT_DEATH(EstimateTime(plan, catalog, query, CostParams{}, loads),
                 "utilization must lie in \\[0, 1\\)")
        << load;
  }
  // A load on a site the plan never charges is still rejected.
  const std::map<SiteId, double> unused{{ServerSite(5), -0.5}};
  EXPECT_DEATH(EstimateTime(plan, catalog, query, CostParams{}, unused),
               "site 6");
}

TEST(CostInputsDeathTest, SiteMipsMustBeFiniteAndPositive) {
  Catalog catalog = PaperCatalog(2, 1);
  QueryGraph query = QueryGraph::Chain({0, 1});
  Plan plan = TwoWayPlan(SiteAnnotation::kClient, SiteAnnotation::kConsumer);
  BindSites(plan, catalog);
  for (const double mips :
       {0.0, -50.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    CostParams params;
    params.site_mips[kClientSite] = mips;
    EXPECT_DEATH(CostModel(catalog, params),
                 "CPU speed must be finite and positive")
        << mips;
    EXPECT_DEATH(EstimateTime(plan, catalog, query, params),
                 "CPU speed must be finite and positive")
        << mips;
  }
}

TEST(CostInputsTest, BoundaryValuesAreAccepted) {
  Catalog catalog = PaperCatalog(2, 1);
  QueryGraph query = QueryGraph::Chain({0, 1});
  Plan plan = TwoWayPlan(SiteAnnotation::kPrimaryCopy,
                         SiteAnnotation::kInnerRel);
  BindSites(plan, catalog);
  CostParams params;
  params.site_mips[ServerSite(0)] = 1e-3;
  const std::map<SiteId, double> idle{{ServerSite(0), 0.0}};
  const TimeEstimate base = EstimateTime(plan, catalog, query, CostParams{});
  const TimeEstimate slow = EstimateTime(plan, catalog, query, params, idle);
  EXPECT_GT(slow.response_ms, base.response_ms);
}

}  // namespace
}  // namespace dimsum
