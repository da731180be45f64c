// Golden bit-identity corpus for the GHK92 response-time coster. A fixed
// seed generates ~200 bound plans spanning every input the coster reads:
// the three shipping policies, both join memory allocations, one and three
// disks per site, per-site CPU speeds, external server disk load, replicas,
// range-sharded relations (costed through CostModel::PlanCost and its shard
// expansion), partially client-cached relations (the page-fault chain),
// and select / project / aggregate / sort / union operators. The expected
// values are hexfloat literals, so any change in summation order, phase
// merging or cardinality arithmetic fails here even when it moves a figure
// by one ulp.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "cost/response_time.h"
#include "plan/binding.h"
#include "plan/shard.h"
#include "plan/transforms.h"

namespace dimsum {
namespace {

constexpr int kCorpusSize = 200;

struct GoldenCase {
  Catalog catalog;
  QueryGraph query;
  CostParams params;
  std::map<SiteId, double> load;
  Plan plan;
};

struct Measured {
  double response_ms = 0.0;
  double total_ms = 0.0;
  double pages_sent = 0.0;
  std::vector<PhaseEstimate> phases;
};

/// Annotation for a unary or binary operator placed above `child`: a
/// policy-legal choice that never points back at a consumer-annotated
/// child (which would be an annotation cycle).
SiteAnnotation WrapperAnnotation(ShippingPolicy policy, OpType type,
                                 const PlanNode& child, Rng& rng) {
  const bool child_is_consumer =
      child.annotation == SiteAnnotation::kConsumer &&
      child.type != OpType::kScan;
  switch (policy) {
    case ShippingPolicy::kDataShipping:
      return SiteAnnotation::kConsumer;
    case ShippingPolicy::kQueryShipping:
      return IsBinaryOp(type) ? SiteAnnotation::kInnerRel
                              : SiteAnnotation::kProducer;
    case ShippingPolicy::kHybridShipping:
      if (child_is_consumer || rng.Bernoulli(0.5)) {
        return SiteAnnotation::kConsumer;
      }
      return IsBinaryOp(type) ? SiteAnnotation::kInnerRel
                              : SiteAnnotation::kProducer;
  }
  return SiteAnnotation::kConsumer;
}

GoldenCase MakeCase(int index) {
  Rng rng(static_cast<uint64_t>(9001 + index));
  static constexpr ShippingPolicy kPolicies[] = {
      ShippingPolicy::kDataShipping, ShippingPolicy::kQueryShipping,
      ShippingPolicy::kHybridShipping};
  const ShippingPolicy policy = kPolicies[index % 3];
  GoldenCase c;
  c.params.buf_alloc =
      (index / 3) % 2 == 0 ? BufAlloc::kMinimum : BufAlloc::kMaximum;
  c.params.num_disks = (index / 6) % 2 == 0 ? 1 : 3;

  const int relations = 2 + static_cast<int>(rng.UniformInt(0, 4));
  const int servers = 1 + static_cast<int>(rng.UniformInt(0, 3));
  // Every tenth case range-shards relation 0 over all servers (never
  // cached, never whole-relation placed).
  const bool shard_first = index % 10 == 9 && servers >= 2;
  const bool replicate = servers >= 2 && rng.Bernoulli(0.3);
  const bool cache = rng.Bernoulli(0.5);
  for (int r = 0; r < relations; ++r) {
    const RelationId id = c.catalog.AddRelation(
        "R" + std::to_string(r), 2000 + rng.UniformInt(0, 18000),
        static_cast<int>(50 + 25 * rng.UniformInt(0, 6)));
    if (r == 0 && shard_first) {
      std::vector<SiteId> sites;
      for (int s = 0; s < servers; ++s) sites.push_back(ServerSite(s));
      c.catalog.ShardRelation(id, std::move(sites), ShardScheme::kRange,
                              replicate ? 2 : 1);
      continue;
    }
    c.catalog.PlaceRelation(id, ServerSite(r % servers));
    if (replicate) c.catalog.PlaceRelation(id, ServerSite((r + 1) % servers));
    if (cache) {
      static constexpr double kFractions[] = {0.0, 0.25, 0.5, 1.0};
      c.catalog.SetCachedFraction(id, kFractions[rng.UniformInt(0, 3)]);
    }
  }
  // A spare relation outside the query feeds union plans.
  const RelationId spare = c.catalog.AddRelation(
      "spare", 1000 + rng.UniformInt(0, 9000), 100);
  c.catalog.PlaceRelation(spare, ServerSite(servers - 1));

  if (rng.Bernoulli(0.25)) {
    c.params.site_mips[kClientSite] = 25.0;
    c.params.site_mips[ServerSite(0)] = 100.0;
  }
  if (rng.Bernoulli(0.25)) {
    c.load[ServerSite(0)] = 0.3;
    if (servers > 1) c.load[ServerSite(servers - 1)] = 0.6;
  }

  std::vector<RelationId> ids;
  for (int r = 0; r < relations; ++r) ids.push_back(r);
  const double selectivity_factor = rng.Bernoulli(0.3) ? 0.2 : 1.0;
  c.query = rng.Bernoulli(0.2)
                ? QueryGraph::Complete(std::move(ids), selectivity_factor)
                : QueryGraph::Chain(std::move(ids), selectivity_factor);
  if (rng.Bernoulli(0.3)) {
    for (int r = 0; r < relations; ++r) {
      c.query.scan_selectivities.push_back(rng.Bernoulli(0.5) ? 0.4 : 1.0);
    }
  }

  TransformConfig transform;
  transform.space = PolicySpace::For(policy);
  transform.catalog = &c.catalog;
  c.plan = RandomPlan(c.query, transform, rng);
  if (shard_first && rng.Bernoulli(0.5)) {
    c.plan.ForEachMutable([](PlanNode& node) {
      if (node.type == OpType::kScan && node.relation == 0) {
        node.key_lo = 0.1;
        node.key_hi = 0.45;
      }
    });
  }

  // Extended operators between the display and the join tree.
  std::unique_ptr<PlanNode> body = std::move(c.plan.root()->left);
  switch (index % 6) {
    case 1: {
      const SiteAnnotation a =
          WrapperAnnotation(policy, OpType::kSelect, *body, rng);
      body = MakeSelect(std::move(body), 0.3, a);
      break;
    }
    case 2: {
      const SiteAnnotation a =
          WrapperAnnotation(policy, OpType::kProject, *body, rng);
      body = MakeProject(std::move(body), 0.5, a);
      break;
    }
    case 3: {
      const SiteAnnotation a =
          WrapperAnnotation(policy, OpType::kAggregate, *body, rng);
      body = MakeAggregate(std::move(body), 1 + rng.UniformInt(0, 5000), a);
      break;
    }
    case 4: {
      const SiteAnnotation a =
          WrapperAnnotation(policy, OpType::kSort, *body, rng);
      body = MakeSort(std::move(body), a);
      break;
    }
    case 5: {
      auto other = MakeScan(spare, policy == ShippingPolicy::kDataShipping
                                       ? SiteAnnotation::kClient
                                       : SiteAnnotation::kPrimaryCopy);
      const SiteAnnotation a =
          WrapperAnnotation(policy, OpType::kUnion, *body, rng);
      body = MakeUnion(std::move(body), std::move(other), a);
      break;
    }
    default:
      break;
  }
  c.plan.root()->left = std::move(body);
  return c;
}

Measured Measure(GoldenCase& c) {
  const CostModel model(c.catalog, c.params, c.load);
  Measured m;
  m.response_ms =
      model.PlanCost(c.plan, c.query, OptimizeMetric::kResponseTime);
  m.total_ms = model.PlanCost(c.plan, c.query, OptimizeMetric::kTotalCost);
  m.pages_sent = model.PlanCost(c.plan, c.query, OptimizeMetric::kPagesSent);
  Plan physical = NeedsShardExpansion(c.plan, c.catalog)
                      ? ExpandShards(c.plan, c.catalog)
                      : c.plan.Clone();
  BindSites(physical, c.catalog, c.query.home_client);
  PlanEstimate explain;
  const TimeEstimate estimate =
      EstimateTime(physical, c.catalog, c.query, c.params, c.load, &explain);
  EXPECT_EQ(estimate.response_ms, m.response_ms);
  EXPECT_EQ(estimate.total_ms, m.total_ms);
  m.phases = explain.phases;
  return m;
}

struct ExpectedCase {
  double response_ms;
  double total_ms;
  double pages_sent;
  int first_phase;  // index into kExpectedPhases
  int num_phases;
};

struct ExpectedPhase {
  double duration_ms;
  double finish_ms;
};

// Expected values of MakeCase(0..kCorpusSize-1) under Measure, printed
// with %a. They were captured from an independent, map-based
// implementation of the same coster, so a change that moves any of them
// changes the model, not only its implementation.
#include "estimate_golden_data.inc"

TEST(EstimateGoldenTest, CorpusCoversEveryInput) {
  int sharded = 0, cached = 0, replicated = 0, mips = 0, loaded = 0;
  int ops[8] = {};
  for (int i = 0; i < kCorpusSize; ++i) {
    GoldenCase c = MakeCase(i);
    sharded += c.catalog.sharded() ? 1 : 0;
    replicated += c.catalog.replicated() ? 1 : 0;
    mips += c.params.site_mips.empty() ? 0 : 1;
    loaded += c.load.empty() ? 0 : 1;
    bool partial = false;
    c.plan.ForEach([&](const PlanNode& node) {
      ++ops[static_cast<int>(node.type)];
      if (node.type == OpType::kScan && !c.catalog.sharded(node.relation) &&
          node.annotation == SiteAnnotation::kClient &&
          c.catalog.CachedFraction(node.relation) > 0.0 &&
          c.catalog.CachedFraction(node.relation) < 1.0) {
        partial = true;
      }
    });
    cached += partial ? 1 : 0;
  }
  EXPECT_GE(sharded, 10);
  EXPECT_GE(cached, 10);
  EXPECT_GE(replicated, 10);
  EXPECT_GE(mips, 10);
  EXPECT_GE(loaded, 10);
  for (const OpType type :
       {OpType::kSelect, OpType::kProject, OpType::kAggregate, OpType::kSort,
        OpType::kUnion, OpType::kJoin}) {
    EXPECT_GE(ops[static_cast<int>(type)], 10) << ToString(type);
  }
}

TEST(EstimateGoldenTest, EstimatesAreBitIdenticalToTheCapturedCorpus) {
  ASSERT_EQ(std::size(kExpectedCases), static_cast<std::size_t>(kCorpusSize));
  for (int i = 0; i < kCorpusSize; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    GoldenCase c = MakeCase(i);
    const Measured m = Measure(c);
    const ExpectedCase& want = kExpectedCases[i];
    EXPECT_EQ(m.response_ms, want.response_ms);
    EXPECT_EQ(m.total_ms, want.total_ms);
    EXPECT_EQ(m.pages_sent, want.pages_sent);
    ASSERT_EQ(static_cast<int>(m.phases.size()), want.num_phases);
    for (int p = 0; p < want.num_phases; ++p) {
      const ExpectedPhase& phase = kExpectedPhases[want.first_phase + p];
      EXPECT_EQ(m.phases[p].id, p);
      EXPECT_EQ(m.phases[p].duration_ms, phase.duration_ms) << "phase " << p;
      EXPECT_EQ(m.phases[p].finish_ms, phase.finish_ms) << "phase " << p;
      EXPECT_EQ(m.phases[p].start_ms, phase.finish_ms - phase.duration_ms)
          << "phase " << p;
    }
  }
}

}  // namespace
}  // namespace dimsum
