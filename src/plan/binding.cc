#include "plan/binding.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "plan/validate.h"

namespace dimsum {
namespace {

/// Binds the subtree rooted at `node`. `parent_site` is the parent's site,
/// or kUnboundSite while the parent waits on this node: a node whose
/// annotation points at a child binds that child first and takes its site,
/// then binds its other children under that site. Well-formedness rules
/// out a child pointing back at such a parent, so one pass binds every
/// node.
void BindNode(PlanNode& node, SiteId parent_site, const Catalog& catalog,
              SiteId client) {
  PlanNode* source = nullptr;  // child whose site this node takes
  if (node.type == OpType::kDisplay) {
    node.bound_site = client;
  } else if (node.type == OpType::kScan) {
    if (node.annotation == SiteAnnotation::kClient) {
      node.bound_site = client;
    } else if (catalog.sharded(node.relation)) {
      // Shard fragments bind to their shard's serving copy. A logical
      // (shard < 0) scan binds to shard 0's site as a representative so
      // the optimizer can bind-and-cost unexpanded plans; ExpandShards
      // assigns the real per-shard sites before execution.
      node.bound_site = catalog.ShardSite(
          node.relation, node.shard >= 0 ? node.shard : 0, node.replica);
    } else {
      node.bound_site = catalog.ReplicaSite(node.relation, node.replica);
    }
  } else if (node.annotation == SiteAnnotation::kConsumer) {
    node.bound_site = parent_site;
  } else {
    // Producer (unary), inner relation or outer relation (binary).
    source = IsUnaryOp(node.type) ||
                     node.annotation == SiteAnnotation::kInnerRel
                 ? node.left.get()
                 : node.right.get();
    BindNode(*source, kUnboundSite, catalog, client);
    node.bound_site = source->bound_site;
  }
  for (PlanNode* child : {node.left.get(), node.right.get()}) {
    if (child != nullptr && child != source) {
      BindNode(*child, node.bound_site, catalog, client);
    }
  }
}

}  // namespace

void BindSites(Plan& plan, const Catalog& catalog, SiteId client) {
  DIMSUM_CHECK(IsStructurallyValid(plan));
  DIMSUM_CHECK(IsWellFormed(plan));
  DIMSUM_CHECK(catalog.IsClientSite(client))
      << "home client " << client << " is not a client site (catalog has "
      << catalog.num_clients() << " clients)";
  // Every node is (re)assigned, so no earlier binding survives.
  BindNode(*plan.root(), kUnboundSite, catalog, client);
  DIMSUM_CHECK(IsFullyBound(plan)) << "binding left a node unbound";
}

bool IsFullyBound(const Plan& plan) {
  bool all = true;
  plan.ForEach([&](const PlanNode& node) {
    if (node.bound_site == kUnboundSite) all = false;
  });
  return all;
}

void ClearBinding(Plan& plan) {
  plan.ForEachMutable(
      [](PlanNode& node) { node.bound_site = kUnboundSite; });
}

std::vector<SiteId> BoundServerSites(const Plan& plan, const Catalog& catalog,
                                     int page_bytes) {
  DIMSUM_CHECK(IsFullyBound(plan));
  std::vector<SiteId> sites;
  plan.ForEach([&](const PlanNode& node) {
    if (!catalog.IsClientSite(node.bound_site)) {
      sites.push_back(node.bound_site);
    }
    // A logical (unexpanded) server scan of a sharded relation stands for
    // fragments on every shard's serving copy.
    if (node.type == OpType::kScan &&
        node.annotation == SiteAnnotation::kPrimaryCopy && node.shard < 0 &&
        catalog.sharded(node.relation)) {
      for (int k = 0; k < catalog.NumShards(node.relation); ++k) {
        sites.push_back(catalog.ShardSite(node.relation, k, node.replica));
      }
    }
    // A client-cached scan with a partial cache still faults the remaining
    // pages in from the scan's serving replica — or, for a sharded
    // relation (never client-cached), from every shard's serving copy.
    if (node.type == OpType::kScan && catalog.IsClientSite(node.bound_site)) {
      if (catalog.sharded(node.relation)) {
        for (int k = 0; k < catalog.NumShards(node.relation); ++k) {
          sites.push_back(
              catalog.ShardSite(node.relation, k, node.replica));
        }
      } else if (catalog.CachedPages(node.relation, node.bound_site,
                                     page_bytes) <
                 catalog.relation(node.relation).Pages(page_bytes)) {
        sites.push_back(catalog.ReplicaSite(node.relation, node.replica));
      }
    }
  });
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  return sites;
}

}  // namespace dimsum
