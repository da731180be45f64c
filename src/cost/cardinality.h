#ifndef DIMSUM_COST_CARDINALITY_H_
#define DIMSUM_COST_CARDINALITY_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "cost/params.h"
#include "plan/plan.h"
#include "plan/query.h"

namespace dimsum {

/// Size statistics of an operator's output stream.
struct StreamStats {
  int64_t tuples = 0;
  int tuple_bytes = 0;
  int64_t pages = 0;
};

/// Pre-order flat view of a plan with every node's output statistics.
/// Index 0 is the root; node i's subtree occupies [i, i + size[i]), so its
/// left child is i + 1 and its right child i + 1 + size[i + 1]. The scans
/// of a subtree are a contiguous run of `scans` (pre-order), so join
/// selectivity reads a subtree's relations without collecting them.
///
/// Rebuilding a FlatPlan reuses its vectors' capacity, so a long-lived
/// instance costs plan after plan without allocating.
struct FlatPlan {
  std::vector<const PlanNode*> nodes;
  std::vector<int> size;           // subtree size per index
  std::vector<StreamStats> stats;  // output statistics per index
  std::vector<RelationId> scans;   // scanned relations, pre-order
  std::vector<int> first_scan;     // per index (and one past the end)

  int num_nodes() const { return static_cast<int>(nodes.size()); }
  int Left(int i) const { return i + 1; }
  int Right(int i) const { return i + 1 + size[i + 1]; }
  /// Relations scanned in the subtree rooted at index `i`, pre-order.
  std::span<const RelationId> ScansBelow(int i) const {
    const int begin = first_scan[i];
    const int end = first_scan[i + size[i]];
    return std::span<const RelationId>(scans).subspan(begin, end - begin);
  }
};

/// Flattens `plan` into `flat` and derives output cardinalities bottom-up:
///  - scan: the relation's tuples;
///  - select: selectivity * input;
///  - join: query.selectivity_factor * min(left, right) tuples (the paper's
///    functional-join model; 1.0 keeps intermediate results at base-relation
///    size, 0.2 is the HiSel query), or left * right for Cartesian products;
///  - project: tuples unchanged, width scaled by width_factor;
///  - aggregate: min(num_groups, input tuples);
///  - union: sum of the inputs (bag union);
///  - display: passes through.
/// Join results are projected to the max input tuple width (the paper
/// projects all temporaries back to 100 bytes). This is the one
/// implementation of the formulas; the coster reads the flat view directly.
void BuildFlatPlan(const Plan& plan, const Catalog& catalog,
                   const QueryGraph& query, const CostParams& params,
                   FlatPlan* flat);

/// Per-node output statistics keyed by node pointer.
using PlanStats = std::unordered_map<const PlanNode*, StreamStats>;

/// The statistics of BuildFlatPlan keyed by node, for callers that walk
/// the plan tree (executor, communication cost, result cache).
PlanStats ComputeStats(const Plan& plan, const Catalog& catalog,
                       const QueryGraph& query, const CostParams& params);

}  // namespace dimsum

#endif  // DIMSUM_COST_CARDINALITY_H_
