#ifndef DIMSUM_PLAN_QUERY_H_
#define DIMSUM_PLAN_QUERY_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace dimsum {

/// Join-graph description of a select-project-join query. Relations are
/// vertices; an edge between two relations means they share a join
/// attribute (an equijoin predicate). The paper's benchmark uses chain
/// ("functional") joins; the Section 5 example uses a complete graph.
struct QueryGraph {
  std::vector<RelationId> relations;
  std::vector<std::pair<RelationId, RelationId>> edges;

  /// The client site this query belongs to: its display runs here, its
  /// client-annotated scans read this client's cache, and binding, cost
  /// estimation, and optimization all resolve "client" to this site. The
  /// default is the single-client convention (site 0).
  SiteId home_client = kClientSite;

  /// Join selectivity model: joining inputs of L and R tuples produces
  /// selectivity_factor * min(L, R) tuples. 1.0 is the paper's "moderate"
  /// functional join (result has the size and cardinality of one base
  /// relation); 0.2 is the paper's HiSel query.
  double selectivity_factor = 1.0;

  /// Optional per-relation selection predicates (same order as
  /// `relations`); 1.0 means no selection. Empty means no selections.
  std::vector<double> scan_selectivities;

  int num_relations() const { return static_cast<int>(relations.size()); }

  bool HasEdge(RelationId a, RelationId b) const {
    for (const auto& [x, y] : edges) {
      if ((x == a && y == b) || (x == b && y == a)) return true;
    }
    return false;
  }

  /// True if some join predicate connects a relation in `left` with a
  /// relation in `right` (i.e., joining them is not a Cartesian product).
  bool Connects(std::span<const RelationId> left,
                std::span<const RelationId> right) const {
    for (RelationId a : left) {
      for (RelationId b : right) {
        if (HasEdge(a, b)) return true;
      }
    }
    return false;
  }

  double ScanSelectivity(RelationId id) const {
    if (scan_selectivities.empty()) return 1.0;
    for (int i = 0; i < num_relations(); ++i) {
      if (relations[i] == id) return scan_selectivities[i];
    }
    DIMSUM_UNREACHABLE() << "relation " << id << " not in query";
  }

  /// Builds a chain query: relations[0] - relations[1] - ... - relations[n-1].
  static QueryGraph Chain(std::vector<RelationId> relations,
                          double selectivity_factor = 1.0) {
    QueryGraph graph;
    graph.selectivity_factor = selectivity_factor;
    for (size_t i = 0; i + 1 < relations.size(); ++i) {
      graph.edges.emplace_back(relations[i], relations[i + 1]);
    }
    graph.relations = std::move(relations);
    return graph;
  }

  /// Builds a complete ("clique") query: every pair joinable.
  static QueryGraph Complete(std::vector<RelationId> relations,
                             double selectivity_factor = 1.0) {
    QueryGraph graph;
    graph.selectivity_factor = selectivity_factor;
    for (size_t i = 0; i < relations.size(); ++i) {
      for (size_t j = i + 1; j < relations.size(); ++j) {
        graph.edges.emplace_back(relations[i], relations[j]);
      }
    }
    graph.relations = std::move(relations);
    return graph;
  }
};

}  // namespace dimsum

#endif  // DIMSUM_PLAN_QUERY_H_
