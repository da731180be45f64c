#include "cost/cardinality.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dimsum {
namespace {

int64_t PagesFor(int64_t tuples, int tuple_bytes, int page_bytes) {
  if (tuples == 0) return 0;
  const int64_t per_page = std::max<int64_t>(1, page_bytes / tuple_bytes);
  return (tuples + per_page - 1) / per_page;
}

/// Appends the subtree rooted at `node` in pre-order.
void Flatten(const PlanNode& node, FlatPlan* flat) {
  const int index = flat->num_nodes();
  flat->nodes.push_back(&node);
  flat->size.push_back(0);
  flat->first_scan.push_back(static_cast<int>(flat->scans.size()));
  if (node.type == OpType::kScan) flat->scans.push_back(node.relation);
  if (node.left) Flatten(*node.left, flat);
  if (node.right) Flatten(*node.right, flat);
  flat->size[index] = flat->num_nodes() - index;
}

/// Output statistics of index `i`; its children's are already final.
StreamStats Derive(const FlatPlan& flat, int i, const Catalog& catalog,
                   const QueryGraph& query, const CostParams& params) {
  const PlanNode& node = *flat.nodes[i];
  StreamStats out;
  switch (node.type) {
    case OpType::kScan: {
      // Shard fragments and key-restricted scans emit the slice the
      // catalog computes; a default scan (shard -1, key [0,1)) emits the
      // whole relation.
      out.tuples = catalog
                       .ScanExtent(node.relation, node.shard, node.key_lo,
                                   node.key_hi, params.page_bytes)
                       .tuples;
      out.tuple_bytes = catalog.relation(node.relation).tuple_bytes;
      break;
    }
    case OpType::kSelect: {
      const StreamStats& in = flat.stats[flat.Left(i)];
      // llround, not truncation: 0.7 * 10000 tuples must estimate 7000,
      // not lose a tuple to floating-point representation error.
      out.tuples = std::llround(node.selectivity *
                                static_cast<double>(in.tuples));
      out.tuple_bytes = in.tuple_bytes;
      break;
    }
    case OpType::kProject: {
      const StreamStats& in = flat.stats[flat.Left(i)];
      out.tuples = in.tuples;
      out.tuple_bytes = std::max(
          1, static_cast<int>(std::llround(
                 node.width_factor * static_cast<double>(in.tuple_bytes))));
      break;
    }
    case OpType::kAggregate: {
      const StreamStats& in = flat.stats[flat.Left(i)];
      out.tuples = std::min(node.num_groups, in.tuples);
      out.tuple_bytes = in.tuple_bytes;
      break;
    }
    case OpType::kSort:
    case OpType::kDisplay:
      out = flat.stats[flat.Left(i)];
      break;
    case OpType::kUnion: {
      const StreamStats& l = flat.stats[flat.Left(i)];
      const StreamStats& r = flat.stats[flat.Right(i)];
      out.tuples = l.tuples + r.tuples;
      out.tuple_bytes = std::max(l.tuple_bytes, r.tuple_bytes);
      break;
    }
    case OpType::kJoin: {
      const StreamStats& l = flat.stats[flat.Left(i)];
      const StreamStats& r = flat.stats[flat.Right(i)];
      if (query.Connects(flat.ScansBelow(flat.Left(i)),
                         flat.ScansBelow(flat.Right(i)))) {
        out.tuples = std::llround(
            query.selectivity_factor *
            static_cast<double>(std::min(l.tuples, r.tuples)));
      } else {
        out.tuples = l.tuples * r.tuples;  // Cartesian product
      }
      out.tuple_bytes = std::max(l.tuple_bytes, r.tuple_bytes);
      break;
    }
  }
  DIMSUM_CHECK_GT(out.tuple_bytes, 0);
  out.pages = PagesFor(out.tuples, out.tuple_bytes, params.page_bytes);
  return out;
}

}  // namespace

void BuildFlatPlan(const Plan& plan, const Catalog& catalog,
                   const QueryGraph& query, const CostParams& params,
                   FlatPlan* flat) {
  DIMSUM_CHECK(!plan.empty());
  flat->nodes.clear();
  flat->size.clear();
  flat->scans.clear();
  flat->first_scan.clear();
  Flatten(*plan.root(), flat);
  flat->first_scan.push_back(static_cast<int>(flat->scans.size()));
  // Children follow their parent in pre-order, so a reverse sweep sees
  // every input before the operator consuming it.
  flat->stats.resize(flat->nodes.size());
  for (int i = flat->num_nodes() - 1; i >= 0; --i) {
    flat->stats[i] = Derive(*flat, i, catalog, query, params);
  }
}

PlanStats ComputeStats(const Plan& plan, const Catalog& catalog,
                       const QueryGraph& query, const CostParams& params) {
  FlatPlan flat;
  BuildFlatPlan(plan, catalog, query, params, &flat);
  PlanStats stats;
  stats.reserve(flat.nodes.size());
  for (int i = 0; i < flat.num_nodes(); ++i) {
    stats.emplace(flat.nodes[i], flat.stats[i]);
  }
  return stats;
}

}  // namespace dimsum
