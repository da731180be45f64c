#include "plan/validate.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/check.h"

namespace dimsum {
namespace {

bool StructurallyValidNode(const PlanNode& node, bool is_root) {
  if (node.type == OpType::kDisplay) {
    if (!is_root) return false;
    if (node.annotation != SiteAnnotation::kClient) return false;
    if (node.left == nullptr || node.right != nullptr) return false;
  } else if (IsBinaryOp(node.type)) {
    if (node.left == nullptr || node.right == nullptr) return false;
    if (node.annotation != SiteAnnotation::kConsumer &&
        node.annotation != SiteAnnotation::kInnerRel &&
        node.annotation != SiteAnnotation::kOuterRel) {
      return false;
    }
  } else if (IsUnaryOp(node.type)) {
    if (node.left == nullptr || node.right != nullptr) return false;
    if (node.annotation != SiteAnnotation::kConsumer &&
        node.annotation != SiteAnnotation::kProducer) {
      return false;
    }
  } else {  // scan
    if (node.left != nullptr || node.right != nullptr) return false;
    if (node.relation == kInvalidRelation) return false;
    if (node.annotation != SiteAnnotation::kClient &&
        node.annotation != SiteAnnotation::kPrimaryCopy) {
      return false;
    }
  }
  bool valid = true;
  if (node.left) valid &= StructurallyValidNode(*node.left, false);
  if (node.right) valid &= StructurallyValidNode(*node.right, false);
  return valid;
}

/// True if the parent's annotation points at this particular child.
bool ParentPointsAtChild(const PlanNode& parent, bool child_is_left) {
  if (IsBinaryOp(parent.type)) {
    return (parent.annotation == SiteAnnotation::kInnerRel &&
            child_is_left) ||
           (parent.annotation == SiteAnnotation::kOuterRel && !child_is_left);
  }
  if (IsUnaryOp(parent.type)) {
    return parent.annotation == SiteAnnotation::kProducer;
  }
  return false;
}

/// True if the child's annotation points at its parent.
bool ChildPointsAtParent(const PlanNode& child) {
  return (IsBinaryOp(child.type) || IsUnaryOp(child.type)) &&
         child.annotation == SiteAnnotation::kConsumer;
}

bool WellFormedNode(const PlanNode& node) {
  for (int side = 0; side < 2; ++side) {
    const PlanNode* child = (side == 0) ? node.left.get() : node.right.get();
    if (child == nullptr) continue;
    if (ChildPointsAtParent(*child) && ParentPointsAtChild(node, side == 0)) {
      return false;  // two-node annotation cycle
    }
    if (!WellFormedNode(*child)) return false;
  }
  return true;
}

/// Appends the relations scanned below `node` to `scanned` in pre-order,
/// so every subtree's relations are one contiguous run of the buffer. When
/// `connected` is non-null it is cleared if some join's two runs are not
/// connected by a predicate of `query` (a Cartesian product).
void CollectScans(const PlanNode& node, const QueryGraph& query,
                  std::vector<RelationId>* scanned, bool* connected) {
  if (node.type == OpType::kScan) scanned->push_back(node.relation);
  const std::size_t begin = scanned->size();
  if (node.left) CollectScans(*node.left, query, scanned, connected);
  const std::size_t middle = scanned->size();
  if (node.right) CollectScans(*node.right, query, scanned, connected);
  if (connected != nullptr && *connected && node.type == OpType::kJoin) {
    const std::span<const RelationId> all(*scanned);
    *connected = query.Connects(all.subspan(begin, middle - begin),
                                all.subspan(middle));
  }
}

/// True if no join below `node` (inclusive) has joins on both sides; sets
/// `*has_join` to whether the subtree contains a join.
bool LinearNode(const PlanNode& node, bool* has_join) {
  bool left_join = false;
  bool right_join = false;
  if (node.left && !LinearNode(*node.left, &left_join)) return false;
  if (node.right && !LinearNode(*node.right, &right_join)) return false;
  const bool is_join = node.type == OpType::kJoin;
  *has_join = is_join || left_join || right_join;
  return !(is_join && left_join && right_join);
}

}  // namespace

bool IsStructurallyValid(const Plan& plan) {
  if (plan.empty()) return false;
  if (plan.root()->type != OpType::kDisplay) return false;
  return StructurallyValidNode(*plan.root(), true);
}

bool IsWellFormed(const Plan& plan) {
  if (plan.empty()) return false;
  return WellFormedNode(*plan.root());
}

bool InPolicySpace(const Plan& plan, const PolicySpace& space) {
  bool ok = true;
  plan.ForEach([&](const PlanNode& node) {
    if (!space.Allows(node.type, node.annotation)) ok = false;
  });
  return ok;
}

bool MatchesQuery(const Plan& plan, const QueryGraph& query,
                  bool allow_cartesian) {
  if (plan.empty()) return false;
  // One pass collects the scanned relations and, at every join, checks
  // that its two subtrees' runs are connected. The buffers are reused, so
  // the move-legality check allocates nothing in steady state.
  thread_local std::vector<RelationId> scanned;
  thread_local std::vector<RelationId> expected;
  scanned.clear();
  bool connected = true;
  CollectScans(*plan.root(), query, &scanned,
               allow_cartesian ? nullptr : &connected);
  if (!connected) return false;
  // The plan must scan each query relation exactly once.
  if (scanned.size() != query.relations.size()) return false;
  expected.assign(query.relations.begin(), query.relations.end());
  std::sort(scanned.begin(), scanned.end());
  std::sort(expected.begin(), expected.end());
  return scanned == expected;
}

bool IsLinear(const Plan& plan) {
  DIMSUM_CHECK(!plan.empty());
  bool has_join = false;
  return LinearNode(*plan.root(), &has_join);
}

}  // namespace dimsum
