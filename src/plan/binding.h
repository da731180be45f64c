#ifndef DIMSUM_PLAN_BINDING_H_
#define DIMSUM_PLAN_BINDING_H_

#include <vector>

#include "catalog/catalog.h"
#include "plan/plan.h"

namespace dimsum {

/// Binds the logical site annotations of `plan` to physical sites
/// (Section 2.1): the display and scan locations are resolved first
/// (client / primary copy / client cache), and consumer, inner-relation,
/// outer-relation and producer annotations take the site they point at,
/// in one pass over the tree.
///
/// Requires a structurally valid, well-formed plan; checks-fails otherwise.
/// Sets PlanNode::bound_site on every node.
void BindSites(Plan& plan, const Catalog& catalog,
               SiteId client = kClientSite);

/// Returns true if every node of the plan has a bound site.
bool IsFullyBound(const Plan& plan);

/// Clears bound sites (useful before re-binding under a new placement).
void ClearBinding(Plan& plan);

/// Server sites a fully bound plan depends on: every server a node is
/// bound to, plus the primary-copy site of any client-cached scan whose
/// cache holds less than the full relation (the remainder faults in from
/// the server). Sorted, deduplicated. Check-fails unless fully bound.
///
/// The fault-injection recovery path uses this to decide whether a plan
/// touches a crashed site before (re)submitting it.
std::vector<SiteId> BoundServerSites(const Plan& plan, const Catalog& catalog,
                                     int page_bytes);

}  // namespace dimsum

#endif  // DIMSUM_PLAN_BINDING_H_
