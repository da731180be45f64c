// The optimizer's per-evaluation path -- site binding, the move-legality
// check and the GHK92 estimate -- must not allocate once warmed up: 2PO
// runs it thousands of times per optimization. This binary replaces the
// global operator new with a counting pass-through to malloc, warms each
// call up on a plan, repeats it on the same plan and expects no
// allocation.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "cost/response_time.h"
#include "plan/binding.h"
#include "plan/transforms.h"
#include "plan/validate.h"

namespace {

std::atomic<long> g_allocations{0};

void* CountedAlloc(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(bytes == 0 ? 1 : bytes);
}

}  // namespace

// Out of line, so the compiler pairs each new with its delete rather than
// with the malloc() and free() inside them.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  if (void* p = CountedAlloc(bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t bytes) {
  if (void* p = CountedAlloc(bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t bytes,
                                     const std::nothrow_t&) noexcept {
  return CountedAlloc(bytes);
}
[[gnu::noinline]] void* operator new[](std::size_t bytes,
                                       const std::nothrow_t&) noexcept {
  return CountedAlloc(bytes);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dimsum {
namespace {

long Allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// A 10-way hybrid-shipping chain join over three servers with partially
/// cached relations (the page-fault chain), a loaded server and a slow
/// client, so every branch of the coster's site handling runs.
struct Fixture {
  Catalog catalog;
  QueryGraph query;
  CostParams params;
  std::map<SiteId, double> load{{ServerSite(1), 0.4}};
  Plan plan;

  Fixture() {
    std::vector<RelationId> relations;
    for (int i = 0; i < 10; ++i) {
      const RelationId id =
          catalog.AddRelation("R" + std::to_string(i), 10000, 100);
      catalog.PlaceRelation(id, ServerSite(i % 3));
      catalog.SetCachedFraction(id, i % 2 == 0 ? 0.5 : 0.0);
      relations.push_back(id);
    }
    query = QueryGraph::Chain(relations);
    params.site_mips[kClientSite] = 25.0;
    TransformConfig transform;
    Rng rng(11);
    plan = RandomPlan(query, transform, rng);
  }
};

TEST(EstimateAllocationTest, RepeatedBindingAndEstimateAllocateNothing) {
  Fixture f;
  BindSites(f.plan, f.catalog);
  const TimeEstimate warm =
      EstimateTime(f.plan, f.catalog, f.query, f.params, f.load);

  const long before = Allocations();
  BindSites(f.plan, f.catalog);
  const TimeEstimate again =
      EstimateTime(f.plan, f.catalog, f.query, f.params, f.load);
  const long allocated = Allocations() - before;

  EXPECT_EQ(allocated, 0);
  EXPECT_EQ(again.response_ms, warm.response_ms);
  EXPECT_EQ(again.total_ms, warm.total_ms);
}

TEST(EstimateAllocationTest, RepeatedMoveLegalityCheckAllocatesNothing) {
  Fixture f;
  ASSERT_TRUE(MatchesQuery(f.plan, f.query));

  const PolicySpace space = PolicySpace::For(ShippingPolicy::kHybridShipping);

  const long before = Allocations();
  const bool legal = IsStructurallyValid(f.plan) && IsWellFormed(f.plan) &&
                     InPolicySpace(f.plan, space) &&
                     MatchesQuery(f.plan, f.query);
  const long allocated = Allocations() - before;

  EXPECT_EQ(allocated, 0);
  EXPECT_TRUE(legal);
}

TEST(EstimateAllocationTest, CounterSeesAllocations) {
  // Guards the guard: the replacement operator new is the one in use.
  const long before = Allocations();
  void* probe = ::operator new(16);
  const long allocated = Allocations() - before;
  ::operator delete(probe);
  EXPECT_EQ(allocated, 1);
}

}  // namespace
}  // namespace dimsum
