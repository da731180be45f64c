// Golden bit-identity corpus for the executor's capture paths. Each cell
// runs a fixed bound plan (or a session of several) twice: once plain, and
// once with causal-span capture and a Chrome-trace sink attached. It
// renders every OperatorActual field as hexfloats, each query's span list
// as a count plus a digest of every field in recording order, and a content
// hash of the trace JSON. The corpus covers data, query and hybrid
// shipping; minimum allocation with a spilling hash join and a spilling
// sort; maximum allocation; a cached client-scan prefix; a sharded client
// scan; a session running several tickets; and a fault schedule with crash
// stalls and link-drop retransmits. A change to what any probe records, in
// which order, fails here even when it moves a figure by one ulp.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "plan/binding.h"
#include "plan/plan.h"
#include "sim/fault.h"
#include "sim/span.h"
#include "sim/trace.h"

namespace dimsum {
namespace {

/// FNV-1a over raw bytes; doubles contribute their bit patterns.
class Digest {
 public:
  template <typename T>
  Digest& Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) Byte(b);
    return *this;
  }
  Digest& Text(const std::string& text) {
    for (char c : text) Byte(static_cast<unsigned char>(c));
    return *this;
  }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  void Byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Renders one keyed row of values per line, doubles as hexfloats.
class Dump {
 public:
  Dump& Row(const std::string& key) {
    if (!text_.empty()) text_ += '\n';
    text_ += key;
    return *this;
  }
  Dump& F(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %a", value);
    text_ += buf;
    return *this;
  }
  Dump& I(int64_t value) {
    text_ += ' ';
    text_ += std::to_string(value);
    return *this;
  }
  Dump& S(const std::string& value) {
    text_ += ' ';
    text_ += value;
    return *this;
  }
  std::string Finish() { return text_ + '\n'; }

 private:
  std::string text_;
};

/// Per-query metrics and every operator's actuals.
std::string RenderActuals(const ConcurrentResult& r) {
  Dump d;
  for (std::size_t q = 0; q < r.per_query.size(); ++q) {
    const ExecMetrics& m = r.per_query[q];
    d.Row("query")
        .I(static_cast<int64_t>(q))
        .F(m.response_ms)
        .I(m.data_pages_sent)
        .F(m.fault_stall_ms)
        .I(m.retransmits)
        .I(static_cast<int64_t>(m.operator_actuals.size()));
    for (std::size_t i = 0; i < m.operator_actuals.size(); ++i) {
      const OperatorActual& a = m.operator_actuals[i];
      d.Row(" op")
          .I(static_cast<int64_t>(i))
          .F(a.cpu_ms)
          .F(a.disk_ms)
          .F(a.net_ms)
          .F(a.stall_ms)
          .F(a.start_ms)
          .F(a.end_ms)
          .I(a.pages_in)
          .I(a.pages_out);
    }
  }
  return d.Finish();
}

/// Span counts and field digests per query, plus the trace's content hash.
std::string RenderCapture(const ConcurrentResult& r,
                          const sim::TraceSink& trace) {
  Dump d;
  for (std::size_t q = 0; q < r.spans.size(); ++q) {
    const sim::QuerySpans& spans = r.spans[q];
    Digest digest;
    for (const sim::Span& s : spans.spans) {
      digest.Add(s.op)
          .Add(s.begin_ms)
          .Add(s.end_ms)
          .Add(static_cast<uint8_t>(s.kind))
          .Add(s.service_ms)
          .Add(s.site)
          .Add(s.peer_op);
    }
    d.Row("spans")
        .I(static_cast<int64_t>(q))
        .F(spans.start_ms)
        .F(spans.complete_ms)
        .I(spans.root_op)
        .I(spans.num_ops)
        .I(static_cast<int64_t>(spans.spans.size()))
        .S(digest.Hex());
  }
  std::ostringstream json;
  trace.WriteJson(json);
  d.Row("trace")
      .I(static_cast<int64_t>(trace.num_events()))
      .S(Digest().Text(json.str()).Hex());
  return d.Finish();
}

/// One cell's inputs: a one-client catalog, a system and one or more
/// bound plans.
struct Scenario {
  Catalog catalog;
  SystemConfig config;
  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  std::vector<double> start_ms;
  sim::FaultSchedule faults;

  /// `count` 10000 x 100 B relations (250 pages), relation i on server
  /// i % servers, the client caching `cached` of every relation.
  void Relations(int count, int servers, double cached = 0.0) {
    config.num_servers = servers;
    for (int i = 0; i < count; ++i) {
      catalog.AddRelation("R" + std::to_string(i), 10000, 100);
      catalog.PlaceRelation(i, ServerSite(i % servers));
      catalog.SetCachedFraction(i, cached);
    }
  }

  /// Binds `plan` and queues it at `start`.
  void Add(Plan plan, double start = 0.0) {
    std::vector<RelationId> relations;
    plan.ForEach([&](const PlanNode& node) {
      if (node.type == OpType::kScan) relations.push_back(node.relation);
    });
    QueryGraph query = QueryGraph::Chain(std::move(relations));
    BindSites(plan, catalog);
    plans.push_back(std::move(plan));
    queries.push_back(std::move(query));
    start_ms.push_back(start);
  }

  void Faults(const std::string& spec) {
    faults = sim::ParseFaultSpec(spec);
    config.faults = &faults;
  }

  ConcurrentResult Run(const SystemConfig& run_config) const {
    std::vector<WorkloadQuery> batch;
    for (std::size_t q = 0; q < plans.size(); ++q) {
      WorkloadQuery wq{&plans[q], &queries[q]};
      wq.start_ms = start_ms[q];
      batch.push_back(wq);
    }
    return ExecuteConcurrent(batch, catalog, run_config, /*seed=*/3);
  }
};

/// Left-deep chain join over relations 0..n-1: scans annotated `scan`,
/// joins `join`.
std::unique_ptr<PlanNode> Chain(int n, SiteAnnotation scan,
                                SiteAnnotation join) {
  std::unique_ptr<PlanNode> tree = MakeScan(0, scan);
  for (int i = 1; i < n; ++i) {
    tree = MakeJoin(MakeScan(i, scan), std::move(tree), join);
  }
  return tree;
}

Plan DataShipping(int n) {
  return Plan(MakeDisplay(
      Chain(n, SiteAnnotation::kClient, SiteAnnotation::kConsumer)));
}

Plan QueryShipping(int n) {
  return Plan(MakeDisplay(
      Chain(n, SiteAnnotation::kPrimaryCopy, SiteAnnotation::kInnerRel)));
}

/// Hybrid: server scans, the lower join at the inner relation's server,
/// the upper one at the client.
Plan HybridShipping() {
  auto lower = MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                        MakeScan(1, SiteAnnotation::kPrimaryCopy),
                        SiteAnnotation::kInnerRel);
  return Plan(MakeDisplay(MakeJoin(MakeScan(2, SiteAnnotation::kClient),
                                   std::move(lower),
                                   SiteAnnotation::kConsumer)));
}

/// Every non-join operator kind over a join: select, project, aggregate,
/// sort and union, with a site-crossing edge under each.
Plan ExtendedOps() {
  auto left = MakeSelect(MakeScan(0, SiteAnnotation::kPrimaryCopy), 0.5,
                         SiteAnnotation::kProducer);
  auto right = MakeProject(MakeScan(1, SiteAnnotation::kPrimaryCopy), 0.5,
                           SiteAnnotation::kConsumer);
  auto join = MakeJoin(std::move(left), std::move(right),
                       SiteAnnotation::kInnerRel);
  auto both = MakeUnion(std::move(join),
                        MakeScan(2, SiteAnnotation::kPrimaryCopy),
                        SiteAnnotation::kInnerRel);
  auto sorted = MakeSort(std::move(both), SiteAnnotation::kProducer);
  return Plan(MakeDisplay(MakeAggregate(std::move(sorted), /*num_groups=*/500,
                                        SiteAnnotation::kConsumer)));
}

struct Cell {
  const char* name;
  std::function<void(Scenario&)> build;
};

std::vector<Cell> Cells() {
  return {
      {"ds.3way.min",
       [](Scenario& s) {
         s.Relations(3, 2);
         s.Add(DataShipping(3));
       }},
      {"qs.3way.min",
       [](Scenario& s) {
         s.Relations(3, 2);
         s.Add(QueryShipping(3));
       }},
      {"hy.3way.min",
       [](Scenario& s) {
         s.Relations(3, 2);
         s.Add(HybridShipping());
       }},
      {"min.spilling_join_and_sort",
       [](Scenario& s) {
         s.Relations(3, 2);
         s.config.params.buf_alloc = BufAlloc::kMinimum;
         s.Add(ExtendedOps());
       }},
      {"max.extended_ops",
       [](Scenario& s) {
         s.Relations(3, 2);
         s.config.params.buf_alloc = BufAlloc::kMaximum;
         s.Add(ExtendedOps());
       }},
      {"max.qs.4way",
       [](Scenario& s) {
         s.Relations(4, 2);
         s.config.params.buf_alloc = BufAlloc::kMaximum;
         s.Add(QueryShipping(4));
       }},
      {"hy.cached_prefix",
       [](Scenario& s) {
         s.Relations(3, 1, /*cached=*/0.5);
         s.Add(HybridShipping());
       }},
      {"sharded.client_scan",
       [](Scenario& s) {
         s.config.num_servers = 3;
         s.catalog.AddRelation("R0", 6000, 100);
         s.catalog.ShardRelation(0, {ServerSite(0), ServerSite(1),
                                     ServerSite(2)},
                                 ShardScheme::kRange);
         s.Add(Plan(MakeDisplay(MakeScan(0, SiteAnnotation::kClient))));
       }},
      {"session.4_tickets",
       [](Scenario& s) {
         s.Relations(3, 2, /*cached=*/0.25);
         s.config.server_disk_load_per_sec[ServerSite(0)] = 30.0;
         s.Add(QueryShipping(2));
         s.Add(DataShipping(2));
         s.Add(HybridShipping(), /*start=*/400.0);
         s.Add(QueryShipping(3), /*start=*/900.0);
       }},
      {"faults.crash_and_link_drop",
       [](Scenario& s) {
         s.Relations(3, 2);
         s.Faults("crash:site=1,at=0,for=3000;crash:site=2,at=6000,for=2500;"
                  "link:drop,at=4000,for=3000;link:delay=2,at=9000,for=2000");
         s.Add(HybridShipping());
         s.Add(DataShipping(2), /*start=*/1500.0);
       }},
  };
}

/// Runs one cell plain and captured; both runs must agree on every actual.
std::string RunCell(const Cell& cell) {
  Scenario s;
  cell.build(s);
  const ConcurrentResult plain = s.Run(s.config);
  SystemConfig captured = s.config;
  sim::TraceSink trace;
  captured.collect_spans = true;
  captured.trace = &trace;
  const ConcurrentResult observed = s.Run(captured);
  const std::string actuals = RenderActuals(plain);
  EXPECT_EQ(RenderActuals(observed), actuals)
      << "capture perturbed the actuals";
  return actuals + RenderCapture(observed, trace);
}

struct GoldenCell {
  const char* name;
  const char* text;
};

// Expected renderings of Cells(), in order.
#include "capture_golden_data.inc"

TEST(CaptureGoldenTest, ActualsSpansAndTracesAreBitIdenticalToTheCorpus) {
  const std::vector<Cell> cells = Cells();
  ASSERT_EQ(std::size(kGolden), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].name);
    EXPECT_STREQ(kGolden[i].name, cells[i].name);
    EXPECT_EQ(RunCell(cells[i]), kGolden[i].text);
  }
}

/// The named cell's scenario, built.
void BuildCell(const std::string& name, Scenario& s) {
  for (const Cell& cell : Cells()) {
    if (name == cell.name) return cell.build(s);
  }
  FAIL() << "no cell " << name;
}

TEST(CaptureGoldenTest, CorpusExercisesEveryCapturePath) {
  // The fault cell stalls on crashes and retransmits dropped pages; the
  // minimum-allocation cell spills (its join and sort write temp pages).
  Scenario faulted;
  BuildCell("faults.crash_and_link_drop", faulted);
  const ConcurrentResult f = faulted.Run(faulted.config);
  double stall = 0.0;
  int64_t retransmits = 0;
  for (const ExecMetrics& m : f.per_query) {
    stall += m.fault_stall_ms;
    retransmits += m.retransmits;
  }
  EXPECT_GT(stall, 0.0);
  EXPECT_GT(retransmits, 0);

  Scenario spilling;
  BuildCell("min.spilling_join_and_sort", spilling);
  EXPECT_GT(spilling.Run(spilling.config).totals.disk.writes, 0u);
}

}  // namespace
}  // namespace dimsum
