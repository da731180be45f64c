#include "workload/driver.h"

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/bottleneck.h"
#include "core/critical_path.h"
#include "opt/cost_cache.h"
#include "opt/two_step.h"
#include "plan/binding.h"
#include "sim/fault.h"
#include "sim/trace.h"

namespace dimsum {

const char* ToString(ReplicaPolicy policy) {
  switch (policy) {
    case ReplicaPolicy::kFirstCopy:
      return "first-copy";
    case ReplicaPolicy::kRoundRobin:
      return "round-robin";
    case ReplicaPolicy::kLeastOutstanding:
      return "least-outstanding";
  }
  DIMSUM_UNREACHABLE();
}

// ---------------------------------------------------------------------------
// Run core: validation, the session, replica balancing, per-ticket
// bookkeeping, the submit/await/complete step and every post-run fold.
// The closed and open loops below are arrival sources over it.
// ---------------------------------------------------------------------------

namespace {

/// Rejects a timing that is NaN, infinite or negative, naming the field:
/// an infinite mean turns exponential draws into NaN delays deep in the
/// kernel, and a negative one fails there too.
void CheckNonNegative(double value, const char* field) {
  DIMSUM_CHECK(std::isfinite(value) && value >= 0.0)
      << field << " must be finite and >= 0, got " << value;
}

/// As CheckNonNegative, but zero is rejected too. An infinite arrival
/// window or rate would never let the arrival generator return.
void CheckPositive(double value, const char* field) {
  DIMSUM_CHECK(std::isfinite(value) && value > 0.0)
      << field << " must be finite and > 0, got " << value;
}

/// Per-plan facts a run derives once and reuses across tickets. Keyed by
/// address, so every plan looked up here must outlive the run.
class PlanCache {
 public:
  struct Facts {
    /// Server sites the plan touches: replica balancing, crash detection
    /// and the query-log fan-out.
    std::vector<SiteId> server_sites;
    /// Per-operator sites for bottleneck attribution.
    std::vector<SiteId> operator_sites;
    /// Query-log plan signature hash.
    uint64_t signature = 0;
  };

  PlanCache(const Catalog& catalog, int page_bytes)
      : catalog_(catalog), page_bytes_(page_bytes) {}

  const Facts& Get(const Plan& plan) {
    auto [it, inserted] = facts_.try_emplace(&plan);
    if (inserted) {
      it->second = Facts{BoundServerSites(plan, catalog_, page_bytes_),
                         OperatorSites(plan),
                         HashPlanSignature(PlanSignature(plan))};
    }
    return it->second;
  }

 private:
  const Catalog& catalog_;
  const int page_bytes_;
  std::unordered_map<const Plan*, Facts> facts_;
};

double HalfWidth90(const RunningStat& stat) {
  return stat.count() >= 2 ? stat.ConfidenceHalfWidth90() : 0.0;
}

/// Submission-time replica selection. Constructed only when a balancing
/// policy is requested *and* the catalog holds multiple copies of
/// something (whole-relation replicas or shard copies); single-copy or
/// kFirstCopy runs never instantiate it, so their event and allocation
/// sequences are untouched.
///
/// Balanced submissions are cached clones of the client's plan with each
/// multi-copy scan re-pointed at the chosen replica and the clone re-bound
/// for the client; a steady state therefore allocates nothing (the variant
/// space is bounded by the product of replica counts). Single-copy scans
/// always keep the plan's own replica annotation. Shard fragments choose
/// among their shard's copies (ShardSite), so a replicated sharded
/// relation balances per shard, not per relation.
class ReplicaBalancer {
 public:
  ReplicaBalancer(const Catalog& catalog, ReplicaPolicy policy,
                  PlanCache& plans, int num_sites)
      : catalog_(catalog),
        policy_(policy),
        plans_(plans),
        round_robin_(static_cast<std::size_t>(catalog.num_relations()), 0),
        outstanding_(static_cast<std::size_t>(num_sites), 0),
        ewma_ms_(static_cast<std::size_t>(num_sites), 0.0) {}

  /// The plan to submit for this arrival: `base` with every multi-copy
  /// scan's serving replica re-chosen per the policy. The returned plan is
  /// owned here and outlives the run.
  const Plan* Choose(const Plan& base, SiteId client) {
    std::vector<int32_t> assignment;
    base.ForEach([&](const PlanNode& node) {
      if (node.type != OpType::kScan) return;
      int32_t choice = node.replica;
      const int copies = catalog_.ScanCopies(node.relation);
      if (copies > 1) {
        choice = policy_ == ReplicaPolicy::kRoundRobin
                     ? NextRoundRobin(node.relation, copies)
                     : LeastOutstanding(node.relation, node.shard, copies);
      }
      assignment.push_back(choice);
    });
    auto [it, inserted] =
        variants_.try_emplace({&base, std::move(assignment)});
    if (inserted) {
      const std::vector<int32_t>& chosen = it->first.second;
      auto variant = std::make_unique<Plan>(base.Clone());
      std::size_t scan = 0;
      variant->ForEachMutable([&](PlanNode& node) {
        if (node.type == OpType::kScan) node.replica = chosen[scan++];
      });
      BindSites(*variant, catalog_, client);
      it->second = std::move(variant);
    }
    return it->second.get();
  }

  void OnSubmit(const Plan* plan) {
    for (const SiteId site : plans_.Get(*plan).server_sites) {
      ++outstanding_[static_cast<std::size_t>(site)];
    }
  }

  /// Completion hook: releases the in-flight counts and folds the
  /// query's response time into each touched server's EWMA estimate.
  void OnComplete(const Plan* plan, double response_ms) {
    for (const SiteId site : plans_.Get(*plan).server_sites) {
      --outstanding_[static_cast<std::size_t>(site)];
      double& est = ewma_ms_[static_cast<std::size_t>(site)];
      // Seed with the first observation, then decay (alpha = 0.2). A
      // never-observed site keeps est == 0, which Score treats as a
      // neutral multiplier -- cold state ranks exactly like raw counts.
      est = est > 0.0 ? kEwmaAlpha * response_ms + (1.0 - kEwmaAlpha) * est
                      : response_ms;
    }
  }

  /// Queries currently in flight that touch `site` (for telemetry).
  int outstanding(SiteId site) const {
    return outstanding_[static_cast<std::size_t>(site)];
  }

 private:
  static constexpr double kEwmaAlpha = 0.2;

  /// Serving site of copy `replica` of a scan: the shard's copy chain for
  /// shard fragments (and shard 0's for a logical sharded scan), the
  /// replica list otherwise.
  SiteId CopySite(RelationId rel, int32_t shard, int32_t replica) const {
    if (catalog_.sharded(rel)) {
      return catalog_.ShardSite(rel, shard >= 0 ? shard : 0, replica);
    }
    return catalog_.ReplicaSite(rel, replica);
  }

  int32_t NextRoundRobin(RelationId rel, int copies) {
    const int32_t r = round_robin_[static_cast<std::size_t>(rel)];
    round_robin_[static_cast<std::size_t>(rel)] = (r + 1) % copies;
    return r;
  }

  int32_t LeastOutstanding(RelationId rel, int32_t shard, int copies) const {
    // Rank candidates lexicographically: live queue depth (in-flight
    // queries touching the site) first, the site's decayed response-time
    // estimate second, lowest server site last. Queue depth stays the
    // primary signal because whole-query response times are recency-
    // confounded: under a building backlog later completions always
    // report longer responses, so a site avoided for a while keeps a
    // frozen (and eventually flattering) estimate -- weighting the count
    // *by* the estimate lets that staleness override live queue state and
    // herds submissions. Depth ties are where the count is uninformative,
    // and there the EWMA steers toward the site that has actually been
    // completing faster (unobserved sites rank as estimate 0, i.e. are
    // preferred -- which also makes a cold balancer rank exactly like the
    // raw-count policy).
    //
    // Residual ties break toward the lowest *server site*, not the lowest
    // replica index: relations whose copy lists are rotations of each
    // other then agree on the winning site, so a query's scans co-locate
    // and the whole query lands on the least-loaded server (join-the-
    // shortest-queue per query rather than per relation). The estimate is
    // per site, so co-location survives the EWMA tie-break too.
    const auto ewma = [&](SiteId site) {
      return ewma_ms_[static_cast<std::size_t>(site)];
    };
    int32_t best = 0;
    SiteId best_site = CopySite(rel, shard, 0);
    for (int32_t r = 1; r < copies; ++r) {
      const SiteId site = CopySite(rel, shard, r);
      const int load = outstanding(site);
      const int best_load = outstanding(best_site);
      const bool wins =
          load < best_load ||
          (load == best_load &&
           (ewma(site) < ewma(best_site) ||
            (ewma(site) == ewma(best_site) && site < best_site)));
      if (wins) {
        best = r;
        best_site = site;
      }
    }
    return best;
  }

  const Catalog& catalog_;
  const ReplicaPolicy policy_;
  PlanCache& plans_;
  std::vector<int32_t> round_robin_;       // per-relation rotation cursor
  std::vector<int> outstanding_;           // per-site in-flight queries
  std::vector<double> ewma_ms_;            // per-site response-time EWMA
  std::map<std::pair<const Plan*, std::vector<int32_t>>,
           std::unique_ptr<Plan>>
      variants_;
};

/// True when some sharded relation keeps more than one copy per shard
/// (chained declustering), giving a balancing policy a real choice.
bool HasBalancedShards(const Catalog& catalog) {
  for (RelationId id = 0; id < catalog.num_relations(); ++id) {
    if (catalog.sharded(id) && catalog.ShardReplication(id) > 1) return true;
  }
  return false;
}

/// Creates a balancer when the (policy, catalog) pair calls for one.
std::unique_ptr<ReplicaBalancer> MakeBalancer(const Catalog& catalog,
                                              ReplicaPolicy policy,
                                              PlanCache& plans,
                                              int num_sites) {
  if (policy == ReplicaPolicy::kFirstCopy ||
      (!catalog.replicated() && !HasBalancedShards(catalog))) {
    return nullptr;
  }
  return std::make_unique<ReplicaBalancer>(catalog, policy, plans, num_sites);
}

/// The arrival source driving a run. The core's folds branch on it where
/// the two loops measure differently; the committed outputs pin both.
enum class Source { kClosedLoop, kOpenLoop };

/// What the core records about one submitted query.
struct TicketRecord {
  SiteId client = kUnboundSite;
  /// Plan the ticket ran and is attributed against: the client's plan, its
  /// balanced variant, or a recovery re-planned tree.
  const Plan* plan = nullptr;
  /// Closed loop: the instant the client began issuing (before crash
  /// retries). Open loop: the arrival instant.
  double issue_ms = 0.0;
  /// Aborted submission attempts that preceded the submission.
  std::vector<QueryLogAttempt> attempts;
};

/// Figures the core folds that only one driver's result carries.
struct SideFolds {
  double fault_stall_ms = 0.0;
  int64_t retransmits = 0;
  int64_t retries = 0;
  int64_t reopts = 0;
  /// Issue-to-submit waits over the measured completions (the open loop's
  /// admission wait).
  RunningStat queue_wait_ms;
  /// Availability-windowed responses over the measured completions
  /// (faulted runs only).
  RunningStat healthy_response_ms;
  RunningStat degraded_response_ms;
};

/// The machinery both drivers share. Lives in the driver's frame, which
/// outlives session().Run().
class RunCore {
 public:
  RunCore(Source source, const std::vector<ClientWorkload>& clients,
          const Catalog& catalog, const SystemConfig& config,
          const WorkloadRunConfig& run, int warmup)
      // Validation runs first: the session is built from the same inputs.
      : warmup_(Validate(clients, catalog, config, run, warmup)),
        source_(source),
        config_(config),
        run_(run),
        session_(catalog, SessionConfig(config, run.collect_query_log),
                 run.seed),
        plans_(catalog, config.params.page_bytes),
        balancer_(MakeBalancer(catalog, run.replica_policy, plans_,
                               config.num_sites())),
        rng_(run.seed * 6364136223846793005ULL + 1442695040888963407ULL) {}

  ExecSession& session() { return session_; }
  sim::Simulator& sim() { return session_.sim(); }
  PlanCache& plans() { return plans_; }
  /// Non-null when a balancing policy is active (see ReplicaBalancer).
  const ReplicaBalancer* balancer() const { return balancer_.get(); }
  Rng& rng() { return rng_; }
  /// Completions so far, in global completion order.
  const std::vector<Completion>& completions() const { return completions_; }
  const TicketRecord& ticket(int t) const {
    return tickets_[static_cast<std::size_t>(t)];
  }
  /// Policy label stamped into query-log records.
  std::string PolicyLabel() const {
    return run_.policy_label.empty() ? ToString(run_.replica_policy)
                                     : run_.policy_label;
  }

  /// Awaitable end of the step Execute starts: resuming it records the
  /// completion at its instant, so the global completion order falls
  /// directly out of the event order. An awaitable rather than a nested
  /// coroutine, so the step adds no frame to the kernel's frame pool.
  struct Step {
    RunCore& core;
    int ticket;
    double submit_ms;

    bool await_ready() const { return core.session_.IsDone(ticket); }
    void await_suspend(std::coroutine_handle<> caller) {
      core.session_.UntilDone(ticket).await_suspend(caller);
    }
    void await_resume() const { core.Complete(*this); }
  };

  /// The one submit -> await -> complete step, run as
  /// `co_await core.Execute(...)`. Balances `plan` when it is the client's
  /// own (a recovery re-planned tree already chose its sites around the
  /// crash), submits it and records the ticket.
  Step Execute(const ClientWorkload& work, const Plan* plan, SiteId client,
               double issue_ms, std::vector<QueryLogAttempt> attempts) {
    const Plan* to_submit = plan;
    if (balancer_ != nullptr && plan == work.plan) {
      to_submit = balancer_->Choose(*plan, client);
    }
    const int ticket = session_.Submit(*to_submit, *work.query);
    if (balancer_ != nullptr) balancer_->OnSubmit(to_submit);
    DIMSUM_CHECK_EQ(ticket, static_cast<int>(tickets_.size()));
    tickets_.push_back(
        TicketRecord{client, to_submit, issue_ms, std::move(attempts)});
    return Step{*this, ticket, sim().now()};
  }

  /// Post-run folds into the shared result fields, after session().Run().
  /// Returns the figures only one driver's result carries.
  SideFolds Fold(WorkloadRunResult& result) {
    SideFolds side;
    result.totals = session_.Totals();
    const int total = session_.submitted();
    result.per_query.reserve(static_cast<std::size_t>(total));
    for (int t = 0; t < total; ++t) {
      const ExecMetrics& metrics = session_.Metrics(t);
      result.per_query.push_back(metrics);
      side.fault_stall_ms += metrics.fault_stall_ms;
      side.retransmits += metrics.retransmits;
      for (const QueryLogAttempt& attempt : ticket(t).attempts) {
        ++side.retries;
        if (attempt.reoptimized) ++side.reopts;
      }
    }
    result.makespan_ms =
        completions_.empty() ? 0.0 : completions_.back().complete_ms;
    FoldBottleneck(result);
    if (run_.collect_query_log) FoldQueryLog(result);
    FoldSteadyState(result, side);
    FoldRegistry(result.totals, side);
    return side;
  }

 private:
  static int Validate(const std::vector<ClientWorkload>& clients,
                      const Catalog& catalog, const SystemConfig& config,
                      const WorkloadRunConfig& run, int warmup) {
    const int num_clients = static_cast<int>(clients.size());
    DIMSUM_CHECK_GE(num_clients, 1);
    DIMSUM_CHECK_EQ(num_clients, config.num_clients);
    DIMSUM_CHECK_EQ(num_clients, catalog.num_clients());
    DIMSUM_CHECK_GE(run.num_batches, 1);
    DIMSUM_CHECK_GE(warmup, 0) << "warmup must be non-negative";
    for (int c = 0; c < num_clients; ++c) {
      const ClientWorkload& work = clients[c];
      DIMSUM_CHECK(work.plan != nullptr);
      DIMSUM_CHECK(work.query != nullptr);
      DIMSUM_CHECK(!work.plan->empty());
      DIMSUM_CHECK_EQ(work.plan->root()->bound_site, ClientSite(c))
          << "client " << c << "'s plan displays elsewhere";
      DIMSUM_CHECK_EQ(work.query->home_client, ClientSite(c));
    }
    return warmup;
  }

  void Complete(const Step& step) {
    const double now = sim().now();
    if (balancer_ != nullptr) {
      balancer_->OnComplete(ticket(step.ticket).plan, now - step.submit_ms);
    }
    completions_.push_back(Completion{step.ticket, ticket(step.ticket).client,
                                      step.submit_ms, now});
  }

  static SystemConfig SessionConfig(const SystemConfig& config,
                                    bool collect_query_log) {
    // Query logging needs spans; capture is pure observation, so forcing
    // it on the session's config copy leaves results bit-identical.
    SystemConfig session_config = config;
    if (collect_query_log) session_config.collect_spans = true;
    return session_config;
  }

  /// Start of a ticket's response time: the closed loop measures from
  /// submission (crash retries surface as attempts), the open loop from
  /// arrival (the admission wait is part of the figure).
  double ResponseStart(const Completion& c) const {
    return source_ == Source::kOpenLoop ? ticket(c.ticket).issue_ms
                                        : c.submit_ms;
  }

  /// Attributes each ticket against the plan recorded for it. The closed
  /// loop sums in ticket order, the open loop in completion order.
  void FoldBottleneck(WorkloadRunResult& result) {
    BottleneckAccumulator acc;
    const auto add = [&](int t) {
      acc.Add(plans_.Get(*ticket(t).plan).operator_sites, result.per_query[t]);
    };
    if (source_ == Source::kClosedLoop) {
      for (int t = 0; t < static_cast<int>(tickets_.size()); ++t) add(t);
    } else {
      for (const Completion& c : completions_) add(c.ticket);
    }
    result.bottleneck = acc.Finish(result.totals, result.makespan_ms);
  }

  /// One record per completed query, in completion order.
  void FoldQueryLog(WorkloadRunResult& result) {
    const std::string policy = PolicyLabel();
    result.query_log.reserve(completions_.size());
    for (const Completion& c : completions_) {
      const TicketRecord& t = ticket(c.ticket);
      QueryLogRecord record;
      record.policy = policy;
      record.ticket = c.ticket;
      record.client = c.client;
      const PlanCache::Facts& facts = plans_.Get(*t.plan);
      record.plan_signature = facts.signature;
      record.fanout = facts.server_sites;
      record.issue_ms = t.issue_ms;
      record.submit_ms = c.submit_ms;
      record.complete_ms = c.complete_ms;
      record.response_ms = c.complete_ms - ResponseStart(c);
      record.attempts = t.attempts;
      FillResourceTotals(result.per_query[c.ticket], record);
      const sim::QuerySpans* spans = session_.Spans(c.ticket);
      DIMSUM_CHECK(spans != nullptr);
      record.path = ExtractCriticalPath(*spans);
      if (source_ == Source::kOpenLoop) {
        // The admission wait (arrival -> dispatch) precedes execution;
        // with it the segments tile [arrival, complete], so they sum to
        // the open-loop response time.
        if (c.submit_ms > t.issue_ms) {
          record.path.segments.insert(
              record.path.segments.begin(),
              PathSegment{PathKind::kAdmission, true, kUnboundSite,
                          c.submit_ms - t.issue_ms});
        }
        record.path.total_ms = record.response_ms;
      }
      result.query_log.push_back(std::move(record));
    }
  }

  /// Steady-state estimation over the post-warmup completions, in global
  /// completion order (the batch-means method over one merged output
  /// stream): split the measured stream into num_batches contiguous
  /// batches of floor(measured / num_batches) completions (at least one),
  /// folding the remainder into the last batch.
  void FoldSteadyState(WorkloadRunResult& result, SideFolds& side) {
    const int completed = static_cast<int>(completions_.size());
    const int warmup = std::min(warmup_, completed);
    result.warmup_end_ms =
        warmup > 0 ? completions_[warmup - 1].complete_ms : 0.0;
    result.measured = completed - warmup;
    const double window_ms = result.makespan_ms - result.warmup_end_ms;
    result.throughput_qps =
        window_ms > 0.0 ? result.measured / window_ms * 1000.0 : 0.0;

    const int batch_size = std::max(1, result.measured / run_.num_batches);
    sim::FaultState* faults = session_.faults();
    RunningStat overall;
    RunningStat batch;
    int in_batch = 0;
    int batches_done = 0;
    for (int i = warmup; i < completed; ++i) {
      const Completion& c = completions_[i];
      const double start_ms = ResponseStart(c);
      const double response_ms = c.complete_ms - start_ms;
      overall.Add(response_ms);
      side.queue_wait_ms.Add(c.submit_ms - ticket(c.ticket).issue_ms);
      batch.Add(response_ms);
      ++in_batch;
      const bool last_batch = batches_done + 1 >= run_.num_batches;
      if (in_batch >= batch_size && !last_batch) {
        result.batch_means.Add(batch.mean());
        batch = RunningStat();
        in_batch = 0;
        ++batches_done;
      }
      // Availability-windowed split (faulted runs only): degraded when
      // any site was down somewhere in the response window.
      if (faults == nullptr) continue;
      if (faults->AnySiteDownDuring(start_ms, c.complete_ms)) {
        side.degraded_response_ms.Add(response_ms);
      } else {
        side.healthy_response_ms.Add(response_ms);
      }
    }
    if (in_batch > 0) result.batch_means.Add(batch.mean());
    result.mean_response_ms = overall.mean();
    result.response_ci90_ms = HalfWidth90(result.batch_means);
  }

  void FoldRegistry(const BatchTotals& totals, const SideFolds& side) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    if (!registry.enabled()) return;
    registry.counter("driver.completions")
        .Add(static_cast<int64_t>(completions_.size()));
    if (session_.faults() == nullptr) return;
    registry.counter("faults.retries").Add(side.retries);
    registry.counter("faults.reopts").Add(side.reopts);
    registry.counter("faults.retransmits").Add(side.retransmits);
    registry.counter("faults.crashes").Add(totals.crashes);
    registry.gauge("faults.downtime_ms").Add(totals.crash_downtime_ms);
    registry.gauge("faults.stall_ms").Add(side.fault_stall_ms);
    if (config_.collect_histograms && totals.downtime_ms.count() > 0) {
      registry.MergeHistogram("faults.downtime_ms_hist", totals.downtime_ms);
    }
  }

  const int warmup_;
  const Source source_;
  const SystemConfig& config_;
  const WorkloadRunConfig& run_;
  ExecSession session_;
  PlanCache plans_;
  std::unique_ptr<ReplicaBalancer> balancer_;
  Rng rng_;
  std::vector<TicketRecord> tickets_;
  std::vector<Completion> completions_;
};

// ---------------------------------------------------------------------------
// Closed-loop source: think-time clients with crash recovery
// ---------------------------------------------------------------------------

/// First of `sites` that is down at `now_ms`, or kUnboundSite.
SiteId FirstDownSite(const std::vector<SiteId>& sites,
                     sim::FaultState& faults, double now_ms) {
  for (const SiteId site : sites) {
    if (faults.SiteDown(site, now_ms)) return site;
  }
  return kUnboundSite;
}

struct ClosedLoop {
  RunCore& core;
  const Catalog& catalog;
  const RetryPolicy& retry;
  /// Owns every plan recovery re-optimization produced, adopted or not:
  /// adopted plans stay alive for the queries still running on them, and
  /// the plan cache keys by address, so no looked-up plan is freed early.
  std::vector<std::unique_ptr<Plan>> replanned;

  /// One closed-loop client: think, issue, submit, await completion, repeat.
  /// With a fault schedule, each issue first runs crash detection and
  /// recovery (see RetryPolicy).
  sim::Process Client(const ClientWorkload& work, SiteId client, int queries,
                      double think_mean_ms, Rng rng) {
    sim::Simulator& sim = core.sim();
    const Plan* plan = work.plan;
    for (int i = 0; i < queries; ++i) {
      if (i > 0 && think_mean_ms > 0.0) {
        co_await sim.Delay(rng.Exponential(think_mean_ms));
      }
      const double issue_ms = sim.now();
      std::vector<QueryLogAttempt> attempts;
      sim::FaultState* faults = core.session().faults();
      double backoff_ms = retry.backoff_base_ms;
      while (faults != nullptr) {
        // The previous attempt's wait ran until this re-check instant.
        if (!attempts.empty() && attempts.back().wait_ms == 0.0) {
          attempts.back().wait_ms = sim.now() - attempts.back().start_ms;
        }
        const SiteId blocking = FirstDownSite(
            core.plans().Get(*plan).server_sites, *faults, sim.now());
        if (blocking == kUnboundSite) break;
        // The submission attempt times out against the crashed site.
        attempts.push_back(QueryLogAttempt{sim.now(), 0.0, false});
        co_await sim.Delay(retry.detect_timeout_ms);
        if (retry.reoptimize && work.reopt_model != nullptr &&
            work.reopt_config != nullptr) {
          OptimizerConfig reopt = *work.reopt_config;
          reopt.unavailable_sites = faults->DownSites(sim.now());
          Rng opt_rng = rng.Fork();
          OptimizeResult selected = TwoStepSiteSelection(
              *work.reopt_model, *work.plan, *work.query, reopt, opt_rng);
          attempts.back().reoptimized = true;
          Plan& candidate = *replanned.emplace_back(
              std::make_unique<Plan>(std::move(selected.plan)));
          BindSites(candidate, catalog, client);
          if (FirstDownSite(core.plans().Get(candidate).server_sites, *faults,
                            sim.now()) == kUnboundSite) {
            plan = &candidate;
            continue;  // re-check and submit the recovered plan
          }
        }
        if (static_cast<int>(attempts.size()) >= retry.max_retries) {
          // Out of retries; wait for the blocking site to restart (queries
          // are never abandoned).
          while (faults->SiteDown(blocking, sim.now())) {
            co_await sim.Delay(faults->SiteUpAt(blocking, sim.now()) -
                               sim.now());
          }
          continue;
        }
        co_await sim.Delay(backoff_ms);
        backoff_ms =
            std::min(backoff_ms * retry.backoff_mult, retry.backoff_cap_ms);
      }
      co_await core.Execute(work, plan, client, issue_ms, std::move(attempts));
    }
  }
};

}  // namespace

DriverResult RunClosedLoop(const std::vector<ClientWorkload>& clients,
                           const Catalog& catalog, const SystemConfig& config,
                           const DriverConfig& driver) {
  const int num_clients = static_cast<int>(clients.size());
  DIMSUM_CHECK_GE(driver.queries_per_client, 1);
  CheckNonNegative(driver.think_time_mean_ms, "think_time_mean_ms");
  CheckNonNegative(driver.retry.detect_timeout_ms, "retry.detect_timeout_ms");
  CheckNonNegative(driver.retry.backoff_base_ms, "retry.backoff_base_ms");
  CheckNonNegative(driver.retry.backoff_mult, "retry.backoff_mult");
  CheckNonNegative(driver.retry.backoff_cap_ms, "retry.backoff_cap_ms");
  RunCore core(Source::kClosedLoop, clients, catalog, config, driver,
               driver.warmup_queries);
  const int total = num_clients * driver.queries_per_client;
  DIMSUM_CHECK_LT(driver.warmup_queries, total)
      << "warmup must leave at least one measured completion";
  core.session().ExpectQueries(total);
  ClosedLoop loop{core, catalog, driver.retry, {}};
  for (int c = 0; c < num_clients; ++c) {
    core.sim().Spawn(loop.Client(clients[c], ClientSite(c),
                                 driver.queries_per_client,
                                 driver.think_time_mean_ms, core.rng().Fork()));
  }
  core.session().Run();
  DIMSUM_CHECK_EQ(static_cast<int>(core.completions().size()), total);

  DriverResult result;
  const SideFolds side = core.Fold(result);
  result.completions = core.completions();
  for (int t = 0; t < total; ++t) {
    result.query_client.push_back(core.ticket(t).client);
    result.retries_per_query.push_back(
        static_cast<int>(core.ticket(t).attempts.size()));
  }
  result.total_retries = side.retries;
  result.total_reopts = side.reopts;
  result.abort_rate = static_cast<double>(side.retries) /
                      static_cast<double>(total + side.retries);
  result.fault_stall_ms = side.fault_stall_ms;
  result.retransmits = side.retransmits;
  result.healthy_response_ms = side.healthy_response_ms;
  result.degraded_response_ms = side.degraded_response_ms;
  result.healthy_ci90_ms = HalfWidth90(result.healthy_response_ms);
  result.degraded_ci90_ms = HalfWidth90(result.degraded_response_ms);
  return result;
}

// ---------------------------------------------------------------------------
// Open-loop source: arrival generator, admission control, rejected records
// ---------------------------------------------------------------------------

namespace {

struct OpenLoop {
  struct PendingArrival {
    double arrival_ms;
    int client_index;
  };

  RunCore& core;
  const std::vector<ClientWorkload>& clients;
  const AdmissionControl& admission;
  OpenLoopResult& result;
  std::deque<PendingArrival> pending = {};
  int in_flight = 0;
  /// Query-log collection (collect_query_log): records of arrivals turned
  /// away, built at their rejection instants.
  bool collect_log = false;
  std::vector<QueryLogRecord> aborted_log = {};
  std::vector<QueryLogRecord> shed_log = {};

  bool SlotFree() const {
    return admission.max_in_flight <= 0 || in_flight < admission.max_in_flight;
  }

  /// Admission control at the arrival instant: dispatch if a slot is free,
  /// otherwise queue up to max_pending, otherwise shed.
  void Admit(int client_index) {
    ++result.arrivals;
    const double now = core.sim().now();
    if (SlotFree()) {
      Dispatch(client_index, now);
    } else if (static_cast<int>(pending.size()) < admission.max_pending) {
      pending.push_back({now, client_index});
      result.peak_pending =
          std::max(result.peak_pending, static_cast<int>(pending.size()));
    } else {
      ++result.shed;
      LogRejected(shed_log, "shed", now, client_index);
    }
  }

  /// Moves an admitted arrival into execution (consumes an in-flight slot).
  void Dispatch(int client_index, double arrival_ms) {
    ++in_flight;
    ++result.dispatched;
    result.peak_in_flight = std::max(result.peak_in_flight, in_flight);
    core.sim().Spawn(Query(client_index, arrival_ms));
  }

  /// One open-loop query: run it through the core, then hand the freed
  /// slot to the pending queue (skipping arrivals that outwaited
  /// abort_wait_ms).
  sim::Process Query(int client_index, double arrival_ms) {
    const ClientWorkload& work = clients[client_index];
    co_await core.Execute(work, work.plan, ClientSite(client_index),
                          arrival_ms, {});
    ++result.completed;
    --in_flight;
    const double now = core.sim().now();
    while (!pending.empty() && SlotFree()) {
      const PendingArrival next = pending.front();
      pending.pop_front();
      if (admission.abort_wait_ms > 0.0 &&
          now - next.arrival_ms > admission.abort_wait_ms) {
        ++result.aborted;
        LogRejected(aborted_log, "aborted", next.arrival_ms,
                    next.client_index);
        continue;
      }
      Dispatch(next.client_index, next.arrival_ms);
    }
  }

  /// Records an arrival turned away at the current instant: its whole
  /// response is admission wait.
  void LogRejected(std::vector<QueryLogRecord>& log, const char* outcome,
                   double arrival_ms, int client_index) {
    if (!collect_log) return;
    QueryLogRecord& record = log.emplace_back();
    record.policy = core.PolicyLabel();
    record.client = ClientSite(client_index);
    record.outcome = outcome;
    record.issue_ms = arrival_ms;
    record.submit_ms = core.sim().now();
    record.complete_ms = record.submit_ms;
    record.response_ms = record.submit_ms - arrival_ms;
    record.path.total_ms = record.response_ms;
    if (record.response_ms > 0.0) {
      record.path.segments.push_back(PathSegment{
          PathKind::kAdmission, true, kUnboundSite, record.response_ms});
    }
  }
};

/// The arrival generator: produces arrivals over [0, duration_ms) from the
/// configured process, assigning them round-robin to client sites.
sim::Process OpenLoopGenerator(OpenLoop& loop,
                               const ArrivalProcessConfig& arrival,
                               double duration_ms, Rng rng) {
  sim::Simulator& sim = loop.core.sim();
  const int num_clients = static_cast<int>(loop.clients.size());
  const double mean_gap_ms = 1000.0 / arrival.rate_per_sec;
  int next_client = 0;
  auto admit = [&] {
    loop.Admit(next_client);
    next_client = (next_client + 1) % num_clients;
  };
  switch (arrival.kind) {
    case ArrivalKind::kPoisson: {
      while (true) {
        const double dt = rng.Exponential(mean_gap_ms);
        if (sim.now() + dt >= duration_ms) break;
        co_await sim.Delay(dt);
        admit();
      }
      break;
    }
    case ArrivalKind::kBursty: {
      // Alternate exponential ON phases (arrivals at burst_factor times
      // the base rate) with exponential OFF phases (no arrivals).
      const double on_gap_ms = mean_gap_ms / arrival.burst_factor;
      bool on = true;
      double phase_end_ms = rng.Exponential(arrival.burst_on_mean_ms);
      while (sim.now() < duration_ms) {
        if (!on) {
          const double resume_ms = std::min(phase_end_ms, duration_ms);
          if (resume_ms > sim.now()) co_await sim.Delay(resume_ms - sim.now());
          if (sim.now() >= duration_ms) break;
          on = true;
          phase_end_ms = sim.now() + rng.Exponential(arrival.burst_on_mean_ms);
          continue;
        }
        const double dt = rng.Exponential(on_gap_ms);
        if (sim.now() + dt >= phase_end_ms) {
          const double resume_ms = std::min(phase_end_ms, duration_ms);
          if (resume_ms > sim.now()) co_await sim.Delay(resume_ms - sim.now());
          if (sim.now() >= duration_ms) break;
          on = false;
          phase_end_ms = sim.now() + rng.Exponential(arrival.burst_off_mean_ms);
          continue;
        }
        if (sim.now() + dt >= duration_ms) break;
        co_await sim.Delay(dt);
        admit();
      }
      break;
    }
    case ArrivalKind::kDiurnal: {
      // Thinning (Lewis-Shedler): candidate arrivals at the peak rate,
      // each kept with probability rate(t) / peak_rate.
      const double peak_rate = arrival.rate_per_sec *
                               (1.0 + arrival.diurnal_amplitude);
      const double peak_gap_ms = 1000.0 / peak_rate;
      constexpr double kTwoPi = 6.28318530717958647692;
      while (true) {
        const double dt = rng.Exponential(peak_gap_ms);
        if (sim.now() + dt >= duration_ms) break;
        co_await sim.Delay(dt);
        const double rate =
            arrival.rate_per_sec *
            (1.0 + arrival.diurnal_amplitude *
                       std::sin(kTwoPi * sim.now() / arrival.diurnal_period_ms));
        if (rng.NextDouble() * peak_rate < rate) admit();
      }
      break;
    }
  }
}

}  // namespace

OpenLoopResult RunOpenLoop(const std::vector<ClientWorkload>& clients,
                           const Catalog& catalog, const SystemConfig& config,
                           const OpenLoopConfig& openloop) {
  const ArrivalProcessConfig& arrival = openloop.arrival;
  CheckPositive(arrival.rate_per_sec, "arrival.rate_per_sec");
  CheckPositive(openloop.duration_ms, "duration_ms");
  if (arrival.kind == ArrivalKind::kBursty) {
    CheckPositive(arrival.burst_factor, "arrival.burst_factor");
    CheckPositive(arrival.burst_on_mean_ms, "arrival.burst_on_mean_ms");
    CheckPositive(arrival.burst_off_mean_ms, "arrival.burst_off_mean_ms");
  }
  if (arrival.kind == ArrivalKind::kDiurnal) {
    DIMSUM_CHECK_GE(arrival.diurnal_amplitude, 0.0);
    DIMSUM_CHECK_LE(arrival.diurnal_amplitude, 1.0);
    CheckPositive(arrival.diurnal_period_ms, "arrival.diurnal_period_ms");
  }
  DIMSUM_CHECK_GE(openloop.admission.max_in_flight, 0);
  DIMSUM_CHECK_GE(openloop.admission.max_pending, 0);
  CheckNonNegative(openloop.admission.abort_wait_ms,
                   "admission.abort_wait_ms");

  // The shed count is only known at the end, so the session's completion
  // target grows dynamically with each Submit (no ExpectQueries).
  RunCore core(Source::kOpenLoop, clients, catalog, config, openloop,
               openloop.warmup_completions);
  OpenLoopResult result;
  OpenLoop loop{core, clients, openloop.admission, result};
  loop.collect_log = openloop.collect_query_log;
  if (config.telemetry != nullptr) {
    // Admission-control gauges ride the sampler's existing boundaries on
    // their own "driver" track (one past the network pid). Pure reads of
    // RunOpenLoop's frame state: non-perturbing by the same argument as
    // the resource probes (DESIGN.md section 8).
    const int driver_pid = core.session().system().num_sites() + 1;
    config.telemetry->AddGauge(
        driver_pid, kUnboundSite, "admission", "in_flight",
        [&loop] { return static_cast<double>(loop.in_flight); });
    config.telemetry->AddGauge(
        driver_pid, kUnboundSite, "admission", "pending",
        [&loop] { return static_cast<double>(loop.pending.size()); });
    if (const ReplicaBalancer* balancer = core.balancer()) {
      // Per-server in-flight gauges: the balancing policy's own view of
      // server load, sampled on the same non-perturbing boundaries.
      for (SiteId s = catalog.num_clients();
           s < core.session().system().num_sites(); ++s) {
        config.telemetry->AddGauge(
            driver_pid, s, "replica", "outstanding", [balancer, s] {
              return static_cast<double>(balancer->outstanding(s));
            });
      }
    }
    if (config.trace != nullptr) {
      config.trace->SetProcessName(driver_pid, "driver");
    }
  }
  core.sim().Spawn(OpenLoopGenerator(loop, arrival, openloop.duration_ms,
                                     core.rng().Fork()));
  core.session().Run();

  DIMSUM_CHECK_EQ(result.completed, result.dispatched);
  DIMSUM_CHECK_EQ(result.arrivals,
                  result.dispatched + result.shed + result.aborted +
                      static_cast<int64_t>(loop.pending.size()));
  // Pending arrivals that never got a slot before the run drained count as
  // aborted (they were admitted but never executed).
  result.aborted += static_cast<int64_t>(loop.pending.size());
  for (const OpenLoop::PendingArrival& p : loop.pending) {
    loop.LogRejected(loop.aborted_log, "aborted", p.arrival_ms,
                     p.client_index);
  }

  const SideFolds side = core.Fold(result);
  result.completions.reserve(core.completions().size());
  for (const Completion& c : core.completions()) {
    result.completions.push_back(
        OpenLoopCompletion{c.ticket, c.client, core.ticket(c.ticket).issue_ms,
                           c.submit_ms, c.complete_ms});
  }
  result.mean_queue_wait_ms = side.queue_wait_ms.mean();
  for (std::vector<QueryLogRecord>* log : {&loop.aborted_log, &loop.shed_log}) {
    std::move(log->begin(), log->end(), std::back_inserter(result.query_log));
  }
  result.offered_qps = result.arrivals / openloop.duration_ms * 1000.0;
  result.processed_events = core.sim().processed_events();
  result.peak_event_queue_depth = core.sim().peak_queue_depth();

  MetricsRegistry& registry = MetricsRegistry::Global();
  if (registry.enabled()) {
    registry.counter("driver.arrivals").Add(result.arrivals);
    registry.counter("driver.dispatched").Add(result.dispatched);
    registry.counter("driver.shed").Add(result.shed);
    registry.counter("driver.aborted").Add(result.aborted);
    Gauge& peak = registry.gauge("driver.peak_pending");
    if (result.peak_pending > peak.value()) {
      peak.Set(static_cast<double>(result.peak_pending));
    }
  }
  return result;
}

}  // namespace dimsum
