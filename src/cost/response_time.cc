#include "cost/response_time.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "cost/cardinality.h"
#include "cost/hash_join_model.h"

namespace dimsum {
namespace {

/// Resource identity for phase demand accounting, packed into one word
/// whose integer order is the order of the tuple (kind, site, sub): kind in
/// the top two bits, then the 31-bit site, then the 31-bit sub-index (a
/// disk arm, or a chain's id). Sites are non-negative (EstimateTime
/// checks every bound site; catalog sites are servers) and so are
/// sub-indices.
struct ResKey {
  enum Kind : uint64_t { kCpu, kDisk, kNet, kChain };
  uint64_t code;

  ResKey(Kind kind, SiteId site, int sub)
      : code(kind << 62 | static_cast<uint64_t>(site) << 31 |
             static_cast<uint64_t>(sub)) {}
  Kind kind() const { return static_cast<Kind>(code >> 62); }
  SiteId site() const {
    return static_cast<SiteId>((code >> 31) & 0x7fffffff);
  }
};

ResKey Cpu(SiteId s) { return ResKey(ResKey::kCpu, s, 0); }
/// A site's disks are distinguished by a sub-index so that the model can
/// credit multi-disk sites (Table 2's NumDisks) with intra-site I/O
/// parallelism: base relations hash to one arm, temp I/O stripes over all.
ResKey DiskOf(SiteId s, int sub = 0) { return ResKey(ResKey::kDisk, s, sub); }
ResKey Net() { return ResKey(ResKey::kNet, 0, 0); }
ResKey Chain(int id) { return ResKey(ResKey::kChain, 0, id); }

/// One resource's demand within a phase.
struct Entry {
  ResKey key;
  double usage = 0.0;
  double scan = 0.0;      // interference-eligible sequential-scan demand
  bool has_scan = false;  // `scan` was charged at all
  bool temp = false;      // the disk also serves temp I/O this phase
};

/// DAG of pipelined phases with union-find merging. A phase's duration is
/// the maximum of its per-resource demands (full-overlap assumption); its
/// finish time is its duration plus the latest finish of its predecessors.
///
/// Interference: sequential scan I/O in a phase whose disk also serves
/// temporary (join partition) I/O loses its sequentiality (the simulator's
/// read-ahead is destroyed by interleaved requests), so such scan demand is
/// inflated to the random-I/O rate via `seq_to_rand_factor`.
///
/// Each phase keeps its demands as a small vector sorted by ResKey, so
/// every per-key sum accumulates in call order and every scan over a phase
/// visits keys in ResKey order. Reset keeps all capacity: a graph reused
/// plan after plan stops allocating once it has seen its largest plan.
class PhaseGraph {
 public:
  /// Empties the graph for a new plan.
  void Reset(double seq_to_rand_factor) {
    seq_to_rand_factor_ = seq_to_rand_factor;
    count_ = 0;
    parent_.clear();
  }

  int NewPhase() {
    if (count_ == static_cast<int>(phases_.size())) phases_.emplace_back();
    Phase& phase = phases_[count_];
    phase.entries.clear();
    phase.deps.clear();
    parent_.push_back(count_);
    return count_++;
  }

  void AddUsage(int phase, ResKey key, double ms) {
    if (ms <= 0.0) return;
    At(phase, key).usage += ms;
  }

  /// Adds sequential-scan disk demand, eligible for the interference
  /// inflation when the same phase also has temp I/O on that disk.
  void AddScanDisk(int phase, ResKey key, double ms) {
    if (ms <= 0.0) return;
    Entry& entry = At(phase, key);
    entry.usage += ms;
    entry.scan += ms;
    entry.has_scan = true;
  }

  /// Marks temp (partition) I/O on a disk within the phase.
  void AddTempDisk(int phase, ResKey key, double ms) {
    if (ms <= 0.0) return;
    Entry& entry = At(phase, key);
    entry.usage += ms;
    entry.temp = true;
  }

  void AddDep(int phase, int before) {
    phases_[Find(phase)].deps.push_back(Find(before));
  }

  /// Folds `b` into `a`; both ids remain usable and resolve to the merged
  /// phase. Returns the representative.
  int Merge(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return a;
    Phase& from = phases_[b];
    for (const Entry& entry : from.entries) {
      Entry& into = At(a, entry.key);
      into.usage += entry.usage;
      if (entry.has_scan) {
        into.scan += entry.scan;
        into.has_scan = true;
      }
      into.temp = into.temp || entry.temp;
    }
    std::vector<int>& deps = phases_[a].deps;
    deps.insert(deps.end(), from.deps.begin(), from.deps.end());
    from.entries.clear();
    from.deps.clear();
    parent_[b] = a;
    return a;
  }

  double PhaseDuration(int phase) const {
    double duration = 0.0;
    for (const Entry& entry : phases_[phase].entries) {
      duration = std::max(duration, Effective(entry));
    }
    return duration;
  }

  /// Critical-path finish time over all phases.
  double CriticalPath() {
    finish_.assign(count_, -1.0);
    double result = 0.0;
    for (int i = 0; i < count_; ++i) {
      if (Find(i) == i) result = std::max(result, Finish(i));
    }
    return result;
  }

  int num_phases() const { return count_; }

  /// Resolves a phase id to its merged representative.
  int Find(int i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];
      i = parent_[i];
    }
    return i;
  }

  /// Critical-path finish of a phase; valid only after CriticalPath().
  double FinishTime(int phase) { return finish_[Find(phase)]; }

  /// Sum of all resource demands, excluding chain pseudo-resources (their
  /// components are also charged to the real resources) but including the
  /// interference surcharge, which represents real extra disk time.
  /// Phases in creation order, keys in ResKey order; merged-away phases
  /// are empty.
  double TotalUsage() const {
    double total = 0.0;
    for (int i = 0; i < count_; ++i) {
      for (const Entry& entry : phases_[i].entries) {
        if (entry.key.kind() == ResKey::kChain) continue;
        total += Effective(entry);
      }
    }
    return total;
  }

 private:
  struct Phase {
    std::vector<Entry> entries;  // sorted by key
    std::vector<int> deps;
  };

  /// The entry for `key` in the phase `phase` resolves to, inserted (at
  /// zero demand, in key order) when absent.
  Entry& At(int phase, ResKey key) {
    std::vector<Entry>& entries = phases_[Find(phase)].entries;
    auto it = entries.begin();
    while (it != entries.end() && it->key.code < key.code) ++it;
    if (it == entries.end() || it->key.code != key.code) {
      it = entries.insert(it, Entry{key});
    }
    return *it;
  }

  double Effective(const Entry& entry) const {
    double effective = entry.usage;
    if (entry.key.kind() == ResKey::kDisk && entry.temp && entry.has_scan) {
      effective += entry.scan * (seq_to_rand_factor_ - 1.0);
    }
    return effective;
  }

  double Finish(int i) {
    i = Find(i);
    double& finish = finish_[i];
    if (finish >= 0.0) return finish;
    finish = 0.0;  // guards against (impossible) cycles
    double start = 0.0;
    for (const int dep : phases_[i].deps) {
      const int d = Find(dep);
      if (d != i) start = std::max(start, Finish(d));
    }
    // `finish_` is not resized during the recursion, so the reference
    // stays valid.
    finish = start + PhaseDuration(i);
    return finish;
  }

  double seq_to_rand_factor_ = 1.0;
  std::vector<Phase> phases_;  // [0, count_) in use; the rest is capacity
  int count_ = 0;
  std::vector<int> parent_;
  std::vector<double> finish_;
};

/// Disk-demand inflation under external load and CPU-time scaling of one
/// site, computed once per estimate (see Builder's constructor).
struct SiteFactor {
  double load = 1.0;
  double cpu = 1.0;
};

/// Per-thread working storage of EstimateTime, reused across calls.
struct Arena {
  FlatPlan flat;
  PhaseGraph graph;
  std::vector<SiteFactor> sites;  // indexed by site; see Builder::Site
  std::vector<int> raw_phase;     // explain only: op -> unresolved phase
};

Arena& ThisThreadArena() {
  thread_local Arena arena;
  return arena;
}

class Builder {
 public:
  /// `explain` (optional) receives per-operator demand tallies; its `ops`
  /// vector must already hold one record per plan node, indexed like
  /// `flat`.
  Builder(const Catalog& catalog, const CostParams& params,
          const std::map<SiteId, double>& server_disk_load, Arena& arena,
          PlanEstimate* explain)
      : catalog_(catalog),
        params_(params),
        flat_(arena.flat),
        graph_(arena.graph),
        sites_(arena.sites),
        raw_phase_(arena.raw_phase),
        out_(explain) {
    graph_.Reset(params.rand_page_ms / params.seq_page_ms);
    // Sites named by either override map get their own factors; every
    // other site runs at the defaults: no load, and CpuTimeFactor's
    // mips / mips.
    fallback_.cpu = params.mips / params.mips;
    SiteId max_site = -1;
    if (!server_disk_load.empty()) max_site = server_disk_load.rbegin()->first;
    if (!params.site_mips.empty()) {
      max_site = std::max(max_site, params.site_mips.rbegin()->first);
    }
    sites_.assign(max_site + 1, fallback_);
    for (const auto& [site, load] : server_disk_load) {
      if (site >= 0) sites_[site].load = 1.0 / (1.0 - load);
    }
    for (const auto& [site, mips] : params.site_mips) {
      if (site >= 0) sites_[site].cpu = params.CpuTimeFactor(site);
    }
    if (out_ != nullptr) raw_phase_.assign(out_->ops.size(), -1);
  }

  PhaseGraph& graph() { return graph_; }

  /// Raw (unresolved) output-phase id per op_id; valid after Build.
  const std::vector<int>& raw_phases() const { return raw_phase_; }

  /// Builds the phases of the subtree rooted at index `i`; returns the id
  /// of the phase producing the node's output stream. Demand added while
  /// the node itself is being costed (not its children) is tallied into
  /// its explain record, if one was requested.
  int Build(int i) {
    OperatorEstimate* saved = cur_;
    if (out_ != nullptr) cur_ = &out_->ops[i];
    const int phase = Dispatch(i);
    if (out_ != nullptr) raw_phase_[i] = phase;
    cur_ = saved;
    return phase;
  }

 private:
  int Dispatch(int i) {
    const PlanNode& node = Node(i);
    switch (node.type) {
      case OpType::kScan:
        return BuildScan(node);
      case OpType::kSelect:
        return BuildSelect(i);
      case OpType::kProject:
        return BuildProject(i);
      case OpType::kAggregate:
        return BuildAggregate(i);
      case OpType::kSort:
        return BuildSort(i);
      case OpType::kJoin:
        return BuildJoin(i);
      case OpType::kUnion:
        return BuildUnion(i);
      case OpType::kDisplay:
        return BuildDisplay(i);
    }
    DIMSUM_UNREACHABLE();
  }

  const PlanNode& Node(int i) const {
    return *flat_.nodes[i];
  }
  const StreamStats& Out(int i) const {
    return flat_.stats[i];
  }
  SiteId SiteOf(int i) const { return Node(i).bound_site; }
  const SiteFactor& Site(SiteId site) const {
    return site >= 0 && site < static_cast<SiteId>(sites_.size())
               ? sites_[site]
               : fallback_;
  }

  /// Wrappers over PhaseGraph that additionally attribute the demand to
  /// the operator currently being built and to the per-site roll-ups.
  /// Pure bookkeeping: the phase graph sees exactly the same calls.
  void Use(int phase, ResKey key, double ms) {
    graph_.AddUsage(phase, key, ms);
    Tally(key, ms);
  }
  void UseScanDisk(int phase, ResKey key, double ms) {
    graph_.AddScanDisk(phase, key, ms);
    Tally(key, ms);
  }
  void UseTempDisk(int phase, ResKey key, double ms) {
    graph_.AddTempDisk(phase, key, ms);
    Tally(key, ms);
  }
  void Tally(ResKey key, double ms) {
    if (out_ == nullptr || ms <= 0.0) return;
    switch (key.kind()) {
      case ResKey::kCpu:
        if (cur_ != nullptr) cur_->cpu_ms += ms;
        out_->cpu_ms_by_site[key.site()] += ms;
        break;
      case ResKey::kDisk:
        if (cur_ != nullptr) cur_->disk_ms += ms;
        out_->disk_ms_by_site[key.site()] += ms;
        break;
      case ResKey::kNet:
        if (cur_ != nullptr) cur_->net_ms += ms;
        out_->net_ms += ms;
        break;
      case ResKey::kChain:
        if (cur_ != nullptr) cur_->chain_ms += ms;
        break;
    }
  }
  /// Disk-demand inflation under external load at `site`.
  double LoadFactor(SiteId site) const { return Site(site).load; }

  int NumDisks() const { return std::max(1, params_.num_disks); }

  /// Adds CPU demand at `site`, honoring per-site speed overrides.
  void AddCpu(int phase, SiteId site, double default_speed_ms) {
    Use(phase, Cpu(site), default_speed_ms * Site(site).cpu);
  }

  /// Disk sub-index a relation's extent maps to (round-robin placement).
  int DiskSub(RelationId relation) const {
    return static_cast<int>(relation % NumDisks());
  }

  /// Disk sub-index of a shard's extent: shards round-robin over a site's
  /// arms starting at the relation's arm, matching ExecSystem::LoadData.
  int ShardDiskSub(RelationId relation, int shard) const {
    return static_cast<int>((relation + (shard > 0 ? shard : 0)) %
                            NumDisks());
  }

  /// Spreads temp (partition) I/O demand evenly over a site's disks.
  void AddTempSpread(int phase, SiteId site, double total_ms) {
    const int n = NumDisks();
    for (int d = 0; d < n; ++d) {
      UseTempDisk(phase, DiskOf(site, d), total_ms / n);
    }
  }

  int BuildScan(const PlanNode& node) {
    const int phase = graph_.NewPhase();
    // Pages this fragment reads: its shard's extent (or the whole
    // relation when logical); zero when the key restriction is empty.
    const int64_t pages =
        catalog_
            .ScanExtent(node.relation, node.shard, node.key_lo, node.key_hi,
                        params_.page_bytes)
            .pages;
    if (node.annotation == SiteAnnotation::kPrimaryCopy) {
      const SiteId server = node.bound_site;
      UseScanDisk(phase,
                  DiskOf(server, ShardDiskSub(node.relation, node.shard)),
                  static_cast<double>(pages) * params_.seq_page_ms *
                      LoadFactor(server));
      AddCpu(phase, server, static_cast<double>(pages) * params_.DiskCpuMs());
      return phase;
    }
    if (catalog_.sharded(node.relation)) {
      return BuildClientShardedScan(node, phase);
    }
    // Client scan: cached prefix from the client disk, the rest faulted in
    // from the scan's serving replica one page at a time, synchronously.
    const SiteId client = node.bound_site;
    const SiteId server = catalog_.ReplicaSite(node.relation, node.replica);
    const int64_t cached = std::min(
        catalog_.CachedPages(node.relation, client, params_.page_bytes),
        pages);
    const int64_t faulted = pages - cached;
    UseScanDisk(phase, DiskOf(client, DiskSub(node.relation)),
                static_cast<double>(cached) * params_.seq_page_ms *
                    LoadFactor(client));
    AddCpu(phase, client, static_cast<double>(cached) * params_.DiskCpuMs());
    if (faulted > 0) {
      const double request_cpu = params_.MsgCpuMs(params_.fault_request_bytes);
      const double page_cpu = params_.MsgCpuMs(params_.page_bytes);
      const double server_disk = params_.seq_page_ms * LoadFactor(server);
      const double round_trip =
          request_cpu +                            // client sends request
          params_.WireMs(params_.fault_request_bytes) +
          request_cpu +                            // server receives request
          params_.DiskCpuMs() + server_disk +      // server reads the page
          page_cpu +                               // server sends the page
          params_.WireMs(params_.page_bytes) +     //
          page_cpu;                                // client receives the page
      const double f = static_cast<double>(faulted);
      Use(phase, Chain(next_chain_id_++), f * round_trip);
      AddCpu(phase, client, f * (request_cpu + page_cpu));
      AddCpu(phase, server, f * (request_cpu + page_cpu + params_.DiskCpuMs()));
      Use(phase, DiskOf(server, DiskSub(node.relation)), f * server_disk);
      Use(phase, Net(),
          f * (params_.WireMs(params_.fault_request_bytes) +
               params_.WireMs(params_.page_bytes)));
    }
    return phase;
  }

  /// Client scan of a sharded relation: nothing is cached (the catalog
  /// forbids caching sharded relations), so every shard's pages fault in
  /// from that shard's serving copy one page at a time. The round trips
  /// all serialize on one chain (the client blocks per page), but each
  /// shard's disk demand lands on its own site, so the cost mirrors what
  /// the executor simulates.
  int BuildClientShardedScan(const PlanNode& node, int phase) {
    const SiteId client = node.bound_site;
    const double request_cpu = params_.MsgCpuMs(params_.fault_request_bytes);
    const double page_cpu = params_.MsgCpuMs(params_.page_bytes);
    const double wire_ms = params_.WireMs(params_.fault_request_bytes) +
                           params_.WireMs(params_.page_bytes);
    double chain_ms = 0.0;
    for (int k = 0; k < catalog_.NumShards(node.relation); ++k) {
      const double f = static_cast<double>(
          catalog_.ShardPages(node.relation, k, params_.page_bytes));
      if (f <= 0.0) continue;
      const SiteId server = catalog_.ShardSite(node.relation, k, node.replica);
      const double server_disk = params_.seq_page_ms * LoadFactor(server);
      chain_ms += f * (request_cpu + request_cpu + params_.DiskCpuMs() +
                       server_disk + page_cpu + page_cpu + wire_ms);
      AddCpu(phase, client, f * (request_cpu + page_cpu));
      AddCpu(phase, server,
             f * (request_cpu + page_cpu + params_.DiskCpuMs()));
      Use(phase, DiskOf(server, ShardDiskSub(node.relation, k)),
          f * server_disk);
      Use(phase, Net(), f * wire_ms);
    }
    Use(phase, Chain(next_chain_id_++), chain_ms);
    return phase;
  }

  /// Adds pipelined network-transfer demand for a stream of `pages` flowing
  /// from `from` to `to` into `phase`.
  void AddNetEdge(int phase, SiteId from, SiteId to, int64_t pages) {
    if (from == to || pages == 0) return;
    const double page_cpu = params_.MsgCpuMs(params_.page_bytes);
    const double p = static_cast<double>(pages);
    AddCpu(phase, from, p * page_cpu);
    AddCpu(phase, to, p * page_cpu);
    Use(phase, Net(), p * params_.WireMs(params_.page_bytes));
  }

  /// Ships the output of child `c` to the site of its parent `i`.
  void AddInputEdge(int phase, int c, int i) {
    AddNetEdge(phase, SiteOf(c), SiteOf(i), Out(c).pages);
  }

  int BuildSelect(int i) {
    const int in = flat_.Left(i);
    const int phase = Build(in);
    AddInputEdge(phase, in, i);
    AddCpu(phase, SiteOf(i),
           static_cast<double>(Out(in).tuples) *
               params_.InstrMs(params_.compare_inst));
    return phase;
  }

  int BuildProject(int i) {
    const int in = flat_.Left(i);
    const int phase = Build(in);
    AddInputEdge(phase, in, i);
    // Copy every input tuple at the (narrower) output width.
    AddCpu(phase, SiteOf(i),
           static_cast<double>(Out(in).tuples) *
               params_.MoveTupleMs(Out(i).tuple_bytes));
    return phase;
  }

  int BuildAggregate(int i) {
    // Hash aggregation is blocking: the input pipeline completes before any
    // group is emitted, so the output starts a new phase.
    const int in = flat_.Left(i);
    const int input = Build(in);
    AddInputEdge(input, in, i);
    AddCpu(input, SiteOf(i),
           static_cast<double>(Out(in).tuples) *
               (params_.InstrMs(params_.hash_inst) +
                params_.InstrMs(params_.compare_inst)));
    const int output = graph_.NewPhase();
    graph_.AddDep(output, input);
    AddCpu(output, SiteOf(i),
           static_cast<double>(Out(i).tuples) *
               params_.MoveTupleMs(Out(i).tuple_bytes));
    return output;
  }

  int BuildSort(int i) {
    // External merge sort: blocking. With maximum allocation the input is
    // sorted in memory; with minimum allocation sorted runs are written to
    // temp storage and merged back in one pass (the sqrt-sized allocation
    // guarantees a single merge level, as with hybrid hash).
    const int child = flat_.Left(i);
    const StreamStats& in = Out(child);
    const SiteId site = SiteOf(i);
    const int input = Build(child);
    AddNetEdge(input, SiteOf(child), site, in.pages);
    const double log_n =
        in.tuples > 1 ? std::log2(static_cast<double>(in.tuples)) : 1.0;
    AddCpu(input, site,
           static_cast<double>(in.tuples) *
               params_.InstrMs(params_.compare_inst) * log_n);
    const bool spills = params_.buf_alloc == BufAlloc::kMinimum;
    if (spills) {
      UseTempDisk(input, DiskOf(site, 0),
                  static_cast<double>(in.pages) * params_.rand_page_ms *
                      LoadFactor(site));
      AddCpu(input, site, static_cast<double>(in.pages) * params_.DiskCpuMs());
    }
    const int output = graph_.NewPhase();
    graph_.AddDep(output, input);
    if (spills) {
      // Merge pass: read the runs back.
      AddTempSpread(output, site,
                    static_cast<double>(in.pages) * params_.seq_page_ms *
                        LoadFactor(site));
      AddCpu(output, site, static_cast<double>(in.pages) * params_.DiskCpuMs());
    }
    AddCpu(output, site,
           static_cast<double>(in.tuples) *
               params_.MoveTupleMs(in.tuple_bytes));
    return output;
  }

  int BuildUnion(int i) {
    // Bag union streams both inputs through; no blocking boundary.
    const int l = flat_.Left(i);
    const int r = flat_.Right(i);
    const int left = Build(l);
    AddInputEdge(left, l, i);
    const int right = Build(r);
    AddInputEdge(right, r, i);
    const int phase = graph_.Merge(left, right);
    AddCpu(phase, SiteOf(i),
           static_cast<double>(Out(i).tuples) *
               params_.MoveTupleMs(Out(i).tuple_bytes));
    return phase;
  }

  int BuildJoin(int i) {
    const SiteId site = SiteOf(i);
    const int l = flat_.Left(i);
    const int r = flat_.Right(i);
    const StreamStats& inner = Out(l);
    const StreamStats& outer = Out(r);
    const StreamStats& out = Out(i);
    const HashJoinModel hj = ComputeHashJoinModel(
        inner.pages, params_.buf_alloc, params_.hash_fudge);

    // Build phase: consume the inner stream, hash it, spill partitions.
    const int build = Build(l);
    AddNetEdge(build, SiteOf(l), site, inner.pages);
    AddCpu(build, site,
           static_cast<double>(inner.tuples) *
               (params_.InstrMs(params_.hash_inst) +
                params_.MoveTupleMs(inner.tuple_bytes)));
    const int64_t inner_spill = hj.SpillPages(inner.pages);
    AddTempSpread(build, site,
                  static_cast<double>(inner_spill) * params_.rand_page_ms *
                      LoadFactor(site));
    AddCpu(build, site,
           static_cast<double>(inner_spill) * params_.DiskCpuMs());

    // Probe phase: consume the outer stream; spill its partitions; then
    // re-read both spilled sides and join them. Output flows downstream
    // within this phase.
    int probe = graph_.NewPhase();
    graph_.AddDep(probe, build);
    const int outer_phase = Build(r);
    probe = graph_.Merge(probe, outer_phase);
    AddNetEdge(probe, SiteOf(r), site, outer.pages);
    AddCpu(probe, site,
           static_cast<double>(outer.tuples) *
               (params_.InstrMs(params_.hash_inst) +
                params_.InstrMs(params_.compare_inst)));
    const int64_t outer_spill = hj.SpillPages(outer.pages);
    // Writes of outer partitions (random-ish) plus re-reads of both sides
    // (sequential per partition).
    AddTempSpread(probe, site,
                  (static_cast<double>(outer_spill) * params_.rand_page_ms +
                   static_cast<double>(inner_spill + outer_spill) *
                       params_.seq_page_ms) *
                      LoadFactor(site));
    AddCpu(probe, site,
           static_cast<double>(inner_spill + 2 * outer_spill) *
               params_.DiskCpuMs());
    // Spilled inner tuples are re-hashed when their partition is joined.
    AddCpu(probe, site,
           hj.spill_fraction * static_cast<double>(inner.tuples) *
               params_.InstrMs(params_.hash_inst));
    // Result construction.
    AddCpu(probe, site,
           static_cast<double>(out.tuples) *
               params_.MoveTupleMs(out.tuple_bytes));
    return probe;
  }

  int BuildDisplay(int i) {
    const int in = flat_.Left(i);
    const int phase = Build(in);
    AddInputEdge(phase, in, i);
    AddCpu(phase, SiteOf(i),
           static_cast<double>(Out(i).tuples) *
               params_.InstrMs(params_.display_inst));
    return phase;
  }

  const Catalog& catalog_;
  const CostParams& params_;
  const FlatPlan& flat_;
  PhaseGraph& graph_;
  std::vector<SiteFactor>& sites_;
  std::vector<int>& raw_phase_;
  SiteFactor fallback_;
  int next_chain_id_ = 0;
  PlanEstimate* out_;
  OperatorEstimate* cur_ = nullptr;  // record of the op being built
};

}  // namespace

void CheckCostInputs(const CostParams& params,
                     const std::map<SiteId, double>& server_disk_load) {
  for (const auto& [site, load] : server_disk_load) {
    DIMSUM_CHECK(std::isfinite(load) && load >= 0.0 && load < 1.0)
        << "server disk load of site " << site << " is " << load
        << "; utilization must lie in [0, 1)";
  }
  for (const auto& [site, mips] : params.site_mips) {
    DIMSUM_CHECK(std::isfinite(mips) && mips > 0.0)
        << "site_mips of site " << site << " is " << mips
        << "; CPU speed must be finite and positive";
  }
}

TimeEstimate EstimateTime(const Plan& plan, const Catalog& catalog,
                          const QueryGraph& query, const CostParams& params,
                          const std::map<SiteId, double>& server_disk_load,
                          PlanEstimate* explain) {
  CheckCostInputs(params, server_disk_load);
  Arena& arena = ThisThreadArena();
  FlatPlan& flat = arena.flat;
  BuildFlatPlan(plan, catalog, query, params, &flat);
  for (const PlanNode* node : flat.nodes) {
    DIMSUM_CHECK(node->bound_site >= 0) << "plan is not fully bound";
  }
  if (explain != nullptr) {
    *explain = PlanEstimate{};
    explain->ops.resize(flat.nodes.size());
    for (int i = 0; i < flat.num_nodes(); ++i) {
      const PlanNode& node = *flat.nodes[i];
      const StreamStats& out = flat.stats[i];
      OperatorEstimate& rec = explain->ops[i];
      rec.op_id = i;
      rec.type = node.type;
      rec.site = node.bound_site;
      rec.relation = node.is_leaf() ? node.relation : kInvalidRelation;
      rec.est_tuples = out.tuples;
      rec.est_pages = out.pages;
    }
  }
  Builder builder(catalog, params, server_disk_load, arena, explain);
  builder.Build(0);
  PhaseGraph& graph = builder.graph();
  TimeEstimate estimate;
  estimate.response_ms = graph.CriticalPath();
  estimate.total_ms = graph.TotalUsage();
  if (explain != nullptr) {
    explain->response_ms = estimate.response_ms;
    explain->total_ms = estimate.total_ms;
    // Representative phases get dense ids in creation order.
    std::vector<int> dense(graph.num_phases(), -1);
    for (int root = 0; root < graph.num_phases(); ++root) {
      if (graph.Find(root) != root) continue;
      PhaseEstimate phase;
      phase.id = static_cast<int>(explain->phases.size());
      phase.duration_ms = graph.PhaseDuration(root);
      phase.finish_ms = graph.FinishTime(root);
      phase.start_ms = phase.finish_ms - phase.duration_ms;
      dense[root] = phase.id;
      explain->phases.push_back(phase);
    }
    const std::vector<int>& raw = builder.raw_phases();
    for (OperatorEstimate& op : explain->ops) {
      op.phase = dense[graph.Find(raw[op.op_id])];
    }
  }
  return estimate;
}

}  // namespace dimsum
