#include "exec/operators.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "cost/hash_join_model.h"
#include "sim/trace.h"

namespace dimsum {
namespace {

/// The one per-operator probe, built once per operator process. Every
/// timed window [t0, now] goes through its single record path, which adds
/// the window to the operator's OperatorActual (cpu/disk/net; memory and
/// channel waits are span-only) and, when the query captures spans,
/// appends a causal span on the operator's timeline (sim/span.h). With a
/// TraceSink attached it also owns the operator's Perfetto track: Phase()
/// sub-slices, Flow() arrows and the whole-lifetime slice Finish() closes;
/// untraced runs pay one null check per operator, not per page. Every
/// method is a read of the simulation clock plus memory writes -- never a
/// simulation event -- so capture cannot perturb event ordering (results
/// are bit-identical with spans or a trace on or off). A window's elapsed
/// time includes queueing behind the awaited resource; that is
/// intentional (see OperatorActual). The queueing vs service split inside
/// a window comes from the ReqStats out-pointer (Req()) threaded into the
/// awaited resource call(s): service accumulates across the window's
/// requests and the remainder is queueing.
class OpProbe {
 public:
  /// A plan operator: timeline `op`, charging its own record.
  OpProbe(ExecContext& ctx, SiteId site, int op, std::string name)
      : OpProbe(ctx, site, op, op, std::move(name)) {}

  /// `op` is the process's timeline id and `actual` the id of the
  /// OperatorActual it charges. A plan operator charges its own record and
  /// claims its start and end; a net send/recv half (synthetic timeline
  /// past the plan operators) charges its consumer's record, mirroring the
  /// estimator's accounting of shipped edges, and claims neither. `site` is
  /// the operator's trace process and the default site its spans are
  /// attributed to (the remote-read paths override it per call).
  OpProbe(ExecContext& ctx, SiteId site, int op, int actual, std::string name)
      : ctx_(ctx),
        actual_(ctx.metrics.operator_actuals[actual]),
        spans_(ctx.spans),
        trace_(ctx.sim.trace()),
        site_(site),
        op_(op),
        owns_actual_(op == actual),
        start_ms_(ctx.sim.now()) {
    if (owns_actual_) actual_.start_ms = start_ms_;
    if (trace_ != nullptr) {
      name_ = std::move(name);
      tid_ = trace_->NewTrack(site_, name_);
    }
  }

  double now() const { return ctx_.sim.now(); }

  /// Opens a timed window: returns its start and resets the request stats.
  double Mark() {
    req_ = {};
    return now();
  }
  /// Request-stats out-pointer for the resource request(s) awaited inside
  /// the current Mark() window; null when span capture is off.
  sim::ReqStats* Req() { return spans_ != nullptr ? &req_ : nullptr; }

  void Cpu(double t0) { CpuAt(t0, site_); }
  void CpuAt(double t0, SiteId site) { Record(sim::SpanKind::kCpu, t0, site); }
  void Disk(double t0) { DiskAt(t0, site_); }
  void DiskAt(double t0, SiteId site) {
    Record(sim::SpanKind::kDisk, t0, site);
  }
  void Net(double t0) { Record(sim::SpanKind::kNet, t0, /*site=*/-1); }
  /// Records the wait for buffer-pool frames acquired over [t0, now].
  void MemoryWait(double t0) { Record(sim::SpanKind::kMemory, t0, site_); }
  /// Records the time blocked on a channel Put since `t0` (causal edge to
  /// the channel's consumer) / Get (edge to the producer).
  void PutWait(double t0, const PageChannel& ch) {
    Record(sim::SpanKind::kChannel, t0, /*site=*/-1, ch.consumer);
  }
  void GetWait(double t0, const PageChannel& ch) {
    Record(sim::SpanKind::kChannel, t0, /*site=*/-1, ch.producer);
  }
  /// Charges a crash-window stall of `ms` ending now, to the query's
  /// fault_stall_ms as well. The stall is added as given rather than as
  /// now - (now - ms), which need not round back to it.
  void Stall(double ms) {
    ctx_.metrics.fault_stall_ms += ms;
    actual_.stall_ms += ms;
    if (spans_ != nullptr && ms > 0.0) {
      const double t = now();
      spans_->spans.push_back(
          {op_, t - ms, t, sim::SpanKind::kFaultStall, 0.0, site_, -1});
    }
  }

  /// A trace sub-slice [begin_ms, now] nested inside the operator's slice.
  void Phase(std::string label, double begin_ms,
             std::vector<sim::TraceSink::Arg> args = {}) {
    if (trace_ != nullptr) {
      trace_->Complete(site_, tid_, std::move(label), "phase", begin_ms,
                       now(), std::move(args));
    }
  }

  /// One end of a Perfetto flow arrow on this operator's track; used by the
  /// net pair to link a page's send to its receipt across sites.
  void Flow(bool start, uint64_t id) {
    if (trace_ == nullptr) return;
    if (start) {
      trace_->FlowStart(site_, tid_, "page", "channel", now(), id);
    } else {
      trace_->FlowEnd(site_, tid_, "page", "channel", now(), id);
    }
  }

  /// Closes the operator, once, when it is done (coroutines have no
  /// reliable RAII point after final suspend): the owned actual's page
  /// counts and end time, and the whole-lifetime trace slice. The slice's
  /// args are the page counts the operator reports (a source has no
  /// pages_in, a sink no pages_out), then `extra`.
  void Finish(std::optional<int64_t> pages_in,
              std::optional<int64_t> pages_out,
              std::vector<sim::TraceSink::Arg> extra = {}) {
    if (owns_actual_) {
      actual_.pages_in = pages_in.value_or(0);
      actual_.pages_out = pages_out.value_or(0);
      actual_.end_ms = now();
    }
    if (trace_ == nullptr) return;
    std::vector<sim::TraceSink::Arg> args;
    if (pages_in) args.push_back({"pages_in", static_cast<double>(*pages_in)});
    if (pages_out) {
      args.push_back({"pages_out", static_cast<double>(*pages_out)});
    }
    args.insert(args.end(), extra.begin(), extra.end());
    trace_->Complete(site_, tid_, std::move(name_), "operator", start_ms_,
                     now(), std::move(args));
  }

 private:
  /// The one record path: charges [t0, now] to the actual's bucket for
  /// `kind` and appends the span when the query captures spans.
  void Record(sim::SpanKind kind, double t0, SiteId site, int peer = -1) {
    const double t = now();
    switch (kind) {
      case sim::SpanKind::kCpu:
        actual_.cpu_ms += t - t0;
        break;
      case sim::SpanKind::kDisk:
        actual_.disk_ms += t - t0;
        break;
      case sim::SpanKind::kNet:
        actual_.net_ms += t - t0;
        break;
      default:
        break;  // memory and channel waits have no actuals bucket
    }
    if (spans_ != nullptr && t > t0) {
      spans_->spans.push_back({op_, t0, t, kind, req_.service_ms, site, peer});
    }
  }

  ExecContext& ctx_;
  OperatorActual& actual_;
  sim::QuerySpans* spans_;
  sim::TraceSink* trace_;
  SiteId site_;
  int op_;
  bool owns_actual_;
  int tid_ = 0;
  double start_ms_;
  std::string name_;
  sim::ReqStats req_{};
};

/// Emits all complete pages accumulated in `acc`, charging the move cost of
/// result construction at `site`; returns the number of pages emitted.
sim::Task<int64_t> EmitFullPages(SiteRuntime& site, OutputAccumulator& acc,
                                 double move_ms_per_tuple, PageChannel& out,
                                 OpProbe& probe) {
  int64_t pages = 0;
  while (acc.HasFullPage()) {
    Page page = acc.PopFullPage();
    double t0 = probe.Mark();
    co_await site.cpu.Use(move_ms_per_tuple * page.tuples, probe.Req());
    probe.Cpu(t0);
    t0 = probe.Mark();
    co_await out.Put(page);
    probe.PutWait(t0, out);
    ++pages;
  }
  co_return pages;
}

sim::Task<int64_t> EmitRemainder(SiteRuntime& site, OutputAccumulator& acc,
                                 double move_ms_per_tuple, PageChannel& out,
                                 OpProbe& probe) {
  int64_t pages =
      co_await EmitFullPages(site, acc, move_ms_per_tuple, out, probe);
  if (acc.HasRemainder()) {
    Page page = acc.PopRemainder();
    double t0 = probe.Mark();
    co_await site.cpu.Use(move_ms_per_tuple * page.tuples, probe.Req());
    probe.Cpu(t0);
    t0 = probe.Mark();
    co_await out.Put(page);
    probe.PutWait(t0, out);
    ++pages;
  }
  co_return pages;
}

/// Stalls while `site` is crashed: fail-stop at request boundaries, so work
/// already in service finishes but new disk/network requests wait for the
/// restart (chained crash windows included). Returns the stalled time, ms.
/// Callers guard on ctx.faults != nullptr, so healthy runs pay only that
/// branch (no coroutine frame).
sim::Task<double> AwaitSiteUp(ExecContext& ctx, SiteId site) {
  double stall_ms = 0.0;
  while (ctx.faults->SiteDown(site, ctx.sim.now())) {
    const double wait_ms =
        ctx.faults->SiteUpAt(site, ctx.sim.now()) - ctx.sim.now();
    stall_ms += wait_ms;
    co_await ctx.sim.Delay(wait_ms);
  }
  co_return stall_ms;
}

/// One transfer under the fault model: a message started inside a drop
/// window occupies the wire but is lost; the sender times out (virtual
/// time) and retransmits with exponential backoff until a transfer starts
/// outside a drop window. Delay windows stretch the time on the wire.
/// Retransmissions are counted into the query's metrics; the network's own
/// message/byte totals include them too (they really crossed the wire).
sim::Task<void> FaultyTransfer(ExecContext& ctx, int64_t bytes,
                               sim::ReqStats* stats = nullptr) {
  const FaultTolerance& tolerance = *ctx.fault_tolerance;
  double timeout_ms = tolerance.retransmit_timeout_ms;
  while (true) {
    const bool dropped = ctx.faults->LinkDropping(ctx.sim.now());
    const double factor = ctx.faults->LinkDelayFactor(ctx.sim.now());
    co_await ctx.system.network().Transfer(bytes, factor, stats);
    if (!dropped) co_return;
    ++ctx.metrics.retransmits;
    ctx.metrics.retransmitted_bytes += bytes;
    ++ctx.metrics.messages;
    ctx.metrics.bytes_sent += bytes;
    co_await ctx.sim.Delay(timeout_ms);
    timeout_ms = std::min(timeout_ms * tolerance.retransmit_backoff_mult,
                          tolerance.retransmit_backoff_cap_ms);
  }
}

}  // namespace

sim::Process ScanProcess(ExecContext& ctx, const PlanNode& node, int op,
                         PageChannel& out) {
  const Relation& rel = ctx.catalog.relation(node.relation);
  const int64_t tuples_per_page = rel.TuplesPerPage(ctx.params.page_bytes);
  const double disk_cpu = ctx.params.DiskCpuMs();

  auto tuples_on_page = [&](int64_t index) {
    const int64_t before = index * tuples_per_page;
    return static_cast<double>(
        std::min(tuples_per_page, rel.num_tuples - before));
  };

  // What this scan reads and emits. Unrestricted logical scans (shard -1,
  // key [0,1)) read every page and emit per-page exact tuple counts, bit
  // for bit as before sharding existed. Shard fragments read their
  // shard's extent; key-restricted scans emit the restriction's tuples
  // spread uniformly over the pages they read (reads stay page- and
  // shard-granular, so a restriction never shrinks I/O by itself).
  const bool fragment = node.shard >= 0 && ctx.catalog.sharded(node.relation);
  const bool restricted =
      fragment || node.key_lo != 0.0 || node.key_hi != 1.0;
  const ScanSlice slice =
      ctx.catalog.ScanExtent(node.relation, node.shard, node.key_lo,
                             node.key_hi, ctx.params.page_bytes);
  const int64_t total_pages = slice.pages;
  const double uniform_tuples =
      slice.pages > 0 ? static_cast<double>(slice.tuples) /
                            static_cast<double>(slice.pages)
                      : 0.0;
  auto emit_on_page = [&](int64_t index) {
    return restricted ? uniform_tuples : tuples_on_page(index);
  };

  OpProbe probe(ctx, node.bound_site, op, "scan " + rel.name);

  if (node.annotation == SiteAnnotation::kPrimaryCopy) {
    SiteRuntime& server = ctx.system.site(node.bound_site);
    const DiskExtent extent =
        fragment
            ? ctx.system.ShardExtent(node.bound_site, node.relation,
                                     node.shard)
            : ctx.system.RelationExtent(node.bound_site, node.relation);
    for (int64_t i = 0; i < total_pages; ++i) {
      if (ctx.faults != nullptr) {
        probe.Stall(co_await AwaitSiteUp(ctx, node.bound_site));
      }
      double t0 = probe.Mark();
      co_await server.cpu.Use(disk_cpu, probe.Req());
      probe.Cpu(t0);
      t0 = probe.Mark();
      co_await server.disk(extent.disk).Read(extent.start + i, probe.Req());
      probe.Disk(t0);
      t0 = probe.Mark();
      co_await out.Put(Page{emit_on_page(i)});
      probe.PutWait(t0, out);
    }
    out.Close();
    probe.Finish(std::nullopt, total_pages);
    co_return;
  }

  // Client scan: cached prefix from the home client's disk, remainder
  // faulted in synchronously, one page per round trip.
  DIMSUM_CHECK(ctx.system.IsClientSite(node.bound_site))
      << "client-annotated scan bound to server site " << node.bound_site;
  const SiteId home = node.bound_site;
  SiteRuntime& client = ctx.system.site(home);

  if (ctx.catalog.sharded(node.relation)) {
    // Sharded relations are never client-cached: every shard's pages
    // fault in from that shard's serving copy, shard by shard.
    const double request_cpu =
        ctx.params.MsgCpuMs(ctx.params.fault_request_bytes);
    const double page_cpu = ctx.params.MsgCpuMs(ctx.params.page_bytes);
    int64_t read_pages = 0;
    for (int k = 0; k < ctx.catalog.NumShards(node.relation); ++k) {
      read_pages +=
          ctx.catalog.ShardPages(node.relation, k, ctx.params.page_bytes);
    }
    const double shard_uniform =
        read_pages > 0 ? static_cast<double>(slice.tuples) /
                             static_cast<double>(read_pages)
                       : 0.0;
    int64_t faulted = 0;
    for (int k = 0; k < ctx.catalog.NumShards(node.relation); ++k) {
      SiteRuntime& server = ctx.system.site(
          ctx.catalog.ShardSite(node.relation, k, node.replica));
      const int64_t shard_pages =
          ctx.catalog.ShardPages(node.relation, k, ctx.params.page_bytes);
      if (shard_pages == 0) continue;
      const DiskExtent extent =
          ctx.system.ShardExtent(server.id, node.relation, k);
      for (int64_t i = 0; i < shard_pages; ++i) {
        ++faulted;
        if (ctx.faults != nullptr) {
          probe.Stall(co_await AwaitSiteUp(ctx, server.id));
        }
        double t0 = probe.Mark();
        co_await client.cpu.Use(request_cpu, probe.Req());
        probe.Cpu(t0);
        t0 = probe.Mark();
        if (ctx.faults == nullptr) {
          co_await ctx.system.network().Transfer(
              ctx.params.fault_request_bytes, 1.0, probe.Req());
        } else {
          co_await FaultyTransfer(ctx, ctx.params.fault_request_bytes,
                                  probe.Req());
        }
        probe.Net(t0);
        t0 = probe.Mark();
        co_await server.cpu.Use(request_cpu, probe.Req());
        co_await server.cpu.Use(disk_cpu, probe.Req());
        probe.CpuAt(t0, server.id);
        t0 = probe.Mark();
        co_await server.disk(extent.disk).Read(extent.start + i, probe.Req());
        probe.DiskAt(t0, server.id);
        t0 = probe.Mark();
        co_await server.cpu.Use(page_cpu, probe.Req());
        probe.CpuAt(t0, server.id);
        t0 = probe.Mark();
        if (ctx.faults == nullptr) {
          co_await ctx.system.network().Transfer(ctx.params.page_bytes, 1.0,
                                                 probe.Req());
        } else {
          co_await FaultyTransfer(ctx, ctx.params.page_bytes, probe.Req());
        }
        probe.Net(t0);
        t0 = probe.Mark();
        co_await client.cpu.Use(page_cpu, probe.Req());
        probe.Cpu(t0);
        ++ctx.metrics.data_pages_sent;
        ctx.metrics.messages += 2;
        ctx.metrics.bytes_sent +=
            ctx.params.fault_request_bytes + ctx.params.page_bytes;
        t0 = probe.Mark();
        co_await out.Put(Page{shard_uniform});
        probe.PutWait(t0, out);
      }
    }
    out.Close();
    probe.Finish(std::nullopt, read_pages,
                 {{"pages_faulted", static_cast<double>(faulted)}});
    co_return;
  }

  SiteRuntime& server =
      ctx.system.site(ctx.catalog.ReplicaSite(node.relation, node.replica));
  const int64_t cached = std::min(
      ctx.catalog.CachedPages(node.relation, home, ctx.params.page_bytes),
      total_pages);
  const DiskExtent server_extent =
      ctx.system.RelationExtent(server.id, node.relation);
  const double request_cpu = ctx.params.MsgCpuMs(ctx.params.fault_request_bytes);
  const double page_cpu = ctx.params.MsgCpuMs(ctx.params.page_bytes);

  int64_t faulted = 0;
  for (int64_t i = 0; i < total_pages; ++i) {
    if (i < cached) {
      const DiskExtent cache_extent =
          ctx.system.CacheExtent(home, node.relation);
      double t0 = probe.Mark();
      co_await client.cpu.Use(disk_cpu, probe.Req());
      probe.Cpu(t0);
      t0 = probe.Mark();
      co_await client.disk(cache_extent.disk)
          .Read(cache_extent.start + i, probe.Req());
      probe.Disk(t0);
    } else {
      ++faulted;
      // Page fault: request to the server, server disk read, page back.
      // A crashed server stalls the fault-in until its restart.
      if (ctx.faults != nullptr) {
        probe.Stall(co_await AwaitSiteUp(ctx, server.id));
      }
      double t0 = probe.Mark();
      co_await client.cpu.Use(request_cpu, probe.Req());
      probe.Cpu(t0);
      t0 = probe.Mark();
      if (ctx.faults == nullptr) {
        co_await ctx.system.network().Transfer(ctx.params.fault_request_bytes,
                                               1.0, probe.Req());
      } else {
        co_await FaultyTransfer(ctx, ctx.params.fault_request_bytes,
                                probe.Req());
      }
      probe.Net(t0);
      t0 = probe.Mark();
      co_await server.cpu.Use(request_cpu, probe.Req());
      co_await server.cpu.Use(disk_cpu, probe.Req());
      probe.CpuAt(t0, server.id);
      t0 = probe.Mark();
      co_await server.disk(server_extent.disk)
          .Read(server_extent.start + i, probe.Req());
      probe.DiskAt(t0, server.id);
      t0 = probe.Mark();
      co_await server.cpu.Use(page_cpu, probe.Req());
      probe.CpuAt(t0, server.id);
      t0 = probe.Mark();
      if (ctx.faults == nullptr) {
        co_await ctx.system.network().Transfer(ctx.params.page_bytes, 1.0,
                                               probe.Req());
      } else {
        co_await FaultyTransfer(ctx, ctx.params.page_bytes, probe.Req());
      }
      probe.Net(t0);
      t0 = probe.Mark();
      co_await client.cpu.Use(page_cpu, probe.Req());
      probe.Cpu(t0);
      ++ctx.metrics.data_pages_sent;
      ctx.metrics.messages += 2;
      ctx.metrics.bytes_sent +=
          ctx.params.fault_request_bytes + ctx.params.page_bytes;
    }
    const double tq = probe.Mark();
    co_await out.Put(Page{emit_on_page(i)});
    probe.PutWait(tq, out);
  }
  out.Close();
  probe.Finish(std::nullopt, total_pages,
               {{"pages_faulted", static_cast<double>(faulted)}});
}

sim::Process SelectProcess(ExecContext& ctx, const PlanNode& node, int op,
                           PageChannel& in, PageChannel& out) {
  SiteRuntime& site = ctx.system.site(node.bound_site);
  const StreamStats& out_stats = ctx.stats.at(&node);
  const int64_t tuples_per_page =
      std::max<int64_t>(1, ctx.params.page_bytes / out_stats.tuple_bytes);
  OutputAccumulator acc(tuples_per_page);
  const double compare = ctx.params.InstrMs(ctx.params.compare_inst);
  const double move = ctx.params.MoveTupleMs(out_stats.tuple_bytes);
  OpProbe probe(ctx, node.bound_site, op, "select");
  int64_t pages_in = 0, pages_out = 0;
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await in.Get();
    probe.GetWait(t0, in);
    if (!page.has_value()) break;
    ++pages_in;
    t0 = probe.Mark();
    co_await site.cpu.Use(compare * page->tuples, probe.Req());
    probe.Cpu(t0);
    acc.Add(page->tuples * node.selectivity);
    pages_out += co_await EmitFullPages(site, acc, move, out, probe);
  }
  pages_out += co_await EmitRemainder(site, acc, move, out, probe);
  out.Close();
  probe.Finish(pages_in, pages_out);
}

sim::Process ProjectProcess(ExecContext& ctx, const PlanNode& node, int op,
                            PageChannel& in, PageChannel& out) {
  SiteRuntime& site = ctx.system.site(node.bound_site);
  const StreamStats& out_stats = ctx.stats.at(&node);
  const int64_t tuples_per_page =
      std::max<int64_t>(1, ctx.params.page_bytes / out_stats.tuple_bytes);
  OutputAccumulator acc(tuples_per_page);
  const double move = ctx.params.MoveTupleMs(out_stats.tuple_bytes);
  OpProbe probe(ctx, node.bound_site, op, "project");
  int64_t pages_in = 0, pages_out = 0;
  while (true) {
    const double t0 = probe.Mark();
    std::optional<Page> page = co_await in.Get();
    probe.GetWait(t0, in);
    if (!page.has_value()) break;
    ++pages_in;
    acc.Add(page->tuples);
    pages_out += co_await EmitFullPages(site, acc, move, out, probe);
  }
  pages_out += co_await EmitRemainder(site, acc, move, out, probe);
  out.Close();
  probe.Finish(pages_in, pages_out);
}

sim::Process AggregateProcess(ExecContext& ctx, const PlanNode& node,
                              int op, PageChannel& in, PageChannel& out) {
  SiteRuntime& site = ctx.system.site(node.bound_site);
  const StreamStats& out_stats = ctx.stats.at(&node);
  const double hash = ctx.params.InstrMs(ctx.params.hash_inst);
  const double compare = ctx.params.InstrMs(ctx.params.compare_inst);
  OpProbe probe(ctx, node.bound_site, op, "aggregate");
  int64_t pages_in = 0;
  // Blocking phase: hash every input tuple into the group table.
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await in.Get();
    probe.GetWait(t0, in);
    if (!page.has_value()) break;
    ++pages_in;
    t0 = probe.Mark();
    co_await site.cpu.Use((hash + compare) * page->tuples, probe.Req());
    probe.Cpu(t0);
  }
  // Emit the groups.
  const int64_t tuples_per_page =
      std::max<int64_t>(1, ctx.params.page_bytes / out_stats.tuple_bytes);
  OutputAccumulator acc(tuples_per_page);
  const double move = ctx.params.MoveTupleMs(out_stats.tuple_bytes);
  acc.Add(static_cast<double>(out_stats.tuples));
  const int64_t pages_out = co_await EmitRemainder(site, acc, move, out, probe);
  out.Close();
  probe.Finish(pages_in, pages_out);
}

sim::Process SortProcess(ExecContext& ctx, const PlanNode& node, int op,
                         PageChannel& in, PageChannel& out) {
  SiteRuntime& site = ctx.system.site(node.bound_site);
  const StreamStats& in_stats = ctx.stats.at(node.left.get());
  const StreamStats& out_stats = ctx.stats.at(&node);
  const double compare = ctx.params.InstrMs(ctx.params.compare_inst);
  const double disk_cpu = ctx.params.DiskCpuMs();
  const double log_n =
      in_stats.tuples > 1 ? std::log2(static_cast<double>(in_stats.tuples))
                          : 1.0;
  const bool spills = ctx.params.buf_alloc == BufAlloc::kMinimum;

  // Memory: in-memory sort needs the whole input; run generation needs the
  // sqrt-sized allocation that guarantees a one-pass merge.
  const int64_t frames =
      spills ? std::max<int64_t>(
                   2, static_cast<int64_t>(std::ceil(std::sqrt(
                          ctx.params.hash_fudge *
                          static_cast<double>(std::max<int64_t>(
                              in_stats.pages, 1))))))
             : std::max<int64_t>(1, in_stats.pages);
  const double mem_t0 = ctx.sim.now();
  co_await site.memory.Acquire(frames);
  OpProbe probe(ctx, node.bound_site, op, "sort");
  probe.MemoryWait(mem_t0);
  int64_t pages_in = 0, pages_out = 0;

  DiskExtent runs{};
  int64_t run_pages = 0;
  if (spills && in_stats.pages > 0) {
    runs = site.AllocateTempOn(0, in_stats.pages + 2);
  }
  // Run-generation phase: consume the input, sort, spill runs.
  const double run_start = probe.now();
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await in.Get();
    probe.GetWait(t0, in);
    if (!page.has_value()) break;
    ++pages_in;
    t0 = probe.Mark();
    co_await site.cpu.Use(compare * log_n * page->tuples, probe.Req());
    probe.Cpu(t0);
    if (spills) {
      if (ctx.faults != nullptr) {
        probe.Stall(co_await AwaitSiteUp(ctx, node.bound_site));
      }
      t0 = probe.Mark();
      co_await site.cpu.Use(disk_cpu, probe.Req());
      probe.Cpu(t0);
      t0 = probe.Mark();
      co_await site.disk(runs.disk).Write(runs.start + run_pages++);
      probe.Disk(t0);
    }
  }
  if (spills) {
    const double t0 = probe.Mark();
    co_await site.disk(runs.disk).Flush();
    probe.Disk(t0);
  }
  probe.Phase("run-generation", run_start,
             {{"run_pages", static_cast<double>(run_pages)}});
  // Merge/output phase: read the runs back and emit sorted pages.
  const double merge_start = probe.now();
  const int64_t tuples_per_page =
      std::max<int64_t>(1, ctx.params.page_bytes / out_stats.tuple_bytes);
  OutputAccumulator acc(tuples_per_page);
  const double move = ctx.params.MoveTupleMs(out_stats.tuple_bytes);
  if (spills) {
    for (int64_t i = 0; i < run_pages; ++i) {
      if (ctx.faults != nullptr) {
        probe.Stall(co_await AwaitSiteUp(ctx, node.bound_site));
      }
      double t0 = probe.Mark();
      co_await site.cpu.Use(disk_cpu, probe.Req());
      probe.Cpu(t0);
      t0 = probe.Mark();
      co_await site.disk(runs.disk).Read(runs.start + i, probe.Req());
      probe.Disk(t0);
      acc.Add(static_cast<double>(out_stats.tuples) /
              std::max<int64_t>(run_pages, 1));
      pages_out += co_await EmitFullPages(site, acc, move, out, probe);
    }
  } else {
    acc.Add(static_cast<double>(out_stats.tuples));
  }
  pages_out += co_await EmitRemainder(site, acc, move, out, probe);
  out.Close();
  probe.Phase("merge", merge_start);
  probe.Finish(pages_in, pages_out);
  site.memory.Release(frames);
}

sim::Process UnionProcess(ExecContext& ctx, const PlanNode& node, int op,
                          PageChannel& left, PageChannel& right,
                          PageChannel& out) {
  SiteRuntime& site = ctx.system.site(node.bound_site);
  const StreamStats& out_stats = ctx.stats.at(&node);
  const double move = ctx.params.MoveTupleMs(out_stats.tuple_bytes);
  OpProbe probe(ctx, node.bound_site, op, "union");
  int64_t pages = 0;
  for (PageChannel* input : {&left, &right}) {
    while (true) {
      double t0 = probe.Mark();
      std::optional<Page> page = co_await input->Get();
      probe.GetWait(t0, *input);
      if (!page.has_value()) break;
      ++pages;
      t0 = probe.Mark();
      co_await site.cpu.Use(move * page->tuples, probe.Req());
      probe.Cpu(t0);
      t0 = probe.Mark();
      co_await out.Put(*page);
      probe.PutWait(t0, out);
    }
  }
  out.Close();
  probe.Finish(pages, pages);
}

sim::Process HashJoinProcess(ExecContext& ctx, const PlanNode& node,
                             int op, PageChannel& inner, PageChannel& outer,
                             PageChannel& out) {
  SiteRuntime& site = ctx.system.site(node.bound_site);
  const StreamStats& inner_stats = ctx.stats.at(node.left.get());
  const StreamStats& outer_stats = ctx.stats.at(node.right.get());
  const StreamStats& out_stats = ctx.stats.at(&node);
  const HashJoinModel hj = ComputeHashJoinModel(
      inner_stats.pages, ctx.params.buf_alloc, ctx.params.hash_fudge);

  const double hash = ctx.params.InstrMs(ctx.params.hash_inst);
  const double compare = ctx.params.InstrMs(ctx.params.compare_inst);
  const double move_in = ctx.params.MoveTupleMs(inner_stats.tuple_bytes);
  const double move_out = ctx.params.MoveTupleMs(out_stats.tuple_bytes);
  const double disk_cpu = ctx.params.DiskCpuMs();

  const double mem_t0 = ctx.sim.now();
  co_await site.memory.Acquire(hj.memory_frames);
  OpProbe probe(ctx, node.bound_site, op, "join");
  probe.MemoryWait(mem_t0);
  int64_t pages_in = 0, pages_out = 0;

  // Temp extents: one per partition and side, so partition writes hop
  // between extents (seeks) while partition reads are sequential runs.
  const int partitions = std::max(1, hj.num_partitions);
  const int64_t inner_spill_total = hj.SpillPages(inner_stats.pages);
  const int64_t outer_spill_total = hj.SpillPages(outer_stats.pages);
  std::vector<DiskExtent> inner_extent(partitions), outer_extent(partitions);
  std::vector<int64_t> inner_written(partitions, 0), outer_written(partitions, 0);
  if (!hj.in_memory()) {
    const int64_t inner_cap = inner_spill_total / partitions + 2;
    const int64_t outer_cap = outer_spill_total / partitions + 2;
    for (int p = 0; p < partitions; ++p) {
      // Stripe partitions over the site's disks; a partition's inner and
      // outer halves share an arm (they are read back to back anyway).
      inner_extent[p] = site.AllocateTempOn(p, inner_cap);
      outer_extent[p] = site.AllocateTempOn(p, outer_cap);
    }
  }

  // --- build phase: consume the inner input -----------------------------
  const double build_start = probe.now();
  double spill_acc = 0.0;  // fractional pages destined for temp storage
  int next_partition = 0;
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await inner.Get();
    probe.GetWait(t0, inner);
    if (!page.has_value()) break;
    ++pages_in;
    t0 = probe.Mark();
    co_await site.cpu.Use((hash + move_in) * page->tuples, probe.Req());
    probe.Cpu(t0);
    if (!hj.in_memory()) {
      spill_acc += hj.spill_fraction;
      while (spill_acc >= 1.0) {
        spill_acc -= 1.0;
        const int p = next_partition;
        next_partition = (next_partition + 1) % partitions;
        if (ctx.faults != nullptr) {
          probe.Stall(co_await AwaitSiteUp(ctx, node.bound_site));
        }
        t0 = probe.Mark();
        co_await site.cpu.Use(disk_cpu, probe.Req());
        probe.Cpu(t0);
        t0 = probe.Mark();
        co_await site.disk(inner_extent[p].disk)
            .Write(inner_extent[p].start + inner_written[p]++);
        probe.Disk(t0);
      }
    }
  }
  if (!hj.in_memory()) {
    const double t0 = probe.Mark();
    for (int d = 0; d < site.num_disks(); ++d) {
      co_await site.disk(d).Flush();
    }
    probe.Disk(t0);
  }
  probe.Phase("build", build_start,
             {{"spilled_pages", static_cast<double>(inner_spill_total)}});

  // --- probe phase: stream the outer input ------------------------------
  const double probe_start = probe.now();
  const int64_t out_tuples_per_page =
      std::max<int64_t>(1, ctx.params.page_bytes / out_stats.tuple_bytes);
  OutputAccumulator acc(out_tuples_per_page);
  const double resident_fraction = 1.0 - hj.spill_fraction;
  const double resident_out_per_outer_tuple =
      outer_stats.tuples > 0
          ? static_cast<double>(out_stats.tuples) * resident_fraction /
                static_cast<double>(outer_stats.tuples)
          : 0.0;
  spill_acc = 0.0;
  next_partition = 0;
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await outer.Get();
    probe.GetWait(t0, outer);
    if (!page.has_value()) break;
    ++pages_in;
    t0 = probe.Mark();
    co_await site.cpu.Use((hash + compare) * page->tuples, probe.Req());
    probe.Cpu(t0);
    acc.Add(page->tuples * resident_out_per_outer_tuple);
    pages_out += co_await EmitFullPages(site, acc, move_out, out, probe);
    if (!hj.in_memory()) {
      spill_acc += hj.spill_fraction;
      while (spill_acc >= 1.0) {
        spill_acc -= 1.0;
        const int p = next_partition;
        next_partition = (next_partition + 1) % partitions;
        if (ctx.faults != nullptr) {
          probe.Stall(co_await AwaitSiteUp(ctx, node.bound_site));
        }
        t0 = probe.Mark();
        co_await site.cpu.Use(disk_cpu, probe.Req());
        probe.Cpu(t0);
        t0 = probe.Mark();
        co_await site.disk(outer_extent[p].disk)
            .Write(outer_extent[p].start + outer_written[p]++);
        probe.Disk(t0);
      }
    }
  }

  probe.Phase("probe", probe_start,
             {{"spilled_pages", static_cast<double>(outer_spill_total)}});

  // --- partition phase: join the spilled partition pairs ----------------
  if (!hj.in_memory()) {
    const double partition_start = probe.now();
    double t0 = probe.Mark();
    for (int d = 0; d < site.num_disks(); ++d) {
      co_await site.disk(d).Flush();
    }
    probe.Disk(t0);
    const int64_t inner_tpp =
        std::max<int64_t>(1, ctx.params.page_bytes / inner_stats.tuple_bytes);
    const int64_t outer_tpp =
        std::max<int64_t>(1, ctx.params.page_bytes / outer_stats.tuple_bytes);
    const double spilled_out_total =
        static_cast<double>(out_stats.tuples) * hj.spill_fraction;
    for (int p = 0; p < partitions; ++p) {
      // Rebuild the hash table from the spilled inner partition.
      for (int64_t i = 0; i < inner_written[p]; ++i) {
        if (ctx.faults != nullptr) {
          probe.Stall(co_await AwaitSiteUp(ctx, node.bound_site));
        }
        t0 = probe.Mark();
        co_await site.cpu.Use(disk_cpu, probe.Req());
        probe.Cpu(t0);
        t0 = probe.Mark();
        co_await site.disk(inner_extent[p].disk)
            .Read(inner_extent[p].start + i, probe.Req());
        probe.Disk(t0);
        t0 = probe.Mark();
        co_await site.cpu.Use((hash + move_in) *
                                  static_cast<double>(inner_tpp),
                              probe.Req());
        probe.Cpu(t0);
      }
      // Probe with the spilled outer partition.
      for (int64_t i = 0; i < outer_written[p]; ++i) {
        if (ctx.faults != nullptr) {
          probe.Stall(co_await AwaitSiteUp(ctx, node.bound_site));
        }
        t0 = probe.Mark();
        co_await site.cpu.Use(disk_cpu, probe.Req());
        probe.Cpu(t0);
        t0 = probe.Mark();
        co_await site.disk(outer_extent[p].disk)
            .Read(outer_extent[p].start + i, probe.Req());
        probe.Disk(t0);
        t0 = probe.Mark();
        co_await site.cpu.Use((hash + compare) *
                                  static_cast<double>(outer_tpp),
                              probe.Req());
        probe.Cpu(t0);
      }
      acc.Add(spilled_out_total / partitions);
      pages_out += co_await EmitFullPages(site, acc, move_out, out, probe);
    }
    probe.Phase("partition", partition_start,
               {{"partitions", static_cast<double>(partitions)}});
  }

  pages_out += co_await EmitRemainder(site, acc, move_out, out, probe);
  out.Close();
  probe.Finish(pages_in, pages_out);
  site.memory.Release(hj.memory_frames);
}

sim::Process DisplayProcess(ExecContext& ctx, const PlanNode& node, int op,
                            PageChannel& in) {
  SiteRuntime& client = ctx.system.site(node.bound_site);
  const double display = ctx.params.InstrMs(ctx.params.display_inst);
  OpProbe probe(ctx, node.bound_site, op, "display");
  int64_t pages = 0;
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await in.Get();
    probe.GetWait(t0, in);
    if (!page.has_value()) break;
    ++pages;
    t0 = probe.Mark();
    co_await client.cpu.Use(display * page->tuples, probe.Req());
    probe.Cpu(t0);
  }
  probe.Finish(pages, std::nullopt);
  ctx.metrics.response_ms = ctx.sim.now() - ctx.start_ms;
  ctx.query_done = true;
  if (ctx.batch_remaining != nullptr && --*ctx.batch_remaining == 0 &&
      ctx.batch_done != nullptr) {
    *ctx.batch_done = true;
  }
  if (ctx.on_done) ctx.on_done();
}

sim::Process NetSendProcess(ExecContext& ctx, SiteId from, PageChannel& in,
                            PageChannel& wire, int op, int actual,
                            uint64_t flow_base) {
  SiteRuntime& site = ctx.system.site(from);
  const double page_cpu = ctx.params.MsgCpuMs(ctx.params.page_bytes);
  OpProbe probe(ctx, from, op, actual, "ship-send");
  int64_t pages = 0;
  uint64_t flow_seq = 0;
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await in.Get();
    probe.GetWait(t0, in);
    if (!page.has_value()) break;
    ++pages;
    if (ctx.faults != nullptr) {
      probe.Stall(co_await AwaitSiteUp(ctx, from));
    }
    t0 = probe.Mark();
    co_await site.cpu.Use(page_cpu, probe.Req());
    probe.Cpu(t0);
    t0 = probe.Mark();
    if (ctx.faults == nullptr) {
      co_await ctx.system.network().Transfer(ctx.params.page_bytes, 1.0,
                                             probe.Req());
    } else {
      co_await FaultyTransfer(ctx, ctx.params.page_bytes, probe.Req());
    }
    probe.Net(t0);
    ++ctx.metrics.data_pages_sent;
    ++ctx.metrics.messages;
    ctx.metrics.bytes_sent += ctx.params.page_bytes;
    probe.Flow(true, flow_base + flow_seq++);
    t0 = probe.Mark();
    co_await wire.Put(*page);
    probe.PutWait(t0, wire);
  }
  wire.Close();
  probe.Finish(std::nullopt, pages);
}

sim::Process NetRecvProcess(ExecContext& ctx, SiteId to, PageChannel& wire,
                            PageChannel& out, int op, int actual,
                            uint64_t flow_base) {
  SiteRuntime& site = ctx.system.site(to);
  const double page_cpu = ctx.params.MsgCpuMs(ctx.params.page_bytes);
  OpProbe probe(ctx, to, op, actual, "ship-recv");
  int64_t pages = 0;
  uint64_t flow_seq = 0;
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await wire.Get();
    probe.GetWait(t0, wire);
    if (!page.has_value()) break;
    ++pages;
    // Pages cross the wire in FIFO order, so the n-th receipt pairs with
    // the n-th send on this channel.
    probe.Flow(false, flow_base + flow_seq++);
    if (ctx.faults != nullptr) {
      probe.Stall(co_await AwaitSiteUp(ctx, to));
    }
    t0 = probe.Mark();
    co_await site.cpu.Use(page_cpu, probe.Req());
    probe.Cpu(t0);
    t0 = probe.Mark();
    co_await out.Put(*page);
    probe.PutWait(t0, out);
  }
  out.Close();
  probe.Finish(pages, std::nullopt);
}

sim::Process LoadGeneratorProcess(sim::Simulator& sim, SiteRuntime& site,
                                  const CostParams& params,
                                  double requests_per_sec, uint64_t seed,
                                  const bool* stop, sim::FaultState* faults) {
  DIMSUM_CHECK_GT(requests_per_sec, 0.0);
  Rng rng(seed);
  const double mean_gap_ms = 1000.0 / requests_per_sec;
  const int64_t pages = site.disk(0).params().total_pages();
  struct OneRead {
    static sim::Process Run(SiteRuntime& site, int disk, int64_t block,
                            double disk_cpu) {
      co_await site.cpu.Use(disk_cpu);
      co_await site.disk(disk).Read(block);
    }
  };
  while (!*stop) {
    co_await sim.Delay(rng.Exponential(mean_gap_ms));
    if (*stop) break;
    const int disk =
        static_cast<int>(rng.UniformInt(0, site.num_disks() - 1));
    const int64_t block = rng.UniformInt(0, pages - 1);
    // External requests against a crashed server are lost, not queued.
    if (faults != nullptr && faults->SiteDown(site.id, sim.now())) continue;
    sim.Spawn(OneRead::Run(site, disk, block, params.DiskCpuMs()));
  }
}

}  // namespace dimsum
