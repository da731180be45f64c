#include "core/report.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <map>
#include <sstream>

#include "common/check.h"
#include "common/json.h"
#include "plan/annotation.h"
#include "plan/printer.h"

namespace dimsum {

void ReportTable::AddRow(std::vector<std::string> cells) {
  DIMSUM_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

void ReportTable::Print(std::ostream& out) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    out << "\n";
  };
  print_row(headers_);
  for (const auto& row : rows_) print_row(row);
}

std::string Fmt(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

std::string FmtCi(double mean, double ci, int precision) {
  std::ostringstream out;
  out << Fmt(mean, precision) << " +-" << Fmt(ci, precision);
  return out.str();
}

// --- EXPLAIN ANALYZE ------------------------------------------------------

namespace {

constexpr double kErrEps = 1e-6;  // ms below which a resource counts as idle

std::string OpLabel(const OperatorEstimate& est) {
  std::ostringstream out;
  out << ToString(est.type);
  if (est.relation != kInvalidRelation) out << " R" << est.relation;
  if (est.site != kUnboundSite) out << " @" << est.site;
  return out.str();
}

std::string Pct(double err) { return Fmt(err * 100.0, 1) + "%"; }

ExplainQuantiles Quantiles(const Histogram& hist) {
  ExplainQuantiles q;
  q.count = hist.count();
  q.p50 = hist.Quantile(0.50);
  q.p90 = hist.Quantile(0.90);
  q.p99 = hist.Quantile(0.99);
  return q;
}

void WriteQuantilesJson(const ExplainQuantiles& q, std::ostream& out) {
  out << "{\"count\":" << q.count << ",\"p50\":";
  JsonWriteNumber(out, q.p50);
  out << ",\"p90\":";
  JsonWriteNumber(out, q.p90);
  out << ",\"p99\":";
  JsonWriteNumber(out, q.p99);
  out << "}";
}

}  // namespace

std::optional<ExplainMode> ParseExplainMode(const std::string& value) {
  if (value.empty() || value == "1" || value == "text") {
    return ExplainMode::kText;
  }
  if (value == "json") return ExplainMode::kJson;
  if (value == "0" || value == "off") return ExplainMode::kOff;
  return std::nullopt;
}

double ExplainRelErr(double est, double act) {
  const double denom = std::max({est, act, kErrEps});
  if (est < kErrEps && act < kErrEps) return 0.0;
  return (est - act) / denom;
}

ExplainReport BuildExplainReport(const PlanEstimate& est,
                                 const ExecMetrics& actual) {
  DIMSUM_CHECK_EQ(actual.operator_actuals.size(), est.ops.size())
      << "explain: the execution must run the same bound plan that was "
         "costed";
  ExplainReport report;
  report.est_response_ms = est.response_ms;
  report.act_response_ms = actual.response_ms;
  report.response_err =
      ExplainRelErr(report.est_response_ms, report.act_response_ms);

  double act_total = actual.network_busy_ms;
  for (const auto& [site, ms] : actual.cpu_busy_ms) act_total += ms;
  for (const auto& [site, ms] : actual.disk_busy_ms) act_total += ms;
  report.est_total_ms = est.total_ms;
  report.act_total_ms = act_total;
  report.total_err = ExplainRelErr(report.est_total_ms, report.act_total_ms);
  report.est_net_ms = est.net_ms;
  report.act_net_ms = actual.network_busy_ms;

  report.ops.reserve(est.ops.size());
  double err_sum = 0.0;
  int err_count = 0;
  for (size_t i = 0; i < est.ops.size(); ++i) {
    ExplainOp op;
    op.est = est.ops[i];
    op.act = actual.operator_actuals[i];
    op.label = OpLabel(op.est);
    op.act_total_ms = op.act.cpu_ms + op.act.disk_ms + op.act.net_ms;
    op.err_cpu = ExplainRelErr(op.est.cpu_ms, op.act.cpu_ms);
    op.err_disk = ExplainRelErr(op.est.disk_ms, op.act.disk_ms);
    op.err_net = ExplainRelErr(op.est.net_ms, op.act.net_ms);
    op.err_total = ExplainRelErr(op.est.total_ms(), op.act_total_ms);
    if (op.est.total_ms() >= kErrEps || op.act_total_ms >= kErrEps) {
      err_sum += std::abs(op.err_total);
      report.max_op_err = std::max(report.max_op_err, std::abs(op.err_total));
      ++err_count;
    }
    report.ops.push_back(std::move(op));
  }
  if (err_count > 0) report.mean_op_err = err_sum / err_count;

  report.phases.reserve(est.phases.size());
  for (const PhaseEstimate& phase : est.phases) {
    ExplainPhaseRow row;
    row.id = phase.id;
    row.est_duration_ms = phase.duration_ms;
    row.est_start_ms = phase.start_ms;
    row.est_finish_ms = phase.finish_ms;
    bool any = false;
    double first = 0.0;
    double last = 0.0;
    for (const ExplainOp& op : report.ops) {
      if (op.est.phase != phase.id) continue;
      row.ops.push_back(op.est.op_id);
      if (!any) {
        first = op.act.start_ms;
        last = op.act.end_ms;
        any = true;
      } else {
        first = std::min(first, op.act.start_ms);
        last = std::max(last, op.act.end_ms);
      }
    }
    if (any) row.act_span_ms = std::max(0.0, last - first);
    report.phases.push_back(std::move(row));
  }

  std::map<SiteId, ExplainSiteRow> sites;
  auto site_row = [&sites](SiteId site) -> ExplainSiteRow& {
    ExplainSiteRow& row = sites[site];
    row.site = site;
    return row;
  };
  for (const auto& [site, ms] : est.cpu_ms_by_site) {
    site_row(site).est_cpu_ms = ms;
  }
  for (const auto& [site, ms] : est.disk_ms_by_site) {
    site_row(site).est_disk_ms = ms;
  }
  for (const auto& [site, ms] : actual.cpu_busy_ms) {
    site_row(site).act_cpu_ms = ms;
  }
  for (const auto& [site, ms] : actual.disk_busy_ms) {
    site_row(site).act_disk_ms = ms;
  }
  report.sites.reserve(sites.size());
  for (auto& [site, row] : sites) report.sites.push_back(row);

  report.worst.resize(report.ops.size());
  for (size_t i = 0; i < report.worst.size(); ++i) {
    report.worst[i] = static_cast<int>(i);
  }
  std::sort(report.worst.begin(), report.worst.end(), [&](int a, int b) {
    const double da =
        std::abs(report.ops[a].est.total_ms() - report.ops[a].act_total_ms);
    const double db =
        std::abs(report.ops[b].est.total_ms() - report.ops[b].act_total_ms);
    if (da != db) return da > db;
    return a < b;
  });

  if (actual.disk_service_ms.count() > 0) {
    report.disk_service = Quantiles(actual.disk_service_ms);
  }
  if (actual.net_queue_delay_ms.count() > 0) {
    report.net_queue = Quantiles(actual.net_queue_delay_ms);
  }

  std::vector<SiteId> op_sites;
  op_sites.reserve(est.ops.size());
  for (const OperatorEstimate& op : est.ops) op_sites.push_back(op.site);
  report.bottleneck = BuildBottleneck(op_sites, actual);
  return report;
}

std::string ExplainToText(const ExplainReport& report, const Plan& plan) {
  std::ostringstream out;
  out << "EXPLAIN ANALYZE (virtual ms; err = (est-sim)/max(est,sim))\n";
  out << "  response: est " << Fmt(report.est_response_ms) << "  sim "
      << Fmt(report.act_response_ms) << "  err " << Pct(report.response_err)
      << "\n";
  out << "  total:    est " << Fmt(report.est_total_ms) << "  sim "
      << Fmt(report.act_total_ms) << "  err " << Pct(report.total_err)
      << "\n";
  out << "  per-op |err|: mean " << Pct(report.mean_op_err) << "  max "
      << Pct(report.max_op_err) << "\n";
  out << "  bottleneck: " << report.bottleneck.Summary() << "\n\n";

  out << PlanToString(plan, [&report](const PlanNode&, int id) {
    std::vector<std::string> lines;
    if (id < 0 || static_cast<size_t>(id) >= report.ops.size()) return lines;
    const ExplainOp& op = report.ops[id];
    {
      std::ostringstream line;
      line << "est " << Fmt(op.est.total_ms()) << " ms = cpu "
           << Fmt(op.est.cpu_ms) << " + disk " << Fmt(op.est.disk_ms)
           << " + net " << Fmt(op.est.net_ms) << " | " << op.est.est_pages
           << " pages | phase " << op.est.phase;
      lines.push_back(line.str());
    }
    {
      std::ostringstream line;
      line << "sim " << Fmt(op.act_total_ms) << " ms = cpu "
           << Fmt(op.act.cpu_ms) << " + disk " << Fmt(op.act.disk_ms)
           << " + net " << Fmt(op.act.net_ms) << " | " << op.act.pages_out
           << " pages | err " << Pct(op.err_total);
      if (op.act.stall_ms > 0.0) {
        line << " | stall " << Fmt(op.act.stall_ms) << " ms";
      }
      lines.push_back(line.str());
    }
    return lines;
  });

  out << "\nphases (pipelined):\n";
  for (const ExplainPhaseRow& phase : report.phases) {
    out << "  phase " << phase.id << ": est " << Fmt(phase.est_duration_ms)
        << " ms [" << Fmt(phase.est_start_ms) << " .. "
        << Fmt(phase.est_finish_ms) << "]  sim span "
        << Fmt(phase.act_span_ms) << " ms  ops";
    for (size_t i = 0; i < phase.ops.size(); ++i) {
      out << (i == 0 ? " " : ",") << phase.ops[i];
    }
    out << "\n";
  }

  out << "sites:\n";
  for (const ExplainSiteRow& site : report.sites) {
    out << "  site " << site.site << ": cpu est " << Fmt(site.est_cpu_ms)
        << " sim " << Fmt(site.act_cpu_ms) << " | disk est "
        << Fmt(site.est_disk_ms) << " sim " << Fmt(site.act_disk_ms) << "\n";
  }

  if (!report.bottleneck.empty()) {
    out << "bottleneck (operator elapsed time by resource; service = covered "
           "by busy time, rest queueing):\n";
    for (const BottleneckBucket& bucket : report.bottleneck.buckets) {
      out << "  " << ToString(bucket.resource);
      if (bucket.site != kUnboundSite) out << " @ site " << bucket.site;
      out << ": " << Fmt(bucket.elapsed_ms) << " ms ("
          << Pct(bucket.share) << ") = service " << Fmt(bucket.service_ms)
          << " + queueing " << Fmt(bucket.queueing_ms) << "\n";
    }
  }

  const size_t top = std::min<size_t>(5, report.worst.size());
  if (top > 0) {
    out << "worst-attributed operators:\n";
    for (size_t i = 0; i < top; ++i) {
      const ExplainOp& op = report.ops[report.worst[i]];
      out << "  op " << op.est.op_id << " (" << op.label << "): |est-sim| "
          << Fmt(std::abs(op.est.total_ms() - op.act_total_ms))
          << " ms, err " << Pct(op.err_total) << "\n";
    }
  }

  if (report.disk_service.has_value() || report.net_queue.has_value()) {
    out << "distributions (sim):";
    if (report.disk_service.has_value()) {
      const ExplainQuantiles& q = *report.disk_service;
      out << " disk service p50/p90/p99 = " << Fmt(q.p50) << "/"
          << Fmt(q.p90) << "/" << Fmt(q.p99) << " ms";
    }
    if (report.net_queue.has_value()) {
      const ExplainQuantiles& q = *report.net_queue;
      out << (report.disk_service.has_value() ? ";" : "")
          << " net queue p50/p90/p99 = " << Fmt(q.p50) << "/" << Fmt(q.p90)
          << "/" << Fmt(q.p99) << " ms";
    }
    out << "\n";
  }
  return out.str();
}

void WriteExplainJson(const ExplainReport& report, std::ostream& out) {
  out << "{\"schema\":\"dimsum.explain.v1\"";
  out << ",\"estimated\":{\"response_ms\":";
  JsonWriteNumber(out, report.est_response_ms);
  out << ",\"total_ms\":";
  JsonWriteNumber(out, report.est_total_ms);
  out << ",\"net_ms\":";
  JsonWriteNumber(out, report.est_net_ms);
  out << "}";
  out << ",\"simulated\":{\"response_ms\":";
  JsonWriteNumber(out, report.act_response_ms);
  out << ",\"total_ms\":";
  JsonWriteNumber(out, report.act_total_ms);
  out << ",\"net_ms\":";
  JsonWriteNumber(out, report.act_net_ms);
  out << "}";
  out << ",\"errors\":{\"response\":";
  JsonWriteNumber(out, report.response_err);
  out << ",\"total\":";
  JsonWriteNumber(out, report.total_err);
  out << ",\"mean_op\":";
  JsonWriteNumber(out, report.mean_op_err);
  out << ",\"max_op\":";
  JsonWriteNumber(out, report.max_op_err);
  out << "}";

  out << ",\"operators\":[";
  for (size_t i = 0; i < report.ops.size(); ++i) {
    const ExplainOp& op = report.ops[i];
    if (i > 0) out << ",";
    out << "{\"op_id\":" << op.est.op_id << ",\"label\":\""
        << JsonEscape(op.label) << "\",\"type\":\""
        << JsonEscape(std::string(ToString(op.est.type))) << "\",\"site\":"
        << op.est.site << ",\"phase\":" << op.est.phase;
    out << ",\"est\":{\"tuples\":" << op.est.est_tuples
        << ",\"pages\":" << op.est.est_pages << ",\"cpu_ms\":";
    JsonWriteNumber(out, op.est.cpu_ms);
    out << ",\"disk_ms\":";
    JsonWriteNumber(out, op.est.disk_ms);
    out << ",\"net_ms\":";
    JsonWriteNumber(out, op.est.net_ms);
    out << ",\"chain_ms\":";
    JsonWriteNumber(out, op.est.chain_ms);
    out << ",\"total_ms\":";
    JsonWriteNumber(out, op.est.total_ms());
    out << "}";
    out << ",\"sim\":{\"cpu_ms\":";
    JsonWriteNumber(out, op.act.cpu_ms);
    out << ",\"disk_ms\":";
    JsonWriteNumber(out, op.act.disk_ms);
    out << ",\"net_ms\":";
    JsonWriteNumber(out, op.act.net_ms);
    out << ",\"stall_ms\":";
    JsonWriteNumber(out, op.act.stall_ms);
    out << ",\"start_ms\":";
    JsonWriteNumber(out, op.act.start_ms);
    out << ",\"end_ms\":";
    JsonWriteNumber(out, op.act.end_ms);
    out << ",\"pages_in\":" << op.act.pages_in
        << ",\"pages_out\":" << op.act.pages_out << ",\"total_ms\":";
    JsonWriteNumber(out, op.act_total_ms);
    out << "}";
    out << ",\"err\":{\"cpu\":";
    JsonWriteNumber(out, op.err_cpu);
    out << ",\"disk\":";
    JsonWriteNumber(out, op.err_disk);
    out << ",\"net\":";
    JsonWriteNumber(out, op.err_net);
    out << ",\"total\":";
    JsonWriteNumber(out, op.err_total);
    out << "}}";
  }
  out << "]";

  out << ",\"phases\":[";
  for (size_t i = 0; i < report.phases.size(); ++i) {
    const ExplainPhaseRow& phase = report.phases[i];
    if (i > 0) out << ",";
    out << "{\"id\":" << phase.id << ",\"est_duration_ms\":";
    JsonWriteNumber(out, phase.est_duration_ms);
    out << ",\"est_start_ms\":";
    JsonWriteNumber(out, phase.est_start_ms);
    out << ",\"est_finish_ms\":";
    JsonWriteNumber(out, phase.est_finish_ms);
    out << ",\"sim_span_ms\":";
    JsonWriteNumber(out, phase.act_span_ms);
    out << ",\"ops\":[";
    for (size_t j = 0; j < phase.ops.size(); ++j) {
      if (j > 0) out << ",";
      out << phase.ops[j];
    }
    out << "]}";
  }
  out << "]";

  out << ",\"sites\":[";
  for (size_t i = 0; i < report.sites.size(); ++i) {
    const ExplainSiteRow& site = report.sites[i];
    if (i > 0) out << ",";
    out << "{\"site\":" << site.site << ",\"est_cpu_ms\":";
    JsonWriteNumber(out, site.est_cpu_ms);
    out << ",\"sim_cpu_ms\":";
    JsonWriteNumber(out, site.act_cpu_ms);
    out << ",\"est_disk_ms\":";
    JsonWriteNumber(out, site.est_disk_ms);
    out << ",\"sim_disk_ms\":";
    JsonWriteNumber(out, site.act_disk_ms);
    out << "}";
  }
  out << "]";

  out << ",\"worst\":[";
  const size_t top = std::min<size_t>(5, report.worst.size());
  for (size_t i = 0; i < top; ++i) {
    const ExplainOp& op = report.ops[report.worst[i]];
    if (i > 0) out << ",";
    out << "{\"op_id\":" << op.est.op_id << ",\"label\":\""
        << JsonEscape(op.label) << "\",\"abs_err_ms\":";
    JsonWriteNumber(out, std::abs(op.est.total_ms() - op.act_total_ms));
    out << ",\"err_total\":";
    JsonWriteNumber(out, op.err_total);
    out << "}";
  }
  out << "]";

  out << ",\"bottleneck\":{\"summary\":\""
      << JsonEscape(report.bottleneck.Summary()) << "\",\"response_ms\":";
  JsonWriteNumber(out, report.bottleneck.response_ms);
  out << ",\"attributed_ms\":";
  JsonWriteNumber(out, report.bottleneck.attributed_ms);
  out << ",\"buckets\":[";
  for (size_t i = 0; i < report.bottleneck.buckets.size(); ++i) {
    const BottleneckBucket& bucket = report.bottleneck.buckets[i];
    if (i > 0) out << ",";
    out << "{\"resource\":\"" << ToString(bucket.resource)
        << "\",\"site\":" << bucket.site << ",\"elapsed_ms\":";
    JsonWriteNumber(out, bucket.elapsed_ms);
    out << ",\"service_ms\":";
    JsonWriteNumber(out, bucket.service_ms);
    out << ",\"queueing_ms\":";
    JsonWriteNumber(out, bucket.queueing_ms);
    out << ",\"share\":";
    JsonWriteNumber(out, bucket.share);
    out << "}";
  }
  out << "]}";

  if (report.disk_service.has_value() || report.net_queue.has_value()) {
    out << ",\"distributions\":{";
    bool first = true;
    if (report.disk_service.has_value()) {
      out << "\"disk_service_ms\":";
      WriteQuantilesJson(*report.disk_service, out);
      first = false;
    }
    if (report.net_queue.has_value()) {
      if (!first) out << ",";
      out << "\"net_queue_delay_ms\":";
      WriteQuantilesJson(*report.net_queue, out);
    }
    out << "}";
  }
  out << "}\n";
}

}  // namespace dimsum
