#include "obs/report.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "common/atomic_file.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dpcopula::obs {

namespace {

using internal::AppendJsonDouble;
using internal::AppendJsonInt;
using internal::AppendJsonString;

// --- Trace tree ----------------------------------------------------------

struct SpanNode {
  const SpanRecord* record;
  std::vector<SpanNode*> children;
};

void AppendSpanNode(std::string* out, const SpanNode& node) {
  *out += "{\"name\":";
  AppendJsonString(out, node.record->name);
  *out += ",\"id\":";
  AppendJsonInt(out, static_cast<std::int64_t>(node.record->id));
  *out += ",\"start_ns\":";
  AppendJsonInt(out, node.record->start_ns);
  *out += ",\"duration_ns\":";
  AppendJsonInt(out, node.record->duration_ns);
  *out += ",\"wall_start_unix_ms\":";
  AppendJsonInt(out, node.record->wall_start_unix_ms);
  *out += ",\"thread\":";
  AppendJsonInt(out, node.record->thread_index);
  *out += ",\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) *out += ',';
    AppendSpanNode(out, *node.children[i]);
  }
  *out += "]}";
}

void AppendTrace(std::string* out) {
  const std::vector<SpanRecord> records = Tracer::Global().Snapshot();
  std::vector<SpanNode> nodes(records.size());
  std::map<SpanId, SpanNode*> by_id;
  for (std::size_t i = 0; i < records.size(); ++i) {
    nodes[i].record = &records[i];
    by_id[records[i].id] = &nodes[i];
  }
  std::vector<SpanNode*> roots;
  for (SpanNode& node : nodes) {
    auto parent = by_id.find(node.record->parent);
    // A span whose parent was dropped (buffer cap) or never finished is
    // promoted to a root rather than lost.
    if (node.record->parent != kNoSpan && parent != by_id.end() &&
        parent->second != &node) {
      parent->second->children.push_back(&node);
    } else {
      roots.push_back(&node);
    }
  }
  const auto by_start = [](const SpanNode* a, const SpanNode* b) {
    if (a->record->start_ns != b->record->start_ns) {
      return a->record->start_ns < b->record->start_ns;
    }
    return a->record->id < b->record->id;
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (SpanNode& node : nodes) {
    std::sort(node.children.begin(), node.children.end(), by_start);
  }

  *out += "\"trace\":{\"dropped_spans\":";
  AppendJsonInt(out, Tracer::Global().dropped());
  *out += ",\"spans\":[";
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (i > 0) *out += ',';
    AppendSpanNode(out, *roots[i]);
  }
  *out += "]}";
}

// --- Metrics -------------------------------------------------------------

void AppendMetrics(std::string* out) {
  using MetricType = MetricsRegistry::MetricType;
  const auto snapshot = MetricsRegistry::Global().Snapshot();

  *out += "\"metrics\":{\"counters\":{";
  bool first = true;
  for (const auto& m : snapshot) {
    if (m.type != MetricType::kCounter) continue;
    if (!first) *out += ',';
    first = false;
    AppendJsonString(out, m.name);
    *out += ':';
    AppendJsonInt(out, m.counter_value);
  }
  *out += "},\"gauges\":{";
  first = true;
  for (const auto& m : snapshot) {
    if (m.type != MetricType::kGauge) continue;
    if (!first) *out += ',';
    first = false;
    AppendJsonString(out, m.name);
    *out += ':';
    AppendJsonDouble(out, m.gauge_value);
  }
  *out += "},\"histograms\":{";
  first = true;
  for (const auto& m : snapshot) {
    if (m.type != MetricType::kHistogram) continue;
    if (!first) *out += ',';
    first = false;
    AppendJsonString(out, m.name);
    *out += ":{\"count\":";
    AppendJsonInt(out, m.histogram_count);
    *out += ",\"sum_seconds\":";
    AppendJsonDouble(out, m.histogram_sum_seconds);
    *out += ",\"max_seconds\":";
    AppendJsonDouble(out, m.histogram_max_seconds);
    *out += ",\"p50\":";
    AppendJsonDouble(out, m.histogram_p50);
    *out += ",\"p90\":";
    AppendJsonDouble(out, m.histogram_p90);
    *out += ",\"p99\":";
    AppendJsonDouble(out, m.histogram_p99);
    *out += ",\"p999\":";
    AppendJsonDouble(out, m.histogram_p999);
    // The HDR layout has 1216 buckets, nearly all empty for a typical
    // latency distribution — emit only the occupied ones.
    *out += ",\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t i = 0; i < m.histogram_buckets.size(); ++i) {
      if (m.histogram_buckets[i] == 0) continue;
      if (!first_bucket) *out += ',';
      first_bucket = false;
      *out += "{\"le\":";
      AppendJsonDouble(out, Histogram::BucketUpperBound(static_cast<int>(i)));
      *out += ",\"count\":";
      AppendJsonInt(out, m.histogram_buckets[i]);
      *out += '}';
    }
    *out += "]}";
  }
  *out += "}}";
}

// --- Budget audit --------------------------------------------------------

void AppendBudget(std::string* out, const BudgetAudit& audit) {
  *out += "\"budget\":{\"label\":";
  AppendJsonString(out, audit.label);
  *out += ",\"total_epsilon\":";
  AppendJsonDouble(out, audit.total_epsilon);
  *out += ",\"spent\":";
  AppendJsonDouble(out, audit.spent);
  *out += ",\"entries\":[";
  for (std::size_t i = 0; i < audit.entries.size(); ++i) {
    const BudgetAuditEntry& e = audit.entries[i];
    if (i > 0) *out += ',';
    *out += "{\"mechanism\":";
    AppendJsonString(out, e.mechanism);
    *out += ",\"epsilon\":";
    AppendJsonDouble(out, e.epsilon);
    *out += ",\"sensitivity\":";
    AppendJsonDouble(out, e.sensitivity);
    *out += ",\"parallel\":";
    *out += e.parallel ? "true" : "false";
    *out += '}';
  }
  *out += "]}";
}

}  // namespace

std::string RenderRunReportJson(const BudgetAudit* audit) {
  std::string out;
  out.reserve(4096);
  // Version 2: histograms gained max_seconds/p50/p90/p99/p999 and emit
  // only non-empty buckets.
  out += "{\"version\":2,";
  AppendTrace(&out);
  out += ',';
  AppendMetrics(&out);
  if (audit != nullptr) {
    out += ',';
    AppendBudget(&out, *audit);
  }
  out += '}';
  return out;
}

Status WriteRunReport(const std::string& path, const BudgetAudit* audit) {
  const std::string json = RenderRunReportJson(audit);
  return WriteFileAtomic(path, [&](std::ostream& out) {
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
    return Status::OK();
  });
}

}  // namespace dpcopula::obs
