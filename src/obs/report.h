#ifndef DPCOPULA_OBS_REPORT_H_
#define DPCOPULA_OBS_REPORT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dp/budget.h"
#include "obs/log.h"

namespace dpcopula::obs {

/// One mechanism's line in the privacy-budget audit: what was charged, at
/// which sensitivity, under which composition rule.
struct BudgetAuditEntry {
  std::string mechanism;
  double epsilon = 0.0;
  double sensitivity = 0.0;  // 0 = not recorded by the charge site.
  bool parallel = false;     // Charged under parallel composition.
};

/// The complete charge log of one accountant, ready for serialization.
struct BudgetAudit {
  std::string label;
  double total_epsilon = 0.0;  // The allowance (options.epsilon).
  double spent = 0.0;          // Sum of the entries.
  std::vector<BudgetAuditEntry> entries;
};

/// Snapshots an accountant. Header-only on purpose: obs never links dp, it
/// only reads the accountant's inline accessors.
inline BudgetAudit AuditFrom(const dp::BudgetAccountant& accountant) {
  BudgetAudit audit;
  audit.label = accountant.label();
  audit.total_epsilon = accountant.total_epsilon();
  audit.spent = accountant.spent();
  audit.entries.reserve(accountant.entries().size());
  for (const auto& entry : accountant.entries()) {
    audit.entries.push_back(
        {entry.what, entry.epsilon, entry.sensitivity, entry.parallel});
  }
  return audit;
}

/// Serializes the full run report as a JSON object:
///
///   {
///     "version": 2,
///     "trace": {"dropped_spans": 0, "spans": [<nested span trees>]},
///     "metrics": {"counters": {...}, "gauges": {...},
///                 "histograms": {...}},
///     "budget": {"label": ..., "total_epsilon": ..., "spent": ...,
///                "entries": [...]}   // only when audit != nullptr
///   }
///
/// Spans nest via "children" arrays ordered by start time; trace and
/// metrics are read from the global Tracer / MetricsRegistry. The output
/// is deterministic given identical trace/metric content (keys sorted,
/// doubles printed with %.17g round-trip precision).
std::string RenderRunReportJson(const BudgetAudit* audit);

/// Renders the report and replaces `path` with it atomically
/// (WriteFileAtomic): a failed write leaves no truncated report.
Status WriteRunReport(const std::string& path, const BudgetAudit* audit);

}  // namespace dpcopula::obs

#endif  // DPCOPULA_OBS_REPORT_H_
