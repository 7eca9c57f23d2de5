// dpcopula_report — renders --trace-json run reports as one markdown
// performance report.
//
//   dpcopula_report --run-report report.json --out docs/PERF_REPORT.md
//
// Inputs:
//   --run-report PATH  a dpcopula, dpcopula_eval or dpcopula_serve
//                      --trace-json run report (version >= 2); repeatable.
//                      Contributes per-stage percentile tables, profile
//                      gauges (peak RSS, hardware counters), counters, and
//                      the budget audit.
//   --out PATH         output markdown (default docs/PERF_REPORT.md).
//
// Exits 1 on unreadable or malformed input (obs::ParseJson) and writes
// nothing: a report silently built from half the artifacts is worse than
// no report. Performance gating is perfbench's (tools/perf_gate.py).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_reader.h"

namespace dpcopula {
namespace {

using obs::JsonValue;

bool LoadJsonFile(const std::string& path, JsonValue* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "dpcopula_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = obs::ParseJson(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "dpcopula_report: malformed JSON in %s (%s)\n",
                 path.c_str(), parsed.status().message().c_str());
    return false;
  }
  *out = std::move(parsed).ValueOrDie();
  return true;
}

// --- Formatting ----------------------------------------------------------

std::string FormatSeconds(double s) {
  char buf[48];
  if (s <= 0.0) {
    return "0";
  } else if (s < 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.0f ns", s * 1e9);
  } else if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f us", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f s", s);
  }
  return buf;
}

std::string FormatBytes(double b) {
  char buf[48];
  if (b >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", b / (1024.0 * 1024.0 * 1024.0));
  } else if (b >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB", b / (1024.0 * 1024.0));
  } else if (b >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", b);
  }
  return buf;
}

std::string FormatCount(double v) {
  char buf[48];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

// --- Run reports ---------------------------------------------------------

bool AppendRunReportSection(const std::string& path, const JsonValue& report,
                            std::string* out) {
  const JsonValue* version = report.Find("version");
  const JsonValue* metrics = report.Find("metrics");
  if (version == nullptr || metrics == nullptr) {
    std::fprintf(stderr, "dpcopula_report: %s is not a run report\n",
                 path.c_str());
    return false;
  }
  if (version->NumberOr(0.0) < 2.0) {
    std::fprintf(stderr,
                 "dpcopula_report: %s is a version %g report; stage "
                 "percentiles need version >= 2\n",
                 path.c_str(), version->NumberOr(0.0));
    return false;
  }
  *out += "### `" + path + "`\n\n";

  // Per-stage breakdown from the profile.* histograms.
  const JsonValue* histograms = metrics->Find("histograms");
  bool any_stage = false;
  std::string stage_table =
      "| stage | count | total | p50 | p90 | p99 | p99.9 | max "
      "|\n|---|---:|---:|---:|---:|---:|---:|---:|\n";
  double stage_total_seconds = 0.0;
  if (histograms != nullptr &&
      histograms->type == JsonValue::Type::kObject) {
    for (const auto& [name, h] : *histograms->object) {
      constexpr const char* kPrefix = "profile.";
      constexpr const char* kSuffix = "_seconds";
      if (name.rfind(kPrefix, 0) != 0) continue;
      const JsonValue* count = h.Find("count");
      if (count == nullptr || count->NumberOr(0.0) <= 0.0) continue;
      std::string stage = name.substr(std::strlen(kPrefix));
      const std::size_t suffix_at = stage.rfind(kSuffix);
      if (suffix_at != std::string::npos) stage.resize(suffix_at);
      const double sum = h.Find("sum_seconds") != nullptr
                             ? h.Find("sum_seconds")->NumberOr(0.0)
                             : 0.0;
      stage_total_seconds += sum;
      auto q = [&h](const char* key) {
        const JsonValue* v = h.Find(key);
        return FormatSeconds(v != nullptr ? v->NumberOr(0.0) : 0.0);
      };
      stage_table += "| " + stage + " | " + FormatCount(count->number) +
                     " | " + FormatSeconds(sum) + " | " + q("p50") + " | " +
                     q("p90") + " | " + q("p99") + " | " + q("p999") +
                     " | " + q("max_seconds") + " |\n";
      any_stage = true;
    }
  }
  if (any_stage) {
    *out += "Per-stage breakdown (scopes record inside workers, so totals "
            "approach CPU seconds at higher thread counts):\n\n";
    *out += stage_table;
    *out += "\nStage total: " + FormatSeconds(stage_total_seconds) + "\n\n";
  } else {
    *out += "No stage timings in this report.\n\n";
  }

  // Profile gauges: peak RSS + hardware counters.
  if (const JsonValue* gauges = metrics->Find("gauges");
      gauges != nullptr && gauges->type == JsonValue::Type::kObject) {
    const JsonValue* rss = gauges->Find("profile.peak_rss_bytes");
    if (rss != nullptr && rss->NumberOr(0.0) > 0.0) {
      *out += "Peak RSS: " + FormatBytes(rss->number) + ".\n";
    }
    const JsonValue* hw = gauges->Find("profile.hw_available");
    if (hw != nullptr) {
      if (hw->NumberOr(0.0) != 0.0) {
        auto g = [&gauges](const char* key) {
          const JsonValue* v = gauges->Find(key);
          return FormatCount(v != nullptr ? v->NumberOr(0.0) : 0.0);
        };
        *out += "Hardware counters: " + g("profile.hw_cycles") +
                " cycles, " + g("profile.hw_instructions") +
                " instructions, " + g("profile.hw_cache_misses") +
                " cache misses.\n";
      } else {
        *out += "Hardware counters unavailable (perf_event_open denied; "
                "common in containers).\n";
      }
    }
    *out += "\n";
  }

  // Dropped spans: from the trace section, plus the metrics counter when
  // it has been registered.
  if (const JsonValue* trace = report.Find("trace"); trace != nullptr) {
    const JsonValue* dropped = trace->Find("dropped_spans");
    const double n = dropped != nullptr ? dropped->NumberOr(0.0) : 0.0;
    if (n > 0.0) {
      *out += "**" + FormatCount(n) +
              " spans dropped** (tracer buffer cap hit; timings above are "
              "complete, the span tree is not).\n\n";
    }
  }

  // Budget audit (dpcopula runs only; eval reports have no budget).
  if (const JsonValue* budget = report.Find("budget"); budget != nullptr) {
    auto num = [&budget](const char* key) {
      const JsonValue* v = budget->Find(key);
      return v != nullptr ? v->NumberOr(0.0) : 0.0;
    };
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "Privacy budget: %.6g of %.6g spent across ",
                  num("spent"), num("total_epsilon"));
    *out += buf;
    const JsonValue* entries = budget->Find("entries");
    const std::size_t n =
        (entries != nullptr && entries->type == JsonValue::Type::kArray)
            ? entries->array->size()
            : 0;
    *out += std::to_string(n) + " mechanism charges.\n\n";
  }
  return true;
}

}  // namespace
}  // namespace dpcopula

int main(int argc, char** argv) {
  std::vector<std::string> report_paths;
  std::string out_path = "docs/PERF_REPORT.md";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--run-report") {
      const char* v = next();
      if (!v) {
        std::fprintf(stderr, "--run-report needs a path\n");
        return 2;
      }
      report_paths.push_back(v);
    } else if (flag == "--out") {
      const char* v = next();
      if (!v) {
        std::fprintf(stderr, "--out needs a path\n");
        return 2;
      }
      out_path = v;
    } else {
      std::fprintf(stderr,
                   "usage: %s --run-report REPORT.json... [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (report_paths.empty()) {
    std::fprintf(stderr,
                 "dpcopula_report: nothing to report (pass --run-report)\n");
    return 2;
  }

  std::string out;
  out += "# Performance report\n\n";
  out += "Regenerated by `dpcopula_report`; do not edit by hand. Inputs: run "
         "reports from `--trace-json`.\n\n";
  out += "## Instrumented runs\n\n";
  for (const std::string& path : report_paths) {
    dpcopula::obs::JsonValue report;
    if (!dpcopula::LoadJsonFile(path, &report)) return 1;
    if (!dpcopula::AppendRunReportSection(path, report, &out)) return 1;
  }

  std::ofstream f(out_path);
  if (!f) {
    std::fprintf(stderr, "dpcopula_report: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  f << out;
  f.close();
  if (!f) {
    std::fprintf(stderr, "dpcopula_report: write failed for %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "dpcopula_report: wrote %s\n", out_path.c_str());
  return 0;
}
