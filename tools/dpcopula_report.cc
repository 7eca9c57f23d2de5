// dpcopula_report — merges observability artifacts into one markdown
// performance report.
//
//   dpcopula_report --bench BENCH_sampler.json --bench BENCH_kendall.json
//                   --run-report report.json --out docs/PERF_REPORT.md
//   (one command line; wrapped here for width)
//
// Inputs:
//   --bench PATH       a bench_to_json ledger ({"runs":[{label, benchmarks:
//                      [{name, rows_per_sec, real_time_ms}]}]}); repeatable.
//                      The first run is the committed baseline, the last is
//                      "current"; regressions beyond 20% are flagged.
//   --run-report PATH  a dpcopula, dpcopula_eval or dpcopula_serve
//                      --trace-json run report (version >= 2); repeatable.
//                      Contributes per-stage percentile tables, profile
//                      gauges (peak RSS, hardware counters), counters, and
//                      the budget audit.
//   --out PATH         output markdown (default docs/PERF_REPORT.md).
//
// Exits non-zero on unreadable or malformed input: a report silently built
// from half the artifacts is worse than no report.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// --- Minimal JSON value + recursive-descent parser -----------------------
//
// The tool consumes only documents this repo itself writes, so the parser
// favors smallness over completeness: no \uXXXX decoding beyond pass-through
// and no streaming. Objects keep insertion order via a vector of pairs so
// tables render in the order the producer emitted them.

struct JsonValue;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::shared_ptr<JsonArray> array;
  std::shared_ptr<JsonObject> object;

  const JsonValue* Find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : *object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double NumberOr(double fallback) const {
    return type == Type::kNumber ? number : fallback;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool ParseValue(JsonValue* out) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }
  bool ParseString(std::string* out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'r':
            c = '\r';
            break;
          case 'b':
            c = '\b';
            break;
          case 'f':
            c = '\f';
            break;
          case 'u':
            // Pass the escape through untouched; report content is ASCII.
            if (pos_ + 4 > s_.size()) return false;
            out->append("\\u").append(s_, pos_, 4);
            pos_ += 4;
            continue;
          default:
            c = esc;  // ", \, /
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // Closing quote.
    return true;
  }
  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    try {
      out->number = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      return false;
    }
    out->type = JsonValue::Type::kNumber;
    return true;
  }
  bool ParseArray(JsonValue* out) {
    ++pos_;  // '['
    out->type = JsonValue::Type::kArray;
    out->array = std::make_shared<JsonArray>();
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      SkipWs();
      if (!ParseValue(&v)) return false;
      out->array->push_back(std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    out->type = JsonValue::Type::kObject;
    out->object = std::make_shared<JsonObject>();
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= s_.size() || !ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      SkipWs();
      JsonValue v;
      if (!ParseValue(&v)) return false;
      out->object->emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool LoadJsonFile(const std::string& path, JsonValue* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dpcopula_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  if (!JsonParser(text).Parse(out)) {
    std::fprintf(stderr, "dpcopula_report: malformed JSON in %s\n",
                 path.c_str());
    return false;
  }
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

// --- Bench ledgers -------------------------------------------------------

constexpr double kRegressionThreshold = 0.20;

/// Renders one ledger's baseline-vs-current table. Returns false on a
/// structurally invalid ledger.
bool AppendBenchSection(const std::string& path, const JsonValue& ledger,
                        std::string* out, int* regressions) {
  const JsonValue* runs = ledger.Find("runs");
  if (runs == nullptr || runs->type != JsonValue::Type::kArray ||
      runs->array->empty()) {
    std::fprintf(stderr, "dpcopula_report: %s has no runs\n", path.c_str());
    return false;
  }
  const JsonValue& baseline = runs->array->front();
  const JsonValue& current = runs->array->back();
  const bool has_delta = runs->array->size() > 1;

  auto label_of = [](const JsonValue& run) {
    const JsonValue* l = run.Find("label");
    return (l != nullptr && l->type == JsonValue::Type::kString) ? l->string
                                                                 : "?";
  };
  std::map<std::string, double> baseline_rate;
  if (const JsonValue* b = baseline.Find("benchmarks");
      b != nullptr && b->type == JsonValue::Type::kArray) {
    for (const JsonValue& bench : *b->array) {
      const JsonValue* name = bench.Find("name");
      const JsonValue* rate = bench.Find("rows_per_sec");
      if (name == nullptr || rate == nullptr) continue;
      baseline_rate[name->string] = rate->NumberOr(0.0);
    }
  }

  *out += "### `" + path + "`\n\n";
  *out += "Baseline `" + label_of(baseline) + "` vs current `" +
          label_of(current) + "` (" + std::to_string(runs->array->size()) +
          " runs recorded).\n\n";
  *out +=
      "| benchmark | baseline rows/s | current rows/s | delta | time (ms) "
      "|\n|---|---:|---:|---:|---:|\n";

  const JsonValue* benches = current.Find("benchmarks");
  if (benches == nullptr || benches->type != JsonValue::Type::kArray) {
    std::fprintf(stderr, "dpcopula_report: %s run has no benchmarks\n",
                 path.c_str());
    return false;
  }
  for (const JsonValue& bench : *benches->array) {
    const JsonValue* name = bench.Find("name");
    const JsonValue* rate = bench.Find("rows_per_sec");
    const JsonValue* ms = bench.Find("real_time_ms");
    if (name == nullptr || rate == nullptr) continue;
    const double cur = rate->NumberOr(0.0);
    const auto base_it = baseline_rate.find(name->string);
    std::string delta = "n/a";
    if (has_delta && base_it != baseline_rate.end() &&
        base_it->second > 0.0) {
      const double rel = cur / base_it->second - 1.0;
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%+.1f%%", 100.0 * rel);
      delta = buf;
      if (rel < -kRegressionThreshold) {
        delta += " **REGRESSION**";
        ++*regressions;
      }
    }
    *out += "| `" + name->string + "` | " +
            (base_it != baseline_rate.end() ? FormatCount(base_it->second)
                                            : std::string("n/a")) +
            " | " + FormatCount(cur) + " | " + delta + " | " +
            (ms != nullptr ? FormatCount(ms->NumberOr(0.0)) : "n/a") + " |\n";
  }
  *out += "\n";
  return true;
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

int main(int argc, char** argv) {
  std::vector<std::string> bench_paths;
  std::vector<std::string> report_paths;
  std::string out_path = "docs/PERF_REPORT.md";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--bench") {
      const char* v = next();
      if (!v) {
        std::fprintf(stderr, "--bench needs a path\n");
        return 2;
      }
      bench_paths.push_back(v);
    } else if (flag == "--run-report") {
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
                   "usage: %s [--bench LEDGER.json]... "
                   "[--run-report REPORT.json]... [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (bench_paths.empty() && report_paths.empty()) {
    std::fprintf(stderr,
                 "dpcopula_report: nothing to report (pass --bench and/or "
                 "--run-report)\n");
    return 2;
  }

  std::string out;
  out += "# Performance report\n\n";
  out += "Regenerated by `dpcopula_report`; do not edit by hand. Inputs: "
         "bench ledgers from `bench_to_json`, run reports from "
         "`dpcopula --trace-json`.\n\n";

  int regressions = 0;
  if (!bench_paths.empty()) {
    out += "## Benchmarks\n\n";
    out += "First recorded run is the committed baseline; regressions "
           "beyond " +
           std::to_string(static_cast<int>(100 * kRegressionThreshold)) +
           "% are flagged.\n\n";
    for (const std::string& path : bench_paths) {
      JsonValue ledger;
      if (!LoadJsonFile(path, &ledger)) return 1;
      if (!AppendBenchSection(path, ledger, &out, &regressions)) return 1;
    }
  }
  if (!report_paths.empty()) {
    out += "## Instrumented runs\n\n";
    for (const std::string& path : report_paths) {
      JsonValue report;
      if (!LoadJsonFile(path, &report)) return 1;
      if (!AppendRunReportSection(path, report, &out)) return 1;
    }
  }
  if (regressions > 0) {
    out += "---\n\n**" + std::to_string(regressions) +
           " benchmark(s) regressed beyond the threshold.**\n";
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
  std::fprintf(stderr, "dpcopula_report: wrote %s (%d regression(s))\n",
               out_path.c_str(), regressions);
  return regressions > 0 ? 3 : 0;
}
