// Overhead of the fault-injection layer on the end-to-end pipeline.
//
// The hot path runs DPC_FAILPOINT_AT once per sampled row (plus coarser
// sites per shard / partition), so this bench answers: what does a
// dormant fail-point layer cost? Three runtime modes over
// identical Synthesize runs (same data, same seed, so the work is
// byte-identical by the determinism guarantee):
//
//   disarmed        no site armed — the production state. Each site is one
//                   relaxed atomic load of the process-wide AnyArmed gate
//                   and a predicted-not-taken branch.
//   unrelated-armed an unrelated site armed. The AnyArmed gate passes, so
//                   every site also resolves its cached FailPoint pointer
//                   and loads its (off) mode — the worst dormant case.
//   armed-miss      "sampler.row" armed with a trigger that never fires
//                   (after<2^63>): full trigger evaluation on every row.
//
// Reports median seconds per run and the overhead relative to `disarmed`.
// Run with DPCOPULA_BENCH_FULL=1 for a paper-scale table.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/failpoint.h"
#include "core/dpcopula.h"

using namespace dpcopula;  // NOLINT(build/namespaces) — bench binary.

namespace {

double MedianRunSeconds(const data::Table& table,
                        const core::DpCopulaOptions& options,
                        std::size_t repeats) {
  std::vector<double> seconds;
  seconds.reserve(repeats);
  for (std::size_t r = 0; r < repeats; ++r) {
    Rng rng(1234);  // Same seed every repeat: identical work.
    bench::Timer timer;
    auto result = core::Synthesize(table, options, &rng);
    seconds.push_back(timer.Seconds());
    if (!result.ok()) {
      std::fprintf(stderr, "synthesize failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

}  // namespace

int main() {
  query::ExperimentConfig cfg = query::ExperimentConfig::FromEnvironment();
  const std::size_t rows =
      static_cast<std::size_t>(std::min<std::int64_t>(cfg.num_tuples, 200000));
  constexpr std::size_t kColumns = 6;
  constexpr std::size_t kRepeats = 5;

  Rng data_rng(cfg.seed);
  data::Table table = bench::MakeGaussianTable(rows, kColumns, 64, &data_rng);

  core::DpCopulaOptions options;
  options.epsilon = 1.0;
  options.num_threads = 0;  // All hardware threads — max evaluations/sec.

  std::printf(
      "=== fail-point overhead (n=%zu, m=%zu, %zu repeats) ===\n", rows,
      kColumns, kRepeats);

  struct Mode {
    const char* name;
    const char* arm_site;  // nullptr = nothing armed.
    const char* arm_spec;
  };
  const std::vector<Mode> modes = {
      {"disarmed", nullptr, nullptr},
      {"unrelated-armed", "bench.unrelated", "always"},
      // kAfterN with a param no row index reaches: evaluates the full
      // trigger on every DPC_FAILPOINT_AT("sampler.row", r) but never
      // fires, so the run completes.
      {"armed-miss", "sampler.row", "after9223372036854775807"},
  };

  double baseline = 0.0;
  bench::PrintSeriesHeader("mode", {"median_s", "overhead_%"});
  for (const Mode& mode : modes) {
    failpoint::Registry::Global().DisarmAll();
    if (mode.arm_site != nullptr) {
      Status st =
          failpoint::Registry::Global().Arm(mode.arm_site, mode.arm_spec);
      if (!st.ok()) {
        std::fprintf(stderr, "arm failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    // One warm-up run outside the timer (pool spin-up, site registration).
    MedianRunSeconds(table, options, 1);
    const double median = MedianRunSeconds(table, options, kRepeats);
    if (baseline == 0.0) baseline = median;
    bench::PrintSeriesRowLabel(
        mode.name, {median, 100.0 * (median - baseline) / baseline});
  }
  failpoint::Registry::Global().DisarmAll();
  return 0;
}
