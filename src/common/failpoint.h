#ifndef DPCOPULA_COMMON_FAILPOINT_H_
#define DPCOPULA_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dpcopula::failpoint {

/// How an armed fail point decides whether a given evaluation fires. All
/// triggers are deterministic — no randomness — so a fault schedule is
/// exactly reproducible run to run and thread count to thread count.
enum class Mode : int {
  kOff = 0,
  kAlways,  // Every evaluation fires.
  kOnce,    // Evaluation index 0 fires (see "index" below).
  kOneIn,   // Indices 0, k, 2k, ... fire.
  kAfterN,  // Indices >= n fire.
};

/// An armed trigger: the mode plus its k (kOneIn) or n (kAfterN).
struct Spec {
  Mode mode = Mode::kOff;
  std::uint64_t param = 0;
};

/// Parses "off", "always", "once", "1in<k>" (k >= 1) or "after<n>".
/// Returns false on anything else and leaves *out untouched.
bool ParseSpec(const std::string& text, Spec* out);

/// One named fail-point site. Stable address for the lifetime of the
/// process (sites are created once and never destroyed), so call sites
/// cache the pointer in a function-local static.
///
/// The evaluation *index* that the deterministic triggers test against is,
/// in priority order:
///   1. the explicit index passed by the call site (DPC_FAILPOINT_AT) —
///      used in parallel loops where the loop variable, not arrival order,
///      must decide the fault pattern;
///   2. the innermost ScopedContext index on this thread — used to
///      propagate a partition index into generic sites nested below it;
///   3. a per-site atomic hit counter — fine for sequential code.
/// Sources 1 and 2 are scheduling-independent, which is what makes a fault
/// schedule produce bit-identical output at every thread count.
class FailPoint {
 public:
  explicit FailPoint(std::string name) : name_(std::move(name)) {}
  FailPoint(const FailPoint&) = delete;
  FailPoint& operator=(const FailPoint&) = delete;

  const std::string& name() const { return name_; }

  /// Evaluates with the implicit index (context or hit counter).
  bool Evaluate() { return EvaluateAt(NextImplicitIndex()); }

  /// Evaluates with an explicit, scheduling-independent index.
  bool EvaluateAt(std::uint64_t index) {
    const Mode mode =
        static_cast<Mode>(mode_.load(std::memory_order_acquire));
    if (mode == Mode::kOff) return false;
    const std::uint64_t param = param_.load(std::memory_order_relaxed);
    bool fire = false;
    switch (mode) {
      case Mode::kOff:
        break;
      case Mode::kAlways:
        fire = true;
        break;
      case Mode::kOnce:
        fire = (index == 0);
        break;
      case Mode::kOneIn:
        fire = (param > 0) && (index % param == 0);
        break;
      case Mode::kAfterN:
        fire = (index >= param);
        break;
    }
    if (fire) fired_.fetch_add(1, std::memory_order_relaxed);
    return fire;
  }

  bool armed() const {
    return static_cast<Mode>(mode_.load(std::memory_order_acquire)) !=
           Mode::kOff;
  }

  std::uint64_t fired_count() const {
    return fired_.load(std::memory_order_relaxed);
  }
  std::uint64_t hit_count() const {
    return hits_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    hits_.store(0, std::memory_order_relaxed);
    fired_.store(0, std::memory_order_relaxed);
  }

 private:
  friend class Registry;

  /// Arm/disarm maintain the process-wide AnyArmed gate, so they are only
  /// reachable through the Registry.
  void Arm(Spec spec) {
    param_.store(spec.param, std::memory_order_relaxed);
    mode_.store(static_cast<int>(spec.mode), std::memory_order_release);
  }
  void Disarm() { Arm(Spec{}); }

  std::uint64_t NextImplicitIndex();

  const std::string name_;
  std::atomic<int> mode_{static_cast<int>(Mode::kOff)};
  std::atomic<std::uint64_t> param_{0};
  std::atomic<std::uint64_t> hits_{0};   // Implicit-index evaluations.
  std::atomic<std::uint64_t> fired_{0};  // Evaluations that fired.
};

/// Process-wide site registry. Arms/disarms are rare (tests, process
/// start-up from the environment); evaluation of a disarmed site is one
/// relaxed atomic load behind the process-wide `AnyArmed` gate.
class Registry {
 public:
  static Registry& Global();

  /// Site for `name`, created (disarmed) on first use. Never null; the
  /// pointer is stable for the process lifetime.
  FailPoint* GetSite(const std::string& name);

  /// Arms `name` with a parsed spec string; InvalidArgument on bad specs.
  Status Arm(const std::string& name, const std::string& spec);
  void Arm(const std::string& name, Spec spec);
  void Disarm(const std::string& name);

  /// Disarms every site and zeroes all hit/fired counters.
  void DisarmAll();

  std::uint64_t FiredCount(const std::string& name);
  std::vector<std::string> ArmedSites() const;

  /// Parses DPCOPULA_FAILPOINTS ("site=spec[,site=spec...]", ';' also
  /// accepted) and arms each entry. Called once on first Global() access;
  /// exposed for tests. Unparseable entries are reported on stderr and
  /// skipped — a typo must not silently disable the intended fault.
  Status ArmFromEnv(const char* env_value);

 private:
  Registry();

  struct Impl;
  Impl* impl_;
};

/// Declares that code on this thread is currently processing the work item
/// with the given deterministic index (e.g. hybrid partition p). Generic
/// fail points evaluated below pick it up as their evaluation index, so a
/// fault schedule hits the same work items at any thread count. Nests;
/// innermost wins.
class ScopedContext {
 public:
  explicit ScopedContext(std::uint64_t index);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;
};

/// All fail-point site names compiled into the library, in one place so the
/// fault-injection suite can sweep them and fail when a new site lacks
/// coverage.
std::vector<std::string> KnownSites();

/// The Status every injected fault surfaces as when the site fails closed.
/// Deliberately contains the site name and nothing else — never data.
Status InjectedFault(const char* site);

namespace internal {
extern std::atomic<int> g_armed_sites;
/// Fast-path gate: true when at least one site is armed anywhere in the
/// process. One relaxed load; false for every production run.
inline bool AnyArmed() {
  return g_armed_sites.load(std::memory_order_relaxed) != 0;
}
}  // namespace internal

}  // namespace dpcopula::failpoint

/// `if (DPC_FAILPOINT("site.name")) { <inject failure>; }`
///
/// Cost when no site is armed (the production state): one relaxed atomic
/// load and a predictable branch.
#define DPC_FAILPOINT(site)                                          \
  (::dpcopula::failpoint::internal::AnyArmed() &&                    \
   []() -> ::dpcopula::failpoint::FailPoint* {                       \
     static ::dpcopula::failpoint::FailPoint* const _dpc_fp =        \
         ::dpcopula::failpoint::Registry::Global().GetSite(site);    \
     return _dpc_fp;                                                 \
   }()->Evaluate())

/// Indexed variant for parallel loops: the caller supplies the
/// deterministic work-item index the trigger tests against.
#define DPC_FAILPOINT_AT(site, index)                                \
  (::dpcopula::failpoint::internal::AnyArmed() &&                    \
   []() -> ::dpcopula::failpoint::FailPoint* {                       \
     static ::dpcopula::failpoint::FailPoint* const _dpc_fp =        \
         ::dpcopula::failpoint::Registry::Global().GetSite(site);    \
     return _dpc_fp;                                                 \
   }()->EvaluateAt(static_cast<std::uint64_t>(index)))

#endif  // DPCOPULA_COMMON_FAILPOINT_H_
