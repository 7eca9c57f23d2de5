#include "common/failpoint.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

namespace dpcopula::failpoint {

namespace internal {
std::atomic<int> g_armed_sites{0};
}  // namespace internal

namespace {

/// Innermost-wins stack of deterministic work-item indices for this thread
/// (see ScopedContext). A plain vector: pushes/pops happen once per work
/// item, never per fail-point evaluation.
thread_local std::vector<std::uint64_t> t_context_stack;

}  // namespace

bool ParseSpec(const std::string& text, Spec* out) {
  Spec spec;
  if (text == "off") {
    spec.mode = Mode::kOff;
  } else if (text == "always") {
    spec.mode = Mode::kAlways;
  } else if (text == "once") {
    spec.mode = Mode::kOnce;
  } else if (text.rfind("1in", 0) == 0) {
    char* end = nullptr;
    const unsigned long long k = std::strtoull(text.c_str() + 3, &end, 10);
    if (end == text.c_str() + 3 || *end != '\0' || k == 0) return false;
    spec.mode = Mode::kOneIn;
    spec.param = k;
  } else if (text.rfind("after", 0) == 0) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(text.c_str() + 5, &end, 10);
    if (end == text.c_str() + 5 || *end != '\0') return false;
    spec.mode = Mode::kAfterN;
    spec.param = n;
  } else {
    return false;
  }
  *out = spec;
  return true;
}

std::uint64_t FailPoint::NextImplicitIndex() {
  if (!t_context_stack.empty()) return t_context_stack.back();
  return hits_.fetch_add(1, std::memory_order_relaxed);
}

ScopedContext::ScopedContext(std::uint64_t index) {
  t_context_stack.push_back(index);
}

ScopedContext::~ScopedContext() { t_context_stack.pop_back(); }

struct Registry::Impl {
  mutable std::mutex mu;
  // Sites are never erased, so FailPoint addresses handed out by GetSite
  // stay valid for the process lifetime (call sites cache them).
  std::map<std::string, std::unique_ptr<FailPoint>> sites;

  FailPoint* GetLocked(const std::string& name) {
    auto it = sites.find(name);
    if (it == sites.end()) {
      it = sites.emplace(name, std::make_unique<FailPoint>(name)).first;
    }
    return it->second.get();
  }
};

Registry::Registry() : impl_(new Impl) {
  // Environment arming happens exactly once, on first Global() access —
  // before any site can have been evaluated, since every evaluation goes
  // through Global() itself.
  const char* env = std::getenv("DPCOPULA_FAILPOINTS");
  if (env != nullptr && *env != '\0') {
    (void)ArmFromEnv(env);
  }
}

Registry& Registry::Global() {
  static Registry* registry = new Registry;  // Leaked: sites must outlive
                                             // static destructors.
  return *registry;
}

namespace {
// Force registry construction (which parses DPCOPULA_FAILPOINTS) at
// process start-up. The DPC_FAILPOINT macros consult the AnyArmed gate
// *before* touching the registry, so without this eager touch a site armed
// only through the environment would never fire.
[[maybe_unused]] const bool g_env_arm_at_startup = (Registry::Global(), true);
}  // namespace

FailPoint* Registry::GetSite(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->GetLocked(name);
}

void Registry::Arm(const std::string& name, Spec spec) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  FailPoint* site = impl_->GetLocked(name);
  const bool was_armed = site->armed();
  site->Arm(spec);
  const bool now_armed = site->armed();
  if (!was_armed && now_armed) {
    internal::g_armed_sites.fetch_add(1, std::memory_order_relaxed);
  } else if (was_armed && !now_armed) {
    internal::g_armed_sites.fetch_sub(1, std::memory_order_relaxed);
  }
}

Status Registry::Arm(const std::string& name, const std::string& spec_text) {
  Spec spec;
  if (!ParseSpec(spec_text, &spec)) {
    return Status::InvalidArgument("bad fail-point spec '" + spec_text +
                                   "' for site '" + name +
                                   "' (want off|always|once|1in<k>|after<n>)");
  }
  Arm(name, spec);
  return Status::OK();
}

void Registry::Disarm(const std::string& name) { Arm(name, Spec{}); }

void Registry::DisarmAll() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, site] : impl_->sites) {
    if (site->armed()) {
      internal::g_armed_sites.fetch_sub(1, std::memory_order_relaxed);
    }
    site->Disarm();
    site->ResetCounters();
  }
}

std::vector<std::string> Registry::ArmedSites() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> armed;
  for (const auto& [name, site] : impl_->sites) {
    if (site->armed()) armed.push_back(name);
  }
  return armed;
}

Status Registry::ArmFromEnv(const char* env_value) {
  Status first_error = Status::OK();
  std::string entry;
  const std::string value(env_value == nullptr ? "" : env_value);
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t sep = value.find_first_of(",;", start);
    entry = value.substr(
        start, sep == std::string::npos ? std::string::npos : sep - start);
    start = sep == std::string::npos ? value.size() + 1 : sep + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    Status st = (eq == std::string::npos)
                    ? Status::InvalidArgument("bad fail-point entry '" +
                                              entry + "' (want site=spec)")
                    : Arm(entry.substr(0, eq), entry.substr(eq + 1));
    if (!st.ok()) {
      std::fprintf(stderr, "[dpcopula] DPCOPULA_FAILPOINTS: %s\n",
                   st.ToString().c_str());
      if (first_error.ok()) first_error = st;
    }
  }
  return first_error;
}

std::vector<std::string> KnownSites() {
  // Every DPC_FAILPOINT / DPC_FAILPOINT_AT site in the library, one line
  // per site. tests/fault_injection_test.cc sweeps this list and fails if
  // a site is added here without a scenario (or vice versa), so keep the
  // two in sync.
  return {
      "atomicio.rename",             // common/atomic_file.cc
      "atomicio.write",              // common/atomic_file.cc
      "core.correlation_estimate",   // core/dpcopula.cc
      "csv.read.open",               // data/csv.cc
      "csv.read.row",                // data/csv.cc
      "hybrid.partition.synthesize", // core/hybrid.cc
      "kendall.pair_tau",            // copula/kendall_estimator.cc
      "linalg.cholesky",             // linalg/cholesky.cc
      "linalg.eigen.converge",       // linalg/eigen_sym.cc
      "linalg.psd_repair",           // linalg/psd_repair.cc
      "mle.partition_fit",           // copula/mle_estimator.cc
      "model.load.open",             // core/model_io.cc
      "parallel.dispatch",           // common/parallel.cc
      "sampler.row",                 // copula/sampler.cc
      "serve.accept",                // serve/server.cc
      "serve.model_reload",          // serve/registry.cc
      "serve.sample",                // serve/server.cc
      "streaming.ingest.merge",      // core/streaming.cc
  };
}

Status InjectedFault(const char* site) {
  return Status::Internal("injected fault at fail point '" +
                          std::string(site) + "'");
}

}  // namespace dpcopula::failpoint
