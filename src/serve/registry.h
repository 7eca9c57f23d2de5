#ifndef DPCOPULA_SERVE_REGISTRY_H_
#define DPCOPULA_SERVE_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "copula/sampler.h"
#include "core/model_io.h"
#include "stats/empirical_cdf.h"

namespace dpcopula::serve {

/// One loaded, sampling-ready model version. Immutable after publication:
/// request threads hold a shared_ptr while sampling, so a hot reload can
/// swap in a new version without ever invalidating an in-flight request.
/// The sampling plan (Cholesky factor, one inverse-CDF table per column and
/// the family) is built once per load or reload, never per request.
struct ServedModel {
  core::DpCopulaModel model;
  // One CDF per margin, for samplers outside the plan (perfbench's replay).
  std::vector<stats::EmpiricalCdf> cdfs;
  copula::SamplingPlan plan;
  // File identity at load time, used to detect on-disk changes.
  std::int64_t mtime_ns = 0;
  std::int64_t size = 0;
  std::uint64_t inode = 0;
};

/// Name-keyed registry of served models with mtime-based hot reload.
/// Get() stats the backing file and, when it changed, reloads and
/// atomically publishes the new version (shared_ptr swap under the
/// registry mutex; one reloader at a time per model). A failed reload —
/// corrupt new file, injected serve.model_reload fault — keeps the
/// previous version serving and counts serve.model_reload_failures:
/// a bad push degrades freshness, never availability.
class ModelRegistry {
 public:
  /// Loads `path` now and registers it under `name`. AlreadyExists if the
  /// name is taken; the load's IOError propagates on corrupt files.
  Status Add(const std::string& name, const std::string& path);

  /// The current version for `name` (NotFound for unregistered names),
  /// hot-reloading first when the backing file changed.
  Result<std::shared_ptr<const ServedModel>> Get(const std::string& name);

  /// Explicit reload check (the protocol's RELOAD verb). Returns true when
  /// a new version was published, false when the file is unchanged; a
  /// failed load keeps the old version and returns the load error.
  Result<bool> CheckReload(const std::string& name);

  std::vector<std::string> Names() const;

 private:
  struct Slot {
    std::string path;
    std::mutex reload_mu;  // Serializes reload attempts per model.
    std::shared_ptr<const ServedModel> current;  // Guarded by owner mu_.
  };

  static Result<std::shared_ptr<const ServedModel>> LoadFromFile(
      const std::string& path);
  Result<bool> ReloadIfChanged(Slot* slot, bool force_error);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Slot>> slots_;
};

}  // namespace dpcopula::serve

#endif  // DPCOPULA_SERVE_REGISTRY_H_
