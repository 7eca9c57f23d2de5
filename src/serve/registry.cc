#include "serve/registry.h"

#include <sys/stat.h>

#include <utility>

#include "common/failpoint.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace dpcopula::serve {

namespace {

struct FileIdentity {
  std::int64_t mtime_ns = 0;
  std::int64_t size = 0;
  std::uint64_t inode = 0;
};

Status StatFile(const std::string& path, FileIdentity* out) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("cannot stat model file: " + path);
  }
  out->mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                  st.st_mtim.tv_nsec;
  out->size = static_cast<std::int64_t>(st.st_size);
  out->inode = static_cast<std::uint64_t>(st.st_ino);
  return Status::OK();
}

bool SameIdentity(const ServedModel& model, const FileIdentity& id) {
  return model.mtime_ns == id.mtime_ns && model.size == id.size &&
         model.inode == id.inode;
}

}  // namespace

Result<std::shared_ptr<const ServedModel>> ModelRegistry::LoadFromFile(
    const std::string& path) {
  if (DPC_FAILPOINT("serve.model_reload")) {
    return failpoint::InjectedFault("serve.model_reload");
  }
  // Stat before and after the load: if the identity changed underneath the
  // read (a concurrent atomic-rename publish), the bytes we parsed may be
  // the old version — record the pre-read identity so the next Get()
  // notices and reloads again.
  FileIdentity before;
  DPC_RETURN_NOT_OK(StatFile(path, &before));
  DPC_ASSIGN_OR_RETURN(core::DpCopulaModel model, core::LoadModel(path));
  DPC_ASSIGN_OR_RETURN(copula::SamplingPlan plan,
                       core::BuildSamplingPlan(model));
  DPC_ASSIGN_OR_RETURN(std::vector<stats::EmpiricalCdf> cdfs,
                       core::ModelMarginalCdfs(model));
  return std::make_shared<const ServedModel>(
      ServedModel{std::move(model), std::move(cdfs), std::move(plan),
                  before.mtime_ns, before.size, before.inode});
}

Status ModelRegistry::Add(const std::string& name, const std::string& path) {
  DPC_ASSIGN_OR_RETURN(std::shared_ptr<const ServedModel> loaded,
                       LoadFromFile(path));
  std::lock_guard<std::mutex> lock(mu_);
  if (slots_.count(name) != 0) {
    return Status::AlreadyExists("model '" + name + "' already registered");
  }
  auto slot = std::make_unique<Slot>();
  slot->path = path;
  slot->current = std::move(loaded);
  slots_.emplace(name, std::move(slot));
  return Status::OK();
}

Result<bool> ModelRegistry::ReloadIfChanged(Slot* slot, bool force_error) {
  static obs::Counter* const reloads =
      obs::MetricsRegistry::Global().GetCounter("serve.model_reloads");
  static obs::Counter* const failures =
      obs::MetricsRegistry::Global().GetCounter(
          "serve.model_reload_failures");
  // One reloader at a time per model; late arrivals re-check the identity
  // under the lock and find the fresh version already published.
  std::lock_guard<std::mutex> reload_lock(slot->reload_mu);
  std::shared_ptr<const ServedModel> current;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current = slot->current;
  }
  FileIdentity id;
  Status statted = StatFile(slot->path, &id);
  if (!statted.ok()) {
    // The file vanished mid-swap (rename in flight) or is unreadable: keep
    // serving the version we have.
    failures->Increment();
    if (force_error) return statted;
    return false;
  }
  if (SameIdentity(*current, id)) return false;
  Result<std::shared_ptr<const ServedModel>> loaded = LoadFromFile(slot->path);
  if (!loaded.ok()) {
    failures->Increment();
    obs::Log(obs::LogLevel::kError, "serve.model_reload_failed")
        .Field("path", slot->path);
    if (force_error) return loaded.status();
    return false;  // Keep the old version serving.
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot->current = loaded.MoveValueUnsafe();
  }
  reloads->Increment();
  return true;
}

Result<std::shared_ptr<const ServedModel>> ModelRegistry::Get(
    const std::string& name) {
  Slot* slot = nullptr;
  std::shared_ptr<const ServedModel> current;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(name);
    if (it == slots_.end()) {
      return Status::NotFound("unknown model '" + name + "'");
    }
    slot = it->second.get();
    current = slot->current;
  }
  FileIdentity id;
  if (StatFile(slot->path, &id).ok() && !SameIdentity(*current, id)) {
    // Best-effort freshness: a failed reload falls back to `current`.
    (void)ReloadIfChanged(slot, /*force_error=*/false);
    std::lock_guard<std::mutex> lock(mu_);
    current = slot->current;
  }
  return current;
}

Result<bool> ModelRegistry::CheckReload(const std::string& name) {
  Slot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(name);
    if (it == slots_.end()) {
      return Status::NotFound("unknown model '" + name + "'");
    }
    slot = it->second.get();
  }
  return ReloadIfChanged(slot, /*force_error=*/true);
}

std::vector<std::string> ModelRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) names.push_back(name);
  return names;
}

}  // namespace dpcopula::serve
