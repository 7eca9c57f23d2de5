#include "obs/profile.h"

#include <cstring>

#include "obs/metrics.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace dpcopula::obs {

std::int64_t PeakRssBytes() {
#if defined(__linux__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
#else
  return 0;
#endif
}

#if defined(__linux__)

namespace {

int OpenHwCounter(std::uint64_t hw_config, int group_fd) {
  struct perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = hw_config;
  attr.disabled = group_fd < 0 ? 1 : 0;  // Group leader starts disabled.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = 1;  // Include ParallelFor workers spawned later.
  const long fd = syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
                          group_fd, /*flags=*/0UL);
  return static_cast<int>(fd);
}

std::int64_t ReadCounter(int fd) {
  if (fd < 0) return 0;
  long long value = 0;
  if (read(fd, &value, sizeof(value)) != sizeof(value)) return 0;
  return static_cast<std::int64_t>(value);
}

}  // namespace

bool HwCounterGroup::Probe() {
  static const bool available = [] {
    const int fd = OpenHwCounter(PERF_COUNT_HW_CPU_CYCLES, -1);
    if (fd < 0) return false;
    close(fd);
    return true;
  }();
  return available;
}

HwCounterGroup::HwCounterGroup() {
  if (!Probe()) return;
  fd_cycles_ = OpenHwCounter(PERF_COUNT_HW_CPU_CYCLES, -1);
  if (fd_cycles_ < 0) return;
  // Secondary counters are best-effort: some PMUs expose cycles but run
  // out of slots (or lack cache-miss events); a failed sibling stays -1
  // and reads as 0 rather than failing the group.
  fd_instructions_ = OpenHwCounter(PERF_COUNT_HW_INSTRUCTIONS, fd_cycles_);
  fd_cache_misses_ = OpenHwCounter(PERF_COUNT_HW_CACHE_MISSES, fd_cycles_);
}

HwCounterGroup::~HwCounterGroup() {
  if (fd_cache_misses_ >= 0) close(fd_cache_misses_);
  if (fd_instructions_ >= 0) close(fd_instructions_);
  if (fd_cycles_ >= 0) close(fd_cycles_);
}

void HwCounterGroup::Start() {
  if (fd_cycles_ < 0) return;
  ioctl(fd_cycles_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(fd_cycles_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
}

HwCounterSample HwCounterGroup::Stop() {
  HwCounterSample sample;
  if (fd_cycles_ < 0) return sample;
  ioctl(fd_cycles_, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
  sample.available = true;
  sample.cycles = ReadCounter(fd_cycles_);
  sample.instructions = ReadCounter(fd_instructions_);
  sample.cache_misses = ReadCounter(fd_cache_misses_);
  return sample;
}

#else  // !__linux__

bool HwCounterGroup::Probe() { return false; }
HwCounterGroup::HwCounterGroup() = default;
HwCounterGroup::~HwCounterGroup() = default;
void HwCounterGroup::Start() {}
HwCounterSample HwCounterGroup::Stop() { return HwCounterSample{}; }

#endif  // __linux__

ProfileSession::ProfileSession() { counters_.Start(); }

ProfileSession::~ProfileSession() {
  const HwCounterSample sample = counters_.Stop();
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("profile.peak_rss_bytes")
      ->Set(static_cast<double>(PeakRssBytes()));
  registry.GetGauge("profile.hw_available")
      ->Set(sample.available ? 1.0 : 0.0);
  registry.GetGauge("profile.hw_cycles")
      ->Set(static_cast<double>(sample.cycles));
  registry.GetGauge("profile.hw_instructions")
      ->Set(static_cast<double>(sample.instructions));
  registry.GetGauge("profile.hw_cache_misses")
      ->Set(static_cast<double>(sample.cache_misses));
}

}  // namespace dpcopula::obs
