#ifndef DPCOPULA_OBS_PROFILE_H_
#define DPCOPULA_OBS_PROFILE_H_

#include <cstdint>

namespace dpcopula::obs {

/// Peak resident set size of this process in bytes (getrusage ru_maxrss),
/// 0 when the platform cannot report it. Monotone over the process life —
/// sample it at report time, not per stage.
std::int64_t PeakRssBytes();

/// One reading of the hardware counter group.
struct HwCounterSample {
  bool available = false;  // False: every field below is 0 and meaningless.
  std::int64_t cycles = 0;
  std::int64_t instructions = 0;
  std::int64_t cache_misses = 0;
};

/// perf_event_open cycles/instructions/cache-misses for this process (all
/// threads). The syscall is probed at first use: in containers and on
/// locked-down kernels (perf_event_paranoid, seccomp) it fails with
/// EPERM/EACCES/ENOSYS, and every HwCounterGroup then reports
/// available() == false while Start()/Stop() stay harmless no-ops — the
/// profiler degrades to wall-clock-only instead of erroring.
class HwCounterGroup {
 public:
  HwCounterGroup();
  ~HwCounterGroup();
  HwCounterGroup(const HwCounterGroup&) = delete;
  HwCounterGroup& operator=(const HwCounterGroup&) = delete;

  bool available() const { return fd_cycles_ >= 0; }

  /// Zeroes and enables the counters. No-op when unavailable.
  void Start();
  /// Disables and reads the counters. available=false when unavailable.
  HwCounterSample Stop();

  /// Cached one-time probe: can this process open a hardware counter?
  static bool Probe();

 private:
  int fd_cycles_ = -1;
  int fd_instructions_ = -1;
  int fd_cache_misses_ = -1;
};

/// Process-level samples for a run report: starts the hardware counters on
/// construction and on destruction publishes (while metrics are on)
///
///   profile.peak_rss_bytes    gauge, getrusage high-water mark
///   profile.hw_available      gauge, 1 when counters were live
///   profile.hw_cycles         gauge, 0 when unavailable
///   profile.hw_instructions   gauge, 0 when unavailable
///   profile.hw_cache_misses   gauge, 0 when unavailable
///
/// so the run report and dpcopula_report pick them up like any metric.
/// The tools run one whenever a run report is requested (--trace-json).
class ProfileSession {
 public:
  ProfileSession();
  ~ProfileSession();
  ProfileSession(const ProfileSession&) = delete;
  ProfileSession& operator=(const ProfileSession&) = delete;

 private:
  HwCounterGroup counters_;
};

}  // namespace dpcopula::obs

#endif  // DPCOPULA_OBS_PROFILE_H_
