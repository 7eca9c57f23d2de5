#ifndef DPCOPULA_COMMON_CPUINFO_H_
#define DPCOPULA_COMMON_CPUINFO_H_

namespace dpcopula::common {

/// True when the CPU executing this process supports AVX2. Always false on
/// non-x86 targets. The answer never changes over the process lifetime, so
/// callers may cache it (the stats batch kernels resolve their dispatch
/// once, behind a function-local static).
bool CpuSupportsAvx2();

}  // namespace dpcopula::common

#endif  // DPCOPULA_COMMON_CPUINFO_H_
