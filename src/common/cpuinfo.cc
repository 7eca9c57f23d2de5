#include "common/cpuinfo.h"

namespace dpcopula::common {

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace dpcopula::common
