// Strict parsing of numeric flag values for the command-line tools, on the
// library's ParseDouble / ParseUint64. A missing or malformed value prints
// which flag was wrong (never the value) and returns false, so a tool
// exits 2 before it opens any file.
#ifndef DPCOPULA_TOOLS_FLAG_VALUE_H_
#define DPCOPULA_TOOLS_FLAG_VALUE_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "common/parse_number.h"

namespace dpcopula::tools {

/// `text` (nullptr when the flag came last, without a value) as a finite
/// number.
inline bool FlagDouble(const std::string& flag, const char* text,
                       double* out) {
  if (text != nullptr && ParseDouble(text, out) && std::isfinite(*out)) {
    return true;
  }
  std::fprintf(stderr, "%s wants a finite number\n", flag.c_str());
  return false;
}

/// `text` as a decimal integer in [0, max].
template <typename T>
bool FlagUint(const std::string& flag, const char* text, T* out,
              std::uint64_t max = std::numeric_limits<T>::max()) {
  std::uint64_t value = 0;
  if (text != nullptr && ParseUint64(text, &value) && value <= max) {
    *out = static_cast<T>(value);
    return true;
  }
  std::fprintf(stderr, "%s wants an integer in [0, %llu]\n", flag.c_str(),
               static_cast<unsigned long long>(max));
  return false;
}

}  // namespace dpcopula::tools

#endif  // DPCOPULA_TOOLS_FLAG_VALUE_H_
