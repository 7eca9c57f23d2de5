#include "common/parse_number.h"

#include <charconv>
#include <system_error>

namespace dpcopula {

bool ParseDouble(std::string_view text, double* out) {
  // from_chars takes '-' but not '+', so after a leading '+' only a '-'
  // needs refusing.
  if (!text.empty() && text.front() == '+') {
    text.remove_prefix(1);
    if (!text.empty() && text.front() == '-') return false;
  }
  const char* const end = text.data() + text.size();
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value,
                                         std::chars_format::general);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

bool ParseUint64(std::string_view text, std::uint64_t* out) {
  const char* const end = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, 10);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace dpcopula
