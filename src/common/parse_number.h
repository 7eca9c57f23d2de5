#ifndef DPCOPULA_COMMON_PARSE_NUMBER_H_
#define DPCOPULA_COMMON_PARSE_NUMBER_H_

#include <cstdint>
#include <string_view>

namespace dpcopula {

/// Strict number parsing on std::from_chars, shared by the CSV reader, the
/// serve protocol and every numeric command-line flag. Each function must
/// consume the whole of `text`: no surrounding blanks, no trailing bytes.
/// On failure `*out` is left unchanged.

/// A decimal or exponent-form double ("12", "-0.5", "1e3"), with an
/// optional leading '+' or '-'. The spellings "inf", "infinity" and "nan"
/// (any case) parse to non-finite values; callers that need a finite number
/// check std::isfinite. Hex floats and values outside double's range
/// (e.g. "1e400") fail.
bool ParseDouble(std::string_view text, double* out);

/// A base-10 unsigned integer: digits only, no sign, at most 2^64 - 1.
bool ParseUint64(std::string_view text, std::uint64_t* out);

}  // namespace dpcopula

#endif  // DPCOPULA_COMMON_PARSE_NUMBER_H_
