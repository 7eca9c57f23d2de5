#ifndef DPCOPULA_OBS_JSON_READER_H_
#define DPCOPULA_OBS_JSON_READER_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

/// The reading side of json_writer.h: the repo's one JSON parser, used by
/// dpcopula_report on run reports and by the tests on every document obs
/// writes.

namespace dpcopula::obs {

struct JsonValue;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

/// A parsed JSON value. Objects keep their members in document order, so a
/// table rendered from one lists rows in the order the producer wrote them.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::shared_ptr<JsonArray> array;
  std::shared_ptr<JsonObject> object;

  /// The first member named `key`, or nullptr when this is not an object
  /// or has no such member.
  const JsonValue* Find(std::string_view key) const;
  /// The number, or `fallback` when this is not a number.
  double NumberOr(double fallback) const {
    return type == Type::kNumber ? number : fallback;
  }
};

/// Arrays and objects nested deeper than this are malformed. The repo's run
/// reports nest 15-17 levels and its Chrome traces 4; the cap bounds the
/// parser's recursion on hostile input.
inline constexpr int kMaxJsonDepth = 256;

/// Parses one RFC 8259 document: a single value with only whitespace
/// (space, tab, LF, CR) around it. Numbers must match
/// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and convert with
/// ParseDouble, which refuses magnitudes beyond a double's range. Strings
/// refuse raw control characters; `\u` takes exactly four hex digits, a
/// surrogate pair decodes to one code point, and the result is UTF-8. Bytes
/// at or above 0x80 pass through unchecked, as AppendJsonString writes
/// them. Any violation returns InvalidArgument naming the byte offset.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace dpcopula::obs

#endif  // DPCOPULA_OBS_JSON_READER_H_
