#include "obs/json_reader.h"

#include <cstdint>

#include "common/parse_number.h"

namespace dpcopula::obs {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : *object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void AppendUtf8(std::string* out, std::uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

// Recursive descent, one function per grammar rule. Each returns false at
// the first violation with `error_` naming it and `pos_` on the byte.
class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Result<JsonValue> Run() {
    JsonValue value;
    SkipWs();
    if (!ParseValue(&value, 0)) return Error();
    SkipWs();
    if (pos_ != s_.size()) {
      error_ = "bytes after the value";
      return Error();
    }
    return value;
  }

 private:
  Status Error() const {
    return Status::InvalidArgument("malformed JSON at byte " +
                                   std::to_string(pos_) + ": " + error_);
  }
  bool Fail(const char* what) {
    error_ = what;
    return false;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
           Peek() == '\r') {
      ++pos_;
    }
  }

  bool ParseValue(JsonValue* out, int depth) {
    switch (Peek()) {
      case '{':
        return ParseObject(out, depth + 1);
      case '[':
        return ParseArray(out, depth + 1);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return Fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (Peek() == '0') {
      ++pos_;
    } else if (IsDigit(Peek())) {
      while (IsDigit(Peek())) ++pos_;
    } else {
      return Fail("expected a value");
    }
    if (Peek() == '.') {
      ++pos_;
      if (!IsDigit(Peek())) return Fail("expected a digit after '.'");
      while (IsDigit(Peek())) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!IsDigit(Peek())) return Fail("expected a digit in the exponent");
      while (IsDigit(Peek())) ++pos_;
    }
    if (!ParseDouble(s_.substr(start, pos_ - start), &out->number)) {
      pos_ = start;
      return Fail("number outside the range of a double");
    }
    out->type = JsonValue::Type::kNumber;
    return true;
  }

  bool ReadHex4(std::uint32_t* out) {
    if (s_.size() - pos_ < 4) return Fail("\\u needs four hex digits");
    std::uint32_t value = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      const int digit = HexDigit(s_[pos_ + i]);
      if (digit < 0) return Fail("\\u needs four hex digits");
      value = (value << 4) | static_cast<std::uint32_t>(digit);
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  // After "\u": one code point, or a surrogate pair "\uD8xx\uDCxx".
  bool ParseUnicodeEscape(std::string* out) {
    std::uint32_t cp = 0;
    if (!ReadHex4(&cp)) return false;
    if (cp >= 0xDC00 && cp <= 0xDFFF) return Fail("unpaired low surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (s_.substr(pos_, 2) != "\\u") return Fail("unpaired high surrogate");
      pos_ += 2;
      std::uint32_t low = 0;
      if (!ReadHex4(&low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) {
        return Fail("unpaired high surrogate");
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    AppendUtf8(out, cp);
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // '"'
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in a string");
      }
      ++pos_;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      switch (Peek()) {
        case '"':
        case '\\':
        case '/':
          out->push_back(s_[pos_]);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u':
          ++pos_;
          if (!ParseUnicodeEscape(out)) return false;
          continue;
        default:
          return Fail("invalid escape");
      }
      ++pos_;
    }
    return Fail("unterminated string");
  }

  bool ParseArray(JsonValue* out, int depth) {
    if (depth > kMaxJsonDepth) return Fail("nesting deeper than 256 levels");
    ++pos_;  // '['
    out->type = JsonValue::Type::kArray;
    out->array = std::make_shared<JsonArray>();
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value, depth)) return false;
      out->array->push_back(std::move(value));
      SkipWs();
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      if (Peek() != ',') return Fail("expected ',' or ']'");
      ++pos_;
      SkipWs();
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    if (depth > kMaxJsonDepth) return Fail("nesting deeper than 256 levels");
    ++pos_;  // '{'
    out->type = JsonValue::Type::kObject;
    out->object = std::make_shared<JsonObject>();
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (Peek() != '"') return Fail("expected a string key");
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (Peek() != ':') return Fail("expected ':'");
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value, depth)) return false;
      out->object->emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      if (Peek() != ',') return Fail("expected ',' or '}'");
      ++pos_;
      SkipWs();
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  const char* error_ = "";
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace dpcopula::obs
