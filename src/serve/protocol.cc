#include "serve/protocol.h"

#include <cmath>
#include <sstream>
#include <vector>

#include "common/parse_number.h"
#include "data/csv.h"

namespace dpcopula::serve {

namespace {

Status BadRequest(const std::string& what) {
  // Deliberately structural: says which field is malformed, never what the
  // client sent.
  return Status::InvalidArgument("bad request: " + what);
}

std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  std::string field;
  while (in >> field) fields.push_back(std::move(field));
  return fields;
}

}  // namespace

Result<Request> ParseRequestLine(const std::string& line) {
  if (line.size() > 4096) return BadRequest("line too long");
  const std::vector<std::string> fields = SplitFields(line);
  if (fields.empty()) return BadRequest("empty line");
  Request request;
  const std::string& verb = fields[0];
  if (verb == "SAMPLE") {
    if (fields.size() < 6 || fields.size() > 7) {
      return BadRequest("SAMPLE field count");
    }
    request.kind = Request::Kind::kSample;
    request.model = fields[1];
    request.tenant = fields[2];
    if (!ParseDouble(fields[3], &request.epsilon) ||
        !std::isfinite(request.epsilon) || request.epsilon < 0.0) {
      return BadRequest("SAMPLE epsilon");
    }
    if (!ParseUint64(fields[4], &request.rows)) {
      return BadRequest("SAMPLE rows");
    }
    if (!ParseUint64(fields[5], &request.seed)) {
      return BadRequest("SAMPLE seed");
    }
    if (fields.size() == 7) {
      if (fields[6] == "binary") {
        request.binary = true;
      } else if (fields[6] != "csv") {
        return BadRequest("SAMPLE format");
      }
    }
    return request;
  }
  if (verb == "BUDGET") {
    if (fields.size() != 2) return BadRequest("BUDGET field count");
    request.kind = Request::Kind::kBudget;
    request.tenant = fields[1];
    return request;
  }
  if (verb == "RELOAD") {
    if (fields.size() != 2) return BadRequest("RELOAD field count");
    request.kind = Request::Kind::kReload;
    request.model = fields[1];
    return request;
  }
  if (verb == "STATS") {
    if (fields.size() != 1) return BadRequest("STATS field count");
    request.kind = Request::Kind::kStats;
    return request;
  }
  if (verb == "PING") {
    if (fields.size() != 1) return BadRequest("PING field count");
    request.kind = Request::Kind::kPing;
    return request;
  }
  if (verb == "QUIT") {
    if (fields.size() != 1) return BadRequest("QUIT field count");
    request.kind = Request::Kind::kQuit;
    return request;
  }
  return BadRequest("unknown verb");
}

int StatusToWireCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kOutOfRange:
      return 413;
    case StatusCode::kPrivacyBudgetExceeded:
      return 429;
    case StatusCode::kResourceExhausted:
      return 503;
    default:
      return 500;
  }
}

std::string RenderError(int code, const std::string& message) {
  std::string out = "ERR ";
  out += std::to_string(code);
  out += ' ';
  out += message;
  out += '\n';
  return out;
}

std::string RenderError(const Status& status) {
  return RenderError(StatusToWireCode(status), status.message());
}

std::string RenderSampleResponse(const data::Table& table, bool binary) {
  const std::size_t rows = table.num_rows();
  const std::size_t cols = table.num_columns();
  std::string out = "OK SAMPLE ";
  out += std::to_string(rows);
  out += ' ';
  out += std::to_string(cols);
  out += binary ? " binary\n" : " csv\n";
  // Pre-size: ~8 bytes per cell covers small-domain integers with slack.
  out.reserve(out.size() + rows * cols * 8 + 16);
  if (!binary) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (j > 0) out += ',';
      out += table.schema().attribute(j).name;
    }
    out += '\n';
  }
  // Each row is rendered by the CSV writer's formatter behind a 4-byte
  // slot for the binary length prefix, then appended with its framing.
  std::vector<char> row_text(4 + data::MaxCsvRowBytes(cols) + 1);
  char* const cells = row_text.data() + 4;
  for (std::size_t i = 0; i < rows; ++i) {
    char* end = data::FormatCsvRow(table, i, cells);
    char* begin = cells;
    if (binary) {
      const auto length = static_cast<std::uint32_t>(end - cells);
      begin -= 4;
      begin[0] = static_cast<char>(length & 0xff);
      begin[1] = static_cast<char>((length >> 8) & 0xff);
      begin[2] = static_cast<char>((length >> 16) & 0xff);
      begin[3] = static_cast<char>((length >> 24) & 0xff);
    } else {
      *end++ = '\n';
    }
    out.append(begin, end);
  }
  out += "END\n";
  return out;
}

}  // namespace dpcopula::serve
