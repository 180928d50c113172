#include "service/protocol.hpp"

#include <cstdlib>

#include "campaign/journal.hpp"
#include "util/strings.hpp"

namespace adriatic::service {

namespace {

using campaign::checksum_suffix;
using campaign::decode_field;
using campaign::encode_field;
using campaign::strip_checksum;

[[nodiscard]] u64 parse_u64(const std::string& s, int base = 10) {
  return std::strtoull(s.c_str(), nullptr, base);
}

/// Strict decimal parse: rejects empty, non-digit and overflowing strings,
/// so a garbage id never silently becomes a valid one.
[[nodiscard]] std::optional<u64> parse_dec(const std::string& s) {
  if (s.empty() || s.size() > 20) return std::nullopt;
  u64 v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const u64 next = v * 10 + static_cast<u64>(c - '0');
    if (next < v) return std::nullopt;
    v = next;
  }
  return v;
}

[[nodiscard]] std::optional<u64> parse_hex(const std::string& s) {
  if (s.empty() || s.size() > 16) return std::nullopt;
  u64 v = 0;
  for (const char c : s) {
    u64 d = 0;
    if (c >= '0' && c <= '9') d = static_cast<u64>(c - '0');
    else if (c >= 'a' && c <= 'f') d = static_cast<u64>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') d = static_cast<u64>(c - 'A' + 10);
    else return std::nullopt;
    v = (v << 4) | d;
  }
  return v;
}

}  // namespace

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kTornLine: return "torn-line";
    case ErrorCode::kBadChecksum: return "bad-checksum";
    case ErrorCode::kOversizeFrame: return "oversize-frame";
    case ErrorCode::kUnknownVerb: return "unknown-verb";
    case ErrorCode::kStaleVersion: return "stale-version";
    case ErrorCode::kDuplicateId: return "duplicate-id";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kUnknownKind: return "unknown-kind";
    case ErrorCode::kShutdown: return "shutdown";
  }
  return "bad-request";
}

std::optional<ErrorCode> parse_error_code(const std::string& s) {
  for (const ErrorCode code :
       {ErrorCode::kTornLine, ErrorCode::kBadChecksum,
        ErrorCode::kOversizeFrame, ErrorCode::kUnknownVerb,
        ErrorCode::kStaleVersion, ErrorCode::kDuplicateId,
        ErrorCode::kBadRequest, ErrorCode::kUnknownKind, ErrorCode::kShutdown})
    if (s == error_code_name(code)) return code;
  return std::nullopt;
}

std::optional<std::string> WireLine::get(const std::string& key) const {
  for (const auto& [k, v] : fields)
    if (k == key) return v;
  return std::nullopt;
}

std::string encode_wire_line(const WireLine& line) {
  std::string content = line.verb;
  content += ' ';
  content += kProtocolVersion;
  for (const auto& [k, v] : line.fields)
    content += ' ' + k + '=' + encode_field(v);
  return content + checksum_suffix(content) + "\n";
}

WireEvent parse_wire_line(const std::string& raw) {
  WireEvent ev;
  if (raw.find(" cks=") == std::string::npos) {
    ev.error = {ErrorCode::kTornLine, "line has no checksum suffix"};
    return ev;
  }
  const auto content = strip_checksum(raw);
  if (!content.has_value()) {
    ev.error = {ErrorCode::kBadChecksum, "checksum mismatch"};
    return ev;
  }
  const std::vector<std::string> tok = split(*content, ' ');
  if (tok.size() < 2 || tok[0].empty()) {
    ev.error = {ErrorCode::kBadRequest, "missing verb or version token"};
    return ev;
  }
  if (tok[1] != kProtocolVersion) {
    ev.error = {ErrorCode::kStaleVersion,
                "version '" + tok[1] + "' is not " + kProtocolVersion};
    return ev;
  }
  WireLine line;
  line.verb = tok[0];
  for (usize i = 2; i < tok.size(); ++i) {
    const usize eq = tok[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      ev.error = {ErrorCode::kBadRequest, "malformed field '" + tok[i] + "'"};
      return ev;
    }
    line.add(tok[i].substr(0, eq), decode_field(tok[i].substr(eq + 1)));
  }
  ev.line = std::move(line);
  return ev;
}

std::optional<WireEvent> LineParser::next() {
  if (fatal_) return std::nullopt;
  for (;;) {
    const usize nl = buf_.find('\n');
    if (nl == std::string::npos) {
      if (buf_.size() > kMaxLineBytes) {
        // The line is already over budget with no newline in sight; there
        // is no trustworthy frame boundary to resynchronise on.
        fatal_ = true;
        WireEvent ev;
        ev.error = {ErrorCode::kOversizeFrame,
                    strfmt("line exceeds %zu bytes", kMaxLineBytes)};
        return ev;
      }
      return std::nullopt;
    }
    std::string raw = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    if (raw.empty()) continue;  // blank keepalive line
    if (raw.size() > kMaxLineBytes) {
      fatal_ = true;
      WireEvent ev;
      ev.error = {ErrorCode::kOversizeFrame,
                  strfmt("line exceeds %zu bytes", kMaxLineBytes)};
      return ev;
    }
    WireEvent ev = parse_wire_line(raw);
    if (ev.error.has_value() && is_fatal(ev.error->code)) fatal_ = true;
    return ev;
  }
}

namespace {

// Keys ride on the left of the token's first '='. encode_field keeps them
// free of spaces, but leaves '=' alone — escape it too so the separator is
// unambiguous (decode_field reverses any %XX).
std::string encode_param_key(const std::string& k) {
  std::string out;
  for (const char c : encode_field(k)) {
    if (c == '=') {
      out += "%3D";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string encode_params(const ParamMap& params) {
  std::string out;
  for (const auto& [k, v] : params) {
    if (!out.empty()) out += ' ';
    out += encode_param_key(k) + '=' + encode_field(v);
  }
  return out;
}

ParamMap decode_params(const std::string& encoded) {
  ParamMap out;
  for (const std::string& tok : split(encoded, ' ')) {
    const usize eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    out[decode_field(tok.substr(0, eq))] = decode_field(tok.substr(eq + 1));
  }
  return out;
}

std::string encode_request(const Request& req) {
  WireLine line;
  line.add("id", std::to_string(req.id));
  switch (req.verb) {
    case Verb::kSubmit:
      line.verb = "SUBMIT";
      line.add("spec", strfmt("%016llx",
                              static_cast<unsigned long long>(req.spec)));
      line.add("kind", req.kind);
      line.add("label", req.label);
      line.add("params", req.params);
      break;
    case Verb::kWatch: line.verb = "WATCH"; break;
    case Verb::kStats: line.verb = "STATS"; break;
    case Verb::kDrain: line.verb = "DRAIN"; break;
  }
  return encode_wire_line(line);
}

RequestEvent to_request(const WireLine& line) {
  RequestEvent ev;
  Request req;
  if (line.verb == "SUBMIT") req.verb = Verb::kSubmit;
  else if (line.verb == "WATCH") req.verb = Verb::kWatch;
  else if (line.verb == "STATS") req.verb = Verb::kStats;
  else if (line.verb == "DRAIN") req.verb = Verb::kDrain;
  else {
    ev.error = {ErrorCode::kUnknownVerb, "verb '" + line.verb + "'"};
    return ev;
  }
  const auto id = line.get("id");
  const auto id_val = id.has_value() ? parse_dec(*id) : std::nullopt;
  if (!id_val.has_value() || *id_val == 0) {
    ev.error = {ErrorCode::kBadRequest, "missing or malformed id"};
    return ev;
  }
  req.id = *id_val;
  if (req.verb == Verb::kSubmit) {
    const auto spec = line.get("spec");
    const auto spec_val = spec.has_value() ? parse_hex(*spec) : std::nullopt;
    const auto kind = line.get("kind");
    const auto label = line.get("label");
    if (!spec_val.has_value() || !kind.has_value() || kind->empty() ||
        !label.has_value() || label->empty()) {
      ev.error = {ErrorCode::kBadRequest,
                  "SUBMIT needs spec=<hex>, kind= and label="};
      return ev;
    }
    req.spec = *spec_val;
    req.kind = *kind;
    req.label = *label;
    req.params = line.get("params").value_or("");
  }
  ev.request = std::move(req);
  return ev;
}

std::string encode_ok(u64 id, u64 index, bool cached) {
  WireLine line;
  line.verb = "OK";
  line.add("id", std::to_string(id));
  line.add("index", std::to_string(index));
  line.add("cached", cached ? "1" : "0");
  return encode_wire_line(line);
}

std::string encode_result(u64 id, u64 spec, const campaign::JobStats& stats) {
  WireLine line;
  line.verb = "RESULT";
  line.add("id", std::to_string(id));
  line.add("spec", strfmt("%016llx", static_cast<unsigned long long>(spec)));
  line.add("index", std::to_string(stats.index));
  line.add("stats", campaign::encode_job_stats(stats));
  return encode_wire_line(line);
}

std::string encode_error(u64 id, ErrorCode code, const std::string& detail) {
  WireLine line;
  line.verb = "ERROR";
  line.add("id", std::to_string(id));
  line.add("code", error_code_name(code));
  line.add("detail", detail);
  return encode_wire_line(line);
}

std::string encode_stats_reply(
    u64 id, const std::vector<std::pair<std::string, std::string>>& fields) {
  WireLine line;
  line.verb = "STATS";
  line.add("id", std::to_string(id));
  for (const auto& [k, v] : fields) line.add(k, v);
  return encode_wire_line(line);
}

std::string encode_drained(u64 id) {
  WireLine line;
  line.verb = "DRAINED";
  line.add("id", std::to_string(id));
  return encode_wire_line(line);
}

ResponseEvent to_response(const WireLine& line) {
  ResponseEvent ev;
  Response resp;
  if (line.verb == "OK") resp.type = ResponseType::kOk;
  else if (line.verb == "RESULT") resp.type = ResponseType::kResult;
  else if (line.verb == "ERROR") resp.type = ResponseType::kError;
  else if (line.verb == "STATS") resp.type = ResponseType::kStats;
  else if (line.verb == "DRAINED") resp.type = ResponseType::kDrained;
  else {
    ev.error = {ErrorCode::kUnknownVerb, "verb '" + line.verb + "'"};
    return ev;
  }
  const auto id = line.get("id");
  if (!id.has_value()) {
    ev.error = {ErrorCode::kBadRequest, "missing id"};
    return ev;
  }
  resp.id = parse_u64(*id);
  switch (resp.type) {
    case ResponseType::kOk: {
      resp.index = parse_u64(line.get("index").value_or("0"));
      resp.cached = line.get("cached").value_or("0") == "1";
      break;
    }
    case ResponseType::kResult: {
      const auto spec = line.get("spec");
      const auto stats = line.get("stats");
      if (!spec.has_value() || !stats.has_value()) {
        ev.error = {ErrorCode::kBadRequest, "RESULT needs spec= and stats="};
        return ev;
      }
      resp.spec = parse_u64(*spec, 16);
      resp.index = parse_u64(line.get("index").value_or("0"));
      resp.stats = campaign::decode_job_stats(*stats);
      resp.stats.index = static_cast<usize>(resp.index);
      break;
    }
    case ResponseType::kError: {
      const auto code = line.get("code");
      const auto parsed =
          code.has_value() ? parse_error_code(*code) : std::nullopt;
      if (!parsed.has_value()) {
        ev.error = {ErrorCode::kBadRequest, "ERROR needs a known code="};
        return ev;
      }
      resp.code = *parsed;
      resp.detail = line.get("detail").value_or("");
      break;
    }
    case ResponseType::kStats: {
      for (const auto& [k, v] : line.fields)
        if (k != "id") resp.fields.emplace_back(k, v);
      break;
    }
    case ResponseType::kDrained: break;
  }
  ev.response = std::move(resp);
  return ev;
}

}  // namespace adriatic::service
