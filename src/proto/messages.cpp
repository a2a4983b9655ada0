#include "proto/messages.h"

#include <algorithm>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "core/epoch_codec.h"
#include "trace/csv.h"

namespace wiscape::proto {

namespace {

// ---- zero-allocation line tokenizer ---------------------------------------
// The happy path never allocates: tokens are views into the input line and
// numbers are parsed in place with std::from_chars. Only throw-paths build
// std::strings.

constexpr std::string_view separators = " \t\r";

/// Walks a line as whitespace-separated tokens (views into the input).
/// Hand-rolled byte loop rather than find_first_[not_]of: the 3-character
/// set variants scan per candidate character, and this cursor runs twice
/// per field on the hottest wire paths (QUERY/REPORT decode).
struct token_cursor {
  std::string_view rest;

  static bool is_sep(char c) { return c == ' ' || c == '\t' || c == '\r'; }

  std::optional<std::string_view> next() {
    const char* p = rest.data();
    const char* const end = p + rest.size();
    while (p != end && is_sep(*p)) ++p;
    if (p == end) {
      rest = {};
      return std::nullopt;
    }
    const char* b = p;
    while (p != end && !is_sep(*p)) ++p;
    rest = std::string_view(p, static_cast<std::size_t>(end - p));
    return std::string_view(b, static_cast<std::size_t>(p - b));
  }
};

struct kv {
  std::string_view key;
  std::string_view value;
};

kv split_kv(std::string_view token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 == token.size()) {
    throw std::invalid_argument("malformed field '" + error_excerpt(token, 80) +
                                "'");
  }
  return {token.substr(0, eq), token.substr(eq + 1)};
}

void expect_tag(token_cursor& c, std::string_view expected,
                std::string_view line) {
  const auto tag = c.next();
  if (!tag || *tag != expected) {
    throw std::invalid_argument("expected " + std::string(expected) +
                                " message, got '" + error_excerpt(line) + "'");
  }
}

[[noreturn]] void bad_numeric(std::string_view key, std::string_view s) {
  throw std::invalid_argument("bad numeric field " + std::string(key) + "='" +
                              error_excerpt(s, 80) + "'");
}

double parse_double(std::string_view s, std::string_view key) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) bad_numeric(key, s);
  return v;
}

std::uint64_t parse_u64(std::string_view s, std::string_view key) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) bad_numeric(key, s);
  return v;
}

std::uint32_t parse_u32(std::string_view s, std::string_view key) {
  std::uint32_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) bad_numeric(key, s);
  return v;
}

/// Field-presence bookkeeping: one bit per required field, so missing and
/// duplicate keys are detected without a map.
void mark_seen(unsigned& seen, unsigned bit, std::string_view key) {
  if (seen & bit) {
    throw std::invalid_argument("duplicate field '" + std::string(key) + "'");
  }
  seen |= bit;
}

void require_seen(unsigned seen, unsigned bit, const char* key) {
  if (!(seen & bit)) {
    throw std::invalid_argument(std::string("missing field '") + key + "'");
  }
}

/// snprintf into a stack buffer, growing onto the heap instead of silently
/// truncating when the rendered line is longer than the buffer.
template <class... Args>
std::string format_line(const char* fmt, Args... args) {
  char buf[256];
  const int n = std::snprintf(buf, sizeof buf, fmt, args...);
  if (n < 0) throw std::runtime_error("encode: snprintf format error");
  if (static_cast<std::size_t>(n) < sizeof buf) {
    return std::string(buf, static_cast<std::size_t>(n));
  }
  std::string out(static_cast<std::size_t>(n) + 1, '\0');
  std::snprintf(out.data(), out.size(), fmt, args...);
  out.resize(static_cast<std::size_t>(n));
  return out;
}

}  // namespace

std::string error_excerpt(std::string_view s, std::size_t max_len) {
  if (s.size() <= max_len) return std::string(s);
  return std::string(s.substr(0, max_len)) + "...";
}

// ---- reply_buffer ---------------------------------------------------------

void reply_buffer::append_format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list retry;
  va_copy(retry, args);
  char buf[256];
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n < 0) {
    va_end(retry);
    throw std::runtime_error("encode: vsnprintf format error");
  }
  if (static_cast<std::size_t>(n) < sizeof buf) {
    bytes_.append(buf, static_cast<std::size_t>(n));
  } else {
    // Rare long line: render straight into the tail of the byte store.
    const std::size_t old = bytes_.size();
    bytes_.resize(old + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(bytes_.data() + old, static_cast<std::size_t>(n) + 1, fmt,
                   retry);
    bytes_.resize(old + static_cast<std::size_t>(n));
  }
  va_end(retry);
}

void reply_buffer::append_u64(std::uint64_t v) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  bytes_.append(buf, static_cast<std::size_t>(end - buf));
}

void reply_buffer::append_i32(std::int32_t v) {
  char buf[12];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  bytes_.append(buf, static_cast<std::size_t>(end - buf));
}

void reply_buffer::append_u32(std::uint32_t v) {
  char buf[10];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  bytes_.append(buf, static_cast<std::size_t>(end - buf));
}

void reply_buffer::append_double17(double v) {
  core::epoch_codec::put_double(bytes_, v);
}

std::string encode(const checkin_request& m) {
  return format_line(
      "CHECKIN client=%llu lat=%.6f lon=%.6f t=%.3f net=%u "
      "active=%u device=%s",
      static_cast<unsigned long long>(m.client_id), m.pos.lat_deg,
      m.pos.lon_deg, m.time_s, m.network_index, m.active_in_zone,
      m.device.c_str());
}

std::string encode(const task_assignment& m) {
  reply_buffer out;
  encode_into(m, out);
  return std::string(out.view());
}

void encode_into(const task_assignment& m, reply_buffer& out) {
  out.append_format(
      "TASK kind=%s net=%u tcp_bytes=%llu udp_packets=%u "
      "ping_count=%u",
      trace::to_string(m.kind).c_str(), m.network_index,
      static_cast<unsigned long long>(m.tcp_bytes), m.udp_packets,
      m.ping_count);
}

std::string encode(const measurement_report& m) {
  // The record payload reuses the CSV trace schema verbatim, so reports can
  // be appended straight into dataset files.
  return "REPORT client=" + std::to_string(m.client_id) + " csv=" +
         trace::to_csv(m.record);
}

std::string encode_report_batch(
    std::span<const trace::measurement_record> recs) {
  std::string out = "REPORTB " + std::to_string(recs.size());
  for (const auto& rec : recs) {
    out += '\n';
    out += trace::to_csv(rec);
  }
  return out;
}

std::string encode_idle() { return "IDLE"; }

namespace {
// The single table every err_code conversion is driven from: one row per
// code, in enum order (static_asserted below so a new code cannot be added
// without a token).
struct err_row {
  err_code code;
  std::string_view token;
};
constexpr err_row err_table[] = {
    {err_code::parse, "parse"},
    {err_code::unsupported, "unsupported"},
    {err_code::stopped, "stopped"},
    {err_code::version, "version"},
    {err_code::internal, "internal"},
    {err_code::overload, "overload"},
};
static_assert(static_cast<std::size_t>(err_code::overload) + 1 ==
                  sizeof err_table / sizeof err_table[0],
              "every err_code needs a row in err_table");
}  // namespace

std::string_view to_string(err_code code) noexcept {
  return err_table[static_cast<std::size_t>(code)].token;
}

std::optional<err_code> err_code_from_string(std::string_view s) noexcept {
  for (const err_row& row : err_table) {
    if (row.token == s) return row.code;
  }
  return std::nullopt;
}

std::string encode_error(err_code code, std::string_view detail) {
  const std::string_view token = to_string(code);
  std::string out;
  out.reserve(4 + token.size() + 1 + std::min<std::size_t>(detail.size(), 124));
  out += "ERR ";
  out += token;
  out += ' ';
  out += error_excerpt(detail);
  return out;
}

void encode_error_into(err_code code, std::string_view detail,
                       reply_buffer& out) {
  constexpr std::size_t max_detail = 120;  // error_excerpt's default clip
  out.append("ERR ");
  out.append(to_string(code));
  out.append(' ');
  if (detail.size() <= max_detail) {
    out.append(detail);
  } else {
    out.append(detail.substr(0, max_detail));
    out.append("...");
  }
}

std::size_t frame_extra_lines(std::string_view header_line,
                              frame_side side) noexcept {
  struct frame_tag {
    std::string_view tag;
    frame_side side;
    std::size_t cap;
  };
  // STATS frames enumerate registered metrics: bounded in practice but not
  // by a protocol constant, so they get a generous fixed ceiling.
  static constexpr frame_tag frames[] = {
      {"REPORTB", frame_side::request, max_report_batch},
      {"QUERYB", frame_side::request, max_query_batch},
      {"ESTB", frame_side::reply, max_query_batch},
      {"ALERTS", frame_side::reply, max_alert_batch},
      {"STATS", frame_side::reply, 65536}};
  const std::size_t sp = header_line.find_first_of(" \t\r\n");
  const std::string_view tag = header_line.substr(0, sp);
  const frame_tag* frame = nullptr;
  for (const frame_tag& f : frames) {
    if (f.side == side && f.tag == tag) frame = &f;
  }
  if (frame == nullptr) return 0;
  const bool request = side == frame_side::request;
  const std::size_t bad = request ? bad_frame_count : 0;
  if (sp == std::string_view::npos) return bad;
  const std::string_view rest = header_line.substr(sp + 1);
  const std::size_t start = rest.find_first_not_of(" \t");
  if (start == std::string_view::npos) return bad;
  std::size_t end = start;
  while (end < rest.size() && rest[end] >= '0' && rest[end] <= '9') ++end;
  std::size_t n = 0;
  if (end == start ||
      std::from_chars(rest.data() + start, rest.data() + end, n).ec !=
          std::errc{}) {
    return bad;
  }
  if (n <= frame->cap) return n;
  return request ? bad_frame_count : frame->cap;
}

std::string_view message_type(std::string_view line) {
  const std::size_t sp = line.find_first_of(" \t\r\n");
  const std::string_view tag =
      sp == std::string_view::npos ? line : line.substr(0, sp);
  // Return the static literal, not a view into the caller's line, so the
  // result stays valid after the line's buffer dies.
  for (const std::string_view known :
       {"CHECKIN", "TASK", "REPORT", "REPORTB", "IDLE", "ACK", "ERR", "STATS",
        "QUERY", "QUERYB", "EST", "ESTB", "NONE", "ALERTS", "ALERT",
        "HELLO"}) {
    if (tag == known) return known;
  }
  return {};
}

checkin_request decode_checkin(std::string_view line) {
  token_cursor c{line};
  expect_tag(c, "CHECKIN", line);
  enum : unsigned {
    f_client = 1u << 0,
    f_lat = 1u << 1,
    f_lon = 1u << 2,
    f_t = 1u << 3,
    f_net = 1u << 4,
    f_active = 1u << 5,
    f_device = 1u << 6,
  };
  checkin_request m;
  unsigned seen = 0;
  while (const auto tok = c.next()) {
    const kv f = split_kv(*tok);
    if (f.key == "client") {
      mark_seen(seen, f_client, f.key);
      m.client_id = parse_u64(f.value, f.key);
    } else if (f.key == "lat") {
      mark_seen(seen, f_lat, f.key);
      m.pos.lat_deg = parse_double(f.value, f.key);
    } else if (f.key == "lon") {
      mark_seen(seen, f_lon, f.key);
      m.pos.lon_deg = parse_double(f.value, f.key);
    } else if (f.key == "t") {
      mark_seen(seen, f_t, f.key);
      m.time_s = parse_double(f.value, f.key);
    } else if (f.key == "net") {
      mark_seen(seen, f_net, f.key);
      m.network_index = parse_u32(f.value, f.key);
    } else if (f.key == "active") {
      mark_seen(seen, f_active, f.key);
      m.active_in_zone = parse_u32(f.value, f.key);
    } else if (f.key == "device") {
      mark_seen(seen, f_device, f.key);
      m.device.assign(f.value);
    }
    // Unknown keys are tolerated and ignored (forward compatibility), same
    // as the old map-based parser which only looked up the fields it needed.
  }
  require_seen(seen, f_client, "client");
  require_seen(seen, f_lat, "lat");
  require_seen(seen, f_lon, "lon");
  require_seen(seen, f_t, "t");
  require_seen(seen, f_net, "net");
  require_seen(seen, f_active, "active");
  require_seen(seen, f_device, "device");
  return m;
}

task_assignment decode_task(std::string_view line) {
  token_cursor c{line};
  expect_tag(c, "TASK", line);
  enum : unsigned {
    f_kind = 1u << 0,
    f_net = 1u << 1,
    f_tcp_bytes = 1u << 2,
    f_udp_packets = 1u << 3,
    f_ping_count = 1u << 4,
  };
  task_assignment m;
  unsigned seen = 0;
  while (const auto tok = c.next()) {
    const kv f = split_kv(*tok);
    if (f.key == "kind") {
      mark_seen(seen, f_kind, f.key);
      m.kind = trace::probe_kind_from_string(f.value);
    } else if (f.key == "net") {
      mark_seen(seen, f_net, f.key);
      m.network_index = parse_u32(f.value, f.key);
    } else if (f.key == "tcp_bytes") {
      mark_seen(seen, f_tcp_bytes, f.key);
      m.tcp_bytes = parse_u64(f.value, f.key);
    } else if (f.key == "udp_packets") {
      mark_seen(seen, f_udp_packets, f.key);
      m.udp_packets = parse_u32(f.value, f.key);
    } else if (f.key == "ping_count") {
      mark_seen(seen, f_ping_count, f.key);
      m.ping_count = parse_u32(f.value, f.key);
    }
  }
  require_seen(seen, f_kind, "kind");
  require_seen(seen, f_net, "net");
  require_seen(seen, f_tcp_bytes, "tcp_bytes");
  require_seen(seen, f_udp_packets, "udp_packets");
  require_seen(seen, f_ping_count, "ping_count");
  return m;
}

measurement_report decode_report(std::string_view line) {
  // REPORT client=<id> csv=<csv line with commas and no spaces>
  constexpr std::string_view prefix = "REPORT client=";
  if (line.substr(0, prefix.size()) != prefix) {
    throw std::invalid_argument("expected REPORT message");
  }
  // The client id is the run of characters up to the next space, which must
  // open " csv=" -- a single memchr instead of a substring search.
  const std::size_t csv_pos = line.find(' ', prefix.size());
  if (csv_pos == std::string_view::npos ||
      line.substr(csv_pos, 5) != " csv=") {
    throw std::invalid_argument("REPORT missing csv field");
  }
  measurement_report m;
  const std::string_view id = line.substr(prefix.size(),
                                          csv_pos - prefix.size());
  // Exact full-width parse: the old std::stoull path both truncated at the
  // first non-digit (silent misparse) and ids never hit it above 2^53
  // unscathed when they travelled via need_u64's double.
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(id.data(), id.data() + id.size(), v);
  if (ec != std::errc{} || end != id.data() + id.size() || id.empty()) {
    throw std::invalid_argument("REPORT bad client id");
  }
  m.client_id = v;
  m.record = trace::from_csv(line.substr(csv_pos + 5));
  return m;
}

std::vector<trace::measurement_record> decode_report_batch(
    std::string_view frame) {
  std::vector<trace::measurement_record> out;
  decode_report_batch_into(frame, out);
  return out;
}

void decode_report_batch_into(std::string_view frame,
                              std::vector<trace::measurement_record>& out) {
  out.clear();
  const std::size_t nl = frame.find('\n');
  const std::string_view header =
      nl == std::string_view::npos ? frame : frame.substr(0, nl);
  token_cursor c{header};
  expect_tag(c, "REPORTB", header);
  const auto count_tok = c.next();
  if (!count_tok) {
    throw std::invalid_argument("REPORTB missing record count");
  }
  const std::uint64_t n = parse_u64(*count_tok, "count");
  if (c.next()) {
    throw std::invalid_argument("REPORTB header has trailing tokens");
  }
  if (n > max_report_batch) {
    throw std::invalid_argument("REPORTB count " + std::to_string(n) +
                                " exceeds max " +
                                std::to_string(max_report_batch));
  }
  out.reserve(static_cast<std::size_t>(n));
  std::size_t produced = 0;
  std::string_view rest =
      nl == std::string_view::npos ? std::string_view{} : frame.substr(nl + 1);
  while (!rest.empty()) {
    if (produced == n) {
      throw std::invalid_argument("REPORTB count mismatch: header says " +
                                  std::to_string(n) + ", payload has more");
    }
    const std::size_t e = rest.find('\n');
    std::string_view payload =
        e == std::string_view::npos ? rest : rest.substr(0, e);
    // CRLF-framed batches: the '\r' before each '\n' is framing, not CSV.
    if (!payload.empty() && payload.back() == '\r') payload.remove_suffix(1);
    try {
      out.push_back(trace::from_csv(payload));
    } catch (const std::invalid_argument& ex) {
      throw std::invalid_argument("REPORTB record " +
                                  std::to_string(produced) + ": " + ex.what());
    }
    ++produced;
    if (e == std::string_view::npos) break;
    rest = rest.substr(e + 1);  // a single trailing '\n' ends the frame
  }
  if (produced != n) {
    throw std::invalid_argument("REPORTB count mismatch: header says " +
                                std::to_string(n) + ", got " +
                                std::to_string(produced) + " records");
  }
}

// ---- read-side codec (protocol v2) ----------------------------------------

namespace {

/// Parses a "ix:iy" zone token (two signed 32-bit ints).
geo::zone_id parse_zone(std::string_view s, std::string_view key) {
  const std::size_t colon = s.find(':');
  if (colon == std::string_view::npos) bad_numeric(key, s);
  geo::zone_id z;
  const std::string_view ix = s.substr(0, colon);
  const std::string_view iy = s.substr(colon + 1);
  const auto [e1, c1] = std::from_chars(ix.data(), ix.data() + ix.size(), z.ix);
  if (c1 != std::errc{} || e1 != ix.data() + ix.size() || ix.empty()) {
    bad_numeric(key, s);
  }
  const auto [e2, c2] = std::from_chars(iy.data(), iy.data() + iy.size(), z.iy);
  if (c2 != std::errc{} || e2 != iy.data() + iy.size() || iy.empty()) {
    bad_numeric(key, s);
  }
  return z;
}

/// Parses the k=v fields of a QUERY (everything after the tag). Shared by
/// decode_query and QUERYB payload lines.
query_request parse_query_fields(token_cursor& c) {
  enum : unsigned {
    f_lat = 1u << 0,
    f_lon = 1u << 1,
    f_net = 1u << 2,
    f_metric = 1u << 3,
    f_t = 1u << 4,
  };
  query_request m;
  unsigned seen = 0;
  while (const auto tok = c.next()) {
    const kv f = split_kv(*tok);
    if (f.key == "lat") {
      mark_seen(seen, f_lat, f.key);
      m.pos.lat_deg = parse_double(f.value, f.key);
    } else if (f.key == "lon") {
      mark_seen(seen, f_lon, f.key);
      m.pos.lon_deg = parse_double(f.value, f.key);
    } else if (f.key == "net") {
      mark_seen(seen, f_net, f.key);
      m.network.assign(f.value);
    } else if (f.key == "metric") {
      mark_seen(seen, f_metric, f.key);
      m.metric = trace::metric_from_string(f.value);
    } else if (f.key == "t") {
      mark_seen(seen, f_t, f.key);
      m.time_s = parse_double(f.value, f.key);
    }
  }
  require_seen(seen, f_lat, "lat");
  require_seen(seen, f_lon, "lon");
  require_seen(seen, f_net, "net");
  require_seen(seen, f_metric, "metric");
  return m;  // t optional: stays -1 (staleness unknown) when absent
}

/// Renders the k=v fields of a QUERY (without the tag) into `out`.
void append_query_fields(std::string& out, const query_request& m) {
  out += format_line("lat=%.6f lon=%.6f net=%s metric=%s", m.pos.lat_deg,
                     m.pos.lon_deg, m.network.c_str(),
                     trace::to_string(m.metric).c_str());
  if (m.time_s >= 0.0) out += format_line(" t=%.3f", m.time_s);
}

/// Frame walker shared by the multi-line decoders: splits off the header
/// line and hands out payload lines one at a time.
struct frame_cursor {
  std::string_view rest;
  bool done = false;

  explicit frame_cursor(std::string_view frame, std::string_view& header) {
    const std::size_t nl = frame.find('\n');
    if (nl == std::string_view::npos) {
      header = frame;
      done = true;
    } else {
      header = frame.substr(0, nl);
      rest = frame.substr(nl + 1);
      done = rest.empty();
    }
  }

  std::optional<std::string_view> next() {
    if (done) return std::nullopt;
    const std::size_t e = rest.find('\n');
    std::string_view line;
    if (e == std::string_view::npos) {
      line = rest;
      done = true;  // a single trailing '\n' ends the frame
    } else {
      line = rest.substr(0, e);
      rest = rest.substr(e + 1);
      done = rest.empty();
    }
    // CRLF tolerance lives here (not in a transport-side rewrite buffer):
    // the '\r' before each '\n' is framing, never payload.
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    return line;
  }
};

/// Parses a multi-line frame's "<TAG> <count> [k=v ...]" header count and
/// enforces `cap` before any payload work.
std::uint64_t parse_frame_count(token_cursor& c, std::string_view tag,
                                std::size_t cap) {
  const auto count_tok = c.next();
  if (!count_tok) {
    throw std::invalid_argument(std::string(tag) + " missing count");
  }
  const std::uint64_t n = parse_u64(*count_tok, "count");
  if (n > cap) {
    throw std::invalid_argument(std::string(tag) + " count " +
                                std::to_string(n) + " exceeds max " +
                                std::to_string(cap));
  }
  return n;
}

}  // namespace

std::string encode(const hello_request& m) {
  return format_line("HELLO ver=%u", m.version);
}

std::string encode(const hello_reply& m) {
  return format_line("HELLO ver=%u min=%u", m.version, m.min_version);
}

void encode_into(const hello_reply& m, reply_buffer& out) {
  out.append("HELLO ver=");
  out.append_u32(m.version);
  out.append(" min=");
  out.append_u32(m.min_version);
}

hello_request decode_hello(std::string_view line) {
  token_cursor c{line};
  expect_tag(c, "HELLO", line);
  hello_request m;
  unsigned seen = 0;
  while (const auto tok = c.next()) {
    const kv f = split_kv(*tok);
    if (f.key == "ver") {
      mark_seen(seen, 1u, f.key);
      m.version = parse_u32(f.value, f.key);
    }
  }
  require_seen(seen, 1u, "ver");
  return m;
}

hello_reply decode_hello_reply(std::string_view line) {
  token_cursor c{line};
  expect_tag(c, "HELLO", line);
  enum : unsigned { f_ver = 1u << 0, f_min = 1u << 1 };
  hello_reply m;
  unsigned seen = 0;
  while (const auto tok = c.next()) {
    const kv f = split_kv(*tok);
    if (f.key == "ver") {
      mark_seen(seen, f_ver, f.key);
      m.version = parse_u32(f.value, f.key);
    } else if (f.key == "min") {
      mark_seen(seen, f_min, f.key);
      m.min_version = parse_u32(f.value, f.key);
    }
  }
  require_seen(seen, f_ver, "ver");
  require_seen(seen, f_min, "min");
  return m;
}

std::string encode(const query_request& m) {
  std::string out = "QUERY ";
  append_query_fields(out, m);
  return out;
}

query_request decode_query(std::string_view line) {
  token_cursor c{line};
  expect_tag(c, "QUERY", line);
  return parse_query_fields(c);
}

std::string encode(const estimate_reply& m) {
  reply_buffer out;
  encode_into(m, out);
  return std::string(out.view());
}

namespace {

// The one EST line renderer behind both encode_into overloads.
void put_est_line(const geo::zone_id& zone, std::string_view network,
                  trace::metric metric, std::uint64_t count, double mean,
                  double stddev, std::uint64_t epoch_index,
                  double staleness_s, double confidence, reply_buffer& out) {
  // %.17g-equivalent rendering on every double: what the client decodes is
  // bit-for-bit what the view served (a remote application reproduces
  // in-process decisions). Field-by-field appends instead of one snprintf:
  // the EST line is the hottest reply and integer/double to_chars is a
  // large constant factor cheaper than printf format parsing.
  out.append("EST zone=");
  out.append_i32(zone.ix);
  out.append(':');
  out.append_i32(zone.iy);
  out.append(" net=");
  out.append(network);
  out.append(" metric=");
  out.append(trace::metric_name(metric));
  out.append(" count=");
  out.append_u64(count);
  out.append(" mean=");
  out.append_double17(mean);
  out.append(" stddev=");
  out.append_double17(stddev);
  out.append(" epoch=");
  out.append_u64(epoch_index);
  out.append(" staleness_s=");
  out.append_double17(staleness_s);
  out.append(" conf=");
  out.append_double17(confidence);
}

}  // namespace

void encode_into(const estimate_reply& m, reply_buffer& out) {
  put_est_line(m.zone, m.network, m.metric, m.count, m.mean, m.stddev,
               m.epoch_index, m.staleness_s, m.confidence, out);
}

void encode_into(const core::stream_lookup& l, std::string_view network,
                 reply_buffer& out) {
  if (!l.found) {
    out.append("NONE");
    return;
  }
  put_est_line(l.zone, network, l.metric, l.est.count, l.est.mean,
               l.est.stddev, l.est.epoch_index, l.est.staleness_s,
               l.est.confidence, out);
}

std::string encode_none() { return "NONE"; }

estimate_reply decode_estimate(std::string_view line) {
  token_cursor c{line};
  expect_tag(c, "EST", line);
  enum : unsigned {
    f_zone = 1u << 0,
    f_net = 1u << 1,
    f_metric = 1u << 2,
    f_count = 1u << 3,
    f_mean = 1u << 4,
    f_stddev = 1u << 5,
    f_epoch = 1u << 6,
    f_staleness = 1u << 7,
    f_conf = 1u << 8,
  };
  estimate_reply m;
  unsigned seen = 0;
  while (const auto tok = c.next()) {
    const kv f = split_kv(*tok);
    if (f.key == "zone") {
      mark_seen(seen, f_zone, f.key);
      m.zone = parse_zone(f.value, f.key);
    } else if (f.key == "net") {
      mark_seen(seen, f_net, f.key);
      m.network.assign(f.value);
    } else if (f.key == "metric") {
      mark_seen(seen, f_metric, f.key);
      m.metric = trace::metric_from_string(f.value);
    } else if (f.key == "count") {
      mark_seen(seen, f_count, f.key);
      m.count = parse_u64(f.value, f.key);
    } else if (f.key == "mean") {
      mark_seen(seen, f_mean, f.key);
      m.mean = parse_double(f.value, f.key);
    } else if (f.key == "stddev") {
      mark_seen(seen, f_stddev, f.key);
      m.stddev = parse_double(f.value, f.key);
    } else if (f.key == "epoch") {
      mark_seen(seen, f_epoch, f.key);
      m.epoch_index = parse_u64(f.value, f.key);
    } else if (f.key == "staleness_s") {
      mark_seen(seen, f_staleness, f.key);
      m.staleness_s = parse_double(f.value, f.key);
    } else if (f.key == "conf") {
      mark_seen(seen, f_conf, f.key);
      m.confidence = parse_double(f.value, f.key);
    }
  }
  require_seen(seen, f_zone, "zone");
  require_seen(seen, f_net, "net");
  require_seen(seen, f_metric, "metric");
  require_seen(seen, f_count, "count");
  require_seen(seen, f_mean, "mean");
  require_seen(seen, f_stddev, "stddev");
  require_seen(seen, f_epoch, "epoch");
  require_seen(seen, f_staleness, "staleness_s");
  require_seen(seen, f_conf, "conf");
  return m;
}

std::string encode_query_batch(std::span<const query_request> qs) {
  std::string out = "QUERYB " + std::to_string(qs.size());
  for (const query_request& q : qs) {
    out += '\n';
    append_query_fields(out, q);
  }
  return out;
}

std::vector<query_request> decode_query_batch(std::string_view frame) {
  std::vector<query_request> out;
  decode_query_batch_into(frame, out);
  return out;
}

void decode_query_batch_into(std::string_view frame,
                             std::vector<query_request>& out) {
  out.clear();
  std::string_view header;
  frame_cursor lines(frame, header);
  token_cursor c{header};
  expect_tag(c, "QUERYB", header);
  const std::uint64_t n = parse_frame_count(c, "QUERYB", max_query_batch);
  if (c.next()) {
    throw std::invalid_argument("QUERYB header has trailing tokens");
  }
  out.reserve(static_cast<std::size_t>(n));
  while (const auto line = lines.next()) {
    if (out.size() == n) {
      throw std::invalid_argument("QUERYB count mismatch: header says " +
                                  std::to_string(n) + ", payload has more");
    }
    token_cursor fields{*line};
    try {
      out.push_back(parse_query_fields(fields));
    } catch (const std::invalid_argument& ex) {
      throw std::invalid_argument("QUERYB query " +
                                  std::to_string(out.size()) + ": " +
                                  ex.what());
    }
  }
  if (out.size() != n) {
    throw std::invalid_argument("QUERYB count mismatch: header says " +
                                std::to_string(n) + ", got " +
                                std::to_string(out.size()) + " queries");
  }
}

std::string encode_estimate_batch(
    std::span<const std::optional<estimate_reply>> replies) {
  std::string out = "ESTB " + std::to_string(replies.size());
  for (const auto& r : replies) {
    out += '\n';
    if (r.has_value()) {
      out += encode(*r);
    } else {
      out += "NONE";
    }
  }
  return out;
}

std::vector<std::optional<estimate_reply>> decode_estimate_batch(
    std::string_view frame) {
  std::string_view header;
  frame_cursor lines(frame, header);
  token_cursor c{header};
  expect_tag(c, "ESTB", header);
  const std::uint64_t n = parse_frame_count(c, "ESTB", max_query_batch);
  if (c.next()) {
    throw std::invalid_argument("ESTB header has trailing tokens");
  }
  std::vector<std::optional<estimate_reply>> out;
  out.reserve(static_cast<std::size_t>(n));
  while (const auto line = lines.next()) {
    if (out.size() == n) {
      throw std::invalid_argument("ESTB count mismatch: header says " +
                                  std::to_string(n) + ", payload has more");
    }
    try {
      if (*line == "NONE") {
        out.emplace_back(std::nullopt);
      } else {
        out.emplace_back(decode_estimate(*line));
      }
    } catch (const std::invalid_argument& ex) {
      throw std::invalid_argument("ESTB reply " + std::to_string(out.size()) +
                                  ": " + ex.what());
    }
  }
  if (out.size() != n) {
    throw std::invalid_argument("ESTB count mismatch: header says " +
                                std::to_string(n) + ", got " +
                                std::to_string(out.size()) + " replies");
  }
  return out;
}

std::string encode(const alerts_request& m) {
  return format_line("ALERTS since=%llu max=%u",
                     static_cast<unsigned long long>(m.since), m.max);
}

alerts_request decode_alerts_request(std::string_view line) {
  token_cursor c{line};
  expect_tag(c, "ALERTS", line);
  enum : unsigned { f_since = 1u << 0, f_max = 1u << 1 };
  alerts_request m;
  unsigned seen = 0;
  while (const auto tok = c.next()) {
    const kv f = split_kv(*tok);
    if (f.key == "since") {
      mark_seen(seen, f_since, f.key);
      m.since = parse_u64(f.value, f.key);
    } else if (f.key == "max") {
      mark_seen(seen, f_max, f.key);
      m.max = parse_u32(f.value, f.key);
    }
  }
  require_seen(seen, f_since, "since");
  return m;  // max optional: defaults to 256
}

std::string encode(const alerts_reply& m) {
  reply_buffer out;
  encode_into(m, out);
  return std::string(out.view());
}

void encode_into(const alerts_reply& m, reply_buffer& out) {
  out.append("ALERTS ");
  out.append_u64(m.alerts.size());
  out.append(" next=");
  out.append_u64(m.next_seq);
  out.append(" dropped=");
  out.append_u64(m.dropped);
  for (const alert_event& a : m.alerts) {
    out.append('\n');
    out.append("ALERT seq=");
    out.append_u64(a.seq);
    out.append(" zone=");
    out.append_i32(a.zone.ix);
    out.append(':');
    out.append_i32(a.zone.iy);
    out.append(" net=");
    out.append(a.network);
    out.append(" metric=");
    out.append(trace::metric_name(a.metric));
    out.append(" epoch_start_s=");
    out.append_double17(a.epoch_start_s);
    out.append(" prev_mean=");
    out.append_double17(a.previous_mean);
    out.append(" new_mean=");
    out.append_double17(a.new_mean);
    out.append(" prev_stddev=");
    out.append_double17(a.previous_stddev);
  }
}

alerts_reply decode_alerts_reply(std::string_view frame) {
  std::string_view header;
  frame_cursor lines(frame, header);
  token_cursor c{header};
  expect_tag(c, "ALERTS", header);
  const std::uint64_t n = parse_frame_count(c, "ALERTS", max_alert_batch);
  alerts_reply m;
  enum : unsigned { f_next = 1u << 0, f_dropped = 1u << 1 };
  unsigned seen = 0;
  while (const auto tok = c.next()) {
    const kv f = split_kv(*tok);
    if (f.key == "next") {
      mark_seen(seen, f_next, f.key);
      m.next_seq = parse_u64(f.value, f.key);
    } else if (f.key == "dropped") {
      mark_seen(seen, f_dropped, f.key);
      m.dropped = parse_u64(f.value, f.key);
    }
  }
  require_seen(seen, f_next, "next");
  require_seen(seen, f_dropped, "dropped");
  m.alerts.reserve(static_cast<std::size_t>(n));
  while (const auto line = lines.next()) {
    if (m.alerts.size() == n) {
      throw std::invalid_argument("ALERTS count mismatch: header says " +
                                  std::to_string(n) + ", payload has more");
    }
    token_cursor ac{*line};
    expect_tag(ac, "ALERT", *line);
    enum : unsigned {
      a_seq = 1u << 0,
      a_zone = 1u << 1,
      a_net = 1u << 2,
      a_metric = 1u << 3,
      a_epoch = 1u << 4,
      a_prev_mean = 1u << 5,
      a_new_mean = 1u << 6,
      a_prev_stddev = 1u << 7,
    };
    alert_event a;
    unsigned aseen = 0;
    while (const auto tok = ac.next()) {
      const kv f = split_kv(*tok);
      if (f.key == "seq") {
        mark_seen(aseen, a_seq, f.key);
        a.seq = parse_u64(f.value, f.key);
      } else if (f.key == "zone") {
        mark_seen(aseen, a_zone, f.key);
        a.zone = parse_zone(f.value, f.key);
      } else if (f.key == "net") {
        mark_seen(aseen, a_net, f.key);
        a.network.assign(f.value);
      } else if (f.key == "metric") {
        mark_seen(aseen, a_metric, f.key);
        a.metric = trace::metric_from_string(f.value);
      } else if (f.key == "epoch_start_s") {
        mark_seen(aseen, a_epoch, f.key);
        a.epoch_start_s = parse_double(f.value, f.key);
      } else if (f.key == "prev_mean") {
        mark_seen(aseen, a_prev_mean, f.key);
        a.previous_mean = parse_double(f.value, f.key);
      } else if (f.key == "new_mean") {
        mark_seen(aseen, a_new_mean, f.key);
        a.new_mean = parse_double(f.value, f.key);
      } else if (f.key == "prev_stddev") {
        mark_seen(aseen, a_prev_stddev, f.key);
        a.previous_stddev = parse_double(f.value, f.key);
      }
    }
    require_seen(aseen, a_seq, "seq");
    require_seen(aseen, a_zone, "zone");
    require_seen(aseen, a_net, "net");
    require_seen(aseen, a_metric, "metric");
    require_seen(aseen, a_epoch, "epoch_start_s");
    require_seen(aseen, a_prev_mean, "prev_mean");
    require_seen(aseen, a_new_mean, "new_mean");
    require_seen(aseen, a_prev_stddev, "prev_stddev");
    m.alerts.push_back(std::move(a));
  }
  if (m.alerts.size() != n) {
    throw std::invalid_argument("ALERTS count mismatch: header says " +
                                std::to_string(n) + ", got " +
                                std::to_string(m.alerts.size()) + " alerts");
  }
  return m;
}

}  // namespace wiscape::proto
