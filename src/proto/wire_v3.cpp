#include "proto/wire_v3.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace wiscape::proto::v3 {

namespace {

// ---- byte-level writers ---------------------------------------------------
// Little-endian, endianness-independent (byte shifts, no reinterpret_cast of
// the output buffer). All append to the reply_buffer's byte store.

void put_u8(reply_buffer& out, std::uint8_t v) {
  out.append(static_cast<char>(v));
}

void put_u16(reply_buffer& out, std::uint16_t v) {
  char b[2] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  out.append(std::string_view(b, 2));
}

// Store in place and return the byte past the value.
char* store_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return p + 4;
}

char* store_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return p + 8;
}

void put_u32(reply_buffer& out, std::uint32_t v) {
  char b[4];
  store_u32(b, v);
  out.append(std::string_view(b, 4));
}

void put_u64(reply_buffer& out, std::uint64_t v) {
  char b[8];
  store_u64(b, v);
  out.append(std::string_view(b, 8));
}

void put_i32(reply_buffer& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

// Doubles travel as their raw IEEE-754 bits: bit-exact round trips, no
// decimal rendering anywhere on the v3 path.
void put_f64(reply_buffer& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str16(reply_buffer& out, std::string_view s) {
  const std::size_t n = std::min<std::size_t>(s.size(), 0xffff);
  put_u16(out, static_cast<std::uint16_t>(n));
  out.append(s.substr(0, n));
}

/// Opens a frame: appends the header with a zero length placeholder and
/// returns the frame's start offset for end_frame to patch.
std::size_t begin_frame(reply_buffer& out, opcode op) {
  const std::size_t at = out.size();
  put_u8(out, frame_magic);
  put_u8(out, static_cast<std::uint8_t>(op));
  put_u32(out, 0);
  return at;
}

/// Closes the frame opened at `at`: patches the real payload length into
/// the header (the payload is whatever was appended since begin_frame).
void end_frame(reply_buffer& out, std::size_t at) {
  const std::size_t len = out.size() - at - frame_header_bytes;
  store_u32(out.storage().data() + at + 2, static_cast<std::uint32_t>(len));
}

// ---- byte-level reader ----------------------------------------------------
// A bounds-checked cursor over one frame's payload. Every read validates
// the remaining bytes first and throws std::invalid_argument naming the
// field -- an off-by-one in a hostile frame surfaces as ERR parse, never as
// a read past the buffer.

struct reader {
  std::string_view buf;
  std::size_t pos = 0;

  std::size_t left() const noexcept { return buf.size() - pos; }
  bool done() const noexcept { return pos == buf.size(); }

  [[noreturn]] static void underrun(const char* what) {
    throw std::invalid_argument(std::string("binary frame truncated at ") +
                                what);
  }

  /// One bounds check covering the next `n` bytes. The _raw loads below
  /// skip their per-field check; callers must have reserved the span here
  /// first, which turns a fixed-width struct prefix into a single branch
  /// followed by straight-line loads.
  void need(std::size_t n, const char* what) const {
    if (left() < n) underrun(what);
  }

  template <typename T>
  T load_le() noexcept {
    T v;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, buf.data() + pos, sizeof(T));
    } else {
      v = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v = static_cast<T>(
            v | static_cast<T>(static_cast<unsigned char>(buf[pos + i]))
                    << (8 * i));
      }
    }
    pos += sizeof(T);
    return v;
  }

  std::uint8_t u8_raw() noexcept {
    return static_cast<std::uint8_t>(buf[pos++]);
  }
  std::uint64_t u64_raw() noexcept { return load_le<std::uint64_t>(); }
  std::int32_t i32_raw() noexcept {
    return static_cast<std::int32_t>(load_le<std::uint32_t>());
  }
  double f64_raw() noexcept {
    return std::bit_cast<double>(load_le<std::uint64_t>());
  }

  std::uint8_t u8(const char* what) {
    need(1, what);
    return u8_raw();
  }
  std::uint16_t u16(const char* what) {
    need(2, what);
    return load_le<std::uint16_t>();
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    return load_le<std::uint32_t>();
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    return u64_raw();
  }
  std::int32_t i32(const char* what) {
    return static_cast<std::int32_t>(u32(what));
  }
  double f64(const char* what) { return std::bit_cast<double>(u64(what)); }
  std::string_view str16(const char* what) {
    const std::uint16_t n = u16(what);
    if (left() < n) underrun(what);
    const std::string_view s = buf.substr(pos, n);
    pos += n;
    return s;
  }
};

/// Validates the frame envelope and returns the payload: the magic and
/// opcode must match, and the declared length must equal the bytes present.
std::string_view payload_of(std::string_view frame, opcode expect) {
  const auto h = peek_header(frame);
  if (!h) {
    throw std::invalid_argument("not a binary v3 frame");
  }
  if (h->op != expect) {
    throw std::invalid_argument(
        std::string("unexpected frame opcode: have ") + opcode_name(h->op) +
        ", want " + opcode_name(expect));
  }
  if (frame.size() != frame_header_bytes + h->payload_len) {
    throw std::invalid_argument(
        "frame length mismatch: declared " + std::to_string(h->payload_len) +
        " payload bytes, have " +
        std::to_string(frame.size() - frame_header_bytes));
  }
  return frame.substr(frame_header_bytes);
}

void require_done(const reader& r) {
  if (!r.done()) {
    throw std::invalid_argument("trailing bytes after binary frame payload");
  }
}

// ---- record / query / estimate element codecs -----------------------------
// The fixed-width prefix of a record is 90 bytes; with the two u16 string
// length prefixes the minimum wire size per record is 94 bytes. Batch
// decoders check the declared count against these minima and the actual
// payload size before reserving anything.
constexpr std::size_t record_fixed_bytes = 90;
constexpr std::size_t query_fixed_bytes = 25;
constexpr std::size_t est_fixed_bytes = 57;  // after the presence flag
constexpr std::size_t min_record_bytes = record_fixed_bytes + 4;
constexpr std::size_t min_query_bytes = query_fixed_bytes + 2;
constexpr std::size_t min_est_bytes = 1;  // presence flag 0 (text NONE)

void put_record(reply_buffer& out, const trace::measurement_record& r) {
  put_f64(out, r.time_s);
  put_f64(out, r.pos.lat_deg);
  put_f64(out, r.pos.lon_deg);
  put_f64(out, r.speed_mps);
  put_u64(out, r.client_id);
  put_u8(out, static_cast<std::uint8_t>(r.kind));
  put_u8(out, r.success ? 1 : 0);
  put_f64(out, r.throughput_bps);
  put_f64(out, r.loss_rate);
  put_f64(out, r.jitter_s);
  put_f64(out, r.rtt_s);
  put_i32(out, r.ping_sent);
  put_i32(out, r.ping_failures);
  put_f64(out, r.rssi_dbm);
  put_str16(out, r.network);
  put_str16(out, r.device);
}

void get_record(reader& r, trace::measurement_record& rec) {
  // This is the REPORTB ingest hot path: one bounds check covers the whole
  // fixed-width prefix, then the loads run unchecked (the two trailing
  // strings keep their own checks because their lengths come off the wire).
  r.need(record_fixed_bytes, "record fixed fields");
  rec.time_s = r.f64_raw();
  rec.pos.lat_deg = r.f64_raw();
  rec.pos.lon_deg = r.f64_raw();
  rec.speed_mps = r.f64_raw();
  rec.client_id = r.u64_raw();
  const std::uint8_t kind = r.u8_raw();
  if (kind > static_cast<std::uint8_t>(trace::probe_kind::udp_uplink)) {
    throw std::invalid_argument("bad probe kind byte " + std::to_string(kind));
  }
  rec.kind = static_cast<trace::probe_kind>(kind);
  const std::uint8_t success = r.u8_raw();
  if (success > 1) {
    throw std::invalid_argument("bad success byte " + std::to_string(success));
  }
  rec.success = success == 1;
  rec.throughput_bps = r.f64_raw();
  rec.loss_rate = r.f64_raw();
  rec.jitter_s = r.f64_raw();
  rec.rtt_s = r.f64_raw();
  rec.ping_sent = r.i32_raw();
  rec.ping_failures = r.i32_raw();
  rec.rssi_dbm = r.f64_raw();
  // The interned id is never shipped: like the text path, it is resolved
  // server-side at the wire boundary against the coordinator's own interner.
  rec.network_id = trace::no_network_id;
  rec.network = r.str16("record.network");
  rec.device = r.str16("record.device");
}

void put_query(reply_buffer& out, const query_request& q) {
  put_f64(out, q.pos.lat_deg);
  put_f64(out, q.pos.lon_deg);
  put_u8(out, static_cast<std::uint8_t>(q.metric));
  put_f64(out, q.time_s);
  put_str16(out, q.network);
}

void get_query(reader& r, query_request& q) {
  r.need(query_fixed_bytes, "query fixed fields");
  q.pos.lat_deg = r.f64_raw();
  q.pos.lon_deg = r.f64_raw();
  const std::uint8_t metric = r.u8_raw();
  if (metric > static_cast<std::uint8_t>(trace::metric::uplink_throughput_bps)) {
    throw std::invalid_argument("bad metric byte " + std::to_string(metric));
  }
  q.metric = static_cast<trace::metric>(metric);
  q.time_s = r.f64_raw();
  q.network = r.str16("query.network");
}

// One present estimate element, sized once and stored in place: the QUERYB
// reply's per-lookup cost, so no per-field append.
void put_estimate(reply_buffer& out, const geo::zone_id& zone,
                  trace::metric metric, std::uint64_t count, double mean,
                  double stddev, std::uint64_t epoch_index, double staleness_s,
                  double confidence, std::string_view network) {
  const std::size_t name = std::min<std::size_t>(network.size(), 0xffff);
  std::string& b = out.storage();
  const std::size_t at = b.size();
  b.resize(at + 1 + est_fixed_bytes + 2 + name);
  char* p = b.data() + at;
  *p++ = 1;
  p = store_u32(p, static_cast<std::uint32_t>(zone.ix));
  p = store_u32(p, static_cast<std::uint32_t>(zone.iy));
  *p++ = static_cast<char>(metric);
  p = store_u64(p, count);
  p = store_u64(p, std::bit_cast<std::uint64_t>(mean));
  p = store_u64(p, std::bit_cast<std::uint64_t>(stddev));
  p = store_u64(p, epoch_index);
  p = store_u64(p, std::bit_cast<std::uint64_t>(staleness_s));
  p = store_u64(p, std::bit_cast<std::uint64_t>(confidence));
  *p++ = static_cast<char>(name & 0xff);
  *p++ = static_cast<char>(name >> 8);
  std::memcpy(p, network.data(), name);
}

void put_estimate(reply_buffer& out, const std::optional<estimate_reply>& rep) {
  if (!rep) {
    put_u8(out, 0);  // the text NONE reply, as a presence flag
    return;
  }
  put_estimate(out, rep->zone, rep->metric, rep->count, rep->mean,
               rep->stddev, rep->epoch_index, rep->staleness_s,
               rep->confidence, rep->network);
}

void put_estimate(reply_buffer& out, const core::stream_lookup& l,
                  std::string_view network) {
  if (!l.found) {
    put_u8(out, 0);
    return;
  }
  put_estimate(out, l.zone, l.metric, l.est.count, l.est.mean, l.est.stddev,
               l.est.epoch_index, l.est.staleness_s, l.est.confidence,
               network);
}

std::optional<estimate_reply> get_estimate(reader& r) {
  const std::uint8_t present = r.u8("est.present");
  if (present == 0) return std::nullopt;
  if (present != 1) {
    throw std::invalid_argument("bad estimate presence byte " +
                                std::to_string(present));
  }
  estimate_reply rep;
  r.need(est_fixed_bytes, "est fixed fields");
  rep.zone.ix = r.i32_raw();
  rep.zone.iy = r.i32_raw();
  const std::uint8_t metric = r.u8_raw();
  if (metric > static_cast<std::uint8_t>(trace::metric::uplink_throughput_bps)) {
    throw std::invalid_argument("bad metric byte " + std::to_string(metric));
  }
  rep.metric = static_cast<trace::metric>(metric);
  rep.count = r.u64_raw();
  rep.mean = r.f64_raw();
  rep.stddev = r.f64_raw();
  rep.epoch_index = r.u64_raw();
  rep.staleness_s = r.f64_raw();
  rep.confidence = r.f64_raw();
  rep.network = r.str16("est.network");
  return rep;
}

// One epoch_update's fixed-width prefix (seq + zone + metric + estimate);
// the trailing str16 network adds at least its 2-byte length prefix.
constexpr std::size_t epoch_fixed_bytes = 49;
constexpr std::size_t min_epoch_bytes = epoch_fixed_bytes + 2;

void put_epoch(reply_buffer& out, const epoch_update& u) {
  put_u64(out, u.seq);
  put_i32(out, u.zone.ix);
  put_i32(out, u.zone.iy);
  put_u8(out, static_cast<std::uint8_t>(u.metric));
  put_f64(out, u.epoch_start_s);
  put_f64(out, u.mean);
  put_f64(out, u.stddev);
  put_u64(out, u.samples);
  put_str16(out, u.network);
}

void get_epoch(reader& r, epoch_update& u) {
  r.need(epoch_fixed_bytes, "epoch fixed fields");
  u.seq = r.u64_raw();
  u.zone.ix = r.i32_raw();
  u.zone.iy = r.i32_raw();
  const std::uint8_t metric = r.u8_raw();
  if (metric > static_cast<std::uint8_t>(trace::metric::uplink_throughput_bps)) {
    throw std::invalid_argument("bad metric byte " + std::to_string(metric));
  }
  u.metric = static_cast<trace::metric>(metric);
  u.epoch_start_s = r.f64_raw();
  u.mean = r.f64_raw();
  u.stddev = r.f64_raw();
  u.samples = r.u64_raw();
  u.network = r.str16("epoch.network");
}

/// Rejects a batch count before any allocation: over the protocol cap, or
/// impossibly large for the bytes actually present (every element costs at
/// least `min_bytes` on the wire).
void check_count(std::uint32_t n, std::size_t cap, std::size_t min_bytes,
                 std::size_t payload_left, const char* what) {
  if (n > cap) {
    throw std::invalid_argument(std::string(what) + " count " +
                                std::to_string(n) + " exceeds cap " +
                                std::to_string(cap));
  }
  if (static_cast<std::uint64_t>(n) * min_bytes > payload_left) {
    throw std::invalid_argument(std::string(what) + " count " +
                                std::to_string(n) +
                                " inconsistent with payload size");
  }
}

}  // namespace

const char* opcode_name(opcode op) noexcept {
  switch (op) {
    case opcode::report:
      return "report";
    case opcode::reportb:
      return "reportb";
    case opcode::query:
      return "query";
    case opcode::queryb:
      return "queryb";
    case opcode::ack:
      return "ack";
    case opcode::est:
      return "est";
    case opcode::estb:
      return "estb";
    case opcode::err:
      return "err";
    case opcode::epoch:
      return "epoch";
    case opcode::epochb:
      return "epochb";
    case opcode::snapshot_req:
      return "snapshot_req";
    case opcode::snapshot_chunk:
      return "snapshot_chunk";
    case opcode::promote:
      return "promote";
  }
  return "unknown";
}

std::optional<frame_header> peek_header(std::string_view data) noexcept {
  if (data.size() < frame_header_bytes || !is_frame_start(data)) {
    return std::nullopt;
  }
  const auto op = static_cast<std::uint8_t>(data[1]);
  if (!opcode_valid(op)) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(data[2 + i]))
           << (8 * i);
  }
  return frame_header{static_cast<opcode>(op), len};
}

// ---- encoders -------------------------------------------------------------

void encode_report_frame(const measurement_report& m, reply_buffer& out) {
  const std::size_t at = begin_frame(out, opcode::report);
  put_u64(out, m.client_id);
  put_record(out, m.record);
  end_frame(out, at);
}

void encode_report_batch_frame(std::span<const trace::measurement_record> recs,
                               reply_buffer& out) {
  const std::size_t at = begin_frame(out, opcode::reportb);
  put_u32(out, static_cast<std::uint32_t>(recs.size()));
  for (const auto& r : recs) put_record(out, r);
  end_frame(out, at);
}

void encode_query_frame(const query_request& q, reply_buffer& out) {
  const std::size_t at = begin_frame(out, opcode::query);
  put_query(out, q);
  end_frame(out, at);
}

void encode_query_batch_frame(std::span<const query_request> qs,
                              reply_buffer& out) {
  const std::size_t at = begin_frame(out, opcode::queryb);
  put_u32(out, static_cast<std::uint32_t>(qs.size()));
  for (const auto& q : qs) put_query(out, q);
  end_frame(out, at);
}

void encode_ack_frame(reply_buffer& out) {
  const std::size_t at = begin_frame(out, opcode::ack);
  put_u8(out, 0);
  put_u64(out, 0);
  end_frame(out, at);
}

void encode_ack_frame(std::uint64_t count, reply_buffer& out) {
  const std::size_t at = begin_frame(out, opcode::ack);
  put_u8(out, 1);
  put_u64(out, count);
  end_frame(out, at);
}

void encode_estimate_frame(const std::optional<estimate_reply>& rep,
                           reply_buffer& out) {
  const std::size_t at = begin_frame(out, opcode::est);
  put_estimate(out, rep);
  end_frame(out, at);
}

void encode_estimate_frame(const core::stream_lookup& l,
                           std::string_view network, reply_buffer& out) {
  const std::size_t at = begin_frame(out, opcode::est);
  put_estimate(out, l, network);
  end_frame(out, at);
}

estimate_batch_builder::estimate_batch_builder(std::uint32_t count,
                                               reply_buffer& out)
    : out_(&out), at_(begin_frame(out, opcode::estb)) {
  put_u32(out, count);
}

void estimate_batch_builder::add(const std::optional<estimate_reply>& rep) {
  put_estimate(*out_, rep);
}

void estimate_batch_builder::add(const core::stream_lookup& l,
                                 std::string_view network) {
  put_estimate(*out_, l, network);
}

void estimate_batch_builder::finish() { end_frame(*out_, at_); }

void encode_error_frame(err_code code, std::string_view detail,
                        reply_buffer& out) {
  const std::size_t at = begin_frame(out, opcode::err);
  put_u8(out, static_cast<std::uint8_t>(code));
  // Same clip as the text encoder (error_excerpt's 120-byte cap): a hostile
  // frame is never echoed at length.
  constexpr std::size_t max_detail = 120;
  if (detail.size() <= max_detail) {
    put_str16(out, detail);
  } else {
    put_u16(out, static_cast<std::uint16_t>(max_detail + 3));
    out.append(detail.substr(0, max_detail));
    out.append("...");
  }
  end_frame(out, at);
}

void encode_epoch_pull_frame(const epoch_pull& p, reply_buffer& out) {
  const std::size_t at = begin_frame(out, opcode::epoch);
  put_u64(out, p.since_seq);
  put_u32(out, p.max_records);
  end_frame(out, at);
}

void encode_epoch_batch_frame(std::span<const epoch_update> updates,
                              reply_buffer& out) {
  const std::size_t at = begin_frame(out, opcode::epochb);
  put_u32(out, static_cast<std::uint32_t>(updates.size()));
  for (const auto& u : updates) put_epoch(out, u);
  end_frame(out, at);
}

void encode_snapshot_req_frame(std::uint64_t offset, reply_buffer& out) {
  const std::size_t at = begin_frame(out, opcode::snapshot_req);
  put_u64(out, offset);
  end_frame(out, at);
}

void encode_snapshot_chunk_frame(std::uint64_t offset, std::uint64_t total,
                                 bool last, std::string_view data,
                                 reply_buffer& out) {
  const std::size_t at = begin_frame(out, opcode::snapshot_chunk);
  put_u64(out, offset);
  put_u64(out, total);
  put_u8(out, last ? 1 : 0);
  put_u32(out, static_cast<std::uint32_t>(data.size()));
  out.append(data);
  end_frame(out, at);
}

void encode_promote_frame(reply_buffer& out) {
  const std::size_t at = begin_frame(out, opcode::promote);
  end_frame(out, at);
}

std::string encode_report_batch_frame(
    std::span<const trace::measurement_record> recs) {
  reply_buffer out;
  encode_report_batch_frame(recs, out);
  return std::string(out.view());
}

std::string encode_query_frame(const query_request& q) {
  reply_buffer out;
  encode_query_frame(q, out);
  return std::string(out.view());
}

std::string encode_query_batch_frame(std::span<const query_request> qs) {
  reply_buffer out;
  encode_query_batch_frame(qs, out);
  return std::string(out.view());
}

std::string encode_epoch_pull_frame(const epoch_pull& p) {
  reply_buffer out;
  encode_epoch_pull_frame(p, out);
  return std::string(out.view());
}

// ---- decoders -------------------------------------------------------------

measurement_report decode_report_frame(std::string_view frame) {
  reader r{payload_of(frame, opcode::report)};
  measurement_report m;
  m.client_id = r.u64("report.client_id");
  get_record(r, m.record);
  require_done(r);
  return m;
}

void decode_report_batch_frame_into(
    std::string_view frame, std::vector<trace::measurement_record>& out) {
  reader r{payload_of(frame, opcode::reportb)};
  const std::uint32_t n = r.u32("reportb.count");
  check_count(n, max_report_batch, min_record_bytes, r.left(), "reportb");
  out.clear();
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.emplace_back();
    get_record(r, out.back());
  }
  require_done(r);
}

query_request decode_query_frame(std::string_view frame) {
  reader r{payload_of(frame, opcode::query)};
  query_request q;
  get_query(r, q);
  require_done(r);
  return q;
}

void decode_query_batch_frame_into(std::string_view frame,
                                   std::vector<query_request>& out) {
  reader r{payload_of(frame, opcode::queryb)};
  const std::uint32_t n = r.u32("queryb.count");
  check_count(n, max_query_batch, min_query_bytes, r.left(), "queryb");
  out.clear();
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.emplace_back();
    get_query(r, out.back());
  }
  require_done(r);
}

ack_frame decode_ack_frame(std::string_view frame) {
  reader r{payload_of(frame, opcode::ack)};
  ack_frame a;
  const std::uint8_t batched = r.u8("ack.batched");
  if (batched > 1) {
    throw std::invalid_argument("bad ack batch flag " + std::to_string(batched));
  }
  a.batched = batched == 1;
  a.count = r.u64("ack.count");
  require_done(r);
  return a;
}

std::optional<estimate_reply> decode_estimate_frame(std::string_view frame) {
  reader r{payload_of(frame, opcode::est)};
  auto rep = get_estimate(r);
  require_done(r);
  return rep;
}

std::vector<std::optional<estimate_reply>> decode_estimate_batch_frame(
    std::string_view frame) {
  reader r{payload_of(frame, opcode::estb)};
  const std::uint32_t n = r.u32("estb.count");
  check_count(n, max_query_batch, min_est_bytes, r.left(), "estb");
  std::vector<std::optional<estimate_reply>> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(get_estimate(r));
  require_done(r);
  return out;
}

epoch_pull decode_epoch_pull_frame(std::string_view frame) {
  reader r{payload_of(frame, opcode::epoch)};
  epoch_pull p;
  p.since_seq = r.u64("epoch.since_seq");
  p.max_records = r.u32("epoch.max_records");
  require_done(r);
  return p;
}

void decode_epoch_batch_frame_into(std::string_view frame,
                                   std::vector<epoch_update>& out) {
  reader r{payload_of(frame, opcode::epochb)};
  const std::uint32_t n = r.u32("epochb.count");
  check_count(n, max_epoch_batch, min_epoch_bytes, r.left(), "epochb");
  out.clear();
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.emplace_back();
    get_epoch(r, out.back());
  }
  require_done(r);
}

std::uint64_t decode_snapshot_req_frame(std::string_view frame) {
  reader r{payload_of(frame, opcode::snapshot_req)};
  const std::uint64_t offset = r.u64("snapshot_req.offset");
  require_done(r);
  return offset;
}

snapshot_chunk decode_snapshot_chunk_frame(std::string_view frame) {
  reader r{payload_of(frame, opcode::snapshot_chunk)};
  snapshot_chunk c;
  c.offset = r.u64("snapshot_chunk.offset");
  c.total = r.u64("snapshot_chunk.total");
  const std::uint8_t last = r.u8("snapshot_chunk.last");
  if (last > 1) {
    throw std::invalid_argument("bad snapshot_chunk last flag " +
                                std::to_string(last));
  }
  c.last = last == 1;
  const std::uint32_t len = r.u32("snapshot_chunk.len");
  if (len > max_snapshot_chunk) {
    throw std::invalid_argument("snapshot chunk length " +
                                std::to_string(len) + " exceeds cap " +
                                std::to_string(max_snapshot_chunk));
  }
  r.need(len, "snapshot_chunk.data");
  c.data = r.buf.substr(r.pos, len);
  r.pos += len;
  require_done(r);
  return c;
}

void decode_promote_frame(std::string_view frame) {
  reader r{payload_of(frame, opcode::promote)};
  require_done(r);
}

error_frame decode_error_frame(std::string_view frame) {
  reader r{payload_of(frame, opcode::err)};
  error_frame e;
  const std::uint8_t code = r.u8("err.code");
  if (code > static_cast<std::uint8_t>(err_code::overload)) {
    throw std::invalid_argument("bad err code byte " + std::to_string(code));
  }
  e.code = static_cast<err_code>(code);
  e.detail = std::string(r.str16("err.detail"));
  require_done(r);
  return e;
}

}  // namespace wiscape::proto::v3
