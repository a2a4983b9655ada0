// Wire messages between client user agents and the measurement coordinator
// (paper Sec 3.4: "a simple user agent in each client device ... a
// measurement coordinator, deployed by the operator or by third-party
// users, will manage the entire measurement process").
//
// The format is a single text line per message -- `TYPE k=v k=v ...` --
// chosen for the same reasons as the CSV trace format: transport-agnostic,
// greppable, and trivially replaceable by real field software. Encoding
// never fails (oversized fields grow the output, never truncate it);
// decoding throws std::invalid_argument with a reason.
//
// Decoding is a zero-allocation fast path: lines are walked as
// std::string_view tokens and numbers parsed with std::from_chars -- no
// istringstream, no key/value map, no locale, no heap traffic on the happy
// path (only the std::string members of the decoded structs may allocate,
// and short names stay in SSO). Error reasons (the cold path) allocate and
// echo at most a clipped excerpt of the offending input.
//
// Protocol v2 (normative spec: docs/WIRE_PROTOCOL.md). Request types:
//   write side -- CHECKIN (task request), REPORT (completed measurement),
//   REPORTB (batched reports: "REPORTB <n>" header + n CSV record lines);
//   read side  -- QUERY (estimate lookup), QUERYB (batched lookups,
//   mirroring the REPORTB frame discipline), ALERTS (incremental change-
//   alert drain), HELLO (version negotiation), STATS (metrics dump).
// Reply types: TASK, IDLE, ACK, EST, NONE, the multi-line ESTB / ALERTS /
// STATS frames, HELLO, and ERR (typed: "ERR <code> <detail>" with a stable
// code token -- see err_code). All functions here are stateless and
// thread-safe.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimate_view.h"
#include "geo/lat_lon.h"
#include "geo/zone_grid.h"
#include "trace/record.h"

namespace wiscape::proto {

/// Client -> coordinator: periodic zone report / task request.
struct checkin_request {
  std::uint64_t client_id = 0;       ///< 0 = anonymous (never budget-capped)
  geo::lat_lon pos;                  ///< client position (degrees)
  double time_s = 0.0;               ///< client clock, seconds since epoch 0
  std::uint32_t network_index = 0;   ///< operator the client can probe
  std::uint32_t active_in_zone = 1;  ///< peers the client estimates nearby
  std::string device = "laptop";     ///< device category (probe profiles)
};

/// Coordinator -> client: a measurement instruction (absent = stay idle).
struct task_assignment {
  trace::probe_kind kind = trace::probe_kind::udp_burst;
  std::uint32_t network_index = 0;
  /// Probe sizing knobs; 0 = client default.
  std::uint64_t tcp_bytes = 0;
  std::uint32_t udp_packets = 0;
  std::uint32_t ping_count = 0;
};

/// Client -> coordinator: a completed measurement.
struct measurement_report {
  std::uint64_t client_id = 0;      ///< reporting device (0 = anonymous)
  trace::measurement_record record; ///< the full Table 1 record (CSV payload)
};

/// Hard cap on the record count of one REPORTB frame; larger counts are
/// rejected before any payload is decoded (a hostile header cannot force a
/// huge allocation).
inline constexpr std::size_t max_report_batch = 65536;

// ---- protocol versioning --------------------------------------------------

/// The protocol version this build speaks. v1: CHECKIN/REPORT/REPORTB/
/// STATS. v2 adds the read side (QUERY/QUERYB/ALERTS/HELLO) and typed ERR
/// codes. v3 adds the length-prefixed binary framing for the hot commands
/// (proto/wire_v3.h); the text forms remain valid on every version.
inline constexpr std::uint32_t wire_version = 3;
/// Oldest client version this build still serves (v1 clients never send
/// read-side commands, and every v1 reply shape is unchanged).
inline constexpr std::uint32_t wire_min_version = 1;

/// Client -> coordinator: version negotiation ("HELLO ver=<n>").
struct hello_request {
  std::uint32_t version = wire_version;  ///< highest version the client speaks
};

/// Coordinator -> client: "HELLO ver=<negotiated> min=<min>". `version` is
/// min(client version, wire_version) -- the version both sides speak.
struct hello_reply {
  std::uint32_t version = wire_version;
  std::uint32_t min_version = wire_min_version;
};

// ---- read-side messages ---------------------------------------------------

/// Client -> coordinator: estimate lookup ("QUERY lat=.. lon=.. net=..
/// metric=.. [t=..]"). The server maps the position to its zone grid; `t`
/// (the client clock) is optional and only prices the reply's staleness.
struct query_request {
  geo::lat_lon pos;
  std::string network;
  trace::metric metric = trace::metric::tcp_throughput_bps;
  double time_s = -1.0;  ///< <0 = not provided (staleness unknown)
};

/// Coordinator -> client: one served estimate ("EST zone=<ix>:<iy> ...").
/// A stream with no published estimate answers "NONE" instead.
struct estimate_reply {
  geo::zone_id zone;
  std::string network;
  trace::metric metric = trace::metric::tcp_throughput_bps;
  std::uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  std::uint64_t epoch_index = 0;
  double staleness_s = -1.0;  ///< -1 = unknown (query carried no t)
  double confidence = 0.0;
};

/// One replicated frozen epoch (ISSUE 10): the leader log's sequence
/// number (the follower's dedup key) plus the (zone, network, metric)
/// stream key and the published estimate. Travels in v3 EPOCHB frames with
/// doubles as raw IEEE bits, so a follower's applied state is bit-equal to
/// the leader's. Lives here (not wire_v3.h) because reply_buffer stages
/// decode scratch of it.
struct epoch_update {
  std::uint64_t seq = 0;
  geo::zone_id zone;
  std::string network;
  trace::metric metric = trace::metric::tcp_throughput_bps;
  double epoch_start_s = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  std::uint64_t samples = 0;
};

/// Client -> coordinator: incremental alert drain ("ALERTS since=<seq>
/// [max=<n>]").
struct alerts_request {
  std::uint64_t since = 0;  ///< drain alerts with sequence > since
  std::uint32_t max = 256;  ///< at most this many per reply frame
};

/// One change alert in an ALERTS reply frame.
struct alert_event {
  std::uint64_t seq = 0;
  geo::zone_id zone;
  std::string network;
  trace::metric metric = trace::metric::tcp_throughput_bps;
  double epoch_start_s = 0.0;
  double previous_mean = 0.0;
  double new_mean = 0.0;
  double previous_stddev = 0.0;
};

/// Coordinator -> client: "ALERTS <n> next=<seq> dropped=<d>" header + n
/// ALERT lines. Feed next_seq back as the next request's `since`.
struct alerts_reply {
  std::vector<alert_event> alerts;
  std::uint64_t next_seq = 0;
  std::uint64_t dropped = 0;
};

/// Hard cap on the lookup count of one QUERYB frame (same discipline as
/// max_report_batch: rejected before any payload decode or allocation).
inline constexpr std::size_t max_query_batch = 4096;

/// Hard cap on the alert count of one ALERTS reply frame: the server clamps
/// alerts_request::max to this, and decode_alerts_reply rejects larger
/// headers before allocating.
inline constexpr std::size_t max_alert_batch = 4096;

// ---- error codes ----------------------------------------------------------

/// Stable machine-readable ERR categories, serialized as "ERR <code>
/// <detail>". Codes are append-only wire surface: clients switch on the
/// token, the detail is for humans and capped at 120 bytes.
enum class err_code {
  parse,        ///< request line/frame failed to decode
  unsupported,  ///< syntactically valid line of an unknown type
  stopped,      ///< ingestion pipeline stopped; report refused
  version,      ///< HELLO version below wire_min_version
  internal,     ///< unexpected exception while handling (defense in depth)
  overload,     ///< transport shed the request under backpressure; retry
                ///< with backoff (the request was never dispatched)
};

/// The code's stable wire token ("parse", "unsupported", ...).
std::string_view to_string(err_code code) noexcept;
/// Parses a code token; nullopt for anything else (forward compatibility:
/// clients treat unknown codes as a generic error).
std::optional<err_code> err_code_from_string(std::string_view s) noexcept;

// ---- reply buffer ---------------------------------------------------------

class coordinator_server;

/// A growable reply arena for the zero-allocation encode path.
///
/// Every encode_*_into() function appends wire bytes here instead of
/// returning a std::string, so a caller that reuses one reply_buffer per
/// connection pays no heap traffic per reply in steady state: the byte
/// storage and the decode scratch vectors keep their capacity across
/// clear() calls, and the typed append helpers (std::to_chars under the
/// hood) never touch the heap once the buffer has warmed up.
///
/// The buffer also carries coordinator_server's per-request scratch
/// (REPORTB records, QUERYB queries and their lookups, REPORT-group
/// bookkeeping), so one reply_buffer per session is the whole
/// per-connection arena. Not thread-safe; confine one buffer to one caller
/// at a time.
class reply_buffer {
 public:
  /// The encoded bytes (valid until the next mutating call).
  std::string_view view() const noexcept { return bytes_; }
  std::size_t size() const noexcept { return bytes_.size(); }
  /// Drops the bytes, keeping capacity (and the decode scratch) warm.
  void clear() noexcept { bytes_.clear(); }
  /// Truncates back to `n` bytes (n <= size()); encoders use this to
  /// replace a partially rendered reply with an ERR line.
  void truncate(std::size_t n) { bytes_.resize(n); }
  void reserve(std::size_t n) { bytes_.reserve(n); }

  void append(std::string_view s) { bytes_.append(s); }
  void append(char c) { bytes_.push_back(c); }
  /// Appends printf-rendered text (grows past 256 rendered bytes instead
  /// of truncating). Byte-identical to format_line-based encoders.
  void append_format(const char* fmt, ...)
      __attribute__((format(printf, 2, 3)));
  void append_u64(std::uint64_t v);
  void append_i32(std::int32_t v);
  void append_u32(std::uint32_t v);
  /// Appends `v` exactly as printf "%.17g" would render it, through the
  /// epoch-record codec's renderer (core::epoch_codec::put_double), so
  /// replies stay byte-identical to the historical snprintf encoders.
  void append_double17(double v);

  /// The underlying byte store, for encoders that interoperate with
  /// std::string& appenders (obs::append_value). Appending through it is
  /// equivalent to append().
  std::string& storage() noexcept { return bytes_; }

 private:
  friend class coordinator_server;

  std::string bytes_;
  // coordinator_server's per-request decode scratch, reused across
  // requests so REPORTB/QUERYB frames and REPORT groups decode without
  // per-frame vector allocations (element strings stay in SSO).
  std::vector<trace::measurement_record> records_scratch_;
  // Per-shard routing vectors handed to the sharded pipeline with
  // records_scratch_ (core::sharded_coordinator::shard_batches).
  std::vector<std::vector<trace::measurement_record>> routes_scratch_;
  std::vector<query_request> queries_scratch_;
  std::vector<core::stream_lookup> lookups_scratch_;  // positional with them
  std::vector<std::uint8_t> group_status_;
  std::vector<std::string> group_errors_;
  std::vector<epoch_update> epochs_scratch_;
};

// ---- codec ----------------------------------------------------------------
// encode() never fails; decode_*() throws std::invalid_argument naming the
// offending field. All codec functions are pure and thread-safe.

// The encode_into / decode_*_into flavours are the zero-allocation forms:
// they append to (or fill) caller-owned storage whose capacity survives
// across calls, and are byte-identical to their std::string counterparts
// (which are now thin wrappers). The hot server reply path uses only these.

/// Encodes a check-in as one "CHECKIN k=v ..." line.
std::string encode(const checkin_request& m);
/// Encodes a task as one "TASK k=v ..." line.
std::string encode(const task_assignment& m);
/// Appends the "TASK k=v ..." line to `out` (no trailing newline).
void encode_into(const task_assignment& m, reply_buffer& out);
/// Encodes a report as one "REPORT client=<id> csv=<record>" line.
std::string encode(const measurement_report& m);

/// Encodes a batch of records as one "REPORTB <n>" frame: a header line
/// followed by n CSV record payload lines ('\n'-separated, no trailing
/// newline). Each record carries its own client_id in the CSV schema, so no
/// per-record framing is needed.
std::string encode_report_batch(std::span<const trace::measurement_record> recs);

/// Encodes a version negotiation as one "HELLO ver=<n>" line.
std::string encode(const hello_request& m);
/// Encodes the negotiation answer as one "HELLO ver=<n> min=<n>" line.
std::string encode(const hello_reply& m);
/// Appends the "HELLO ver=<n> min=<n>" reply line to `out`.
void encode_into(const hello_reply& m, reply_buffer& out);

/// Encodes a lookup as one "QUERY k=v ..." line (t omitted when < 0).
std::string encode(const query_request& m);
/// Encodes a served estimate as one "EST k=v ..." line. mean/stddev are
/// rendered with round-trip precision (%.17g): what the client decodes is
/// bit-for-bit what the view served.
std::string encode(const estimate_reply& m);
/// Appends the "EST k=v ..." line to `out`: the zero-allocation form every
/// QUERY/QUERYB reply is rendered through (doubles via append_double17, so
/// the %.17g round-trip guarantee holds byte-for-byte).
void encode_into(const estimate_reply& m, reply_buffer& out);
/// The QUERY answer for one estimate_view::lookup_batch element, rendered
/// straight from the lookup with no estimate_reply staged: the EST line
/// (`network` is the queried name; the bytes equal encode_into of the
/// matching estimate_reply) or "NONE" on a miss. The server answers every
/// QUERY and QUERYB line through this.
void encode_into(const core::stream_lookup& l, std::string_view network,
                 reply_buffer& out);

/// Encodes a batch of lookups as one "QUERYB <n>" frame: a header line
/// followed by n QUERY payload lines (the k=v fields without the QUERY
/// tag), '\n'-separated, no trailing newline.
std::string encode_query_batch(std::span<const query_request> qs);

/// Encodes an alert drain request as one "ALERTS since=<n> max=<n>" line.
std::string encode(const alerts_request& m);
/// Encodes the drain answer as one "ALERTS <n> next=<seq> dropped=<d>"
/// frame: header + n "ALERT k=v ..." lines, oldest first.
std::string encode(const alerts_reply& m);
/// Appends the ALERTS reply frame to `out`.
void encode_into(const alerts_reply& m, reply_buffer& out);

/// The server's reply to a malformed or rejected request: appends the
/// "ERR <code> <detail>" line to `out` (detail clipped to 120 bytes, as
/// error_excerpt clips it) without heap traffic.
void encode_error_into(err_code code, std::string_view detail,
                       reply_buffer& out);

/// Clips `s` for inclusion in an error reason: at most `max_len` bytes plus
/// an ellipsis, so a multi-megabyte garbage line is never echoed verbatim.
std::string error_excerpt(std::string_view s, std::size_t max_len = 120);

/// Which side of an exchange a text frame header is read on.
enum class frame_side : std::uint8_t {
  request,  ///< REPORTB / QUERYB, read by the server's session
  reply,    ///< ESTB / ALERTS / STATS, read by a blocking client
};

/// frame_extra_lines' answer for a request header with a bad count.
inline constexpr std::size_t bad_frame_count = static_cast<std::size_t>(-1);

/// How many payload lines follow a text frame's first line on a stream
/// transport: the one "<TAG> <count>" rule both sides frame by. Lines
/// whose tag opens no multi-line frame on `side` answer 0.
///   request: "REPORTB <n>" and "QUERYB <n>" -> n. A missing or malformed
///            count, or one above max_report_batch / max_query_batch,
///            answers bad_frame_count: the session refuses the frame
///            rather than misread its payload lines as requests.
///   reply:   "ESTB <n>" and "STATS <n>" -> n, "ALERTS <n> next=..." -> n,
///            clamped to the frame caps above. A malformed header answers
///            0 (the caller's read loop resynchronises on the next reply).
/// Trailing bytes after the count are the decoder's business. Pure,
/// zero-allocation.
std::size_t frame_extra_lines(std::string_view header_line,
                              frame_side side) noexcept;

/// The message type tag at the start of a line ("CHECKIN", "TASK", "REPORT",
/// "REPORTB", "IDLE", "ACK", "ERR", "STATS", "QUERY", "QUERYB", "EST",
/// "ESTB", "NONE", "ALERTS", "ALERT", "HELLO"); empty for a malformed line.
/// The returned view aliases a static literal, never the input.
std::string_view message_type(std::string_view line);

/// Parses a CHECKIN line. Throws std::invalid_argument on any missing,
/// duplicate or malformed field (unknown keys are ignored).
checkin_request decode_checkin(std::string_view line);
/// Parses a TASK line. Throws std::invalid_argument on any missing,
/// duplicate or malformed field (unknown keys are ignored).
task_assignment decode_task(std::string_view line);
/// Parses a REPORT line. Throws std::invalid_argument on any missing or
/// malformed field (including the embedded CSV record).
measurement_report decode_report(std::string_view line);
/// Parses a REPORTB frame into caller-owned storage: `out` is cleared and
/// refilled, reusing its capacity across frames (the zero-allocation
/// steady-state form; record names stay in SSO). All-or-nothing: throws
/// std::invalid_argument when the header is malformed, the count disagrees
/// with the payload lines, the count exceeds max_report_batch, or any
/// payload line fails to decode. Payload lines tolerate a trailing '\r'
/// (telnet-framed batches), same as single-line requests.
void decode_report_batch_into(std::string_view frame,
                              std::vector<trace::measurement_record>& out);

/// Parses a "HELLO ver=<n>" request. Throws std::invalid_argument on a
/// missing/duplicate/malformed ver field.
hello_request decode_hello(std::string_view line);
/// Parses a "HELLO ver=<n> min=<n>" reply.
hello_reply decode_hello_reply(std::string_view line);

/// Parses a QUERY line. Throws std::invalid_argument on any missing,
/// duplicate or malformed field (t is optional; unknown keys are ignored).
query_request decode_query(std::string_view line);
/// Parses an EST reply line.
estimate_reply decode_estimate(std::string_view line);

/// Parses a QUERYB frame into caller-owned storage (cleared and refilled,
/// capacity reused). All-or-nothing, same discipline as
/// decode_report_batch_into: throws when the header is malformed, the
/// count disagrees with the payload lines or exceeds max_query_batch, or
/// any payload line fails to decode.
void decode_query_batch_into(std::string_view frame,
                             std::vector<query_request>& out);
/// Parses an ESTB reply frame into per-request results (nullopt for NONE
/// lines). All-or-nothing, same error discipline as decode_query_batch_into.
std::vector<std::optional<estimate_reply>> decode_estimate_batch(
    std::string_view frame);

/// Parses an "ALERTS since=<n> [max=<n>]" request.
alerts_request decode_alerts_request(std::string_view line);
/// Parses an "ALERTS <n> next=.. dropped=.." reply frame (header + n ALERT
/// lines). All-or-nothing.
alerts_reply decode_alerts_reply(std::string_view frame);

}  // namespace wiscape::proto
