// Wire protocol v3: length-prefixed binary frames for the hot commands.
//
// v2's text lines cost exactly what PR 8 left on the table: %.17g floats
// rendered and re-parsed on every exchange, from_chars per field, and a
// CRLF scan over every byte received. v3 removes all three for the
// commands that dominate traffic -- REPORT/REPORTB on the write side,
// QUERY/QUERYB on the read side, and their ACK/EST/ESTB/ERR replies --
// by shipping them as binary frames:
//
//   +--------+--------+----------------+=================+
//   | 0xB3   | opcode | payload length |  payload bytes  |
//   | 1 byte | u8     | u32 LE         |  (length bytes) |
//   +--------+--------+----------------+=================+
//
// All integers are little-endian fixed width; doubles travel as their raw
// IEEE-754 bit pattern (u64 LE), so a REPORT -> EST round trip is bit-exact
// by construction -- no decimal rendering is involved anywhere. Strings are
// u16 length + bytes. The magic byte 0xB3 is outside ASCII and every text
// command starts with an uppercase letter, so the first byte of a request
// decides its framing unambiguously: binary and text frames interleave
// freely on one negotiated-v3 session, and the control commands
// (CHECKIN/HELLO/STATS/ALERTS) stay text-only -- text remains the fallback
// at any time.
//
// Negotiation rides the existing HELLO state machine (docs/WIRE_PROTOCOL.md
// section 8): the server advertises wire_version (3), wire_min_version
// stays 1, and a TCP session may send binary frames only after negotiating
// ver >= 3 (permissive transports and the in-process handler accept them
// unconditionally, mirroring "handle() accepts any command").
//
// Same codec discipline as the text one: encoding never fails, decoding
// throws std::invalid_argument naming the offending field, counts are
// validated against the protocol caps *and* against the actual payload size
// before any allocation -- a hostile header can never force a large
// reserve. All functions are stateless and thread-safe.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "proto/messages.h"
#include "trace/record.h"

namespace wiscape::proto::v3 {

/// First byte of every binary frame. Outside ASCII (text commands start
/// with 'A'..'Z'), so framing is decided by one byte peek.
inline constexpr unsigned char frame_magic = 0xB3;

/// Fixed frame header size: magic + opcode + u32 payload length.
inline constexpr std::size_t frame_header_bytes = 6;

/// The binary commands and replies. Append-only wire surface, like
/// err_code: the value is the opcode byte on the wire, and every
/// enumerator has a row in docs/WIRE_PROTOCOL.md's opcode table
/// (tools/check_docs.sh gates that).
enum class opcode : std::uint8_t {
  report = 1,   ///< request: one measurement record -> ack
  reportb = 2,  ///< request: batched records -> ack (all-or-nothing)
  query = 3,    ///< request: one estimate lookup -> est
  queryb = 4,   ///< request: batched lookups -> estb (positional)
  ack = 5,      ///< reply: report accepted (batch form carries the count)
  est = 6,      ///< reply: one estimate, or none (presence flag 0)
  estb = 7,     ///< reply: batched estimates, positional with the queryb
  err = 8,      ///< reply: typed error (err_code byte + clipped detail)
  // Replication opcodes (ISSUE 10). Negotiation is unchanged: they are v3
  // frames, gated by the same HELLO ver >= 3 rule as every other frame.
  epoch = 9,    ///< request: pull epoch records after a sequence -> epochb
  epochb = 10,  ///< reply to epoch; ALSO a request on a follower (apply
                ///< the batch -> ack) -- the leader->follower stream and
                ///< the follower's catch-up pull share one encoding
  snapshot_req = 11,   ///< request: snapshot bytes from an offset -> chunk
  snapshot_chunk = 12, ///< reply: one bounded slice of the snapshot
  promote = 13, ///< request: assume leadership (follower -> leader) -> ack
};

/// True when `op` is a defined opcode byte.
constexpr bool opcode_valid(std::uint8_t op) noexcept {
  return op >= static_cast<std::uint8_t>(opcode::report) &&
         op <= static_cast<std::uint8_t>(opcode::promote);
}

/// Stable lower_snake_case opcode name ("report", "estb", ...), for logs
/// and error details.
const char* opcode_name(opcode op) noexcept;

/// A parsed frame header.
struct frame_header {
  opcode op = opcode::err;
  std::uint32_t payload_len = 0;
};

/// True when `data` (>= 1 byte) opens a binary frame.
inline bool is_frame_start(std::string_view data) noexcept {
  return !data.empty() &&
         static_cast<unsigned char>(data.front()) == frame_magic;
}

/// Parses the 6-byte header at the front of `data`. nullopt when there are
/// fewer than frame_header_bytes available, the magic byte is wrong, or the
/// opcode is undefined -- the caller decides whether that means "wait for
/// more bytes" or "hostile frame". Never reads past the header: the
/// declared payload length is returned unvalidated, so callers can refuse
/// oversized declarations before buffering (let alone allocating) anything.
std::optional<frame_header> peek_header(std::string_view data) noexcept;

/// Decoded ACK reply.
struct ack_frame {
  bool batched = false;     ///< true: answered a reportb (count meaningful)
  std::uint64_t count = 0;  ///< records accepted (batch form)
};

/// Decoded ERR reply.
struct error_frame {
  err_code code = err_code::internal;
  std::string detail;
};

// ---- replication frames (ISSUE 10) ----------------------------------------

/// Most epoch records a single EPOCHB frame may carry (mirrors
/// max_report_batch's role: bounds the decode-side reserve).
inline constexpr std::size_t max_epoch_batch = 4096;

/// Largest snapshot slice a SNAPSHOT_CHUNK ships; small enough to stay
/// well under any session read-buffer cap while catch-up streams it.
inline constexpr std::size_t max_snapshot_chunk = 16 * 1024;

// The epoch_update element an EPOCHB frame carries is a shared proto type
// (proto/messages.h, next to estimate_reply): reply_buffer stages decode
// scratch of it, so it must be complete where reply_buffer is.

/// Decoded EPOCH pull request: "send records with seq > since_seq, at most
/// max_records of them".
struct epoch_pull {
  std::uint64_t since_seq = 0;
  std::uint32_t max_records = 0;  ///< clipped to max_epoch_batch by servers
};

/// Decoded SNAPSHOT_CHUNK reply. `data` views into the decoded frame.
struct snapshot_chunk {
  std::uint64_t offset = 0;  ///< byte offset of this slice in the snapshot
  std::uint64_t total = 0;   ///< full snapshot size, for progress/validation
  bool last = false;         ///< true on the final slice
  std::string_view data;
};

// ---- encoders -------------------------------------------------------------
// Each appends one complete frame (header + payload) to `out`. Like the
// text encode_*_into family, these are the zero-allocation forms: a warmed
// reply_buffer takes a frame with no heap traffic. Strings longer than
// 65535 bytes are clipped (u16 length prefix); every field the protocol
// round-trips stays well under that.

void encode_report_frame(const measurement_report& m, reply_buffer& out);
void encode_report_batch_frame(std::span<const trace::measurement_record> recs,
                               reply_buffer& out);
void encode_query_frame(const query_request& q, reply_buffer& out);
void encode_query_batch_frame(std::span<const query_request> qs,
                              reply_buffer& out);
/// Single-report ACK (batched=false, no count).
void encode_ack_frame(reply_buffer& out);
/// Batch ACK carrying the accepted-record count.
void encode_ack_frame(std::uint64_t count, reply_buffer& out);
/// EST reply; nullopt encodes the "no estimate published" answer (text
/// NONE) as a presence flag of 0.
void encode_estimate_frame(const std::optional<estimate_reply>& rep,
                           reply_buffer& out);
/// EST reply for one estimate_view::lookup_batch element, written straight
/// from the lookup (`network` is the queried name): the same bytes as the
/// estimate_reply form for the matching reply, presence flag 0 on a miss.
void encode_estimate_frame(const core::stream_lookup& l,
                           std::string_view network, reply_buffer& out);

/// Incremental ESTB encoder for the server's zero-allocation reply path:
/// open with the element count, add() each estimate as its lookup resolves
/// (exactly `count` times), finish() to patch the frame length. The text
/// path streams its ESTB lines the same way; this is the binary twin, so
/// QUERYB replies never stage a std::vector of estimates.
class estimate_batch_builder {
 public:
  estimate_batch_builder(std::uint32_t count, reply_buffer& out);
  void add(const std::optional<estimate_reply>& rep);
  /// add() straight from a lookup_batch element (see encode_estimate_frame).
  void add(const core::stream_lookup& l, std::string_view network);
  void finish();

 private:
  reply_buffer* out_;
  std::size_t at_;
};
/// ERR reply; the detail is clipped exactly like the text encoder
/// (error_excerpt's 120-byte cap).
void encode_error_frame(err_code code, std::string_view detail,
                        reply_buffer& out);

/// EPOCH pull request.
void encode_epoch_pull_frame(const epoch_pull& p, reply_buffer& out);
/// EPOCHB batch of epoch records (reply to a pull, or a follower-apply
/// request; same bytes either way).
void encode_epoch_batch_frame(std::span<const epoch_update> updates,
                              reply_buffer& out);
/// SNAPSHOT_REQ for the slice starting at `offset`.
void encode_snapshot_req_frame(std::uint64_t offset, reply_buffer& out);
/// SNAPSHOT_CHUNK reply (data.size() <= max_snapshot_chunk enforced by the
/// server; the codec clips nothing).
void encode_snapshot_chunk_frame(std::uint64_t offset, std::uint64_t total,
                                 bool last, std::string_view data,
                                 reply_buffer& out);
/// PROMOTE request (empty payload).
void encode_promote_frame(reply_buffer& out);

/// std::string-returning conveniences for the benches and perfbench's
/// load generators (thin wrappers over the _into forms above). Clients
/// encode through proto::client, which stages frames in a reply_buffer.
std::string encode_report_batch_frame(
    std::span<const trace::measurement_record> recs);
std::string encode_query_frame(const query_request& q);
std::string encode_query_batch_frame(std::span<const query_request> qs);
std::string encode_epoch_pull_frame(const epoch_pull& p);

// ---- decoders -------------------------------------------------------------
// `frame` is one complete frame, header included; the header's declared
// length must equal the bytes present. All-or-nothing with the same error
// discipline as the text decoders: std::invalid_argument names the
// offending field, batch counts are checked against the protocol caps and
// against the payload size (>= the minimum encoding per element) before
// any reserve.

measurement_report decode_report_frame(std::string_view frame);
void decode_report_batch_frame_into(std::string_view frame,
                                    std::vector<trace::measurement_record>& out);
query_request decode_query_frame(std::string_view frame);
void decode_query_batch_frame_into(std::string_view frame,
                                   std::vector<query_request>& out);
ack_frame decode_ack_frame(std::string_view frame);
std::optional<estimate_reply> decode_estimate_frame(std::string_view frame);
std::vector<std::optional<estimate_reply>> decode_estimate_batch_frame(
    std::string_view frame);
error_frame decode_error_frame(std::string_view frame);
epoch_pull decode_epoch_pull_frame(std::string_view frame);
void decode_epoch_batch_frame_into(std::string_view frame,
                                   std::vector<epoch_update>& out);
std::uint64_t decode_snapshot_req_frame(std::string_view frame);
/// The returned chunk's `data` views into `frame`; copy before the frame's
/// backing bytes are reused.
snapshot_chunk decode_snapshot_chunk_frame(std::string_view frame);
/// Validates the empty-payload PROMOTE request.
void decode_promote_frame(std::string_view frame);

}  // namespace wiscape::proto::v3
