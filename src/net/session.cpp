#include "net/session.h"

#include <charconv>

#include "proto/messages.h"
#include "proto/wire_v3.h"

namespace wiscape::net {

namespace {

/// Payload-line count a request's first line announces: "REPORTB <n>" and
/// "QUERYB <n>" are followed by n lines, everything else by none. Returns
/// npos for a frame header whose count is malformed or exceeds the
/// protocol cap -- the session answers ERR and disconnects rather than
/// misreading the payload lines as requests.
constexpr std::size_t invalid_frame = byte_ring::npos;

std::size_t payload_lines(std::string_view header) {
  const std::size_t sp = header.find_first_of(" \t\r");
  const std::string_view tag =
      sp == std::string_view::npos ? header : header.substr(0, sp);
  std::size_t cap = 0;
  if (tag == "REPORTB") {
    cap = proto::max_report_batch;
  } else if (tag == "QUERYB") {
    cap = proto::max_query_batch;
  } else {
    return 0;
  }
  if (sp == std::string_view::npos) return invalid_frame;
  const std::string_view rest = header.substr(sp + 1);
  const std::size_t b = rest.find_first_not_of(" \t");
  if (b == std::string_view::npos) return invalid_frame;
  std::size_t e = b;
  while (e < rest.size() && rest[e] >= '0' && rest[e] <= '9') ++e;
  if (e == b) return invalid_frame;
  std::size_t n = 0;
  if (std::from_chars(rest.data() + b, rest.data() + e, n).ec != std::errc{}) {
    return invalid_frame;
  }
  // Trailing garbage after the count is the decoder's problem (it answers
  // ERR parse); only the count itself gates framing.
  return n > cap ? invalid_frame : n;
}

/// The first line of the (possibly wrapped) request, copied into `buf` up
/// to its size -- enough to read a frame header's tag and count without
/// linearizing the whole ring.
std::string_view header_prefix(const byte_ring& ring, std::size_t line_len,
                               std::span<char> buf) {
  const std::size_t n = std::min(line_len, buf.size());
  const auto spans = ring.read_spans();
  const std::size_t first = std::min(n, spans[0].size());
  std::memcpy(buf.data(), spans[0].data(), first);
  if (first < n) std::memcpy(buf.data() + first, spans[1].data(), n - first);
  return {buf.data(), n};
}

/// True when the buffered line at ring offset `off` opens with "REPORT "
/// -- the tag plus the separating space, so REPORTB never matches. The
/// caller guarantees at least 7 readable bytes at `off`.
bool starts_with_report(const byte_ring& ring, std::size_t off) {
  constexpr std::string_view tag = "REPORT ";
  for (std::size_t i = 0; i < tag.size(); ++i) {
    if (ring.at(off + i) != tag[i]) return false;
  }
  return true;
}

/// Counts one shed refusal of class `cls` (never control).
void count_shed(request_class cls, pump_stats& stats) {
  ++(cls == request_class::query ? stats.shed_queries : stats.shed_reports);
}

constexpr std::string_view overload_detail =
    "ingest saturated; retry with backoff";

}  // namespace

request_class classify(std::string_view type) noexcept {
  if (type == "QUERY" || type == "QUERYB" || type == "ALERTS") {
    return request_class::query;
  }
  if (type == "REPORT" || type == "REPORTB") return request_class::report;
  return request_class::control;
}

request_class classify(proto::v3::opcode op) noexcept {
  switch (op) {
    case proto::v3::opcode::query:
    case proto::v3::opcode::queryb:
      return request_class::query;
    case proto::v3::opcode::report:
    case proto::v3::opcode::reportb:
      return request_class::report;
    default:
      return request_class::control;
  }
}

bool sheds(request_class cls, const shed_state& shed) noexcept {
  if (cls == request_class::control || shed.saturation < shed.start) {
    return false;
  }
  return shed.saturation >= shed.hard ||
         (shed.policy == shed_policy::queries_first
              ? cls == request_class::query
              : cls == request_class::report);
}

bool session::queue_reply(std::string_view reply) {
  if (reply.size() + 1 > out_.headroom() || !out_.append(reply) ||
      !out_.append('\n')) {
    set_reason(close_reason::slow_reader);
    return false;
  }
  ++replies_queued_;
  return true;
}

bool session::queue_reply_frame(std::string_view frame) {
  // Binary frames are self-delimiting: no '\n' terminator -- an
  // interstitial byte would desynchronise the client's length-prefix cut.
  if (frame.size() > out_.headroom() || !out_.append(frame)) {
    set_reason(close_reason::slow_reader);
    return false;
  }
  ++replies_queued_;
  return true;
}

bool session::dispatch(std::size_t len, const shed_state& shed,
                       pump_stats& stats) {
  // The request view: everything up to (not including) the final newline.
  // Telnet-style CRLF is the protocol layer's business now: the final
  // line's '\r' is clipped here for the type peek, and frame payload lines
  // are stripped per line by the decoders -- no rewrite buffer.
  std::string_view req = in_.linearize().substr(0, len - 1);
  if (!req.empty() && req.back() == '\r') req.remove_suffix(1);

  const std::string_view type = proto::message_type(req);
  if (require_hello_ && !saw_hello_ && type != "HELLO") {
    rb_.clear();
    proto::encode_error_into(proto::err_code::version,
                             "HELLO required before any command", rb_);
    queue_reply(rb_.view());
    set_reason(close_reason::hello_violation);
    return false;
  }

  const request_class cls = classify(type);
  if (sheds(cls, shed)) {
    count_shed(cls, stats);
    rb_.clear();
    proto::encode_error_into(proto::err_code::overload, overload_detail, rb_);
    return queue_reply(rb_.view());
  }

  rb_.clear();
  // The line framer classified the request; tag it so the handler's
  // unified entry point skips re-detection.
  handler_->handle(proto::request_view::text(req), rb_);
  ++stats.dispatched;
  if (type == "HELLO" && proto::message_type(rb_.view()) == "HELLO") {
    saw_hello_ = true;
    // The negotiated version gates binary framing; re-negotiation (a second
    // HELLO) re-decides it, matching the server's idempotent answer.
    hello_version_ = proto::decode_hello_reply(rb_.view()).version;
  }
  return queue_reply(rb_.view());
}

bool session::pump_binary(const shed_state& shed, pump_stats& stats,
                          bool* progressed) {
  *progressed = false;
  // Gate: a negotiation-first port only accepts binary frames on a session
  // that negotiated ver >= 3 (permissive ports accept them any time, like
  // the in-process handler). The peer spoke binary, so the final ERR is a
  // binary err frame.
  if (require_hello_ && (!saw_hello_ || hello_version_ < 3)) {
    rb_.clear();
    proto::v3::encode_error_frame(
        proto::err_code::version,
        saw_hello_ ? "binary frames require a negotiated ver>=3 session"
                   : "HELLO required before any command",
        rb_);
    queue_reply_frame(rb_.view());
    set_reason(saw_hello_ ? close_reason::bad_frame
                          : close_reason::hello_violation);
    return false;
  }
  if (in_.size() < proto::v3::frame_header_bytes) {
    return true;  // header still arriving
  }
  char hdr_buf[proto::v3::frame_header_bytes];
  for (std::size_t i = 0; i < proto::v3::frame_header_bytes; ++i) {
    hdr_buf[i] = in_.at(i);
  }
  const auto hdr = proto::v3::peek_header(
      std::string_view(hdr_buf, proto::v3::frame_header_bytes));
  if (!hdr) {
    // Magic byte with an undefined opcode: a hostile or desynchronised
    // peer. Same close as a hostile text frame header.
    rb_.clear();
    proto::v3::encode_error_frame(proto::err_code::parse,
                                  "undefined binary frame opcode", rb_);
    queue_reply_frame(rb_.view());
    set_reason(close_reason::bad_frame);
    return false;
  }
  const std::size_t total = proto::v3::frame_header_bytes + hdr->payload_len;
  if (total > in_.max_bytes()) {
    // The declared length can never fit the read ring: refuse now, without
    // buffering (let alone allocating) any of it -- the oversize close a
    // runaway text line gets, decided 6 bytes in.
    rb_.clear();
    proto::v3::encode_error_frame(proto::err_code::parse,
                                  "frame exceeds the read buffer cap", rb_);
    queue_reply_frame(rb_.view());
    set_reason(close_reason::oversize);
    return false;
  }
  if (in_.size() < total) {
    binary_need_ = total;  // complete header, payload pending: mid-frame
    return true;
  }
  binary_need_ = 0;
  const std::string_view frame = in_.linearize().substr(0, total);

  const request_class cls = classify(hdr->op);
  bool ok;
  if (sheds(cls, shed)) {
    count_shed(cls, stats);
    rb_.clear();
    proto::v3::encode_error_frame(proto::err_code::overload, overload_detail,
                                  rb_);
    ok = queue_reply_frame(rb_.view());
  } else {
    rb_.clear();
    handler_->handle(proto::request_view::binary(frame), rb_);
    ++stats.dispatched;
    ok = queue_reply_frame(rb_.view());
  }
  in_.consume(total);
  *progressed = true;
  return ok;
}

bool session::pump(const shed_state& shed, pump_stats& stats) {
  for (;;) {
    // A new request whose first byte is the v3 magic is framed by its
    // length prefix, not by newline scan (0xB3 never starts a text
    // command). The check only fires between requests: scan_ == 0 and no
    // text frame in progress means no text bytes are buffered ahead.
    if (frame_lines_total_ == 0 && scan_ == 0 && !in_.empty() &&
        static_cast<unsigned char>(in_.at(0)) == proto::v3::frame_magic) {
      bool progressed = false;
      if (!pump_binary(shed, stats, &progressed)) return false;
      if (!progressed) return true;  // frame incomplete: wait for bytes
      continue;  // whatever follows may be text or binary
    }

    // Advance the line scan until the current request is complete.
    std::size_t request_len = 0;
    while (request_len == 0) {
      const std::size_t nl = in_.find('\n', scan_);
      if (nl == byte_ring::npos) {
        // Incomplete. A read ring at its cap that still holds no complete
        // request can never complete one: answer ERR and disconnect.
        if (in_.full()) {
          queue_reply(proto::encode_error(
              proto::err_code::parse, "request exceeds the read buffer cap"));
          set_reason(close_reason::oversize);
          return false;
        }
        return true;
      }
      if (frame_lines_total_ == 0) {
        // First line of a new request: does it announce payload lines?
        char buf[64];
        const std::size_t n = payload_lines(header_prefix(in_, nl, buf));
        if (n == invalid_frame) {
          queue_reply(proto::encode_error(proto::err_code::parse,
                                          "malformed batch frame header"));
          set_reason(close_reason::bad_frame);
          return false;
        }
        frame_lines_total_ = 1 + n;
        frame_lines_found_ = 0;
      }
      ++frame_lines_found_;
      scan_ = nl + 1;
      if (frame_lines_found_ == frame_lines_total_) request_len = scan_;
    }

    // Adaptive micro-batch: a run of >= 2 consecutive complete single-line
    // REPORTs buffered right now (a pipelining reporter drained in one
    // wake) is answered through one handle_report_group() call -- one
    // ingestion submit and one counter delta for the run, same as REPORTB.
    // Grouping steps aside whenever per-line dispatch would do anything
    // other than hand the line to the handler (HELLO gate not yet
    // satisfied, report class being shed) so replies and accounting stay
    // byte-for-byte identical.
    if (frame_lines_total_ == 1 && request_len >= 8 &&
        (saw_hello_ || !require_hello_) &&
        !sheds(request_class::report, shed) && starts_with_report(in_, 0)) {
      std::size_t group_end = request_len;
      std::size_t count = 1;
      while (count < proto::max_report_batch) {
        const std::size_t nl = in_.find('\n', group_end);
        if (nl == byte_ring::npos || nl - group_end < 7 ||
            !starts_with_report(in_, group_end)) {
          break;
        }
        group_end = nl + 1;
        ++count;
      }
      if (count >= 2) {
        const std::string_view block = in_.linearize().substr(0, group_end);
        rb_.clear();
        handler_->handle_report_group(block, count, rb_);
        // The group's replies arrive '\n'-terminated; land them in one
        // append.
        if (rb_.size() > out_.headroom() || !out_.append(rb_.view())) {
          set_reason(close_reason::slow_reader);
          return false;
        }
        stats.dispatched += count;
        stats.grouped_reports += count;
        replies_queued_ += count;
        in_.consume(group_end);
        scan_ = 0;
        frame_lines_total_ = 0;
        frame_lines_found_ = 0;
        continue;
      }
    }

    if (!dispatch(request_len, shed, stats)) return false;
    in_.consume(request_len);
    scan_ = 0;
    frame_lines_total_ = 0;
    frame_lines_found_ = 0;
  }
}

}  // namespace wiscape::net
