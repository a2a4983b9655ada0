#include "net/session.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "proto/messages.h"
#include "proto/wire_v3.h"

namespace wiscape::net {

namespace {

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

constexpr auto text = proto::request_view::kind::text;
constexpr auto binary = proto::request_view::kind::binary;

}  // namespace

request_class classify(proto::command cmd) noexcept {
  switch (cmd) {
    case proto::command::query:
    case proto::command::queryb:
    case proto::command::alerts:
      return request_class::query;
    case proto::command::report:
    case proto::command::reportb:
      return request_class::report;
    default:
      return request_class::control;
  }
}

bool sheds(request_class cls, const shed_state& shed) noexcept {
  if (cls == request_class::control || shed.saturation < shed_start) {
    return false;
  }
  return cls == request_class::query || shed.saturation >= shed_hard;
}

bool session::queue_reply(proto::request_view::kind framing,
                          std::string_view reply) {
  // Binary frames are self-delimiting: a '\n' after one would desynchronise
  // the client's length-prefix cut.
  const bool line = framing == text;
  if (reply.size() + (line ? 1 : 0) > out_.headroom() ||
      !out_.append(reply) || (line && !out_.append('\n'))) {
    set_reason(close_reason::slow_reader);
    return false;
  }
  ++replies_queued_;
  return true;
}

bool session::refuse(proto::request_view::kind framing, proto::err_code code,
                     std::string_view detail, close_reason why) {
  rb_.clear();
  proto::encode_error_into(code, detail, framing, rb_);
  queue_reply(framing, rb_.view());
  set_reason(why);
  return false;
}

bool session::admit(proto::request_view req, const shed_state& shed,
                    pump_stats& stats) {
  if (require_hello_ && !saw_hello_ && req.command() != proto::command::hello) {
    return refuse(req.framing(), proto::err_code::version,
                  "HELLO required before any command",
                  close_reason::hello_violation);
  }
  const request_class cls = classify(req.command());
  rb_.clear();
  if (sheds(cls, shed)) {
    count_shed(cls, stats);
    proto::encode_error_into(proto::err_code::overload, overload_detail,
                             req.framing(), rb_);
    return queue_reply(req.framing(), rb_.view());
  }
  handler_->handle(req, rb_);
  ++stats.dispatched;
  if (req.command() == proto::command::hello &&
      proto::message_type(rb_.view()) == "HELLO") {
    saw_hello_ = true;
    // The negotiated version gates binary framing; re-negotiation (a second
    // HELLO) re-decides it, matching the server's idempotent answer.
    hello_version_ = proto::decode_hello_reply(rb_.view()).version;
  }
  return queue_reply(req.framing(), rb_.view());
}

bool session::cut_frame(std::size_t* len) {
  // Gate: a negotiation-first port only accepts binary framing on a session
  // that negotiated ver >= 3 (permissive ports accept it any time, like the
  // in-process handler), decided on the magic byte alone. The peer spoke
  // binary, so the final ERR is a binary err frame.
  if (require_hello_ && (!saw_hello_ || hello_version_ < 3)) {
    return saw_hello_
               ? refuse(binary, proto::err_code::version,
                        "binary frames require a negotiated ver>=3 session",
                        close_reason::bad_frame)
               : refuse(binary, proto::err_code::version,
                        "HELLO required before any command",
                        close_reason::hello_violation);
  }
  *len = 0;
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
    return refuse(binary, proto::err_code::parse,
                  "undefined binary frame opcode", close_reason::bad_frame);
  }
  const std::size_t total = proto::v3::frame_header_bytes + hdr->payload_len;
  if (total > in_.max_bytes()) {
    // The declared length can never fit the read ring: refuse now, without
    // buffering (let alone allocating) any of it -- the oversize close a
    // runaway text line gets, decided 6 bytes in.
    return refuse(binary, proto::err_code::parse,
                  "frame exceeds the read buffer cap", close_reason::oversize);
  }
  if (in_.size() < total) {
    binary_need_ = total;  // complete header, payload pending: mid-frame
    return true;
  }
  binary_need_ = 0;
  *len = total;
  return true;
}

bool session::cut_lines(std::size_t* len) {
  *len = 0;
  while (*len == 0) {
    const std::size_t nl = in_.find('\n', scan_);
    if (nl == byte_ring::npos) {
      // Incomplete. A read ring at its cap that still holds no complete
      // request can never complete one: answer ERR and disconnect.
      if (in_.full()) {
        return refuse(text, proto::err_code::parse,
                      "request exceeds the read buffer cap",
                      close_reason::oversize);
      }
      return true;
    }
    if (frame_lines_total_ == 0) {
      // First line of a new request: does it announce payload lines?
      char buf[64];
      const std::size_t n = proto::frame_extra_lines(
          header_prefix(in_, nl, buf), proto::frame_side::request);
      if (n == proto::bad_frame_count) {
        return refuse(text, proto::err_code::parse,
                      "malformed batch frame header", close_reason::bad_frame);
      }
      frame_lines_total_ = 1 + n;
      frame_lines_found_ = 0;
    }
    ++frame_lines_found_;
    scan_ = nl + 1;
    if (frame_lines_found_ == frame_lines_total_) *len = scan_;
  }
  return true;
}

std::size_t session::report_run(std::size_t* len,
                                const shed_state& shed) const {
  // Grouping steps aside whenever per-line admission would do anything
  // other than hand the line to the handler (HELLO gate not yet satisfied,
  // report class being shed), so replies and accounting stay byte-for-byte
  // identical.
  if (frame_lines_total_ != 1 || *len < 8 ||
      (require_hello_ && !saw_hello_) || sheds(request_class::report, shed) ||
      !starts_with_report(in_, 0)) {
    return 1;
  }
  std::size_t end = *len;
  std::size_t count = 1;
  while (count < proto::max_report_batch) {
    const std::size_t nl = in_.find('\n', end);
    if (nl == byte_ring::npos || nl - end < 7 ||
        !starts_with_report(in_, end)) {
      break;
    }
    end = nl + 1;
    ++count;
  }
  if (count >= 2) *len = end;
  return count;
}

bool session::admit_report_group(std::size_t len, std::size_t count,
                                 pump_stats& stats) {
  rb_.clear();
  handler_->handle_report_group(in_.linearize().substr(0, len), count, rb_);
  // The group's replies arrive '\n'-terminated; land them in one append.
  if (rb_.size() > out_.headroom() || !out_.append(rb_.view())) {
    set_reason(close_reason::slow_reader);
    return false;
  }
  stats.dispatched += count;
  stats.grouped_reports += count;
  replies_queued_ += count;
  return true;
}

bool session::pump(const shed_state& shed, pump_stats& stats) {
  for (;;) {
    // A new request whose first byte is the v3 magic is cut by its length
    // prefix, anything else by newline scan (0xB3 never starts a text
    // command). The check only fires between requests: scan_ == 0 and no
    // text frame in progress means no text bytes are buffered ahead.
    std::size_t len = 0;
    bool ok;
    if (frame_lines_total_ == 0 && scan_ == 0 && !in_.empty() &&
        static_cast<unsigned char>(in_.at(0)) == proto::v3::frame_magic) {
      if (!cut_frame(&len)) return false;
      if (len == 0) return true;  // frame incomplete: wait for bytes
      ok = admit(proto::request_view::binary(in_.linearize().substr(0, len)),
                 shed, stats);
    } else {
      if (!cut_lines(&len)) return false;
      if (len == 0) return true;  // request incomplete: wait for bytes
      // Adaptive micro-batch: a run of >= 2 consecutive complete
      // single-line REPORTs buffered right now (a pipelining reporter
      // drained in one wake) is answered through one handle_report_group()
      // call -- one ingestion submit and one counter delta for the run,
      // same as REPORTB.
      if (const std::size_t run = report_run(&len, shed); run >= 2) {
        ok = admit_report_group(len, run, stats);
      } else {
        // Everything up to (not including) the final newline. Telnet-style
        // CRLF is the protocol layer's business: the final line's '\r' is
        // clipped here, and frame payload lines are stripped per line by
        // the decoders -- no rewrite buffer.
        std::string_view line = in_.linearize().substr(0, len - 1);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        ok = admit(proto::request_view::text(line), shed, stats);
      }
    }
    in_.consume(len);
    scan_ = 0;
    frame_lines_total_ = 0;
    frame_lines_found_ = 0;
    if (!ok) return false;
  }
}

}  // namespace wiscape::net
