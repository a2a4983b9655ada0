// One TCP session's protocol state machine, decoupled from its socket.
//
// A session owns the two byte_rings of one connection and everything the
// transport must decide *between* the socket and proto::coordinator_server.
// Two framers cut requests out of the read ring, then one admission step
// answers them:
//   * framing -- the line framer cuts '\n'-terminated lines, except the
//     REPORTB / QUERYB frames whose header announces how many payload lines
//     follow (proto::frame_extra_lines), tolerating partial arrivals (a
//     frame split across any number of reads) and telnet-style CRLF line
//     endings. On a session negotiated to wire protocol v3 (or a permissive
//     port), a request whose first byte is the binary frame magic 0xB3 goes
//     to the length-prefix framer instead -- binary and text requests
//     interleave freely. Either framer wraps its cut in a
//     proto::request_view, which classifies the request once;
//   * admission -- HELLO gating first: when the server requires
//     negotiation-first, any command before a successful HELLO answers
//     "ERR version" and closes the session (docs/WIRE_PROTOCOL.md,
//     transport rules). Then backpressure: while the ingest pipeline is
//     saturated, QUERY-class (then also REPORT-class) requests are answered
//     "ERR overload" without dispatching, so the event loop never blocks
//     behind a full report queue. Then the handler, and one
//     reply queue that terminates text replies with '\n' and leaves the
//     self-delimiting binary frames bare. Every refusal answers in the
//     request's framing;
//   * bounded-buffer policy -- a request that outgrows the read ring, or
//     replies that outgrow the write ring (a slow reader), close the
//     session with a typed reason the server counts.
//
// The class is deliberately socket-free: the event loop feeds bytes into
// in() and drains out() to the fd, and tests drive the same state machine
// byte-for-byte without a kernel in the loop. Not thread-safe -- a session
// belongs to the one event-loop thread that accepted it.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>

#include "net/byte_ring.h"
#include "proto/server.h"

namespace wiscape::net {

/// Why a session ended (drives the per-reason disconnect counters).
enum class close_reason {
  none,             ///< still open
  peer_eof,         ///< orderly close by the peer
  io_error,         ///< read/write syscall failed (or injected read fault)
  oversize,         ///< request exceeded the read-ring cap before completing
  slow_reader,      ///< replies exceeded the write-ring cap
  hello_violation,  ///< command before HELLO while negotiation is required
  bad_frame,        ///< REPORTB/QUERYB header with a malformed/hostile count
  idle_timeout,     ///< no complete request within the idle window
  shutdown,         ///< server stopping
};

/// Shed class of a request (classify()).
enum class request_class { query, report, control };

/// Maps a request's command to its shed class, in either framing:
/// QUERY/QUERYB/ALERTS are query-class, REPORT/REPORTB are report-class,
/// everything else (CHECKIN, HELLO, STATS, the replication opcodes, and
/// requests the handler refuses anyway) is control and never shed.
request_class classify(proto::command cmd) noexcept;

/// Per-session protocol gates (server_config embeds one).
struct session_limits {
  bool require_hello = true;  ///< enforce HELLO-before-anything on this port
};

/// Saturation from which query-class requests shed (protects ingest).
inline constexpr double shed_start = 0.75;
/// Saturation from which report-class requests shed too.
inline constexpr double shed_hard = 0.95;

/// One pump() call's view of the backpressure state. The event loop caches
/// the saturation value (refreshing it every few dispatches) so sessions
/// never call into the coordinator on the fast path.
struct shed_state {
  double saturation = 0.0;  ///< core::sharded_coordinator::ingest_saturation
};

/// True when backpressure refuses a request of class `cls` right now: from
/// shed_start on query-class requests shed, from shed_hard on report-class
/// ones too; control never sheds. The one shed rule every framing path
/// applies.
bool sheds(request_class cls, const shed_state& shed) noexcept;

/// What one pump() call did, for the caller's metric accounting.
struct pump_stats {
  std::uint64_t dispatched = 0;    ///< requests handed to the line handler
  std::uint64_t shed_queries = 0;  ///< query-class answered ERR overload
  std::uint64_t shed_reports = 0;  ///< report-class answered ERR overload
  /// Of dispatched: REPORT lines answered through a coalesced group
  /// (handle_report_group) rather than one handler call per line.
  std::uint64_t grouped_reports = 0;
};

class session {
 public:
  /// Request cap: a request that outgrows the read ring disconnects
  /// (close_reason::oversize). Holds the largest REPORTB frame.
  static constexpr std::size_t read_buffer_bytes = 1u << 20;
  /// Queued-replies cap: replies that outgrow the write ring disconnect
  /// (close_reason::slow_reader). Holds a full STATS dump or ESTB frame.
  static constexpr std::size_t write_buffer_bytes = 4u << 20;

  session(const session_limits& limits, proto::coordinator_server& handler)
      : in_(read_buffer_bytes),
        out_(write_buffer_bytes),
        handler_(&handler),
        require_hello_(limits.require_hello) {}

  /// Receive ring: the socket (or a test) appends raw bytes here.
  byte_ring& in() noexcept { return in_; }
  /// Transmit ring: replies accumulate here until flushed to the socket.
  byte_ring& out() noexcept { return out_; }

  /// Extracts and answers every complete request currently buffered.
  /// Replies (with a trailing '\n') are appended to out(). Returns false
  /// when the session must be disconnected -- reason() says why, and any
  /// final ERR reply is already in out() for a best-effort flush.
  bool pump(const shed_state& shed, pump_stats& stats);

  close_reason reason() const noexcept { return reason_; }
  /// Records the close reason if none is set yet (first reason wins).
  void set_reason(close_reason r) noexcept {
    if (reason_ == close_reason::none) reason_ = r;
  }
  bool saw_hello() const noexcept { return saw_hello_; }
  /// The wire version the session's last successful HELLO negotiated
  /// (0 = none yet). Binary v3 frames are accepted once this is >= 3, or at
  /// any time on a permissive (require_hello = false) port.
  std::uint32_t negotiated_version() const noexcept { return hello_version_; }
  /// True when a frame header has been read but its payload is incomplete
  /// (an idle timeout firing now cuts a request mid-frame) -- a multi-line
  /// text frame or a binary frame whose declared length has not arrived.
  bool mid_frame() const noexcept {
    return frame_lines_total_ > 1 || binary_need_ > 0;
  }
  /// Replies queued into out() since the last call, then resets to zero.
  /// The event loop drains this at flush time to account one writev per
  /// wake against the replies it carries (net.server.replies_per_flush).
  std::uint64_t take_queued_replies() noexcept {
    return std::exchange(replies_queued_, 0);
  }

 private:
  /// Appends one reply to out() -- a text reply plus its '\n', a binary
  /// frame bare. false = write ring overflow (closes as slow_reader).
  bool queue_reply(proto::request_view::kind framing, std::string_view reply);
  /// Queues a final ERR in `framing` and records `why`; always false (the
  /// caller disconnects).
  bool refuse(proto::request_view::kind framing, proto::err_code code,
              std::string_view detail, close_reason why);
  /// The admission step both framers share: HELLO gate, shed decision,
  /// handler, reply. Returns false to disconnect.
  bool admit(proto::request_view req, const shed_state& shed,
             pump_stats& stats);
  /// The length-prefix framer: sets `*len` to the size of the complete v3
  /// frame at the front of in(), or 0 while it is still arriving. Returns
  /// false (after refusing) to disconnect.
  bool cut_frame(std::size_t* len);
  /// The line framer: sets `*len` to the size of the complete request at
  /// the front of in() -- its final newline included -- or 0 while it is
  /// still arriving. Returns false (after refusing) to disconnect.
  bool cut_lines(std::size_t* len);
  /// REPORT lines in the run opening with the `*len`-byte request at the
  /// front of in(), extending `*len` to the run's end when it is >= 2 (the
  /// run handle_report_group answers). 1 = no run.
  std::size_t report_run(std::size_t* len, const shed_state& shed) const;
  /// Answers a REPORT run through handle_report_group. false = disconnect.
  bool admit_report_group(std::size_t len, std::size_t count,
                          pump_stats& stats);

  byte_ring in_;
  byte_ring out_;
  proto::coordinator_server* handler_;
  bool require_hello_;
  bool saw_hello_ = false;
  close_reason reason_ = close_reason::none;
  std::uint32_t hello_version_ = 0;

  // Framing cursor: scan_ is the in_-offset where the newline search
  // resumes; frame_lines_total_/found_ track the multi-line frame in
  // progress (total == 0 means the next line decides). binary_need_ is the
  // total byte length of the binary frame in progress (0 = none): the two
  // framers never run at once, since a request is wholly one or the other.
  std::size_t scan_ = 0;
  std::size_t frame_lines_total_ = 0;
  std::size_t frame_lines_found_ = 0;
  std::size_t binary_need_ = 0;
  std::uint64_t replies_queued_ = 0;
  // Per-session reply arena: every reply renders here (zero heap
  // allocations in steady state once its capacity has warmed up), then
  // lands in out() with one append.
  proto::reply_buffer rb_;
};

}  // namespace wiscape::net
