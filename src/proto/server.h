// A transport-agnostic coordinator server and its client-side counterparts.
//
// coordinator_server turns the in-process core::sharded_coordinator into a
// protocol service: hand it any request -- a protocol v2 text line or a
// v3 binary frame, wrapped in a request_view (from a socket, a message
// queue, a file of replayed traffic -- the transport is the caller's
// business) -- to its one entry point, handle(request_view, reply_buffer&),
// and it answers. The view classifies the request once, when it is made;
// handle() then runs one body per command, whatever the framing:
// CHECKIN/REPORT/REPORTB on the write side,
// QUERY/QUERYB/ALERTS/HELLO on the read side (served through
// core::estimate_view, so queries never take a shard lock), and the v3
// replication opcodes when a replication_endpoint is attached.
// remote_agent is the write-side client shim (check-in / execute /
// report cycle); remote_query_client is the read-side one (negotiate,
// look up estimates, drain alerts) -- both against any `send` function.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/estimate_view.h"
#include "core/sharded_coordinator.h"
#include "probe/engine.h"
#include "proto/messages.h"

namespace wiscape::proto {

/// Renders the process-wide obs:: metrics registry as the STATS wire reply:
/// "STATS <n>" followed by n lines of "name value", sorted by name. Also
/// usable directly by tools that want the dump without a server.
/// Thread-safe.
std::string encode_stats();
/// encode_stats appended to a caller-owned reply_buffer (the form the
/// server serves STATS through). Thread-safe.
void encode_stats_into(reply_buffer& out);

/// What a request asks for: decided once, when its request_view is made,
/// so neither the transport nor the server classifies a request twice.
/// The first eight come from text lines (all but CHECKIN, ALERTS, HELLO and
/// STATS also as v3 frames), the replication opcodes from v3 frames only.
enum class command : std::uint8_t {
  checkin,
  report,
  reportb,
  query,
  queryb,
  alerts,
  hello,
  stats,
  epoch,
  epochb,
  snapshot_req,
  promote,
  reply_opcode,  ///< a v3 reply opcode (ack, est, ...) sent as a request
  bad_envelope,  ///< frame magic, but an undefined opcode or a declared
                 ///< payload length that disagrees with the bytes
  unknown,       ///< a text line that opens with no request tag
};

/// A borrowed request plus its framing tag and command: the one argument
/// shape every request enters coordinator_server::handle() with, whether
/// it arrived as a protocol v2 text line or a v3 binary frame. Construct
/// with text()/binary() when the transport already knows the framing (the
/// TCP session's two framers do), or detect() to apply the one-byte rule:
/// 0xB3 (the v3 frame magic) is outside ASCII and every text command starts
/// with an uppercase letter, so the first byte decides unambiguously.
/// text() classifies by the line's message_type tag, binary() by the frame
/// header's opcode after checking the envelope length. Borrows the bytes;
/// nothing is retained after handle() returns.
class request_view {
 public:
  enum class kind : std::uint8_t {
    text,    ///< one protocol v2 line (no trailing newline)
    binary,  ///< one complete v3 frame, header included
  };

  /// Wraps a text line the transport has already classified.
  static request_view text(std::string_view line) noexcept;
  /// Wraps a complete binary frame the transport has already classified.
  static request_view binary(std::string_view frame) noexcept;
  /// Classifies untagged bytes (replayed traffic, tests) by the first
  /// byte: frame magic -> binary, anything else (including empty) -> text.
  static request_view detect(std::string_view data) noexcept;

  kind framing() const noexcept { return kind_; }
  proto::command command() const noexcept { return command_; }
  std::string_view bytes() const noexcept { return bytes_; }

 private:
  request_view(kind k, proto::command c, std::string_view b) noexcept
      : kind_(k), command_(c), bytes_(b) {}

  kind kind_;
  proto::command command_;
  std::string_view bytes_;
};

/// Appends an ERR reply in `framing`: the "ERR <code> <detail>" line
/// (encode_error_into) or a v3 err frame (v3::encode_error_frame).
void encode_error_into(err_code code, std::string_view detail,
                       request_view::kind framing, reply_buffer& out);

/// The replication surface a coordinator_server dispatches the v3
/// replication opcodes against (ISSUE 10). Implemented by src/repl's
/// leader/follower roles; declared here because the server owns all wire
/// encode/decode -- implementations exchange typed records only and never
/// see frame bytes, so proto does not depend on repl. All methods must be
/// thread-safe: the server dispatches from many transport threads.
class replication_endpoint {
 public:
  virtual ~replication_endpoint() = default;

  /// Serves an EPOCH pull: appends up to `max_records` log records with
  /// sequence > `since_seq`, in sequence order, to `out` (not cleared).
  /// Returns false when since_seq has fallen below the log's retained base
  /// -- the puller is too far behind and must snapshot-catch-up instead
  /// (the server answers ERR stopped naming that).
  virtual bool pull(std::uint64_t since_seq, std::uint32_t max_records,
                    std::vector<epoch_update>& out) = 0;

  /// Serves one snapshot slice for SNAPSHOT_REQ: fills `data` with at most
  /// v3::max_snapshot_chunk bytes starting at `offset`, sets `total` to
  /// the full snapshot size and `last` when this slice ends it. Offset 0
  /// captures a fresh snapshot; later offsets read the captured bytes, so
  /// a chunk sequence is self-consistent. Returns false when `offset` is
  /// beyond the snapshot (answered as ERR parse).
  virtual bool snapshot(std::uint64_t offset, std::string& data,
                        std::uint64_t& total, bool& last) = 0;

  /// Applies a replicated batch (an EPOCHB frame arriving as a request on
  /// a follower). Returns the number of records applied -- duplicates the
  /// follower has already seen are skipped and not counted.
  virtual std::uint64_t apply(std::span<const epoch_update> updates) = 0;

  /// PROMOTE: assume leadership. Returns false when refused (already the
  /// leader, or this endpoint cannot lead).
  virtual bool promote() = 0;
};

/// Construction-time server tuning. Immutable after construction by
/// design: a torn mid-serving change to any of these can never be
/// observed by a concurrent session (the mutable set_advertised_version()
/// knob this replaces was exactly that hazard).
struct server_options {
  /// The highest version HELLO negotiation offers. Lowering it below
  /// wire_version makes the server answer `HELLO ver=<n>` like an older
  /// build -- the version-interop tests run a v3 client against a v2-max
  /// server this way. Must be within [wire_min_version, wire_version].
  std::uint32_t advertised_version = wire_version;
};

/// Serves a sharded coordinator over the wire protocol.
///
/// handle() is safe to call from many transport threads at once. CHECKINs
/// are answered synchronously by the owning shard; REPORTs go into the
/// sharded ingestion pipeline -- applied inline when the coordinator is
/// synchronous (num_shards = 1 with synchronous = true is the sequential
/// configuration), otherwise enqueued (ACK means accepted, not yet
/// applied; flush the coordinator before reading its tables).
class coordinator_server {
 public:
  /// Borrows the coordinator; it must outlive the server.
  explicit coordinator_server(core::sharded_coordinator& coord,
                              const server_options& opts = {})
      : coordinator_(&coord), view_(coord), opts_(opts) {}

  /// THE request entry point: handles one request -- text line or binary
  /// frame, per the view's framing tag -- and appends the reply to `out`
  /// (text replies carry no trailing newline; binary requests are answered
  /// with one complete binary frame). Every transport and the replication
  /// stream dispatch through this one method; callers holding untagged
  /// bytes wrap them with request_view::detect(). One switch over the
  /// view's command runs each command's body once; only the codec calls
  /// (text or v3 decode/encode) depend on the framing.
  ///
  /// A caller that reuses one reply_buffer per connection (clear() between
  /// requests) pays zero heap allocations per request in steady state:
  /// replies are rendered with to_chars-based appends, and batch frames
  /// (REPORTB/QUERYB/EPOCHB in either framing) decode into the buffer's
  /// scratch vectors, whose capacity survives across requests.
  /// Any number of threads may call it at once, each with its own
  /// reply_buffer.
  ///
  /// Text commands (normative spec: docs/WIRE_PROTOCOL.md):
  ///   CHECKIN   -> TASK ... | IDLE
  ///   REPORT    -> ACK
  ///   REPORTB   -> "ACK <n>" ("REPORTB <n>" header + n CSV record lines,
  ///                decoded and ingested as one batch -- all-or-nothing, a
  ///                single bad record ERRs the whole frame and nothing is
  ///                ingested)
  ///   QUERY     -> EST ... | NONE (estimate lookup via core::estimate_view;
  ///                lock-free against ingestion)
  ///   QUERYB    -> "ESTB <n>" + n EST/NONE lines (batched lookups, same
  ///                all-or-nothing frame discipline as REPORTB)
  ///   ALERTS    -> "ALERTS <n> next=.. dropped=.." + n ALERT lines
  ///                (incremental >2-sigma change-alert drain by cursor)
  ///   HELLO     -> "HELLO ver=<negotiated> min=<min>" (version
  ///                negotiation; versions below min ERR with code version)
  ///   STATS     -> "STATS <n>" + n lines "name value" (a flat dump of the
  ///                process-wide obs:: registry; names are sanitised so a
  ///                hostile registration cannot corrupt line framing)
  ///   malformed -> "ERR <code> <detail>" (stable code token -- see
  ///                err_code; long inputs echoed clipped, never verbatim)
  ///
  /// Binary requests carry REPORT/REPORTB/QUERY/QUERYB and the replication
  /// opcodes (proto/wire_v3.h) and are answered with a binary reply frame
  /// -- ack/est/estb on success, err on failure. Like text commands, the
  /// in-process handler accepts binary frames unconditionally; only the TCP
  /// session gates them on the negotiated version. The replication opcodes
  /// (EPOCH pull, EPOCHB apply, SNAPSHOT_REQ, PROMOTE) require an attached
  /// replication endpoint and answer ERR unsupported ("replication not
  /// attached") without one.
  ///
  /// The request is read as a borrowed view; nothing is retained after
  /// return. Every request is counted into the obs:: metrics registry
  /// (proto.server.*), including per-command latency histograms. On an
  /// asynchronous coordinator an ACKed report is applied later: flush the
  /// coordinator before expecting a QUERY to serve it.
  void handle(request_view req, reply_buffer& out);

  /// Transport micro-batch: answers `count` consecutive single-line REPORT
  /// requests -- `block`, their concatenated '\n'-terminated lines -- in one
  /// call, appending one reply per line to `out` *including* the '\n'
  /// terminator after each (replies stay positional with the lines).
  ///
  /// Semantics are line-for-line identical to `count` handle() calls, one
  /// per line ("ACK", "ERR parse ...", "ERR internal injected fault..." or
  /// "ERR stopped ..." in the same positions, same counter increments, and
  /// the server_handle fault seam fires once per line), except that every
  /// record that decodes is submitted as one batch (report_owned(), which
  /// takes the decoded vector without copying it) -- one queue lock and
  /// one counter delta per group instead of one per line. The event loop
  /// uses this to coalesce REPORT runs drained in one epoll wake; a
  /// stopped pipeline answers ERR stopped on every decoded line of the
  /// group, mirroring REPORTB's all-or-nothing discipline.
  /// Lines may carry a trailing '\r' (stripped, like single requests).
  void handle_report_group(std::string_view block, std::size_t count,
                           reply_buffer& out);

  /// Attaches the replication surface the v3 replication opcodes dispatch
  /// against (nullptr detaches; the default). Borrowed -- the endpoint
  /// must outlive the server. Attach before serving traffic: like
  /// construction, this is not synchronized against in-flight handlers.
  void attach_replication(replication_endpoint* repl) noexcept {
    repl_ = repl;
  }
  replication_endpoint* replication() const noexcept { return repl_; }

  /// The highest version HELLO negotiation offers (a construction-time
  /// option -- see server_options::advertised_version).
  std::uint32_t advertised_version() const noexcept {
    return opts_.advertised_version;
  }

  /// REPORT lines accepted (ACKed) since construction.
  std::uint64_t reports_received() const noexcept {
    return reports_.load(std::memory_order_relaxed);
  }
  /// CHECKIN lines answered with a TASK since construction.
  std::uint64_t tasks_issued() const noexcept {
    return tasks_.load(std::memory_order_relaxed);
  }
  /// Malformed or rejected request lines answered with ERR.
  std::uint64_t errors() const noexcept {
    return errors_.load(std::memory_order_relaxed);
  }

 private:
  /// Answers `queries` in one batched pass: resolves each query's zone and
  /// network id (once per run of equal names) into out.lookups_scratch_,
  /// then estimate_view::lookup_batch fills it in place. Returns the
  /// lookups, positional with `queries`, for the caller to encode.
  std::span<const core::stream_lookup> lookup_all(
      std::span<const query_request> queries, reply_buffer& out) const;
  /// Sets every record's network_id from its operator name at the wire
  /// boundary, once per run of equal names, so the apply path skips the
  /// string hash (the coordinator re-validates before trusting it).
  void resolve_network_ids(std::span<trace::measurement_record> recs) const;
  /// Counts one ERR reply -- its per-reason counter and errors() -- and
  /// appends it to `out` in `framing`. Every ERR the server answers goes
  /// through here.
  void answer_error(err_code code, std::string_view detail,
                    request_view::kind framing, reply_buffer& out);

  core::sharded_coordinator* coordinator_;
  core::estimate_view view_;
  server_options opts_;
  replication_endpoint* repl_ = nullptr;
  std::atomic<std::uint64_t> reports_{0};
  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<std::uint64_t> errors_{0};
};

/// Client-side agent speaking the line protocol through a caller-supplied
/// transport (`send` delivers a request line and returns the response line).
class remote_agent {
 public:
  /// Delivers one request line, returns the response line. The agent is as
  /// thread-safe as this function plus the probe engine (in practice:
  /// confine one agent to one thread).
  using transport = std::function<std::string(const std::string&)>;

  remote_agent(probe::probe_engine& engine, transport send,
               std::uint64_t client_id,
               probe::device_profile device = probe::laptop_device())
      : engine_(&engine),
        send_(std::move(send)),
        client_id_(client_id),
        device_(std::move(device)) {}

  /// One opportunistic cycle: check in, execute any assigned task, report.
  /// Returns the record when a probe ran.
  std::optional<trace::measurement_record> step(
      const mobility::gps_fix& fix, std::uint32_t network_index,
      std::uint32_t active_in_zone = 4);

 private:
  probe::probe_engine* engine_;
  transport send_;
  std::uint64_t client_id_;
  probe::device_profile device_;
};

/// Client-side query shim speaking the read half of protocol v2 through a
/// caller-supplied transport. Holds no state beyond the transport; as
/// thread-safe as `send` is.
class remote_query_client {
 public:
  /// Delivers one request (possibly multi-line) and returns the reply.
  using transport = std::function<std::string(const std::string&)>;

  explicit remote_query_client(transport send) : send_(std::move(send)) {}

  /// HELLO handshake: offers `version` (default: ours) and returns the
  /// server's negotiated reply. Throws std::runtime_error when the server
  /// rejects the version (ERR version) or replies with anything unexpected.
  hello_reply hello(std::uint32_t version = wire_version);

  /// One estimate lookup; nullopt when the server answered NONE (stream
  /// unknown or no epoch published yet). Throws std::runtime_error on ERR.
  std::optional<estimate_reply> query(const query_request& q);

  /// Batched flavour: one QUERYB frame, replies positional with the
  /// requests. Throws std::runtime_error on ERR.
  std::vector<std::optional<estimate_reply>> query_batch(
      std::span<const query_request> queries);

  /// Drains change alerts after cursor `since` (feed the reply's next_seq
  /// back in to continue). Throws std::runtime_error on ERR.
  alerts_reply alerts(std::uint64_t since, std::uint32_t max = 256);

 private:
  std::string roundtrip(const std::string& request, std::string_view expect);

  transport send_;
};

}  // namespace wiscape::proto
