// The client half of the wire protocol: every request a device, a replica
// or a scenario driver sends to a coordinator_server goes through one
// proto::client.
//
// A client speaks over one caller-supplied transport -- a function that
// delivers one complete request and returns the complete reply (an
// in-process coordinator_server::handle, net::line_client over a socket, a
// test lambda). Its framing is fixed at construction: text sends every
// request as a protocol v2 line or frame; v3 sends the commands v3 carries
// (REPORT, REPORTB, QUERY, QUERYB) as binary frames and the control
// commands (HELLO, CHECKIN, ALERTS) as text, exactly as a v3 device would.
// The replication requests (EPOCH pull, SNAPSHOT_REQ, PROMOTE) exist only
// as v3 frames and are sent so in either framing.
//
// One exchange body serves every request: it checks the reply's tag (text)
// or opcode (v3) against what the request expects and the method decodes
// it. An ERR reply in either framing raises proto::reply_error carrying
// the err_code, so callers switch on the code, never on reply bytes
// (docs/WIRE_PROTOCOL.md "Client error mapping"). remote_agent is the
// device loop on top of it: check in, run the assigned probe, report.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "probe/engine.h"
#include "proto/messages.h"
#include "proto/wire_v3.h"

namespace wiscape::proto {

/// Delivers one complete request -- a text line or frame (no trailing
/// newline) or a v3 frame -- and returns the complete reply in the same
/// shape coordinator_server::handle renders it.
using transport = std::function<std::string(std::string_view)>;

/// A request the server refused: its ERR reply, text "ERR <code> <detail>"
/// or a v3 err frame. A code token this build does not know reads as
/// err_code::internal (clients treat unknown codes as a generic error).
class reply_error : public std::runtime_error {
 public:
  reply_error(err_code code, std::string_view detail);

  err_code code() const noexcept { return code_; }
  const std::string& detail() const noexcept { return detail_; }

 private:
  err_code code_;
  std::string detail_;
};

/// A blocking request -> reply client over one transport. Every method
/// throws reply_error when the server answers ERR and std::runtime_error
/// when it answers anything the request does not expect; nothing else is
/// retried or swallowed. Not thread-safe: one client per thread, like the
/// transports it drives.
class client {
 public:
  enum class framing : std::uint8_t {
    text,  ///< every request as protocol v2 text
    v3,    ///< REPORT/REPORTB/QUERY/QUERYB as v3 binary frames
  };

  explicit client(transport send, framing f = framing::text)
      : send_(std::move(send)), framing_(f) {}

  /// HELLO version negotiation (always text): offers `version`, returns
  /// the server's negotiated answer.
  hello_reply hello(std::uint32_t version = wire_version);
  /// CHECKIN (always text): the assigned task, or nullopt for IDLE.
  std::optional<task_assignment> checkin(const checkin_request& req);
  /// One REPORT; returns once the server ACKed it.
  void report(const measurement_report& m);
  /// One REPORTB frame of `recs`; returns the ACKed record count.
  std::uint64_t report_batch(std::span<const trace::measurement_record> recs);
  /// One QUERY: the served estimate, or nullopt when none is published.
  std::optional<estimate_reply> query(const query_request& q);
  /// One QUERYB frame: replies positional with `queries`.
  std::vector<std::optional<estimate_reply>> query_batch(
      std::span<const query_request> queries);
  /// ALERTS drain (always text) after cursor `since`; feed the reply's
  /// next_seq back in to continue.
  alerts_reply alerts(std::uint64_t since, std::uint32_t max = 256);

  /// EPOCH pull: up to `max_records` log records after `since_seq`. The
  /// span views the client's decode vector, valid until the next call.
  std::span<const epoch_update> pull(std::uint64_t since_seq,
                                     std::uint32_t max_records);
  /// SNAPSHOT_REQ for the slice at `offset`. The chunk's data views the
  /// client's reply, valid until the next call.
  v3::snapshot_chunk snapshot(std::uint64_t offset);
  /// PROMOTE: returns once the server ACKed its promotion.
  void promote();

 private:
  /// The one exchange body: sends `request`, keeps the reply in reply_,
  /// raises an ERR in either framing as reply_error, and checks a v3 reply
  /// against `op` or a text reply against `tag` (or `alt`, its other
  /// success form). Text-only requests pass opcode::err, which no success
  /// reply carries. Returns the text reply's tag (empty for v3).
  std::string_view exchange(std::string_view request, v3::opcode op,
                            std::string_view tag, std::string_view alt = {});
  /// The request staged in request_ (a v3 encoder's output).
  std::string_view exchange_staged(v3::opcode op) {
    return exchange(request_.view(), op, {});
  }
  bool binary() const noexcept { return framing_ == framing::v3; }

  transport send_;
  framing framing_;
  reply_buffer request_;  // v3 request frames, encoded in place
  std::string reply_;     // the last reply; decoded views alias it
  std::vector<epoch_update> epochs_;
};

/// A device's user agent (paper Sec 3.4): a client plus probe execution.
/// Each step checks in, runs the probe the coordinator assigned, and
/// reports it. As thread-safe as its transport plus the probe engine (in
/// practice: confine one agent to one thread).
class remote_agent {
 public:
  remote_agent(probe::probe_engine& engine, transport send,
               std::uint64_t client_id,
               probe::device_profile device = probe::laptop_device())
      : engine_(&engine),
        client_(std::move(send)),
        client_id_(client_id),
        device_(std::move(device)) {}

  /// One opportunistic cycle: check in, execute any assigned task, report.
  /// Returns the record once the coordinator ACKed its REPORT; nullopt
  /// when it assigned no task. A refused CHECKIN or REPORT throws
  /// reply_error, so a record is never handed back unreported.
  std::optional<trace::measurement_record> step(
      const mobility::gps_fix& fix, std::uint32_t network_index,
      std::uint32_t active_in_zone = 4);

 private:
  probe::probe_engine* engine_;
  client client_;
  std::uint64_t client_id_;
  probe::device_profile device_;
};

}  // namespace wiscape::proto
