#include "proto/server.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "core/fault_injection.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "proto/wire_v3.h"

namespace wiscape::proto {

namespace {
// Process-wide server metrics (every coordinator_server instance shares
// them; looked up once, then lock-free).
struct server_metrics {
  obs::counter& lines;
  obs::counter& checkins;
  obs::counter& reports;
  obs::counter& report_batches;
  obs::counter& stats_requests;
  obs::counter& queries;
  obs::counter& query_batches;
  obs::counter& alerts_requests;
  obs::counter& hellos;
  obs::counter& err_parse;
  obs::counter& err_unsupported;
  obs::counter& err_stopped;
  obs::counter& err_version;
  obs::counter& err_internal;
  obs::counter& err_overload;
  obs::counter& faults_injected;
  obs::counter& reply_bytes;
  obs::counter& binary_frames;
  obs::histogram& checkin_latency;
  obs::histogram& report_latency;
  obs::histogram& batch_latency;
  obs::histogram& query_latency;
  obs::histogram& query_batch_latency;
  obs::histogram& alerts_latency;
};

server_metrics& metrics() {
  auto& reg = obs::registry::global();
  static server_metrics m{
      reg.get_counter(obs::names::kServerLines),
      reg.get_counter(obs::names::kServerCheckins),
      reg.get_counter(obs::names::kServerReports),
      reg.get_counter(obs::names::kServerReportBatches),
      reg.get_counter(obs::names::kServerStats),
      reg.get_counter(obs::names::kServerQueries),
      reg.get_counter(obs::names::kServerQueryBatches),
      reg.get_counter(obs::names::kServerAlertsRequests),
      reg.get_counter(obs::names::kServerHellos),
      reg.get_counter(obs::names::kServerErrParse),
      reg.get_counter(obs::names::kServerErrUnsupported),
      reg.get_counter(obs::names::kServerErrStopped),
      reg.get_counter(obs::names::kServerErrVersion),
      reg.get_counter(obs::names::kServerErrInternal),
      reg.get_counter(obs::names::kServerErrOverload),
      reg.get_counter(obs::names::kServerFaultsInjected),
      reg.get_counter(obs::names::kServerReplyBytes),
      reg.get_counter(obs::names::kServerBinaryFrames),
      reg.get_histogram(obs::names::kServerCheckinLatency),
      reg.get_histogram(obs::names::kServerReportLatency),
      reg.get_histogram(obs::names::kServerBatchLatency),
      reg.get_histogram(obs::names::kServerQueryLatency),
      reg.get_histogram(obs::names::kServerQueryBatchLatency),
      reg.get_histogram(obs::names::kServerAlertsLatency)};
  return m;
}

// Registry names are constants from obs/names.h in practice, but the STATS
// frame's integrity must not depend on that: any byte that could break the
// "name value" line/token framing (whitespace, control characters, non-ASCII)
// is rewritten to '_', and oversized names are clipped.
void append_sanitized_name(std::string& out, std::string_view name) {
  constexpr std::size_t max_name = 160;
  const std::size_t n = std::min(name.size(), max_name);
  for (const char c : name.substr(0, n)) {
    const auto u = static_cast<unsigned char>(c);
    out.push_back(u > 0x20 && u < 0x7f ? c : '_');
  }
  if (n == 0) out.push_back('_');
  if (name.size() > max_name) out += "...";
}
}  // namespace

std::string encode_stats() {
  reply_buffer out;
  encode_stats_into(out);
  return std::string(out.view());
}

void encode_stats_into(reply_buffer& out) {
  const auto samples = obs::registry::global().snapshot();
  std::string& bytes = out.storage();
  bytes.reserve(bytes.size() + 16 + samples.size() * 56);
  out.append("STATS ");
  out.append_u64(samples.size());
  for (const auto& s : samples) {
    bytes.push_back('\n');
    append_sanitized_name(bytes, s.name);
    bytes.push_back(' ');
    obs::append_value(bytes, s);
  }
}

std::span<const core::stream_lookup> coordinator_server::lookup_all(
    std::span<const query_request> queries, reply_buffer& out) const {
  const geo::zone_grid& grid = coordinator_->grid();
  auto& lookups = out.lookups_scratch_;
  lookups.resize(queries.size());
  // Frames overwhelmingly repeat one operator name; resolve each run of
  // equal names once, as REPORTB does.
  std::string_view last_name;
  std::uint16_t last_id = trace::no_network_id;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const query_request& q = queries[i];
    if (i == 0 || q.network != last_name) {
      last_id = view_.network_id_of(q.network);
      last_name = q.network;
    }
    core::stream_lookup& l = lookups[i];
    l.zone = grid.zone_of(q.pos);
    l.network_id = last_id;
    l.metric = q.metric;
    l.now_s = q.time_s;
  }
  view_.lookup_batch(lookups);
  return lookups;
}

void coordinator_server::resolve_network_ids(
    std::span<trace::measurement_record> recs) const {
  std::string_view last_name;
  std::uint16_t last_id = trace::no_network_id;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    trace::measurement_record& r = recs[i];
    if (i == 0 || r.network != last_name) {
      last_id = coordinator_->network_id_of(r.network);
      last_name = r.network;
    }
    r.network_id = last_id;
  }
}

void coordinator_server::answer_error(err_code code, std::string_view detail,
                                      request_view::kind framing,
                                      reply_buffer& out) {
  auto& m = metrics();
  switch (code) {
    case err_code::parse:
      m.err_parse.inc();
      break;
    case err_code::unsupported:
      m.err_unsupported.inc();
      break;
    case err_code::stopped:
      m.err_stopped.inc();
      break;
    case err_code::version:
      m.err_version.inc();
      break;
    case err_code::internal:
      m.err_internal.inc();
      break;
    case err_code::overload:
      // Normally counted by the transport that shed the request (the
      // handler itself never sheds); kept here so the per-reason counters
      // stay total over every ERR source.
      m.err_overload.inc();
      break;
  }
  errors_.fetch_add(1, std::memory_order_relaxed);
  encode_error_into(code, detail, framing, out);
}

void encode_error_into(err_code code, std::string_view detail,
                       request_view::kind framing, reply_buffer& out) {
  if (framing == request_view::kind::binary) {
    v3::encode_error_frame(code, detail, out);
  } else {
    encode_error_into(code, detail, out);
  }
}

request_view request_view::text(std::string_view line) noexcept {
  static constexpr std::pair<std::string_view, proto::command> requests[] = {
      {"CHECKIN", command::checkin}, {"REPORT", command::report},
      {"REPORTB", command::reportb}, {"QUERY", command::query},
      {"QUERYB", command::queryb},   {"ALERTS", command::alerts},
      {"HELLO", command::hello},     {"STATS", command::stats}};
  const std::string_view type = message_type(line);
  for (const auto& [tag, cmd] : requests) {
    if (type == tag) return {kind::text, cmd, line};
  }
  return {kind::text, command::unknown, line};
}

request_view request_view::binary(std::string_view frame) noexcept {
  // Indexed by opcode byte; peek_header admits only defined opcodes.
  static constexpr proto::command by_opcode[] = {
      command::bad_envelope,                         // 0: no such opcode
      command::report,       command::reportb,       // 1-2
      command::query,        command::queryb,        // 3-4
      command::stray_reply,  command::stray_reply,   // 5-6: ack, est
      command::stray_reply,  command::stray_reply,   // 7-8: estb, err
      command::epoch,        command::epochb,        // 9-10
      command::snapshot_req, command::stray_reply,   // 11-12: snapshot_chunk
      command::promote};                             // 13
  static_assert(std::size(by_opcode) ==
                static_cast<std::size_t>(v3::opcode::promote) + 1);
  const auto hdr = v3::peek_header(frame);
  if (!hdr || frame.size() != v3::frame_header_bytes + hdr->payload_len) {
    return {kind::binary, command::bad_envelope, frame};
  }
  return {kind::binary, by_opcode[static_cast<std::uint8_t>(hdr->op)], frame};
}

request_view request_view::detect(std::string_view data) noexcept {
  return v3::is_frame_start(data) ? binary(data) : text(data);
}

void coordinator_server::handle(request_view req, reply_buffer& out) {
  auto& m = metrics();
  const std::size_t base = out.size();
  const request_view::kind framing = req.framing();
  const bool binary = framing == request_view::kind::binary;
  const std::string_view bytes = req.bytes();
  m.lines.inc();
  if (binary) m.binary_frames.inc();
  // ERR replaces, never appends: a partially rendered reply (a QUERYB
  // frame that ERRs mid-payload) is truncated back to `base` first.
  const auto fail = [&](err_code code, std::string_view detail) {
    out.truncate(base);
    answer_error(code, detail, framing, out);
  };
  // Scenario seam: an injected fault refuses the request before dispatch,
  // answering the typed ERR a dying transport/overloaded server would --
  // clients and accounting exercise the real rejection path. Whole-request
  // granularity keeps REPORTB frames all-or-nothing, and fault ordinals
  // stay comparable across framings. One relaxed load when no hook is
  // installed.
  if (core::fault::fire(core::fault::site::server_handle) ==
      core::fault::action::fail) {
    m.faults_injected.inc();
    fail(err_code::internal, "injected fault: request refused");
    m.reply_bytes.inc(out.size() - base);
    return;
  }
  try {
    switch (req.command()) {
      case command::checkin: {
        obs::span timed(m.checkin_latency);
        const auto chk = decode_checkin(bytes);
        const auto task =
            coordinator_->checkin(chk.pos, chk.time_s, chk.network_index,
                                  chk.active_in_zone, chk.client_id);
        m.checkins.inc();
        if (!task) {
          out.append("IDLE");
        } else {
          tasks_.fetch_add(1, std::memory_order_relaxed);
          task_assignment rep;
          rep.kind = task->kind;
          rep.network_index = static_cast<std::uint32_t>(task->network_index);
          encode_into(rep, out);
        }
        break;
      }
      case command::report: {
        obs::span timed(m.report_latency);
        auto rep = binary ? v3::decode_report_frame(bytes)
                          : decode_report(bytes);
        resolve_network_ids({&rep.record, 1});
        if (!coordinator_->report(rep.record)) {
          fail(err_code::stopped, "ingestion pipeline stopped");
          break;
        }
        reports_.fetch_add(1, std::memory_order_relaxed);
        m.reports.inc();
        if (binary) {
          v3::encode_ack_frame(out);
        } else {
          out.append("ACK");
        }
        break;
      }
      case command::reportb: {
        obs::span timed(m.batch_latency);
        auto& recs = out.records_scratch_;
        if (binary) {
          v3::decode_report_batch_frame_into(bytes, recs);
        } else {
          decode_report_batch_into(bytes, recs);
        }
        resolve_network_ids(recs);
        // The pipeline takes the decoded vector itself (no copy) and leaves
        // recs empty, so count first.
        const std::size_t n = recs.size();
        if (coordinator_->report_owned(recs, out.routes_scratch_) != n) {
          fail(err_code::stopped, "ingestion pipeline stopped");
          break;
        }
        reports_.fetch_add(n, std::memory_order_relaxed);
        m.reports.inc(n);
        m.report_batches.inc();
        if (binary) {
          v3::encode_ack_frame(n, out);
        } else {
          out.append("ACK ");
          out.append_u64(n);
        }
        break;
      }
      case command::query: {
        obs::span timed(m.query_latency);
        const auto q =
            binary ? v3::decode_query_frame(bytes) : decode_query(bytes);
        m.queries.inc();
        const core::stream_lookup& l = lookup_all({&q, 1}, out)[0];
        if (binary) {
          v3::encode_estimate_frame(l, q.network, out);
        } else {
          encode_into(l, q.network, out);
        }
        break;
      }
      case command::queryb: {
        obs::span timed(m.query_batch_latency);
        auto& queries = out.queries_scratch_;
        if (binary) {
          v3::decode_query_batch_frame_into(bytes, queries);
        } else {
          decode_query_batch_into(bytes, queries);
        }
        const auto lookups = lookup_all(queries, out);
        if (binary) {
          v3::estimate_batch_builder estb(
              static_cast<std::uint32_t>(queries.size()), out);
          for (std::size_t i = 0; i < queries.size(); ++i) {
            estb.add(lookups[i], queries[i].network);
          }
          estb.finish();
        } else {
          out.append("ESTB ");
          out.append_u64(queries.size());
          for (std::size_t i = 0; i < queries.size(); ++i) {
            out.append('\n');
            encode_into(lookups[i], queries[i].network, out);
          }
        }
        m.queries.inc(queries.size());
        m.query_batches.inc();
        break;
      }
      case command::alerts: {
        obs::span timed(m.alerts_latency);
        const auto ask = decode_alerts_request(bytes);
        const auto drained = view_.alerts_since(
            ask.since, std::min<std::size_t>(ask.max, max_alert_batch));
        alerts_reply rep;
        rep.alerts.reserve(drained.alerts.size());
        for (const auto& a : drained.alerts) {
          alert_event ev;
          ev.seq = a.seq;
          ev.zone = a.alert.key.zone;
          ev.network = a.alert.key.network;
          ev.metric = a.alert.key.metric;
          ev.epoch_start_s = a.alert.epoch_start_s;
          ev.previous_mean = a.alert.previous_mean;
          ev.new_mean = a.alert.new_mean;
          ev.previous_stddev = a.alert.previous_stddev;
          rep.alerts.push_back(std::move(ev));
        }
        rep.next_seq = drained.next_seq;
        rep.dropped = drained.dropped;
        m.alerts_requests.inc();
        encode_into(rep, out);
        break;
      }
      case command::hello: {
        const auto hello = decode_hello(bytes);
        if (hello.version < wire_min_version) {
          fail(err_code::version, "client version below supported minimum");
          break;
        }
        m.hellos.inc();
        hello_reply rep;
        rep.version = std::min(hello.version, opts_.advertised_version);
        rep.min_version = wire_min_version;
        encode_into(rep, out);
        break;
      }
      case command::stats:
        m.stats_requests.inc();
        encode_stats_into(out);
        break;
      case command::epoch: {
        // Replication pull: serve log records after the follower's
        // sequence cursor. Decode-before-dispatch keeps the error classes
        // honest (a malformed pull is parse, not unsupported).
        const auto pull = v3::decode_epoch_pull_frame(bytes);
        if (repl_ == nullptr) {
          fail(err_code::unsupported, "replication not attached");
          break;
        }
        auto& updates = out.epochs_scratch_;
        updates.clear();
        const auto max = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(pull.max_records, v3::max_epoch_batch));
        if (!repl_->pull(pull.since_seq, max, updates)) {
          fail(err_code::stopped,
               "log truncated below requested seq; snapshot required");
        } else {
          v3::encode_epoch_batch_frame(updates, out);
        }
        break;
      }
      case command::epochb: {
        // An EPOCHB arriving as a request is a follower-apply: the
        // leader->follower stream pushes the same bytes a pull returns.
        auto& updates = out.epochs_scratch_;
        v3::decode_epoch_batch_frame_into(bytes, updates);
        if (repl_ == nullptr) {
          fail(err_code::unsupported, "replication not attached");
        } else {
          v3::encode_ack_frame(repl_->apply(updates), out);
        }
        break;
      }
      case command::snapshot_req: {
        const std::uint64_t offset = v3::decode_snapshot_req_frame(bytes);
        if (repl_ == nullptr) {
          fail(err_code::unsupported, "replication not attached");
          break;
        }
        // Chunk staging allocates (snapshot bytes are cold-path by
        // definition: catch-up happens once per join, not per request).
        std::string data;
        std::uint64_t total = 0;
        bool last = false;
        if (!repl_->snapshot(offset, data, total, last)) {
          fail(err_code::parse, "snapshot offset beyond end");
        } else {
          v3::encode_snapshot_chunk_frame(offset, total, last, data, out);
        }
        break;
      }
      case command::promote:
        v3::decode_promote_frame(bytes);
        if (repl_ == nullptr) {
          fail(err_code::unsupported, "replication not attached");
        } else if (!repl_->promote()) {
          fail(err_code::unsupported, "promotion refused");
        } else {
          v3::encode_ack_frame(out);
        }
        break;
      case command::stray_reply: {
        // The binary analogue of a client sending "EST ...": a valid frame,
        // but not a request.
        char detail[64];
        const int len = std::snprintf(
            detail, sizeof detail, "reply opcode '%s' is not a request",
            v3::opcode_name(v3::peek_header(bytes)->op));
        fail(err_code::unsupported,
             {detail, len > 0 ? static_cast<std::size_t>(len) : 0});
        break;
      }
      case command::bad_envelope:
        fail(err_code::parse, "malformed binary frame envelope");
        break;
      case command::unknown: {
        // Compose "unsupported request: '<clipped line>'" on the stack
        // (22-byte prefix + a 120-byte excerpt + "..." + quote fits in
        // 160); the ERR encoder applies the final 120-byte detail clip,
        // matching the historical error_excerpt composition byte-for-byte.
        char detail[160];
        std::size_t len = 0;
        const auto put = [&detail, &len](std::string_view s) {
          const std::size_t k = std::min(s.size(), sizeof detail - len);
          std::memcpy(detail + len, s.data(), k);
          len += k;
        };
        put("unsupported request: '");
        if (bytes.size() <= 120) {
          put(bytes);
        } else {
          put(bytes.substr(0, 120));
          put("...");
        }
        put("'");
        fail(err_code::unsupported, {detail, len});
        break;
      }
    }
  } catch (const std::invalid_argument& e) {
    // The protocol promises a reply per request; malformed input is a
    // client bug the server reports, not a server crash.
    fail(err_code::parse, e.what());
  } catch (const std::exception& e) {
    // Defense in depth: nothing below is expected to throw anything else on
    // wire input (the coordinator rejects bad records instead), but if it
    // does, answer ERR rather than letting the throw escape the protocol
    // layer and take down the transport.
    fail(err_code::internal, e.what());
  }
  m.reply_bytes.inc(out.size() - base);
}

void coordinator_server::handle_report_group(std::string_view block,
                                             std::size_t count,
                                             reply_buffer& out) {
  auto& m = metrics();
  // One latency sample for the whole group: report_latency measures handler
  // occupancy, and the group occupies the handler once.
  obs::span timed(m.report_latency);
  auto& recs = out.records_scratch_;
  auto& status = out.group_status_;
  auto& errs = out.group_errors_;
  recs.clear();
  status.clear();
  errs.clear();
  // Per-line status so replies stay positional: 0 = decoded ok, 1 = parse
  // error, 2 = internal error (an injected fault or an unexpected
  // exception). Error details are queued in line order (cold path; a clean
  // group never touches them).
  constexpr std::uint8_t st_ok = 0, st_parse = 1, st_internal = 2;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < count; ++i) {
    m.lines.inc();
    const std::size_t nl = block.find('\n', pos);
    std::string_view line =
        block.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    pos = nl + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    // The fault seam fires once per line, exactly as per-line dispatch
    // would: a scenario that injects every-Nth-request failures sees the
    // same rejection positions whether or not the transport grouped.
    if (core::fault::fire(core::fault::site::server_handle) ==
        core::fault::action::fail) {
      m.faults_injected.inc();
      errs.emplace_back("injected fault: request refused");
      status.push_back(st_internal);
      continue;
    }
    try {
      recs.push_back(decode_report(line).record);
      status.push_back(st_ok);
    } catch (const std::invalid_argument& e) {
      errs.emplace_back(e.what());
      status.push_back(st_parse);
    } catch (const std::exception& e) {
      errs.emplace_back(e.what());
      status.push_back(st_internal);
    }
  }
  // One submission for every record that decoded: one ingestion queue lock
  // and one counter delta per group. A stopped pipeline refuses the whole
  // group (ERR stopped on every decoded line), mirroring REPORTB's
  // all-or-nothing discipline.
  bool stopped = false;
  if (!recs.empty()) {
    resolve_network_ids(recs);
    const std::size_t n = recs.size();
    stopped = coordinator_->report_owned(recs, out.routes_scratch_) != n;
  }
  std::size_t n_ok = 0;
  std::size_t err_i = 0;
  std::size_t reply_bytes = 0;
  for (const std::uint8_t st : status) {
    const std::size_t before = out.size();
    if (st == st_ok && !stopped) {
      out.append("ACK");
      ++n_ok;
    } else if (st == st_ok) {
      answer_error(err_code::stopped, "ingestion pipeline stopped",
                   request_view::kind::text, out);
    } else {
      answer_error(st == st_parse ? err_code::parse : err_code::internal,
                   errs[err_i++], request_view::kind::text, out);
    }
    reply_bytes += out.size() - before;
    out.append('\n');
  }
  if (n_ok > 0) {
    reports_.fetch_add(n_ok, std::memory_order_relaxed);
    m.reports.inc(n_ok);
  }
  // reply_bytes counts reply payloads, not the '\n' separators, so the
  // counter matches what count handle() calls would have recorded.
  m.reply_bytes.inc(reply_bytes);
}

}  // namespace wiscape::proto
