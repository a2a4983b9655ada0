#include "proto/client.h"

#include <algorithm>
#include <charconv>
#include <system_error>

namespace wiscape::proto {

namespace {

[[noreturn]] void unexpected(std::string_view reply) {
  throw std::runtime_error("proto::client: unexpected reply: " +
                           error_excerpt(reply));
}

}  // namespace

reply_error::reply_error(err_code code, std::string_view detail)
    : std::runtime_error("ERR " + std::string(to_string(code)) +
                         (detail.empty() ? "" : " ") + std::string(detail)),
      code_(code),
      detail_(detail) {}

std::string_view client::exchange(std::string_view request, v3::opcode op,
                                  std::string_view tag, std::string_view alt) {
  reply_ = send_(request);
  if (v3::is_frame_start(reply_)) {
    const auto hdr = v3::peek_header(reply_);
    if (!hdr) unexpected(reply_);
    if (hdr->op == v3::opcode::err) {
      const v3::error_frame e = v3::decode_error_frame(reply_);
      throw reply_error(e.code, e.detail);
    }
    if (hdr->op != op) unexpected(reply_);
    return {};
  }
  const std::string_view type = message_type(reply_);
  if (type == "ERR") {
    // "ERR <code> <detail>": the code token, then the human detail.
    std::string_view rest = std::string_view(reply_).substr(3);
    if (!rest.empty()) rest.remove_prefix(1);
    const std::size_t sp = rest.find(' ');
    const std::string_view token = rest.substr(0, sp);
    const std::string_view detail =
        sp == std::string_view::npos ? std::string_view() : rest.substr(sp + 1);
    throw reply_error(err_code_from_string(token).value_or(err_code::internal),
                      detail);
  }
  if (type.empty() || (type != tag && type != alt)) unexpected(reply_);
  return type;
}

hello_reply client::hello(std::uint32_t version) {
  hello_request req;
  req.version = version;
  exchange(encode(req), v3::opcode::err, "HELLO");
  return decode_hello_reply(reply_);
}

std::optional<task_assignment> client::checkin(const checkin_request& req) {
  if (exchange(encode(req), v3::opcode::err, "TASK", "IDLE") == "IDLE") {
    return std::nullopt;
  }
  return decode_task(reply_);
}

void client::report(const measurement_report& m) {
  if (binary()) {
    request_.clear();
    v3::encode_report_frame(m, request_);
    exchange_staged(v3::opcode::ack);
  } else {
    exchange(encode(m), v3::opcode::ack, "ACK");
  }
}

std::uint64_t client::report_batch(
    std::span<const trace::measurement_record> recs) {
  if (binary()) {
    request_.clear();
    v3::encode_report_batch_frame(recs, request_);
    exchange_staged(v3::opcode::ack);
    return v3::decode_ack_frame(reply_).count;
  }
  exchange(encode_report_batch(recs), v3::opcode::ack, "ACK");
  // "ACK <n>"
  std::uint64_t n = 0;
  const char* end = reply_.data() + reply_.size();
  const auto parsed = std::from_chars(
      reply_.data() + std::min<std::size_t>(4, reply_.size()), end, n);
  if (parsed.ec != std::errc{} || parsed.ptr != end) unexpected(reply_);
  return n;
}

std::optional<estimate_reply> client::query(const query_request& q) {
  if (binary()) {
    request_.clear();
    v3::encode_query_frame(q, request_);
    exchange_staged(v3::opcode::est);
    return v3::decode_estimate_frame(reply_);
  }
  if (exchange(encode(q), v3::opcode::est, "EST", "NONE") == "NONE") {
    return std::nullopt;
  }
  return decode_estimate(reply_);
}

std::vector<std::optional<estimate_reply>> client::query_batch(
    std::span<const query_request> queries) {
  if (binary()) {
    request_.clear();
    v3::encode_query_batch_frame(queries, request_);
    exchange_staged(v3::opcode::estb);
    return v3::decode_estimate_batch_frame(reply_);
  }
  exchange(encode_query_batch(queries), v3::opcode::estb, "ESTB");
  return decode_estimate_batch(reply_);
}

alerts_reply client::alerts(std::uint64_t since, std::uint32_t max) {
  alerts_request req;
  req.since = since;
  req.max = max;
  exchange(encode(req), v3::opcode::err, "ALERTS");
  return decode_alerts_reply(reply_);
}

std::span<const epoch_update> client::pull(std::uint64_t since_seq,
                                           std::uint32_t max_records) {
  request_.clear();
  v3::encode_epoch_pull_frame({since_seq, max_records}, request_);
  exchange_staged(v3::opcode::epochb);
  v3::decode_epoch_batch_frame_into(reply_, epochs_);
  return epochs_;
}

v3::snapshot_chunk client::snapshot(std::uint64_t offset) {
  request_.clear();
  v3::encode_snapshot_req_frame(offset, request_);
  exchange_staged(v3::opcode::snapshot_chunk);
  return v3::decode_snapshot_chunk_frame(reply_);
}

void client::promote() {
  request_.clear();
  v3::encode_promote_frame(request_);
  exchange_staged(v3::opcode::ack);
}

std::optional<trace::measurement_record> remote_agent::step(
    const mobility::gps_fix& fix, std::uint32_t network_index,
    std::uint32_t active_in_zone) {
  checkin_request req;
  req.client_id = client_id_;
  req.pos = fix.pos;
  req.time_s = fix.time_s;
  req.network_index = network_index;
  req.active_in_zone = active_in_zone;
  req.device = device_.name;

  const std::optional<task_assignment> task = client_.checkin(req);
  if (!task) return std::nullopt;

  trace::measurement_record rec;
  switch (task->kind) {
    case trace::probe_kind::tcp_download: {
      probe::tcp_probe_params params;
      if (task->tcp_bytes > 0) params.bytes = task->tcp_bytes;
      rec = engine_->tcp_probe(task->network_index, fix, params, device_);
      break;
    }
    case trace::probe_kind::udp_burst: {
      probe::udp_probe_params params;
      if (task->udp_packets > 0) params.packets = task->udp_packets;
      rec = engine_->udp_probe(task->network_index, fix, params, device_);
      break;
    }
    case trace::probe_kind::udp_uplink: {
      probe::udp_probe_params params;
      if (task->udp_packets > 0) params.packets = task->udp_packets;
      rec = engine_->udp_uplink_probe(task->network_index, fix, params,
                                      device_);
      break;
    }
    case trace::probe_kind::ping: {
      probe::ping_probe_params params;
      if (task->ping_count > 0) params.count = task->ping_count;
      rec = engine_->ping_probe(task->network_index, fix, params, device_);
      break;
    }
  }

  rec.client_id = client_id_;
  measurement_report rep;
  rep.client_id = client_id_;
  rep.record = rec;
  client_.report(rep);
  return rec;
}

}  // namespace wiscape::proto
