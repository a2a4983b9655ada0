#include "core/epoch_codec.h"

#include <charconv>
#include <stdexcept>

namespace wiscape::core::epoch_codec {

namespace {

void put_num(std::string& out, double v) { put_double(out, v); }

template <typename Int>
void put_num(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// `<zone> <network> <metric>` then ` <v>` for each of `vs`.
template <typename... Nums>
void put_key_fields(std::string& out, const estimate_key& key, Nums... vs) {
  put_num(out, key.zone.ix);
  out += ':';
  put_num(out, key.zone.iy);
  out += ' ';
  out += key.network;
  out += ' ';
  out += trace::metric_name(key.metric);
  ((out += ' ', put_num(out, vs)), ...);
}

// The record is the EPOCHB element, so its refusals read like the frame
// decoder's.
[[noreturn]] void cut_at(const char* what) {
  throw std::invalid_argument(std::string("binary frame truncated at ") +
                              what);
}

}  // namespace

void put_record(std::string& out, std::uint64_t seq, const estimate_key& key,
                const epoch_estimate& est, std::uint64_t alert_seq) {
  const std::size_t name = std::min<std::size_t>(key.network.size(), 0xffff);
  const std::size_t at = out.size();
  out.resize(at + min_record_bytes + name);
  char* p = out.data() + at;
  p = store(p, seq);
  p = store(p, static_cast<std::int32_t>(key.zone.ix));
  p = store(p, static_cast<std::int32_t>(key.zone.iy));
  p = store(p, static_cast<std::uint8_t>(key.metric));
  p = store(p, est.epoch_start_s);
  p = store(p, est.mean);
  p = store(p, est.stddev);
  p = store(p, static_cast<std::uint64_t>(est.samples));
  p = store(p, alert_seq);
  p = store(p, static_cast<std::uint16_t>(name));
  std::memcpy(p, key.network.data(), name);
}

std::size_t get_record(std::string_view bytes, epoch_update& u) {
  if (bytes.size() < record_fixed_bytes) cut_at("epoch fixed fields");
  const char* p = bytes.data();
  u.seq = load<std::uint64_t>(p);
  u.key.zone.ix = load<std::int32_t>(p);
  u.key.zone.iy = load<std::int32_t>(p);
  const std::uint8_t metric = load<std::uint8_t>(p);
  if (metric >= trace::metric_count) {
    throw std::invalid_argument("bad metric byte " + std::to_string(metric));
  }
  u.key.metric = static_cast<trace::metric>(metric);
  u.est.epoch_start_s = load<double>(p);
  u.est.mean = load<double>(p);
  u.est.stddev = load<double>(p);
  u.est.samples = static_cast<std::size_t>(load<std::uint64_t>(p));
  u.alert_seq = load<std::uint64_t>(p);
  if (bytes.size() < min_record_bytes) cut_at("epoch.network");
  const std::size_t name = load<std::uint16_t>(p);
  if (bytes.size() < min_record_bytes + name) cut_at("epoch.network");
  u.key.network.assign(p, name);
  return min_record_bytes + name;
}

void put_double(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                std::chars_format::general, 17)
                      .ptr);
}

void put_est(std::string& out, const estimate_key& key,
             const epoch_estimate& est) {
  out += "EST ";
  put_key_fields(out, key, est.epoch_start_s, est.mean, est.stddev,
                 est.samples);
  out += '\n';
}

void put_open(std::string& out, const estimate_key& key,
              const open_epoch_state& st) {
  out += "OPEN ";
  put_key_fields(out, key, st.open_start_s, st.n, st.mean, st.m2);
  out += '\n';
}

}  // namespace wiscape::core::epoch_codec
