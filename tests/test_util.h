// Shared fixtures for the WiScape test suite: a small, fast deployment and
// synthetic series generators.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "cellnet/deployment.h"
#include "cellnet/presets.h"
#include "core/persist.h"
#include "core/sharded_coordinator.h"
#include "proto/server.h"
#include "stats/rng.h"
#include "stats/time_series.h"
#include "trace/dataset.h"

namespace wiscape::testing {

/// A compact two-operator deployment (4 x 4 km) that builds in microseconds
/// and has full coverage in its core.
inline cellnet::deployment tiny_deployment(std::uint64_t seed = 11) {
  geo::projection proj(cellnet::anchors::madison);
  cellnet::extent area{4000.0, 4000.0};
  std::vector<cellnet::operator_config> ops;
  for (const char* name : {"NetB", "NetC"}) {
    cellnet::operator_config o;
    o.name = name;
    o.tech = radio::technology::evdo_rev_a;
    o.seed = stats::rng_stream(seed).fork(name).seed();
    o.tower_spacing_m = 1500.0;
    o.capacity_scale = name[3] == 'B' ? 0.9 : 1.1;
    ops.push_back(o);
  }
  return cellnet::deployment(proj, area, std::move(ops));
}

/// White-noise series: `n` samples at `dt` spacing, N(mean, sigma).
inline stats::time_series noise_series(std::size_t n, double dt, double mean,
                                       double sigma, std::uint64_t seed = 5) {
  stats::rng_stream rng(seed);
  stats::time_series ts;
  for (std::size_t i = 0; i < n; ++i) {
    ts.add(static_cast<double>(i) * dt, rng.normal(mean, sigma));
  }
  return ts;
}

/// Noise plus a slow sinusoidal drift of the given period and amplitude.
inline stats::time_series drift_series(std::size_t n, double dt, double mean,
                                       double noise_sigma, double drift_amp,
                                       double drift_period_s,
                                       std::uint64_t seed = 6) {
  stats::rng_stream rng(seed);
  stats::time_series ts;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * dt;
    ts.add(t, mean + drift_amp * std::sin(2.0 * 3.14159265358979 * t /
                                          drift_period_s) +
                   rng.normal(0.0, noise_sigma));
  }
  return ts;
}

/// A minimal successful record for dataset-level tests.
inline trace::measurement_record make_record(double time_s,
                                             const std::string& net,
                                             geo::lat_lon pos,
                                             trace::probe_kind kind,
                                             double value) {
  trace::measurement_record r;
  r.time_s = time_s;
  r.network = net;
  r.pos = pos;
  r.kind = kind;
  r.success = true;
  switch (kind) {
    case trace::probe_kind::tcp_download:
    case trace::probe_kind::udp_burst:
    case trace::probe_kind::udp_uplink:
      r.throughput_bps = value;
      break;
    case trace::probe_kind::ping:
      r.rtt_s = value;
      r.ping_sent = 5;
      break;
  }
  return r;
}

/// Successful NetB tcp_download reports from `pos` at `times`, the
/// throughput rising 1 kbps per report: one stream per metric, whose
/// epochs are easy to count.
inline std::vector<trace::measurement_record> reports_at(
    geo::lat_lon pos, std::initializer_list<double> times) {
  std::vector<trace::measurement_record> out;
  for (const double t : times) {
    const double bps = 1.0e6 + 1000.0 * static_cast<double>(out.size());
    out.push_back(
        make_record(t, "NetB", pos, trace::probe_kind::tcp_download, bps));
  }
  return out;
}

/// Every stream's frozen history and open epoch in the snapshot's format
/// and key order: core::save_state without its ALERTSEQ line. Two states
/// equal here serve the same estimates and resume the same open epochs.
inline std::string estimate_state(const core::durable_state& st) {
  std::string out;
  core::save_state(out, st);
  return out.substr(0, out.rfind("ALERTSEQ"));
}

/// A 1-shard synchronous sharded_coordinator: reports apply inline on the
/// caller's thread, so it answers exactly as core::coordinator(grid,
/// networks, cfg, seed) would (sharded_coordinator_test holds the two
/// bit-equal). The sequential configuration tests serve from.
inline core::sharded_coordinator sync_coordinator(
    geo::zone_grid grid, std::vector<std::string> networks,
    core::coordinator_config cfg, std::uint64_t seed) {
  core::sharded_config scfg;
  scfg.coordinator = cfg;
  scfg.num_shards = 1;
  scfg.synchronous = true;
  return core::sharded_coordinator(std::move(grid), std::move(networks), scfg,
                                   seed);
}

/// Every alert `ring` still holds, drained from cursor 0, in raise
/// (sequence) order. The ring is the only place alerts are kept: size
/// alert_ring_capacity so that nothing a test compares is evicted.
inline std::vector<core::change_alert> drained_alerts(
    const core::alert_ring& ring) {
  std::vector<core::change_alert> out;
  for (const auto& a : ring.drain_since(0, ring.capacity()).alerts) {
    out.push_back(a.alert);
  }
  return out;
}

/// drained_alerts() sorted by (epoch_start_s, key, new_mean), so alerts
/// raised by several shards compare equal whatever order the shards
/// interleaved them in.
inline std::vector<core::change_alert> sorted_alerts(
    const core::alert_ring& ring) {
  auto out = drained_alerts(ring);
  const auto order = [](const core::change_alert& a) {
    return std::make_tuple(a.epoch_start_s, a.key.zone.ix, a.key.zone.iy,
                           a.key.network, static_cast<int>(a.key.metric),
                           a.new_mean);
  };
  std::sort(out.begin(), out.end(),
            [&](const core::change_alert& a, const core::change_alert& b) {
              return order(a) < order(b);
            });
  return out;
}

/// One request through coordinator_server::handle(): the framing detected
/// from the leading byte, the reply rendered into a fresh reply_buffer and
/// returned as a string.
inline std::string reply_of(proto::coordinator_server& server,
                            std::string_view bytes) {
  proto::reply_buffer out;
  server.handle(proto::request_view::detect(bytes), out);
  return std::string(out.view());
}

/// What an `_into` codec leaves in a fresh `Out`: tests read the
/// zero-allocation codecs' results through this instead of a copying
/// flavour kept for them, e.g.
///   into<std::vector<proto::query_request>>(proto::decode_query_batch_into,
///                                           frame)
template <typename Out, typename Codec, typename... Args>
Out into(Codec&& codec, Args&&... args) {
  Out out;
  std::forward<Codec>(codec)(std::forward<Args>(args)..., out);
  return out;
}

/// What a frame encoder appending to a reply_buffer writes into a fresh
/// one, as a string: the copying form the v3 codec keeps only for benches,
/// e.g. frame_of(proto::v3::encode_report_frame, report).
template <typename Codec, typename... Args>
std::string frame_of(Codec&& codec, Args&&... args) {
  return std::string(into<proto::reply_buffer>(std::forward<Codec>(codec),
                                                std::forward<Args>(args)...)
                         .view());
}

}  // namespace wiscape::testing
