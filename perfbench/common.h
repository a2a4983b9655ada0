// Shared pieces of the WiScape serving benchmark: the seeded key space and
// request generators, the latency/ladder statistics, the table fingerprint
// and a tiny JSON writer. Everything here is deterministic in the workload
// seed; the server, the load generator, the traced replay and the
// benchmark's own tests all include it, so they agree byte for byte on what
// "the request stream of seed N" is.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cellnet/presets.h"
#include "core/sharded_coordinator.h"
#include "geo/projection.h"
#include "geo/zone_grid.h"
#include "trace/record.h"

namespace pb {

using namespace wiscape;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
inline double u01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// ---- workload shapes -------------------------------------------------------

/// The fixed shape of one workload: key space, server configuration, rates
/// and sizes. This is the one place they are defined; changing any of them
/// changes what is measured.
struct workload {
  std::string name;
  int side = 0;              ///< warm key space: side x side zones
  double epoch_s = 0.0;      ///< coordinator default epoch length (data time)
  int warm_epochs = 3;       ///< frozen epochs per warm stream at setup
  double zipf_s = 1.0;       ///< zone popularity skew
  std::size_t loops = 1;     ///< server event loops
  std::size_t shards = 1;    ///< server shard workers
  std::size_t report_conns = 0;  ///< generator connections carrying reports
  double probe_period_s = 0.002; ///< freshness/check-in probe cadence
  bool text_probe = false;       ///< probe QUERYs as text v2 (else binary v3)
  bool wal_live = false;         ///< leader appends rollovers to its WAL
  bool follower = false;         ///< a follower process replicates the leader
  int poll_ms = 2;               ///< follower EPOCH poll interval
  // ingest: an open-loop REPORTB rate ladder.
  std::vector<double> rates;     ///< ladder rungs, records/s
  std::size_t ref_rung = 0;      ///< rung whose latencies and CPU are reported
  // serve: QUERYB readers, closed loop for the first saturation_frac of
  // the run (capacity), then open loop at query_rate (CPU time, latency),
  // beside an open-loop REPORTB trickle.
  double saturation_frac = 0.0;
  std::size_t query_conns = 0;
  std::size_t query_depth = 0;   ///< QUERYB frames in flight per reader
  double query_rate = 0.0;       ///< lookups/s over all readers, open loop
  double trickle_rate = 0.0;     ///< records/s
  // fleet: open-loop phone cycles.
  double cycle_rate = 0.0;       ///< cycles/s over all phone connections
};

inline workload workload_by_name(std::string_view name) {
  workload w;
  w.name = std::string(name);
  if (name == "ingest") {
    w.side = 96;  // ~110k streams, well past L2
    w.epoch_s = 1800.0;
    w.report_conns = 2;
    // The top rung is past what one event loop and one shard take (2-3.6M
    // records/s closed loop), so the ladder ends slow.
    w.rates = {500000, 1000000, 2000000, 3200000};
    w.ref_rung = 1;
  } else if (name == "serve") {
    w.side = 96;
    w.epoch_s = 1800.0;
    w.zipf_s = 1.1;
    w.report_conns = 1;  // the REPORTB trickle
    w.saturation_frac = 0.3;
    w.query_conns = 2;
    w.query_depth = 4;
    w.query_rate = 1.5e6;  // under half of what one event loop answers
    w.trickle_rate = 20000.0;
  } else if (name == "fleet") {
    w.side = 40;  // ~19k streams; the follower copies them at setup
    w.probe_period_s = 0.005;  // each probe also waits for the follower
    w.epoch_s = 60.0;
    w.report_conns = 2;
    w.text_probe = true;
    w.wal_live = true;
    w.follower = true;
    // At 4000 cycles/s the follower's polls and the probe phone, a load
    // fixed per second, spread CPU per request by 12% across seeds.
    w.cycle_rate = 8000.0;
  } else {
    w.name.clear();
  }
  return w;
}

inline const std::vector<std::string>& networks() {
  static const std::vector<std::string> nets{"NetB", "NetC"};
  return nets;
}

inline core::sharded_config coordinator_config(const workload& w,
                                               std::size_t shards,
                                               bool synchronous) {
  core::sharded_config cfg;
  cfg.num_shards = shards;
  cfg.synchronous = synchronous;
  // About 30 ms of ingest's 2M records/s rung: with the default 4096 a host
  // stall of a few milliseconds filled the queue, which now blocks the event
  // loop (the servers do not shed).
  cfg.queue_capacity = 65536;
  cfg.coordinator.epochs.default_epoch_s = w.epoch_s;
  return cfg;
}

/// Fixed server-side seed: the coordinator's task rng. The workload seed
/// only shapes the generated requests and the prepared warm state.
inline constexpr std::uint64_t kServerSeed = 17;

// ---- key space --------------------------------------------------------------

/// The zones of one workload, their popularity and their owners. Zone
/// (ix, iy) with 0 <= ix, iy < side is warm; probe zones sit in a row of
/// their own above the grid so probes never share a stream with the load.
class keyspace {
 public:
  keyspace(const workload& w, std::uint64_t seed, std::size_t owners)
      : proj_(cellnet::anchors::madison), grid_(proj_, 250.0), side_(w.side) {
    const std::size_t n = static_cast<std::size_t>(side_) * side_;
    centers_.resize(n);
    for (int iy = 0; iy < side_; ++iy) {
      for (int ix = 0; ix < side_; ++ix) {
        centers_[static_cast<std::size_t>(iy) * side_ + ix] =
            grid_.center(geo::zone_id{ix, iy});
      }
    }
    // Popularity rank -> zone: a seeded permutation, so the hot set moves
    // with the seed but is the same for every process given one seed.
    std::vector<std::uint32_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint32_t>(i);
    std::uint64_t h = mix(seed ^ 0x5EED5EEDull);
    for (std::size_t i = n - 1; i > 0; --i) {
      h = mix(h);
      std::swap(perm[i], perm[h % (i + 1)]);
    }
    ranked_ = perm;
    // Owner o gets ranks o, o + owners, ... : every owner has hot and cold
    // zones, and no zone has two owners.
    owned_.assign(std::max<std::size_t>(owners, 1), {});
    cdf_.assign(owned_.size(), {});
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t o = r % owned_.size();
      owned_[o].push_back(perm[r]);
      const double wgt = 1.0 / std::pow(static_cast<double>(r + 1), w.zipf_s);
      cdf_[o].push_back((cdf_[o].empty() ? 0.0 : cdf_[o].back()) + wgt);
    }
    full_cdf_.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
      const double wgt = 1.0 / std::pow(static_cast<double>(r + 1), w.zipf_s);
      full_cdf_.push_back((full_cdf_.empty() ? 0.0 : full_cdf_.back()) + wgt);
    }
  }

  const geo::zone_grid& grid() const noexcept { return grid_; }
  int side() const noexcept { return side_; }
  std::size_t zones() const noexcept { return centers_.size(); }
  std::size_t owners() const noexcept { return owned_.size(); }
  const std::vector<std::uint32_t>& owned(std::size_t o) const {
    return owned_[o];
  }
  geo::zone_id zone(std::uint32_t index) const noexcept {
    return geo::zone_id{static_cast<int>(index % side_),
                        static_cast<int>(index / side_)};
  }
  const geo::lat_lon& center(std::uint32_t index) const {
    return centers_[index];
  }
  /// Zipf draw of a zone owned by `o`.
  std::uint32_t draw_owned(std::size_t o, double u) const {
    const auto& c = cdf_[o];
    const auto it = std::lower_bound(c.begin(), c.end(), u * c.back());
    return owned_[o][std::min<std::size_t>(it - c.begin(), c.size() - 1)];
  }
  /// Zipf draw over every warm zone (query popularity).
  std::uint32_t draw_any(double u) const {
    const auto it =
        std::lower_bound(full_cdf_.begin(), full_cdf_.end(), u * full_cdf_.back());
    return ranked_[std::min<std::size_t>(it - full_cdf_.begin(),
                                         full_cdf_.size() - 1)];
  }
  /// The `k`-th most popular zone.
  std::uint32_t hot(std::size_t k) const { return ranked_[k % ranked_.size()]; }
  /// Probe zone `k` (outside the warm grid).
  geo::zone_id probe_zone(std::size_t k) const noexcept {
    return geo::zone_id{static_cast<int>(k), side_ + 4};
  }
  geo::lat_lon probe_center(std::size_t k) const {
    return grid_.center(probe_zone(k));
  }

 private:
  geo::projection proj_;
  geo::zone_grid grid_;
  int side_;
  std::vector<geo::lat_lon> centers_;
  std::vector<std::uint32_t> ranked_;
  std::vector<std::vector<std::uint32_t>> owned_;
  std::vector<std::vector<double>> cdf_;
  std::vector<double> full_cdf_;
};

/// Fills one measurement record of the given network and kind; the payload
/// values come from the hash.
inline void fill_record(std::uint64_t h, const geo::lat_lon& pos, double time_s,
                        std::size_t network, trace::probe_kind kind,
                        trace::measurement_record& r) {
  r.time_s = time_s;
  r.pos = pos;
  r.network = networks()[network];
  r.network_id = trace::no_network_id;
  r.client_id = 1 + ((h >> 24) % 4096);
  r.device = "phone";
  r.kind = kind;
  r.success = true;
  r.throughput_bps = r.loss_rate = r.jitter_s = r.rtt_s = 0.0;
  r.ping_sent = r.ping_failures = 0;
  const double v = u01(mix(h));
  switch (r.kind) {
    case trace::probe_kind::ping:
      r.rtt_s = 0.05 + 0.2 * v;
      r.ping_sent = 5;
      break;
    case trace::probe_kind::udp_burst:
      r.throughput_bps = 4e5 + 1.6e6 * v;
      r.loss_rate = 0.05 * u01(mix(h + 1));
      r.jitter_s = 0.002 + 0.01 * u01(mix(h + 2));
      break;
    default:
      r.throughput_bps = 5e5 + 2.5e6 * v;
      break;
  }
}

/// Data time where live traffic starts: the warm epochs are all frozen or
/// open before it.
inline double live_t0(const workload& w) {
  return static_cast<double>(w.warm_epochs) * w.epoch_s;
}

/// Record `i` of report connection `conn`. Zones are drawn from the
/// connection's own zones, so per-stream order is the connection's order.
/// Data time advances `dt_s` per record.
inline void report_record(const keyspace& ks, std::uint64_t seed,
                          std::size_t conn, std::uint64_t i, double t0,
                          double dt_s, trace::measurement_record& r) {
  const std::uint64_t h = mix(seed ^ mix((conn + 1) * 0x100000000ull + i));
  const std::uint32_t z = ks.draw_owned(conn, u01(h));
  const std::uint64_t g = mix(h);
  fill_record(g, ks.center(z), t0 + static_cast<double>(i) * dt_s, (g >> 8) & 1,
              static_cast<trace::probe_kind>((g >> 16) % 4), r);
}

/// The warm state the servers recover at setup: `warm_epochs` epochs of
/// two samples on each of the 12 streams of every warm zone. Sample `k`
/// (0..15) of `zone` in `epoch`.
inline constexpr std::uint64_t kWarmPerZone = 16;  // 2 networks x 4 kinds x 2

inline void warm_record(const keyspace& ks, std::uint64_t seed,
                        const workload& w, int epoch, const geo::zone_id& zone,
                        std::uint64_t k, trace::measurement_record& r) {
  const std::uint64_t h = mix(seed ^ mix((static_cast<std::uint64_t>(epoch) << 48) ^
                                         (static_cast<std::uint64_t>(zone.ix + 4096) << 32) ^
                                         (static_cast<std::uint64_t>(zone.iy + 4096) << 8) ^ k));
  fill_record(h, ks.grid().center(zone),
              w.epoch_s * (epoch + 0.1 + 0.8 * static_cast<double>(k) / kWarmPerZone),
              k & 1, static_cast<trace::probe_kind>((k >> 1) % 4), r);
}

/// Zones whose streams exist only in the prepared WAL: a row between the
/// warm grid and the probe zones, never touched by live traffic.
inline geo::zone_id wal_zone(const keyspace& ks, int ix) {
  return geo::zone_id{ix, ks.side() + 1};
}

// ---- statistics --------------------------------------------------------------

/// A latency summary by the benchmark's rule: the median plus the highest
/// of {p99, p90, p50} that has at least ten samples beyond it. p90 is kept
/// as well: it is the tail the end-to-end metrics report, because p99 does
/// not repeat run to run on a small shared host.
struct tail_summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double tail_pct = 0.0;  ///< which percentile `tail` is (0 = none)
  double tail = 0.0;
  std::size_t beyond = 0;  ///< samples strictly above the tail rank
  std::size_t windows = 1; ///< sub-windows whose medians these are
};

/// Nearest-rank percentile of sorted values.
inline double pct_sorted(const std::vector<double>& s, double p) {
  if (s.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * s.size()));
  rank = std::clamp<std::size_t>(rank, 1, s.size());
  return s[rank - 1];
}

inline tail_summary summarize(std::vector<double> v) {
  tail_summary t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  t.p50 = pct_sorted(v, 50.0);
  t.p90 = pct_sorted(v, 90.0);
  for (const double p : {99.0, 90.0, 50.0}) {
    const std::size_t rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(p / 100.0 * v.size())), 1, v.size());
    if (v.size() - rank >= 10) {
      t.tail_pct = p;
      t.tail = v[rank - 1];
      t.beyond = v.size() - rank;
      break;
    }
  }
  return t;
}

/// Latency samples with the time each was taken.
struct series {
  std::vector<double> t, v;
  void add(double at, double value) {
    t.push_back(at);
    v.push_back(value);
  }
  std::size_t size() const { return v.size(); }
};

/// Quantile `q` in [0, 1] (linear interpolation) of a set of values.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

/// Lower quartile of a set of per-window values.
inline double lower_quartile(std::vector<double> v) {
  return quantile(std::move(v), 0.25);
}

/// Event counts in fixed-width time bins from `t0`; events outside
/// [t0, end) are dropped.
struct time_bins {
  double t0 = 0.0, width = 0.01;
  std::vector<double> n;

  time_bins() = default;
  time_bins(double start, double end, double w)
      : t0(start), width(w),
        n(static_cast<std::size_t>(std::ceil((end - start) / w)), 0.0) {}
  void add(double t, double count = 1.0) {
    if (t < t0) return;
    const auto i = static_cast<std::size_t>((t - t0) / width);
    if (i < n.size()) n[i] += count;
  }
};

/// Events per second in each whole window of `window_s` inside [from, to).
inline std::vector<double> window_rates(const time_bins& b, double from,
                                        double to, double window_s) {
  const auto per = static_cast<std::size_t>(std::lround(window_s / b.width));
  const auto first = static_cast<std::size_t>(std::ceil((from - b.t0) / b.width));
  const auto last = std::min(
      b.n.size(), static_cast<std::size_t>(std::floor((to - b.t0) / b.width)));
  std::vector<double> rates;
  for (std::size_t i = first; per > 0 && i + per <= last; i += per) {
    double sum = 0.0;
    for (std::size_t k = i; k < i + per; ++k) sum += b.n[k];
    rates.push_back(sum / (static_cast<double>(per) * b.width));
  }
  return rates;
}

/// The series cut into windows of `window_s` from `t0`; each statistic is
/// the lower quartile of its per-window values. On a virtual machine whose
/// CPUs the host steals in bursts, up to three windows in four can be hit
/// without moving the figure, while a slower program is slower in every
/// window. The tail percentile is the highest one that has ten samples
/// beyond it in every window. Windows with fewer than twenty samples (the
/// ragged ends) are dropped.
inline tail_summary summarize_windows(const series& s, double t0,
                                      double window_s) {
  std::map<long, std::vector<double>> by_window;
  for (std::size_t i = 0; i < s.size(); ++i) {
    by_window[static_cast<long>(std::floor((s.t[i] - t0) / window_s))].push_back(
        s.v[i]);
  }
  std::vector<std::vector<double>> parts;
  for (auto& [w, v] : by_window) {
    if (v.size() < 20) continue;
    std::sort(v.begin(), v.end());
    parts.push_back(std::move(v));
  }
  if (parts.empty()) return summarize(s.v);
  tail_summary out;
  out.windows = parts.size();
  std::size_t fewest = parts.front().size();
  std::vector<double> p50, p90;
  for (const auto& v : parts) {
    out.n += v.size();
    fewest = std::min(fewest, v.size());
    p50.push_back(pct_sorted(v, 50.0));
    p90.push_back(pct_sorted(v, 90.0));
  }
  out.p50 = lower_quartile(p50);
  out.p90 = lower_quartile(p90);
  for (const double p : {99.0, 90.0, 50.0}) {
    const std::size_t rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(p / 100.0 * fewest)), 1, fewest);
    if (fewest - rank >= 10) {
      out.tail_pct = p;
      out.beyond = fewest - rank;
      std::vector<double> tails;
      for (const auto& v : parts) tails.push_back(pct_sorted(v, p));
      out.tail = lower_quartile(tails);
      break;
    }
  }
  return out;
}

/// Least-squares slope of y over x (0 with fewer than two points).
inline double slope(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) mx += x[i], my += y[i];
  mx /= n;
  my /= n;
  double sxy = 0, sxx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0 ? sxy / sxx : 0.0;
}

/// One rung of an open-loop rate ladder, as measured.
struct rung_result {
  double offered = 0.0;       ///< records/s the schedule asked for
  double achieved = 0.0;      ///< records/s ACKed within the rung
  double ack_p99_us = 0.0;
  double late_p99_us = 0.0;   ///< generator lateness: actual - due send time
  double backlog_slope = 0.0; ///< outstanding records per second of rung time
};

enum class rung_verdict { pass, slow, invalid };

/// A rung passes when its p99 ACK latency meets the limit and the backlog
/// does not grow faster than 10% of the offered rate; it is invalid (not
/// slow) when the generator itself ran late. The ladder's result is the
/// highest passing rung below which no valid rung was slow (-1 = none).
struct ladder_rules {
  double ack_p99_limit_us = 10000.0;
  // A quarter of the ACK limit: wakeups of a sleeping generator thread on
  // a virtual machine run up to ~1.5 ms late at p99.
  double late_p99_limit_us = 2500.0;
  double backlog_growth_frac = 0.10;
};

inline rung_verdict judge(const rung_result& r, const ladder_rules& rules) {
  if (r.late_p99_us > rules.late_p99_limit_us) return rung_verdict::invalid;
  if (r.ack_p99_us > rules.ack_p99_limit_us) return rung_verdict::slow;
  if (r.backlog_slope > rules.backlog_growth_frac * r.offered) {
    return rung_verdict::slow;
  }
  return rung_verdict::pass;
}

inline int ladder_top(const std::vector<rung_result>& rungs,
                      const ladder_rules& rules) {
  int top = -1;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const rung_verdict v = judge(rungs[i], rules);
    if (v == rung_verdict::slow) break;
    if (v == rung_verdict::pass) top = static_cast<int>(i);
  }
  return top;
}

inline const char* verdict_name(rung_verdict v) {
  return v == rung_verdict::pass ? "pass"
         : v == rung_verdict::slow ? "slow"
                                   : "invalid";
}

// ---- table fingerprint -------------------------------------------------------

struct fingerprint {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::uint64_t streams = 0;  ///< keys with at least one frozen epoch
  std::uint64_t epochs = 0;   ///< frozen epochs summed over those keys

  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) hash = (hash ^ b[i]) * 0x100000001b3ull;
  }
  template <class T>
  void add_value(const T& v) {
    add(&v, sizeof v);
  }
};

/// Every key -> latest frozen estimate (raw bits) + history length, in
/// sorted key order. Call on a flushed coordinator.
inline fingerprint table_fingerprint(const core::durable_state& st) {
  std::vector<core::estimate_key> keys = st.keys();
  std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    if (a.zone != b.zone) return a.zone < b.zone;
    if (a.network != b.network) return a.network < b.network;
    return a.metric < b.metric;
  });
  fingerprint fp;
  for (const auto& k : keys) {
    const auto hist = st.history(k);
    if (hist.empty()) continue;
    const auto& e = hist.back();
    fp.add_value(k.zone.ix);
    fp.add_value(k.zone.iy);
    fp.add(k.network.data(), k.network.size());
    fp.add_value(static_cast<int>(k.metric));
    fp.add_value(static_cast<std::uint64_t>(hist.size()));
    fp.add_value(e.epoch_start_s);
    fp.add_value(e.mean);
    fp.add_value(e.stddev);
    fp.add_value(static_cast<std::uint64_t>(e.samples));
    ++fp.streams;
    fp.epochs += hist.size();
  }
  return fp;
}

inline std::string fingerprint_text(const fingerprint& fp) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%016llx/%llu/%llu",
                static_cast<unsigned long long>(fp.hash),
                static_cast<unsigned long long>(fp.streams),
                static_cast<unsigned long long>(fp.epochs));
  return buf;
}

// ---- JSON output -------------------------------------------------------------

/// Flat JSON object writer: numbers, strings and nested raw JSON.
class json_obj {
 public:
  json_obj& num(std::string_view k, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.9g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(k, buf);
  }
  json_obj& str(std::string_view k, std::string_view v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    q += '"';
    return raw(k, q);
  }
  json_obj& raw(std::string_view k, std::string_view v) {
    body_ += body_.empty() ? "{" : ",";
    body_ += '"';
    body_ += k;
    body_ += "\":";
    body_ += v;
    return *this;
  }
  std::string done() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

inline std::string summary_json(const tail_summary& t) {
  return json_obj()
      .num("n", static_cast<double>(t.n))
      .num("windows", static_cast<double>(t.windows))
      .num("p50", t.p50)
      .num("p90", t.p90)
      .num("tail_pct", t.tail_pct)
      .num("tail", t.tail)
      .num("beyond", static_cast<double>(t.beyond))
      .done();
}

}  // namespace pb
