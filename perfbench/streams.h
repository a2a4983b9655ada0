// The seeded request streams of the three workloads, as wire bytes. The load
// generator sends exactly these bytes, the traced replay feeds exactly
// these bytes through each layer in-process, and the benchmark's tests hold
// them to "same seed, same bytes".
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "proto/messages.h"
#include "proto/wire_v3.h"

namespace pb {

inline constexpr std::size_t kReportFrame = 64;   ///< records per REPORTB
inline constexpr std::size_t kQueryFrame = 256;   ///< lookups per QUERYB
inline constexpr std::size_t kQueryPool = 1024;   ///< QUERYB frames a reader cycles through
inline constexpr std::size_t kReportPool = 4096;  ///< ingest REPORTB frames a connection cycles through
inline constexpr std::size_t kHotZones = 64;      ///< serve trickle zones
inline constexpr std::size_t kReportsPerTask = 4; ///< fleet REPORTs per TASK
inline constexpr std::size_t kPhonesPerConn = 512;
inline constexpr std::size_t kProbeZones = 8;

/// Data time per record of a report connection. Ingest advances slowly (a
/// stream rolls over at most once per run); the serve trickle advances fast,
/// so its hot streams roll over several times a second; the fleet's epochs
/// pass every few seconds of wall time, which keeps rollovers (and WAL
/// appends) frequent without making the leader's file system the bottleneck.
inline double report_dt(const workload& w) {
  if (w.name == "ingest") return 1e-5;
  if (w.name == "serve") return 0.36;
  return 0.005 / kReportsPerTask;
}

/// Record `i` of load connection `conn`: ingest and fleet draw from the
/// connection's own zones, the serve trickle from the hottest zones.
inline void load_record(const keyspace& ks, const workload& w,
                        std::uint64_t seed, std::size_t conn, std::uint64_t i,
                        trace::measurement_record& r) {
  const double t0 = live_t0(w) + 1.0;
  if (w.name == "serve") {
    const std::uint64_t h = mix(seed ^ mix(0x7777000000000ull + i));
    const std::uint64_t g = mix(h);
    fill_record(g, ks.center(ks.hot(h % kHotZones)),
                t0 + static_cast<double>(i) * report_dt(w), (g >> 8) & 1,
                static_cast<trace::probe_kind>((g >> 16) % 4), r);
    return;
  }
  if (w.name == "fleet") {
    // A tasked phone reports from the zone it checked in from.
    const std::uint64_t cycle = i / kReportsPerTask;
    const std::uint32_t z = ks.draw_owned(
        conn, u01(mix(seed ^ mix((conn + 1) * 0x100000000ull + cycle))));
    const std::uint64_t g = mix(seed ^ mix(((conn + 1) << 40) + i));
    fill_record(g, ks.center(z), t0 + static_cast<double>(i) * report_dt(w),
                (g >> 8) & 1, static_cast<trace::probe_kind>((g >> 16) % 4), r);
    return;
  }
  report_record(ks, seed, conn, i, t0, report_dt(w), r);
}

/// The record index of record `k` of REPORTB frame `f`. Ingest cycles
/// through kReportPool frames per connection: its data time stays inside
/// one epoch for the whole run, so a repeated record lands in the same open
/// epoch as a fresh one would, and the generator can send pre-encoded
/// frames faster than one server loop takes them.
inline std::uint64_t report_index(const workload& w, std::uint64_t f,
                                  std::size_t k) {
  return (w.name == "ingest" ? f % kReportPool : f) * kReportFrame + k;
}

/// Binary v3 REPORTB frame `f` of connection `conn`.
inline void report_frame(const keyspace& ks, const workload& w,
                         std::uint64_t seed, std::size_t conn, std::uint64_t f,
                         std::vector<trace::measurement_record>& scratch,
                         proto::reply_buffer& out) {
  scratch.resize(kReportFrame);
  for (std::size_t k = 0; k < kReportFrame; ++k) {
    load_record(ks, w, seed, conn, report_index(w, f, k), scratch[k]);
  }
  proto::v3::encode_report_batch_frame(scratch, out);
}

/// True when lookup `i` of QUERYB connection `conn` targets a zone that
/// was never materialised (the cold misses of the long tail).
inline bool query_is_miss(std::uint64_t h) { return (h >> 40) % 16 == 0; }

inline void query_at(const keyspace& ks, std::uint64_t h,
                     proto::query_request& q) {
  const std::uint32_t z = ks.draw_any(u01(h));
  geo::zone_id zone = ks.zone(z);
  if (query_is_miss(h)) zone.iy += ks.side() + 16;  // beyond the warm grid
  q.pos = ks.grid().center(zone);
  q.network = networks()[(h >> 8) & 1];
  q.metric = static_cast<trace::metric>((h >> 16) % 6);
  q.time_s = -1.0;
}

/// Binary v3 QUERYB frame `f` of reader connection `conn`; a reader cycles
/// through kQueryPool frames, so the generator can send them pre-encoded.
inline void query_frame(const keyspace& ks, std::uint64_t seed,
                        std::size_t conn, std::uint64_t f,
                        std::vector<proto::query_request>& scratch,
                        proto::reply_buffer& out) {
  scratch.resize(kQueryFrame);
  for (std::size_t k = 0; k < kQueryFrame; ++k) {
    const std::uint64_t i = (f % kQueryPool) * kQueryFrame + k;
    query_at(ks, mix(seed ^ mix(((conn + 9) << 40) + i)), scratch[k]);
  }
  proto::v3::encode_query_batch_frame(scratch, out);
}

/// Single QUERY `i` of the serve probe connection (warm keys only).
inline proto::query_request single_query(const keyspace& ks, std::uint64_t seed,
                                         std::uint64_t i) {
  proto::query_request q;
  std::uint64_t h = mix(seed ^ mix(0x5100000000000ull + i));
  while (query_is_miss(h)) h = mix(h);
  query_at(ks, h, q);
  return q;
}

/// Fleet cycle `n` of phone connection `conn`: the CHECKIN line and the
/// REPORT lines the phone sends when tasked (each line '\n'-terminated).
inline void fleet_cycle(const keyspace& ks, const workload& w, std::uint64_t seed,
                        std::size_t conn, std::uint64_t n, std::string& checkin,
                        std::string& reports) {
  const std::uint64_t phone = conn + ks.owners() * (n % kPhonesPerConn);
  trace::measurement_record r;
  proto::measurement_report rep;
  reports.clear();
  for (std::size_t k = 0; k < kReportsPerTask; ++k) {
    load_record(ks, w, seed, conn, n * kReportsPerTask + k, r);
    r.client_id = 100000 + phone;
    if (k == 0) {
      proto::checkin_request c;
      c.client_id = r.client_id;
      c.pos = r.pos;
      c.time_s = r.time_s;
      c.network_index = static_cast<std::uint32_t>(phone % networks().size());
      c.active_in_zone = 1;
      c.device = "phone";
      checkin = proto::encode(c);
      checkin += '\n';
    }
    rep.client_id = r.client_id;
    rep.record = r;
    reports += proto::encode(rep);
    reports += '\n';
  }
}

/// The rollover-triggering probe report of probe `k` (round >= 0): probe
/// zone k % kProbeZones, one epoch of data time per round.
inline trace::measurement_record probe_record(const keyspace& ks,
                                              const workload& w,
                                              std::uint64_t seed,
                                              std::uint64_t round,
                                              std::size_t zone) {
  trace::measurement_record r;
  const std::uint64_t h = mix(seed ^ mix(0x9900000000000ull + round * 64 + zone));
  fill_record(h, ks.probe_center(zone),
              (100.0 + static_cast<double>(round)) * w.epoch_s + 1.0, 0,
              trace::probe_kind::tcp_download, r);
  r.client_id = 9000 + zone;
  return r;
}

inline proto::query_request probe_query(const keyspace& ks, std::size_t zone) {
  proto::query_request q;
  q.pos = ks.probe_center(zone);
  q.network = networks()[0];
  q.metric = trace::metric::tcp_throughput_bps;
  return q;
}

}  // namespace pb
