// Operator workflow (Sec 4.1): use WiScape's coarse data as a network-
// operations watchdog.
//
// Two triage paths from the paper, on one synthetic city:
//   1. A stadium fills up for three hours -> sustained latency surge in one
//      zone -> surge detector + >2-sigma change alert.
//   2. A few zones have chronic backhaul trouble -> their pings fail day
//      after day -> failed-ping triage shortlists exactly the
//      high-variability zones worth a truck roll.
//
//   ./operator_watch [seed]
#include <cstdio>
#include <cstdlib>

#include "cellnet/presets.h"
#include "core/anomaly.h"
#include "core/estimate_view.h"
#include "core/sharded_coordinator.h"
#include "probe/engine.h"
#include "stats/summary.h"

using namespace wiscape;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;
  auto dep = cellnet::make_deployment(cellnet::region_preset::madison, seed);

  // --- Scenario 1: game day at Camp Randall. -----------------------------
  const geo::xy stadium = dep.proj().to_xy(cellnet::anchors::camp_randall);
  dep.network("NetB").add_event(
      {stadium, 700.0, 13.0 * 3600, 16.0 * 3600, 0.5});

  probe::probe_engine engine(dep, seed);
  const std::size_t netb = static_cast<std::size_t>(dep.index_of("NetB"));
  probe::ping_probe_params ping;
  ping.count = 12;
  ping.interval_s = 5.0;

  // The watchdog ingests through a coordinator and watches through
  // core::estimate_view -- the serving layer an operations console would
  // poll (same API the wire ALERTS/QUERY commands serve).
  stats::time_series rtts;
  const geo::zone_grid grid(dep.proj(), 250.0);
  core::sharded_config ccfg;
  ccfg.coordinator.epochs.default_epoch_s = 1800.0;
  // Roll epochs on time, not sample count, matching the 30 min cadence the
  // surge detector below compares against.
  ccfg.coordinator.default_samples_per_epoch = 100000;
  ccfg.num_shards = 1;
  ccfg.synchronous = true;  // reports apply before the next line runs
  core::sharded_coordinator coordinator(grid, dep.names(), ccfg, seed);
  const core::estimate_view watch(coordinator);
  const geo::zone_id stadium_zone = grid.zone_of(cellnet::anchors::camp_randall);
  double last_t = 0.0;
  for (double t = 8.0 * 3600; t < 20.0 * 3600; t += 300.0) {
    const mobility::gps_fix fix{cellnet::anchors::camp_randall, 0.0, t};
    const auto rec = engine.ping_probe(netb, fix, ping);
    if (!rec.success) continue;
    rtts.add(t, rec.rtt_s);
    coordinator.report(rec);
    last_t = t;
  }

  std::printf("== scenario 1: stadium game day ==\n");
  for (const auto& s : core::detect_surges(rtts, 600.0, 2.0, 1800.0)) {
    std::printf(
        "  surge detected: %.1fx baseline (%.0f -> %.0f ms), from %.1fh to "
        "%.1fh\n",
        s.factor, s.baseline * 1e3, s.peak * 1e3, s.start_s / 3600.0,
        s.end_s / 3600.0);
  }
  // Cursor-drain the >2-sigma change alerts (a long-running watchdog would
  // remember next_seq and poll with it).
  for (const auto& a : watch.alerts_since(0, 1 << 20).alerts) {
    if (a.alert.key.metric != trace::metric::rtt_s) continue;
    std::printf(
        "  change alert #%llu: zone %s rtt %.0f -> %.0f ms (prev stddev %.1f "
        "ms) at %.1fh\n",
        static_cast<unsigned long long>(a.seq),
        geo::to_string(a.alert.key.zone).c_str(), a.alert.previous_mean * 1e3,
        a.alert.new_mean * 1e3, a.alert.previous_stddev * 1e3,
        a.alert.epoch_start_s / 3600.0);
  }
  if (const auto est = watch.lookup(stadium_zone, "NetB", trace::metric::rtt_s,
                                    last_t)) {
    std::printf(
        "  current stadium estimate: rtt %.0f ms +/- %.1f ms (n=%llu, "
        "conf=%.2f, age=%.0f min)\n",
        est->mean * 1e3, est->stddev * 1e3,
        static_cast<unsigned long long>(est->count), est->confidence,
        est->staleness_s / 60.0);
  }

  // --- Scenario 2: chronic trouble spots. ---------------------------------
  std::printf("\n== scenario 2: failed-ping triage ==\n");
  auto dep2 = cellnet::make_deployment(cellnet::region_preset::madison, seed);
  // Trouble spots sit on locations the survey below actually probes
  // (a triage can only catch what somebody measured).
  for (const geo::xy spot : {geo::xy{-1500.0, 0.0}, geo::xy{1500.0, 1500.0},
                             geo::xy{-3000.0, -3000.0}}) {
    dep2.network("NetB").add_trouble_spot({spot, 450.0, 0.45, 0.30});
  }
  probe::probe_engine engine2(dep2, seed + 2);

  // A little synthetic campaign: probe a grid of points daily for 4 days.
  trace::dataset ds;
  probe::tcp_probe_params tcp;
  tcp.bytes = 150'000;
  probe::ping_probe_params quick_ping;
  quick_ping.count = 4;
  quick_ping.interval_s = 1.0;
  for (int day = 0; day < 4; ++day) {
    for (int rep = 0; rep < 12; ++rep) {
      for (double x = -4500.0; x <= 4500.0; x += 1500.0) {
        for (double y = -4500.0; y <= 4500.0; y += 1500.0) {
          const mobility::gps_fix fix{
              dep2.proj().to_lat_lon({x, y}), 0.0,
              day * 86400.0 + 8.0 * 3600 + rep * 3000.0};
          ds.add(engine2.tcp_probe(netb, fix, tcp));
          ds.add(engine2.ping_probe(netb, fix, quick_ping));
        }
      }
    }
  }

  core::failed_ping_config cfg;
  cfg.min_consecutive_days = 2;
  cfg.min_tcp_samples = 30;
  const auto report =
      core::analyze_failed_pings(ds, geo::zone_grid(dep2.proj(), 250.0),
                                 "NetB", cfg);
  std::printf("  zones analyzed: %zu, flagged for truck rolls: %zu\n",
              report.zones_total, report.zones_flagged);
  if (!report.all_rel_stddev.empty()) {
    std::printf("  median rel-stddev all zones: %.1f%%\n",
                stats::percentile(report.all_rel_stddev, 50.0) * 100.0);
  }
  if (!report.flagged_rel_stddev.empty()) {
    std::printf("  median rel-stddev flagged zones: %.1f%%\n",
                stats::percentile(report.flagged_rel_stddev, 50.0) * 100.0);
  }
  std::printf("  high-variability zones caught by the flag: %.0f%%\n",
              report.high_variability_caught * 100.0);
  return 0;
}
