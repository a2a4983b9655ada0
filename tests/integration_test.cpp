// End-to-end integration: a miniature city runs the full WiScape loop --
// fleet drives, agents check in, coordinator schedules, probes execute,
// zone table publishes estimates, epochs re-estimate, applications consume
// the product -- all inside one test binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "apps/multihoming.h"
#include "apps/surge.h"
#include "apps/zone_knowledge.h"
#include "core/client_agent.h"
#include "core/coordinator.h"
#include "core/validation.h"
#include "mobility/fleet.h"
#include "mobility/route_gen.h"
#include "probe/collect.h"
#include "test_util.h"
#include "trace/csv.h"

namespace wiscape {
namespace {

TEST(Integration, FullWiscapeLoopPublishesEstimates) {
  const auto dep = testing::tiny_deployment();
  probe::probe_engine engine(dep, 21);

  geo::zone_grid grid(dep.proj(), 250.0);
  core::coordinator_config cfg;
  cfg.default_samples_per_epoch = 6;
  cfg.epochs.default_epoch_s = 600.0;
  auto coord = testing::sync_coordinator(grid, dep.names(), cfg, 31);

  // Two clients (one per network) riding one bus line.
  std::vector<geo::polyline> routes{geo::straight_route(
      dep.proj().to_lat_lon({-1200.0, 0.0}),
      dep.proj().to_lat_lon({1200.0, 0.0}), 4)};
  mobility::fleet fleet(std::move(routes), 1, mobility::transit_bus_params(),
                        stats::rng_stream(8));
  core::client_agent agent_b(coord, engine, 0);
  core::client_agent agent_c(coord, engine, 1);

  int ran = 0;
  for (double t = 8.0 * 3600; t < 11.0 * 3600; t += 60.0) {
    const auto fix = fleet.fix_at(0, t);
    if (!fix) continue;
    if (agent_b.step(*fix, 2)) ++ran;
    if (agent_c.step(*fix, 2)) ++ran;
  }
  ASSERT_GT(ran, 20);

  // At least one zone must have published a frozen estimate by now.
  int published = 0;
  for (const auto& key : coord.keys()) {
    published += coord.latest(key).has_value() ? 1 : 0;
  }
  EXPECT_GT(published, 0);

  // Epoch re-estimation must not crash and must respect clamps.
  coord.recompute_epochs();
  for (const auto& key : coord.keys()) {
    const auto status = coord.status_of(key.zone);
    EXPECT_GE(status.epoch_duration_s, cfg.epochs.min_epoch_s);
    EXPECT_LE(status.epoch_duration_s, cfg.epochs.max_epoch_s);
  }
}

TEST(Integration, CollectedDatasetSurvivesCsvRoundTrip) {
  const auto dep = testing::tiny_deployment();
  probe::probe_engine engine(dep, 22);
  probe::spot_params params;
  params.days = 1;
  params.udp_interval_s = 3600.0;
  params.tcp_interval_s = 7200.0;
  params.udp_packets = 10;
  params.tcp_bytes = 40'000;
  const auto loc = dep.proj().to_lat_lon({100.0, 100.0});
  const auto ds = probe::collect_spot(engine, {loc}, params);
  ASSERT_GT(ds.size(), 10u);

  std::stringstream ss;
  trace::write_csv(ss, ds);
  const auto back = trace::read_csv(ss);
  ASSERT_EQ(back.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(back.records()[i].kind, ds.records()[i].kind);
    EXPECT_EQ(back.records()[i].network, ds.records()[i].network);
    EXPECT_NEAR(back.records()[i].throughput_bps,
                ds.records()[i].throughput_bps, 1.0);
  }
}

TEST(Integration, ClientSourcedEstimateMatchesGroundTruth) {
  // A compressed Fig 8: collect a dense spot dataset, split client/ground,
  // and check WiScape's 100-sample estimate lands close.
  const auto dep = testing::tiny_deployment();
  probe::probe_engine engine(dep, 23);
  probe::spot_params params;
  params.days = 1;
  params.udp_interval_s = 120.0;
  params.tcp_interval_s = 300.0;
  params.udp_packets = 20;
  params.tcp_bytes = 60'000;
  const auto loc = dep.proj().to_lat_lon({100.0, 100.0});
  const auto ds = probe::collect_spot(engine, {loc}, params);

  geo::zone_grid grid(dep.proj(), 250.0);
  core::validation_config vcfg;
  vcfg.min_zone_samples = 100;
  vcfg.wiscape_samples = 100;
  const auto report = core::validate_estimation(
      ds, grid, trace::metric::tcp_throughput_bps, "NetB", vcfg, 99);
  ASSERT_FALSE(report.zones.empty());
  EXPECT_LT(report.max_error(), 0.20);
}

TEST(Integration, ZoneKnowledgeFromCollectedDataDrivesApps) {
  const auto dep = testing::tiny_deployment();
  probe::probe_engine engine(dep, 24);
  probe::segment_params params;
  params.days = 1;
  params.probe_interval_s = 600.0;
  params.tcp_bytes = 60'000;
  params.udp_packets = 10;
  const auto training = probe::collect_segment(engine, params);
  ASSERT_GT(training.size(), 20u);

  const apps::zone_knowledge zk(training, geo::zone_grid(dep.proj(), 250.0),
                                dep.names());
  apps::surge_config scfg;
  scfg.pages = 15;
  scfg.max_bytes = 300'000;
  const auto pages = apps::surge_pages(scfg, 3);
  const auto route = geo::straight_route(
      dep.proj().to_lat_lon({-1500.0, 0.0}),
      dep.proj().to_lat_lon({1500.0, 0.0}), 4);

  apps::drive_config drive;
  const auto result = apps::run_multisim(
      engine, &zk, apps::multisim_policy::wiscape, 0, pages, route, drive, 7);
  EXPECT_EQ(result.pages, pages.size());
  EXPECT_GT(result.total_s, 0.0);
}

TEST(Integration, StadiumEventDetectedByChangeAlerts) {
  // Fig 10 in miniature: a demand surge in one zone must raise a >2-sigma
  // latency alert in the coordinator's zone table.
  auto dep = testing::tiny_deployment();
  const geo::xy stadium{0.0, 0.0};
  const double game_start = 13.0 * 3600, game_end = 16.0 * 3600;
  for (std::size_t n = 0; n < dep.size(); ++n) {
    dep.network(n).add_event({stadium, 600.0, game_start, game_end, 0.55});
  }
  probe::probe_engine engine(dep, 25);

  geo::zone_grid grid(dep.proj(), 250.0);
  core::coordinator_config cfg;
  cfg.epochs.default_epoch_s = 1800.0;
  core::alert_ring alerts(cfg.alert_ring_capacity);
  core::coordinator coord(grid, dep.names(), cfg, 31, alerts);

  const mobility::gps_fix at_stadium{dep.proj().to_lat_lon(stadium), 0.0, 0.0};
  probe::ping_probe_params ping;
  ping.count = 4;
  ping.interval_s = 1.0;
  for (double t = 9.0 * 3600; t < 18.0 * 3600; t += 300.0) {
    mobility::gps_fix fix = at_stadium;
    fix.time_s = t;
    coord.report(engine.ping_probe(0, fix, ping));
  }

  bool latency_alert = false;
  for (const auto& alert : testing::drained_alerts(coord.alert_sink())) {
    if (alert.key.metric == trace::metric::rtt_s &&
        alert.new_mean > alert.previous_mean) {
      latency_alert = true;
    }
  }
  EXPECT_TRUE(latency_alert);
}

// ---- the planning history on paced data -----------------------------------

// Feeds `recs` to a coordinator with `cfg` and to one whose target never
// binds (default_samples_per_epoch = SIZE_MAX), after checking that the
// data is paced: no planning stream of the first ever holds more than its
// target in an open epoch. Both must then plan the same: the same Allan
// epochs from recompute_epochs and the same first NKLD sample targets.
void expect_paced_plans_match(
    const geo::zone_grid& grid, const std::vector<std::string>& nets,
    const core::coordinator_config& cfg,
    const std::vector<trace::measurement_record>& recs) {
  core::coordinator_config unbounded = cfg;
  unbounded.default_samples_per_epoch = SIZE_MAX;
  core::alert_ring alerts_a(cfg.alert_ring_capacity);
  core::alert_ring alerts_b(cfg.alert_ring_capacity);
  core::coordinator a(grid, nets, cfg, 77, alerts_a);
  core::coordinator b(grid, nets, unbounded, 77, alerts_b);

  std::vector<geo::zone_id> zones;
  std::size_t accepted = 0, at_target = 0;
  for (const auto& rec : recs) {
    a.report(rec);
    b.report(rec);
    if (!rec.success) continue;
    ++accepted;
    const geo::zone_id z = grid.zone_of(rec.pos);
    if (std::find(zones.begin(), zones.end(), z) == zones.end()) {
      zones.push_back(z);
    }
    // The planning stream: the kind's first metric.
    const std::size_t open = a.table_for_test().open_epoch_samples(
        {z, rec.network, trace::metrics_of(rec.kind).front()});
    ASSERT_LE(open, cfg.default_samples_per_epoch)
        << "the feed is not paced at t=" << rec.time_s;
    if (open == cfg.default_samples_per_epoch) ++at_target;
  }
  ASSERT_GT(accepted, 200u);
  // Some planning stream fills its epoch to exactly the target: the gate's
  // boundary sample is in play.
  ASSERT_GT(at_target, 0u);

  a.recompute_epochs();
  b.recompute_epochs();
  std::size_t moved = 0, refined = 0;
  for (const auto& z : zones) {
    const double epoch = a.status_of(z).epoch_duration_s;
    EXPECT_EQ(epoch, b.status_of(z).epoch_duration_s);
    if (epoch != cfg.epochs.default_epoch_s) ++moved;
    for (const auto& net : nets) {
      // One history series per planning stream: each kind's first metric.
      for (const trace::metric m : {trace::metric::tcp_throughput_bps,
                                    trace::metric::udp_throughput_bps,
                                    trace::metric::rtt_s}) {
        const std::size_t ta = a.refine_sample_target(z, net, m);
        const std::size_t tb = b.refine_sample_target(z, net, m);
        if (tb == SIZE_MAX) {
          // Too little history to plan from: both keep their target.
          EXPECT_EQ(ta, cfg.default_samples_per_epoch);
        } else {
          EXPECT_EQ(ta, tb);
          ++refined;
        }
      }
    }
  }
  // Not vacuous: some zone re-estimated its epoch, some stream planned.
  EXPECT_GT(moved, 0u);
  EXPECT_GT(refined, 0u);
}

TEST(Integration, PacedFleetPlansTheSameAsAnUnboundedTarget) {
  // The FullWiscapeLoopPublishesEstimates fleet, over two service days
  // (so some planning stream's series outgrows the 32 samples an Allan
  // scan needs) and with a target of 2: the coordinator tasks the two
  // clients, so no planning stream ever holds more than its target in an
  // epoch.
  const auto dep = testing::tiny_deployment();
  probe::probe_engine engine(dep, 21);
  geo::zone_grid grid(dep.proj(), 250.0);
  core::coordinator_config cfg;
  cfg.default_samples_per_epoch = 2;
  cfg.epochs.default_epoch_s = 600.0;
  auto driver = testing::sync_coordinator(grid, dep.names(), cfg, 31);
  std::vector<geo::polyline> routes{geo::straight_route(
      dep.proj().to_lat_lon({-1200.0, 0.0}),
      dep.proj().to_lat_lon({1200.0, 0.0}), 4)};
  mobility::fleet fleet(std::move(routes), 1, mobility::transit_bus_params(),
                        stats::rng_stream(8));
  core::client_agent agent_b(driver, engine, 0);
  core::client_agent agent_c(driver, engine, 1);
  std::vector<trace::measurement_record> recs;
  for (double t = 6.0 * 3600; t < 46.0 * 3600; t += 60.0) {
    const auto fix = fleet.fix_at(0, t);
    if (!fix) continue;
    for (auto* agent : {&agent_b, &agent_c}) {
      if (auto rec = agent->step(*fix, 2)) recs.push_back(*rec);
    }
  }
  expect_paced_plans_match(grid, dep.names(), cfg, recs);
}

TEST(Integration, PacedMorningPlansTheSameAsAnUnboundedTarget) {
  // The tcp_coordinator example's seeded morning, three times as long: a
  // record every 2 s, cycling over a 7x7 block of zones, both operators
  // and three probe kinds, so each planning stream sees one record every
  // 588 s -- at most 2 in a 600 s epoch. A target of 2 is then met exactly
  // in some epochs, and each stream's series grows past the 32 samples an
  // Allan scan needs.
  const auto dep = testing::tiny_deployment();
  probe::probe_engine engine(dep, 11);
  geo::zone_grid grid(dep.proj(), 250.0);
  core::coordinator_config cfg;
  cfg.default_samples_per_epoch = 2;
  cfg.epochs.default_epoch_s = 600.0;
  probe::tcp_probe_params tcp;
  tcp.bytes = 60'000;
  probe::udp_probe_params udp;
  udp.packets = 20;
  probe::ping_probe_params ping;
  ping.count = 4;
  std::vector<trace::measurement_record> recs;
  for (std::size_t i = 0; i < 3 * 4096; ++i) {
    mobility::gps_fix fix;
    fix.pos = dep.proj().to_lat_lon(
        {-1500.0 + static_cast<double>(i % 7) * 500.0,
         -1500.0 + static_cast<double>((i / 7) % 7) * 500.0});
    fix.time_s = 7 * 3600.0 + static_cast<double>(i) * 2.0;
    const std::size_t net = i % 2;
    switch (i % 3) {
      case 0:
        recs.push_back(engine.tcp_probe(net, fix, tcp, probe::laptop_device()));
        break;
      case 1:
        recs.push_back(engine.udp_probe(net, fix, udp, probe::phone_device()));
        break;
      default:
        recs.push_back(
            engine.ping_probe(net, fix, ping, probe::phone_device()));
        break;
    }
  }
  expect_paced_plans_match(grid, dep.names(), cfg, recs);
}

}  // namespace
}  // namespace wiscape
