// End-to-end integration: a miniature city runs the full WiScape loop --
// fleet drives, agents check in, coordinator schedules, probes execute,
// zone table publishes estimates, epochs re-estimate, applications consume
// the product -- all inside one test binary.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace wiscape
