#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/anomaly.h"
#include "core/client_agent.h"
#include "core/coordinator.h"
#include "core/dominance.h"
#include "core/epoch_estimator.h"
#include "core/sample_planner.h"
#include "core/validation.h"
#include "core/zone_table.h"
#include "test_util.h"

namespace wiscape::core {
namespace {

const geo::lat_lon here = cellnet::anchors::madison;

estimate_key key_of(trace::metric m = trace::metric::udp_throughput_bps) {
  return {geo::zone_id{0, 0}, "NetB", m};
}

// ------------------------------------------------------------ zone_table ----

TEST(ZoneTable, NoEstimateBeforeFirstRollover) {
  zone_table t;
  t.add_sample(key_of(), 10.0, 1.0, 100.0);
  EXPECT_FALSE(t.latest(key_of()).has_value());
  EXPECT_EQ(t.open_epoch_samples(key_of()), 1u);
}

TEST(ZoneTable, RolloverPublishesEpochStats) {
  zone_table t;
  t.add_sample(key_of(), 10.0, 2.0, 100.0);
  t.add_sample(key_of(), 20.0, 4.0, 100.0);
  t.add_sample(key_of(), 150.0, 9.0, 100.0);  // crosses the boundary
  const auto est = t.latest(key_of());
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(est->mean, 3.0);
  EXPECT_EQ(est->samples, 2u);
  EXPECT_DOUBLE_EQ(est->epoch_start_s, 0.0);
  EXPECT_EQ(t.open_epoch_samples(key_of()), 1u);
}

TEST(ZoneTable, EpochBoundariesAlignToDuration) {
  zone_table t;
  t.add_sample(key_of(), 250.0, 1.0, 100.0);  // first epoch starts at 200
  t.add_sample(key_of(), 320.0, 2.0, 100.0);  // rolls over [200,300)
  const auto est = t.latest(key_of());
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(est->epoch_start_s, 200.0);
}

TEST(ZoneTable, SeparateKeysIndependent) {
  zone_table t;
  const estimate_key a{geo::zone_id{0, 0}, "NetB",
                       trace::metric::udp_throughput_bps};
  const estimate_key b{geo::zone_id{0, 1}, "NetB",
                       trace::metric::udp_throughput_bps};
  const estimate_key c{geo::zone_id{0, 0}, "NetC",
                       trace::metric::udp_throughput_bps};
  t.add_sample(a, 10.0, 1.0, 100.0);
  t.add_sample(b, 10.0, 2.0, 100.0);
  t.add_sample(c, 10.0, 3.0, 100.0);
  EXPECT_EQ(t.open_epoch_samples(a), 1u);
  EXPECT_EQ(t.open_epoch_samples(b), 1u);
  EXPECT_EQ(t.open_epoch_samples(c), 1u);
  EXPECT_EQ(t.keys().size(), 3u);
}

TEST(ZoneTable, StableMetricRaisesNoAlert) {
  zone_table t(2.0);
  alert_ring ring;
  t.set_alert_sink(&ring);
  stats::rng_stream r(3);
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (int i = 0; i < 50; ++i) {
      t.add_sample(key_of(), epoch * 100.0 + i, r.normal(100.0, 5.0), 100.0);
    }
  }
  EXPECT_EQ(t.alerts_raised(), 0u);
  EXPECT_EQ(ring.pushed(), 0u);
}

TEST(ZoneTable, LevelShiftRaisesAlert) {
  zone_table t(2.0);
  alert_ring ring;
  t.set_alert_sink(&ring);
  stats::rng_stream r(3);
  for (int i = 0; i < 50; ++i) {
    t.add_sample(key_of(), i, r.normal(100.0, 5.0), 100.0);
  }
  for (int i = 0; i < 50; ++i) {
    t.add_sample(key_of(), 100.0 + i, r.normal(150.0, 5.0), 100.0);
  }
  t.add_sample(key_of(), 250.0, 150.0, 100.0);  // force rollover of 2nd epoch
  const auto alerts = testing::drained_alerts(ring);
  ASSERT_FALSE(alerts.empty());
  EXPECT_EQ(t.alerts_raised(), alerts.size());
  const auto& alert = alerts.front();
  EXPECT_NEAR(alert.previous_mean, 100.0, 3.0);
  EXPECT_NEAR(alert.new_mean, 150.0, 3.0);
}

TEST(ZoneTable, HistoryAccumulates) {
  zone_table t;
  for (int epoch = 0; epoch < 5; ++epoch) {
    t.add_sample(key_of(), epoch * 100.0, 1.0, 100.0);
  }
  EXPECT_EQ(t.history(key_of()).size(), 4u);  // last epoch still open
}

TEST(ZoneTable, RejectsBadEpochDuration) {
  zone_table t;
  EXPECT_THROW(t.add_sample(key_of(), 0.0, 1.0, 0.0), std::invalid_argument);
}

// ------------------------------------------------------- epoch_estimator ----

TEST(EpochEstimator, PureNoisePicksLongEpoch) {
  // White noise keeps improving with averaging: the minimum sits at the top
  // of the scan range, clamped to max_epoch.
  const auto ts = testing::noise_series(5000, 10.0, 100.0, 10.0);
  epoch_config cfg;
  cfg.max_epoch_s = 4.0 * 3600;
  const epoch_estimator est(cfg);
  EXPECT_NEAR(est.epoch_for(ts), cfg.max_epoch_s, 1e-6);
}

TEST(EpochEstimator, NoisePlusDriftPicksInteriorEpoch) {
  // Drift with a ~3 h period forces the Allan minimum between the noise
  // timescale and roughly the drift period (averaging over a full period
  // cancels a sinusoid, so the minimum can sit at ~the period itself).
  const auto ts =
      testing::drift_series(20000, 10.0, 100.0, 8.0, 20.0, 3.0 * 3600);
  const epoch_estimator est;
  const double epoch = est.epoch_for(ts);
  EXPECT_GT(epoch, 5.0 * 60);
  EXPECT_LT(epoch, 1.5 * 3.0 * 3600);
}

TEST(EpochEstimator, ShortSeriesFallsBack) {
  stats::time_series ts;
  ts.add(0.0, 1.0);
  const epoch_estimator est;
  EXPECT_DOUBLE_EQ(est.epoch_for(ts), est.config().default_epoch_s);
}

TEST(EpochEstimator, CurveCoversScanRange) {
  const auto ts = testing::noise_series(20000, 10.0, 100.0, 10.0);
  const epoch_estimator est;
  const auto curve = est.curve_for(ts);
  ASSERT_GT(curve.size(), 10u);
  EXPECT_LT(curve.front().tau_s, 120.0);
}

TEST(EpochEstimator, CurveMatchesPerTauRelativeDeviation) {
  // curve_for sorts the series once for all taus; each point must equal
  // the per-tau relative_allan_deviation bit for bit, on series inserted
  // out of time order with many tied timestamps (tied samples fold into a
  // window mean in sort order) and with a trimmed live window.
  const epoch_estimator est;
  const auto taus = stats::log_spaced_taus(
      est.config().scan_lo_s, est.config().scan_hi_s, est.config().scan_points);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    stats::rng_stream rng(seed);
    stats::time_series ts;
    for (int i = 0; i < 3000; ++i) {
      ts.add(30.0 * static_cast<double>(rng.uniform_int(0, 1500)),
             rng.normal(seed == 3 ? 0.0 : 1e6, 2e5));
    }
    if (seed == 2) ts.drop_oldest(700);
    const auto curve = est.curve_for(ts);
    std::size_t at = 0;
    for (const double tau : taus) {
      if (ts.bin_means(tau).size() < 2) continue;
      ASSERT_LT(at, curve.size());
      EXPECT_EQ(curve[at].tau_s, tau);
      EXPECT_EQ(curve[at].deviation, stats::relative_allan_deviation(ts, tau))
          << "seed " << seed << " tau " << tau;
      ++at;
    }
    EXPECT_EQ(at, curve.size());
    EXPECT_GT(at, 10u);
  }
  EXPECT_TRUE(est.curve_for(stats::time_series{}).empty());
}

TEST(EpochEstimator, RejectsBadConfig) {
  epoch_config cfg;
  cfg.min_epoch_s = 100.0;
  cfg.max_epoch_s = 50.0;
  EXPECT_THROW(epoch_estimator{cfg}, std::invalid_argument);
}

// --------------------------------------------------------- sample_planner ----

TEST(SamplePlanner, NkldDecreasesWithSampleCount) {
  stats::rng_stream gen(5);
  std::vector<double> population;
  for (int i = 0; i < 3000; ++i) population.push_back(gen.normal(100.0, 15.0));
  planner_config cfg;
  cfg.iterations = 40;
  const sample_planner planner(cfg);
  stats::rng_stream rng(7);
  const double at10 = planner.mean_nkld_at(population, 10, rng);
  const double at100 = planner.mean_nkld_at(population, 100, rng);
  const double at400 = planner.mean_nkld_at(population, 400, rng);
  EXPECT_GT(at10, at100);
  EXPECT_GT(at100, at400);
}

TEST(SamplePlanner, SamplesNeededWithinScanRange) {
  stats::rng_stream gen(5);
  std::vector<double> population;
  for (int i = 0; i < 3000; ++i) population.push_back(gen.normal(100.0, 15.0));
  planner_config cfg;
  cfg.iterations = 30;
  const sample_planner planner(cfg);
  stats::rng_stream rng(7);
  const std::size_t n = planner.samples_needed(population, rng);
  EXPECT_GE(n, cfg.step);
  EXPECT_LE(n, cfg.max_samples);
  // And the threshold actually holds there.
  EXPECT_LE(planner.mean_nkld_at(population, n, rng),
            cfg.nkld_threshold * 1.3);
}

TEST(SamplePlanner, StricterThresholdNeedsMoreSamples) {
  stats::rng_stream gen(5);
  std::vector<double> population;
  for (int i = 0; i < 4000; ++i) population.push_back(gen.normal(100.0, 15.0));
  planner_config loose;
  loose.iterations = 30;
  loose.nkld_threshold = 0.25;
  planner_config strict = loose;
  strict.nkld_threshold = 0.05;
  stats::rng_stream r1(7), r2(7);
  EXPECT_LE(sample_planner(loose).samples_needed(population, r1),
            sample_planner(strict).samples_needed(population, r2));
}

TEST(SamplePlanner, PacketsForAccuracyReasonable) {
  stats::rng_stream gen(5);
  std::vector<double> population;
  for (int i = 0; i < 3000; ++i) population.push_back(gen.normal(1000.0, 150.0));
  planner_config cfg;
  cfg.iterations = 50;
  const sample_planner planner(cfg);
  stats::rng_stream rng(7);
  const std::size_t n = planner.packets_for_accuracy(population, rng);
  // sigma/mean = 0.15: ~3% error needs ~(0.15/0.03 / sqrt(n))... n ~ 25-60.
  EXPECT_GE(n, 10u);
  EXPECT_LE(n, 120u);
}

TEST(SamplePlanner, Validation) {
  planner_config bad;
  bad.iterations = 0;
  EXPECT_THROW(sample_planner{bad}, std::invalid_argument);
  const sample_planner planner;
  stats::rng_stream rng(1);
  const std::vector<double> tiny{1.0, 2.0};
  EXPECT_THROW(planner.mean_nkld_at(tiny, 5, rng), std::invalid_argument);
  EXPECT_THROW(planner.packets_for_accuracy({}, rng), std::invalid_argument);
}

// ------------------------------------------------------------ coordinator ----

coordinator make_coordinator(alert_ring& alerts, std::uint64_t seed = 3) {
  geo::zone_grid grid(geo::projection(here), 250.0);
  coordinator_config cfg;
  cfg.default_samples_per_epoch = 10;
  return coordinator(std::move(grid), {"NetB", "NetC"}, cfg, seed, alerts);
}

TEST(Coordinator, IssuesTasksUntilTargetReached) {
  alert_ring alerts;
  auto coord = make_coordinator(alerts);
  int issued = 0;
  for (int i = 0; i < 400; ++i) {
    const auto task = coord.checkin(here, 100.0 + i, 0, 1);
    if (!task) continue;
    ++issued;
    // Simulate the probe result.
    auto rec = testing::make_record(
        100.0 + i, "NetB", here,
        task->kind, task->kind == trace::probe_kind::ping ? 0.1 : 1e6);
    coord.report(rec);
  }
  EXPECT_GT(issued, 0);
  // Once the open epoch holds the target, checkins stop issuing.
  const auto status = coord.status_of(coord.grid().zone_of(here));
  EXPECT_LE(status.open_epoch_samples, 10u);
}

TEST(Coordinator, SelectionProbabilityScalesWithCrowd) {
  // With many active clients, an individual checkin is rarely tasked.
  alert_ring alerts;
  auto coord = make_coordinator(alerts);
  int tasked_alone = 0, tasked_crowded = 0;
  for (int i = 0; i < 200; ++i) {
    if (coord.checkin(here, i, 0, 1)) ++tasked_alone;
  }
  alert_ring alerts2;
  auto coord2 = make_coordinator(alerts2, 4);
  for (int i = 0; i < 200; ++i) {
    if (coord2.checkin(here, i, 0, 1000)) ++tasked_crowded;
  }
  EXPECT_GT(tasked_alone, tasked_crowded * 3);
}

TEST(Coordinator, ReportRoutesMetricsToTable) {
  alert_ring alerts;
  auto coord = make_coordinator(alerts);
  auto rec = testing::make_record(50.0, "NetB", here,
                                  trace::probe_kind::udp_burst, 2e6);
  rec.jitter_s = 0.004;
  rec.loss_rate = 0.01;
  coord.report(rec);
  const auto zone = coord.grid().zone_of(here);
  EXPECT_EQ(coord.table_for_test().open_epoch_samples(
                {zone, "NetB", trace::metric::udp_throughput_bps}),
            1u);
  EXPECT_EQ(coord.table_for_test().open_epoch_samples(
                {zone, "NetB", trace::metric::jitter_s}),
            1u);
  EXPECT_EQ(coord.table_for_test().open_epoch_samples(
                {zone, "NetB", trace::metric::rtt_s}),
            0u);
}

TEST(Coordinator, FailedRecordsAreNotFoldedIn) {
  alert_ring alerts;
  auto coord = make_coordinator(alerts);
  auto rec = testing::make_record(50.0, "NetB", here,
                                  trace::probe_kind::udp_burst, 2e6);
  rec.success = false;
  coord.report(rec);
  const auto zone = coord.grid().zone_of(here);
  EXPECT_EQ(coord.table_for_test().open_epoch_samples(
                {zone, "NetB", trace::metric::udp_throughput_bps}),
            0u);
}

TEST(Coordinator, ExtremeCoordinatesRejectedNotThrown) {
  // Regression (review of ISSUE 4): lat/lon arrive on the wire unvalidated,
  // and the packed store throws on zones outside +/-2^23 cells. The
  // coordinator must reject such records up front -- a throw here would
  // escape an async drain worker and terminate the process.
  alert_ring alerts;
  auto coord = make_coordinator(alerts);
  auto hostile = testing::make_record(50.0, "NetB", geo::lat_lon{1e9, -1e9},
                                      trace::probe_kind::udp_burst, 2e6);
  EXPECT_NO_THROW(coord.report(hostile));
  EXPECT_TRUE(coord.table_for_test().keys().empty());  // nothing folded in
  // The coordinator keeps working for sane input afterwards.
  coord.report(testing::make_record(60.0, "NetB", here,
                                    trace::probe_kind::udp_burst, 2e6));
  EXPECT_EQ(coord.table_for_test().open_epoch_samples(
                {coord.grid().zone_of(here), "NetB",
                 trace::metric::udp_throughput_bps}),
            1u);
}

TEST(Coordinator, InternerExhaustionRejectsNewNetworksNotThrows) {
  // Regression (review of ISSUE 4): network names are attacker-controlled
  // free-form strings, so reports naming more than max_networks distinct
  // operators must saturate to rejection, not throw std::length_error
  // through the apply path.
  alert_ring alerts;
  auto coord = make_coordinator(alerts);  // seeds NetB, NetC
  EXPECT_NO_THROW({
    for (std::size_t i = 0; i < network_interner::max_networks + 8; ++i) {
      coord.report(testing::make_record(10.0 + static_cast<double>(i),
                                        "flood" + std::to_string(i), here,
                                        trace::probe_kind::ping, 0.1));
    }
  });
  EXPECT_EQ(coord.table_for_test().interner().size(), network_interner::max_networks);
  // Already-interned networks still apply after exhaustion.
  coord.report(testing::make_record(9999.0, "NetB", here,
                                    trace::probe_kind::udp_burst, 2e6));
  EXPECT_EQ(coord.table_for_test().open_epoch_samples(
                {coord.grid().zone_of(here), "NetB",
                 trace::metric::udp_throughput_bps}),
            1u);
}

TEST(Coordinator, RecomputeEpochsUsesHistory) {
  alert_ring alerts;
  auto coord = make_coordinator(alerts);
  // Feed a drifty series so the Allan minimum lands at an interior epoch.
  stats::rng_stream r(9);
  for (int i = 0; i < 2000; ++i) {
    const double t = i * 30.0;
    const double v = 1e6 + 2e5 * std::sin(2 * 3.14159 * t / (3.0 * 3600)) +
                     r.normal(0.0, 1e5);
    coord.report(testing::make_record(t, "NetB", here,
                                      trace::probe_kind::udp_burst, v));
  }
  const auto zone = coord.grid().zone_of(here);
  const double before = coord.status_of(zone).epoch_duration_s;
  coord.recompute_epochs();
  const double after = coord.status_of(zone).epoch_duration_s;
  EXPECT_NE(before, after);
  EXPECT_GE(after, coord.config().epochs.min_epoch_s);
  EXPECT_LE(after, coord.config().epochs.max_epoch_s);
}

TEST(Coordinator, RefineSampleTargetUsesPlanner) {
  alert_ring alerts;
  auto coord = make_coordinator(alerts);
  stats::rng_stream r(9);
  for (int i = 0; i < 1500; ++i) {
    coord.report(testing::make_record(i * 10.0, "NetB", here,
                                      trace::probe_kind::udp_burst,
                                      r.normal(1e6, 1e5)));
  }
  const auto zone = coord.grid().zone_of(here);
  const std::size_t target =
      coord.refine_sample_target(zone, "NetB",
                                 trace::metric::udp_throughput_bps);
  EXPECT_GE(target, 10u);
  EXPECT_LE(target, coord.config().planner.max_samples);
}

TEST(Coordinator, UnknownZoneStatusDefaults) {
  alert_ring alerts;
  auto coord = make_coordinator(alerts);
  const auto status = coord.status_of(geo::zone_id{999, 999});
  EXPECT_DOUBLE_EQ(status.epoch_duration_s,
                   coord.config().epochs.default_epoch_s);
  EXPECT_EQ(status.samples_target, coord.config().default_samples_per_epoch);
  EXPECT_TRUE(coord.history_for_test(geo::zone_id{999, 999}).empty());
}

TEST(Coordinator, FloodedZoneKeepsTheTargetPerEpochInItsHistory) {
  // Reports keep arriving past the zone's target in most epochs. The
  // planning history takes each planning stream's first min(n, target)
  // samples of an epoch -- what checkin() would have asked for. Each
  // planning stream -- (zone, network, probe kind) -- has a series of its
  // own, so a series gains at most target samples per epoch, and its
  // window (history_cap / 2 to history_cap samples once it has trimmed)
  // covers at least history_cap / (2 * target) epochs -- not the few
  // epochs' worth of flood an ungated history would hold.
  alert_ring alerts;
  geo::zone_grid grid(geo::projection(here), 250.0);
  coordinator_config cfg;
  cfg.epochs.default_epoch_s = 600.0;
  coordinator coord(grid, {"NetB", "NetC"}, cfg, 3, alerts);
  const std::size_t target = cfg.default_samples_per_epoch;
  const double epoch = cfg.epochs.default_epoch_s;
  const double t0 = 8 * 3600.0;  // an epoch boundary

  // Feeds `per_epoch[e]` reports of each of `kinds`, interleaved, into
  // `pos`'s zone over epoch e, evenly spaced; returns what each kind's
  // gated series should hold, oldest first (positional with `kinds`): its
  // first min(n, target) reports of each epoch.
  const auto feed = [&](const geo::lat_lon& pos,
                        const std::vector<std::size_t>& per_epoch,
                        const std::vector<trace::probe_kind>& kinds) {
    std::vector<std::vector<stats::sample>> gated(kinds.size());
    for (std::size_t e = 0; e < per_epoch.size(); ++e) {
      const std::size_t n = per_epoch[e] * kinds.size();
      const double dt = epoch / static_cast<double>(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double t = t0 + static_cast<double>(e) * epoch +
                         static_cast<double>(i) * dt;
        const double v = 1e6 + 10.0 * static_cast<double>(e * 100000 + i);
        coord.report(testing::make_record(t, "NetB", pos,
                                          kinds[i % kinds.size()], v));
        if (i / kinds.size() < target) {
          gated[i % kinds.size()].push_back({t, v});
        }
      }
    }
    return gated;
  };
  const auto expect_suffix = [](std::span<const stats::sample> got,
                                const std::vector<stats::sample>& gated) {
    ASSERT_LE(got.size(), gated.size());
    const std::size_t skip = gated.size() - got.size();
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].time_s, gated[skip + i].time_s) << i;
      EXPECT_EQ(got[i].value, gated[skip + i].value) << i;
    }
  };
  // The number of epochs the window has samples in (it is in time order).
  const auto epochs_covered = [&](std::span<const stats::sample> h) {
    const double first = std::floor((h.front().time_s - t0) / epoch);
    const double last = std::floor((h.back().time_s - t0) / epoch);
    return static_cast<std::size_t>(last - first) + 1;
  };

  // A flood of one kind: 12x the target in each of 61 epochs. 6,100 gated
  // samples trim once (at the 4,097th), leaving the window nearly full.
  const geo::lat_lon flooded = here;
  const auto gated = feed(flooded, std::vector<std::size_t>(61, 12 * target),
                          {trace::probe_kind::udp_burst})[0];
  const auto h = coord.history_for_test(grid.zone_of(flooded));
  ASSERT_GT(h.size(), cfg.history_cap - target);
  ASSERT_LE(h.size(), cfg.history_cap);
  expect_suffix(h, gated);
  // Nearly full, the window spans history_cap / target epochs of data
  // time. Ungated, 4,096 samples of this flood would cover 4096 / 1200 < 4
  // epochs -- a tenth of it.
  EXPECT_GE(h.back().time_s - h.front().time_s,
            static_cast<double>(cfg.history_cap / target) * epoch);

  // The same flood in all four kinds: four planning streams, four series,
  // each gated exactly like the one-kind flood's. A kind no longer shares
  // its window with the others: each series holds the one-kind bound, not
  // a quarter of it.
  const geo::lat_lon all_kinds = grid.center(
      {grid.zone_of(here).ix + 6, grid.zone_of(here).iy});
  const std::vector<trace::probe_kind> kinds{
      trace::probe_kind::tcp_download, trace::probe_kind::udp_burst,
      trace::probe_kind::ping, trace::probe_kind::udp_uplink};
  const auto gated4 = feed(all_kinds, std::vector<std::size_t>(61, 12 * target),
                           kinds);
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    SCOPED_TRACE(trace::to_string(kinds[k]));
    const auto hk = coord.history_for_test(grid.zone_of(all_kinds), "NetB",
                                           trace::metrics_of(kinds[k])[0]);
    ASSERT_GT(hk.size(), cfg.history_cap - target);
    ASSERT_LE(hk.size(), cfg.history_cap);
    expect_suffix(hk, gated4[k]);
    EXPECT_GE(epochs_covered(hk), cfg.history_cap / (2 * target));
    EXPECT_LE(epochs_covered(hk), cfg.history_cap / target + 1);
  }

  // Epochs below the target keep every sample; flooded ones the first
  // `target`. No trim here: the whole gated series is the window.
  const geo::lat_lon mixed = grid.center(
      {grid.zone_of(here).ix + 3, grid.zone_of(here).iy});
  std::vector<std::size_t> per_epoch;
  for (std::size_t e = 0; e < 10; ++e) {
    per_epoch.push_back(e % 2 == 0 ? target / 3 : 12 * target);
  }
  const auto mixed_gated =
      feed(mixed, per_epoch, {trace::probe_kind::udp_burst})[0];
  const auto hm = coord.history_for_test(grid.zone_of(mixed));
  ASSERT_EQ(hm.size(), mixed_gated.size());
  expect_suffix(hm, mixed_gated);
}

TEST(Coordinator, PlanningHistoryKeepsOneUnitPerSeries) {
  // tcp bit/s, udp bit/s and ping RTT seconds cycle into one zone. Each
  // planning stream keeps a series of its own, in one unit, and
  // refine_sample_target(metric) plans from the series of its metric: its
  // answer equals that of a coordinator fed the metric's kind alone.
  geo::zone_grid grid(geo::projection(here), 250.0);
  const geo::zone_id zone = grid.zone_of(here);
  const std::vector<trace::probe_kind> kinds{trace::probe_kind::tcp_download,
                                             trace::probe_kind::udp_burst,
                                             trace::probe_kind::ping};
  std::vector<trace::measurement_record> recs;
  stats::rng_stream rng(17);
  for (int i = 0; i < 600; ++i) {
    const trace::probe_kind kind = kinds[i % 3];
    const double v = kind == trace::probe_kind::ping
                         ? rng.lognormal(std::log(0.12), 0.4)
                     : kind == trace::probe_kind::tcp_download
                         ? rng.normal(1.2e6, 2.0e5)
                         : rng.uniform(4.0e5, 9.0e5);
    recs.push_back(testing::make_record(8 * 3600.0 + i, "NetB", here, kind, v));
  }
  // A target no epoch reaches, so the history keeps every sample.
  coordinator_config cfg;
  cfg.default_samples_per_epoch = 1000;
  struct planner_run {
    alert_ring alerts;
    coordinator coord;
    planner_run(const geo::zone_grid& g, const coordinator_config& c)
        : coord(g, {"NetB", "NetC"}, c, 5, alerts) {}
  };
  const auto fed = [&](trace::metric only, bool all_kinds) {
    auto run = std::make_unique<planner_run>(grid, cfg);
    for (const auto& r : recs) {
      if (all_kinds || r.kind == trace::kind_for(only)) run->coord.report(r);
    }
    return run;
  };
  for (const trace::metric m : {trace::metric::tcp_throughput_bps,
                                trace::metric::udp_throughput_bps,
                                trace::metric::rtt_s}) {
    SCOPED_TRACE(trace::to_string(m));
    const auto mixed = fed(m, true);
    const auto alone = fed(m, false);
    // One unit per series: exactly the metric's values, in arrival order.
    std::vector<stats::sample> want;
    for (const auto& r : recs) {
      if (r.kind == trace::kind_for(m)) {
        want.push_back({r.time_s, trace::value_of(r, m)});
      }
    }
    const auto series = mixed->coord.history_for_test(zone, "NetB", m);
    ASSERT_EQ(series.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(series[i].time_s, want[i].time_s) << i;
      EXPECT_EQ(series[i].value, want[i].value) << i;
    }
    EXPECT_EQ(mixed->coord.refine_sample_target(zone, "NetB", m),
              alone->coord.refine_sample_target(zone, "NetB", m));
  }
}

// ---------------------------------------------------------------- anomaly ----

TEST(DetectSurges, FindsSustainedSpike) {
  stats::time_series ts;
  stats::rng_stream r(5);
  // 24 h of 10-min samples at ~110 ms with a 3-hour 4x surge at hour 12.
  for (int i = 0; i < 144; ++i) {
    const double t = i * 600.0;
    const bool in_game = t >= 12 * 3600.0 && t < 15 * 3600.0;
    ts.add(t, (in_game ? 0.42 : 0.11) + r.normal(0.0, 0.01));
  }
  const auto surges = detect_surges(ts, 600.0, 2.0, 1800.0);
  ASSERT_EQ(surges.size(), 1u);
  EXPECT_NEAR(surges[0].start_s, 12 * 3600.0, 1200.0);
  EXPECT_NEAR(surges[0].end_s, 15 * 3600.0, 1200.0);
  EXPECT_GT(surges[0].factor, 3.0);
}

TEST(DetectSurges, IgnoresShortBlips) {
  stats::time_series ts;
  for (int i = 0; i < 144; ++i) {
    ts.add(i * 600.0, i == 50 ? 0.5 : 0.11);
  }
  EXPECT_TRUE(detect_surges(ts, 600.0, 2.0, 1800.0).empty());
}

TEST(DetectSurges, QuietSeriesNoSurges) {
  const auto ts = testing::noise_series(200, 600.0, 0.11, 0.005);
  EXPECT_TRUE(detect_surges(ts).empty());
}

TEST(FailedPings, FlagsTroubledHighVarianceZones) {
  const geo::zone_grid grid(geo::projection(here), 250.0);
  trace::dataset ds;
  stats::rng_stream r(4);
  const geo::lat_lon good = here;
  const geo::lat_lon bad = geo::destination(here, 90.0, 4000.0);

  for (int day = 0; day < 25; ++day) {
    for (int i = 0; i < 12; ++i) {
      const double t = day * 86400.0 + i * 3600.0;
      // Good zone: stable throughput, no ping failures.
      ds.add(testing::make_record(t, "NetB", good,
                                  trace::probe_kind::tcp_download,
                                  r.normal(1e6, 3e4)));
      auto ping_ok =
          testing::make_record(t, "NetB", good, trace::probe_kind::ping, 0.1);
      ds.add(ping_ok);
      // Bad zone: wildly variable throughput + daily ping failures.
      ds.add(testing::make_record(t, "NetB", bad,
                                  trace::probe_kind::tcp_download,
                                  std::max(1e4, r.normal(1e6, 5e5))));
      auto ping_fail =
          testing::make_record(t, "NetB", bad, trace::probe_kind::ping, 0.1);
      ping_fail.ping_failures = i == 0 ? 2 : 0;
      ds.add(ping_fail);
    }
  }

  failed_ping_config cfg;
  cfg.min_consecutive_days = 20;
  cfg.min_tcp_samples = 100;
  const auto report = analyze_failed_pings(ds, grid, "NetB", cfg);
  EXPECT_EQ(report.zones_total, 2u);
  EXPECT_EQ(report.zones_flagged, 1u);
  ASSERT_EQ(report.flagged_rel_stddev.size(), 1u);
  EXPECT_GT(report.flagged_rel_stddev[0], 0.2);
  EXPECT_DOUBLE_EQ(report.high_variability_caught, 1.0);
}

TEST(FailedPings, NonConsecutiveFailuresNotFlagged) {
  const geo::zone_grid grid(geo::projection(here), 250.0);
  trace::dataset ds;
  stats::rng_stream r(4);
  for (int day = 0; day < 30; ++day) {
    for (int i = 0; i < 8; ++i) {
      const double t = day * 86400.0 + i * 3600.0;
      ds.add(testing::make_record(t, "NetB", here,
                                  trace::probe_kind::tcp_download,
                                  r.normal(1e6, 3e4)));
      auto ping = testing::make_record(t, "NetB", here,
                                       trace::probe_kind::ping, 0.1);
      // Failures only on even days: never 20 consecutive.
      ping.ping_failures = (day % 2 == 0 && i == 0) ? 1 : 0;
      ds.add(ping);
    }
  }
  failed_ping_config cfg;
  cfg.min_consecutive_days = 20;
  cfg.min_tcp_samples = 100;
  const auto report = analyze_failed_pings(ds, grid, "NetB", cfg);
  EXPECT_EQ(report.zones_flagged, 0u);
}

// -------------------------------------------------------------- dominance ----

TEST(Dominance, ClearWinnerDetected) {
  stats::rng_stream r(6);
  std::vector<std::vector<double>> nets(2);
  for (int i = 0; i < 200; ++i) {
    nets[0].push_back(r.normal(2e6, 5e4));  // clearly faster
    nets[1].push_back(r.normal(1e6, 5e4));
  }
  EXPECT_EQ(dominant_network(nets, preference::higher_is_better), 0);
}

TEST(Dominance, OverlappingDistributionsNoWinner) {
  stats::rng_stream r(6);
  std::vector<std::vector<double>> nets(2);
  for (int i = 0; i < 200; ++i) {
    nets[0].push_back(r.normal(1.05e6, 2e5));
    nets[1].push_back(r.normal(1.0e6, 2e5));
  }
  EXPECT_EQ(dominant_network(nets, preference::higher_is_better), -1);
}

TEST(Dominance, LowerIsBetterForLatency) {
  stats::rng_stream r(6);
  std::vector<std::vector<double>> nets(2);
  for (int i = 0; i < 200; ++i) {
    nets[0].push_back(r.normal(0.250, 0.010));
    nets[1].push_back(r.normal(0.110, 0.010));  // faster pings
  }
  EXPECT_EQ(dominant_network(nets, preference::lower_is_better), 1);
}

TEST(Dominance, InsufficientSamplesNoWinner) {
  std::vector<std::vector<double>> nets(2);
  nets[0].assign(5, 2e6);
  nets[1].assign(200, 1e6);
  EXPECT_EQ(dominant_network(nets, preference::higher_is_better), -1);
}

TEST(Dominance, PreferenceForMetricsMatchesSemantics) {
  EXPECT_EQ(preference_for(trace::metric::tcp_throughput_bps),
            preference::higher_is_better);
  EXPECT_EQ(preference_for(trace::metric::rtt_s),
            preference::lower_is_better);
  EXPECT_EQ(preference_for(trace::metric::loss_rate),
            preference::lower_is_better);
}

TEST(Dominance, AnalyzeAcrossZones) {
  const geo::zone_grid grid(geo::projection(here), 250.0);
  trace::dataset ds;
  stats::rng_stream r(8);
  const geo::lat_lon zone_b_wins = here;
  const geo::lat_lon zone_tie = geo::destination(here, 90.0, 4000.0);
  for (int i = 0; i < 100; ++i) {
    ds.add(testing::make_record(i, "NetB", zone_b_wins,
                                trace::probe_kind::tcp_download,
                                r.normal(2e6, 5e4)));
    ds.add(testing::make_record(i, "NetC", zone_b_wins,
                                trace::probe_kind::tcp_download,
                                r.normal(1e6, 5e4)));
    ds.add(testing::make_record(i, "NetB", zone_tie,
                                trace::probe_kind::tcp_download,
                                r.normal(1e6, 3e5)));
    ds.add(testing::make_record(i, "NetC", zone_tie,
                                trace::probe_kind::tcp_download,
                                r.normal(1e6, 3e5)));
  }
  const auto summary = analyze_dominance(
      ds, grid, trace::metric::tcp_throughput_bps, {"NetB", "NetC"});
  ASSERT_EQ(summary.zones.size(), 2u);
  EXPECT_EQ(summary.wins[0], 1u);
  EXPECT_EQ(summary.wins[1], 0u);
  EXPECT_EQ(summary.none, 1u);
  EXPECT_DOUBLE_EQ(summary.dominated_fraction, 0.5);
}

// ------------------------------------------------------------- validation ----

TEST(Validation, LowErrorOnStableZones) {
  const geo::zone_grid grid(geo::projection(here), 250.0);
  trace::dataset ds;
  stats::rng_stream r(5);
  // 3 zones, 400 samples each, ~5% rel stddev (the paper's stable city).
  for (int z = 0; z < 3; ++z) {
    const auto pos = geo::destination(here, 90.0, z * 3000.0);
    const double mean = 0.8e6 + z * 0.3e6;
    for (int i = 0; i < 400; ++i) {
      ds.add(testing::make_record(i, "NetB", pos,
                                  trace::probe_kind::tcp_download,
                                  r.normal(mean, mean * 0.05)));
    }
  }
  validation_config cfg;
  const auto report = validate_estimation(
      ds, grid, trace::metric::tcp_throughput_bps, "NetB", cfg, 42);
  ASSERT_EQ(report.zones.size(), 3u);
  EXPECT_GT(report.fraction_within(0.04), 0.6);
  EXPECT_LT(report.max_error(), 0.15);
}

TEST(Validation, SkipsThinZones) {
  const geo::zone_grid grid(geo::projection(here), 250.0);
  trace::dataset ds;
  for (int i = 0; i < 50; ++i) {
    ds.add(testing::make_record(i, "NetB", here,
                                trace::probe_kind::tcp_download, 1e6));
  }
  validation_config cfg;
  cfg.min_zone_samples = 200;
  const auto report = validate_estimation(
      ds, grid, trace::metric::tcp_throughput_bps, "NetB", cfg, 42);
  EXPECT_TRUE(report.zones.empty());
}

TEST(Validation, MoreWiscapeSamplesMeansLowerError) {
  const geo::zone_grid grid(geo::projection(here), 250.0);
  trace::dataset ds;
  stats::rng_stream r(5);
  for (int z = 0; z < 6; ++z) {
    const auto pos = geo::destination(here, 90.0, z * 3000.0);
    for (int i = 0; i < 600; ++i) {
      ds.add(testing::make_record(i, "NetB", pos,
                                  trace::probe_kind::tcp_download,
                                  r.normal(1e6, 2e5)));
    }
  }
  validation_config few;
  few.wiscape_samples = 5;
  validation_config many;
  many.wiscape_samples = 200;
  double err_few = 0.0, err_many = 0.0;
  // Average over several seeds: a single draw can go either way.
  for (std::uint64_t s = 0; s < 5; ++s) {
    err_few += validate_estimation(ds, grid,
                                   trace::metric::tcp_throughput_bps, "NetB",
                                   few, s)
                   .max_error();
    err_many += validate_estimation(ds, grid,
                                    trace::metric::tcp_throughput_bps, "NetB",
                                    many, s)
                    .max_error();
  }
  EXPECT_GT(err_few, err_many);
}

// ----------------------------------------------------------- client_agent ----

TEST(ClientAgent, StepRunsProbeAndReports) {
  const auto dep = testing::tiny_deployment();
  probe::probe_engine engine(dep, 3);
  geo::zone_grid grid(dep.proj(), 250.0);
  coordinator_config cfg;
  cfg.default_samples_per_epoch = 5;
  auto coord = testing::sync_coordinator(grid, dep.names(), cfg, 7);
  client_agent agent(coord, engine, 0);

  const mobility::gps_fix fix{dep.proj().to_lat_lon({100.0, 100.0}), 0.0,
                              12.0 * 3600};
  int ran = 0;
  for (int i = 0; i < 40; ++i) {
    mobility::gps_fix f = fix;
    f.time_s += i * 10.0;
    if (agent.step(f, 1)) ++ran;
  }
  EXPECT_GT(ran, 0);
  EXPECT_EQ(agent.probes_executed(), static_cast<std::uint64_t>(ran));
  // Reports landed in the coordinator's table.
  const auto status = coord.status_of(grid.zone_of(fix.pos));
  EXPECT_GT(status.open_epoch_samples, 0u);
}

TEST(Coordinator, ClientBudgetLimitsTasking) {
  geo::zone_grid grid(geo::projection(here), 250.0);
  coordinator_config cfg;
  cfg.default_samples_per_epoch = 1000;  // zone never satisfied
  cfg.client_daily_budget_mb = 2.5;
  cfg.tcp_task_mb = 1.0;
  cfg.udp_task_mb = 1.0;
  cfg.ping_task_mb = 1.0;
  alert_ring alerts;
  coordinator coord(grid, {"NetB"}, cfg, 3, alerts);

  int tasked = 0;
  for (int i = 0; i < 200; ++i) {
    if (coord.checkin(here, 1000.0 + i, 0, 1, /*client_id=*/42)) ++tasked;
  }
  // 2.5 MB budget at 1 MB per task => exactly 2 tasks today.
  EXPECT_EQ(tasked, 2);
  EXPECT_NEAR(coord.client_spend_mb(42, 1000.0), 2.0, 1e-9);

  // A new day resets the allowance.
  int next_day = 0;
  for (int i = 0; i < 200; ++i) {
    if (coord.checkin(here, 86400.0 + 1000.0 + i, 0, 1, 42)) ++next_day;
  }
  EXPECT_EQ(next_day, 2);
}

TEST(Coordinator, AnonymousClientsNeverBudgetLimited) {
  geo::zone_grid grid(geo::projection(here), 250.0);
  coordinator_config cfg;
  cfg.default_samples_per_epoch = 1000;
  cfg.client_daily_budget_mb = 0.5;
  cfg.tcp_task_mb = cfg.udp_task_mb = cfg.ping_task_mb = 1.0;
  alert_ring alerts;
  coordinator coord(grid, {"NetB"}, cfg, 3, alerts);
  int tasked = 0;
  for (int i = 0; i < 50; ++i) {
    if (coord.checkin(here, 1000.0 + i, 0, 1, /*client_id=*/0)) ++tasked;
  }
  EXPECT_GT(tasked, 10);  // anonymous: the budget guard does not apply
}

TEST(Coordinator, BudgetsTrackedPerClient) {
  geo::zone_grid grid(geo::projection(here), 250.0);
  coordinator_config cfg;
  cfg.default_samples_per_epoch = 1000;
  cfg.client_daily_budget_mb = 1.5;
  cfg.tcp_task_mb = cfg.udp_task_mb = cfg.ping_task_mb = 1.0;
  alert_ring alerts;
  coordinator coord(grid, {"NetB"}, cfg, 3, alerts);
  int a = 0, b = 0;
  for (int i = 0; i < 100; ++i) {
    if (coord.checkin(here, 1000.0 + i, 0, 1, 7)) ++a;
    if (coord.checkin(here, 1000.0 + i, 0, 1, 8)) ++b;
  }
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_DOUBLE_EQ(coord.client_spend_mb(99, 1000.0), 0.0);
}

}  // namespace
}  // namespace wiscape::core

