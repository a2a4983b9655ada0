// The sharded ingestion pipeline's two load-bearing promises (ISSUE 1):
//  * equivalence -- for any seeded report stream, the sharded coordinator
//    (any shard count, threaded drain) publishes bit-for-bit the estimates
//    and change alerts of the sequential coordinator;
//  * no lost reports -- a multi-threaded producer storm is fully ingested,
//    accounted by the server/pipeline counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <tuple>
#include <vector>

#include "core/coordinator.h"
#include "core/estimate_view.h"
#include "core/sharded_coordinator.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "proto/server.h"
#include "test_util.h"

namespace wiscape::core {
namespace {

geo::projection test_proj() {
  return geo::projection(cellnet::anchors::madison);
}

// A seeded synthetic fleet stream: reports scattered over a 5x5 zone
// neighbourhood, two networks, all probe kinds, with a mid-stream mean shift
// so epoch rollovers raise change alerts.
std::vector<trace::measurement_record> synthetic_stream(std::uint64_t seed,
                                                        std::size_t count) {
  stats::rng_stream rng(seed);
  const geo::projection proj = test_proj();
  std::vector<trace::measurement_record> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double t = 1000.0 + static_cast<double>(i) * 2.0;
    const double cell = 443.0;  // ~zone side for r=250m, keeps zones distinct
    const geo::xy pos_xy{cell * static_cast<double>(rng.uniform_int(-2, 2)),
                         cell * static_cast<double>(rng.uniform_int(-2, 2))};
    const char* net = rng.chance(0.5) ? "NetB" : "NetC";
    const auto kind = static_cast<trace::probe_kind>(rng.uniform_int(0, 3));
    const double base =
        kind == trace::probe_kind::ping ? 0.12 : 1.5e6;
    // Step change halfway through the stream: the second half's epochs land
    // far from the first half's, guaranteeing >2-sigma alerts.
    const double level = i < count / 2 ? base : base * 3.0;
    const double value = level * (1.0 + 0.05 * rng.normal());
    auto rec = testing::make_record(t, net, proj.to_lat_lon(pos_xy), kind,
                                    std::abs(value));
    rec.client_id = 1 + (i % 7);
    // Occasional failures exercise the success-filter path too.
    rec.success = !rng.chance(0.05);
    out.push_back(rec);
  }
  return out;
}

coordinator_config small_epoch_config() {
  coordinator_config cfg;
  cfg.epochs.default_epoch_s = 120.0;  // many rollovers in a short stream
  cfg.default_samples_per_epoch = 10;
  // The ring is the only alert store: big enough that the comparisons
  // below see every alert raised.
  cfg.alert_ring_capacity = 1 << 14;
  return cfg;
}

bool same_key(const estimate_key& a, const estimate_key& b) {
  return a == b;
}

TEST(ShardedCoordinator, HostileRecordsDoNotKillDrainWorkers) {
  // Regression (review of ISSUE 4): a report with absurd coordinates (zone
  // outside the store's packed +/-2^23 cell range) used to throw inside a
  // drain worker, and an exception unwinding a worker thread terminates the
  // whole process. Hostile records must be rejected at apply time while the
  // pipeline keeps draining everything else.
  const geo::zone_grid grid(test_proj(), 250.0);
  const std::vector<std::string> nets{"NetB", "NetC"};
  sharded_config cfg;
  cfg.coordinator = small_epoch_config();
  cfg.num_shards = 4;
  cfg.synchronous = false;
  cfg.queue_capacity = 256;
  sharded_coordinator sc(grid, nets, cfg, /*seed=*/42);

  const auto good = synthetic_stream(/*seed=*/5, /*count=*/600);
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    ASSERT_TRUE(sc.report(good[i]));
    ++sent;
    if (i % 10 == 0) {
      auto bad = good[i];
      bad.pos = geo::lat_lon{4e8, -4e8};  // far outside the packed range
      ASSERT_TRUE(sc.report(bad));  // queued, then rejected at apply
      ++sent;
    }
  }
  sc.flush();  // only returns if every drain worker survived
  EXPECT_EQ(sc.reports_ingested(), sent);
  EXPECT_EQ(sc.queue_depth(), 0u);
  // The sane part of the stream actually landed.
  EXPECT_FALSE(sc.keys().empty());
}

TEST(ShardedCoordinator, MatchesSequentialForAnyShardCount) {
  const auto stream = synthetic_stream(/*seed=*/77, /*count=*/6000);
  const geo::zone_grid grid(test_proj(), 250.0);
  const std::vector<std::string> nets{"NetB", "NetC"};
  const coordinator_config ccfg = small_epoch_config();

  alert_ring alerts(ccfg.alert_ring_capacity);
  coordinator seq(grid, nets, ccfg, /*seed=*/42, alerts);
  for (const auto& rec : stream) seq.report(rec);
  auto seq_keys = seq.table_for_test().keys();
  ASSERT_FALSE(seq_keys.empty());
  const auto seq_alerts = testing::sorted_alerts(seq.alert_sink());
  ASSERT_FALSE(seq_alerts.empty()) << "stream should raise change alerts";
  ASSERT_EQ(seq_alerts.size(), seq.alert_sink().pushed());

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    sharded_config cfg;
    cfg.coordinator = ccfg;
    cfg.num_shards = shards;
    cfg.synchronous = false;
    cfg.queue_capacity = 256;
    sharded_coordinator sc(grid, nets, cfg, /*seed=*/42);
    for (const auto& rec : stream) ASSERT_TRUE(sc.report(rec));
    sc.flush();
    EXPECT_EQ(sc.reports_received(), stream.size());
    EXPECT_EQ(sc.reports_ingested(), stream.size());
    EXPECT_EQ(sc.queue_depth(), 0u);

    // Identical key sets...
    auto keys = sc.keys();
    EXPECT_EQ(keys.size(), seq_keys.size());
    for (const auto& key : seq_keys) {
      EXPECT_TRUE(std::any_of(keys.begin(), keys.end(), [&](const auto& k) {
        return same_key(k, key);
      })) << "missing key zone=" << geo::to_string(key.zone)
          << " net=" << key.network;
    }
    // ...identical published estimate histories, bit for bit...
    for (const auto& key : seq_keys) {
      const auto want = seq.table_for_test().history(key);
      const auto got = sc.history(key);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].epoch_start_s, want[i].epoch_start_s);
        EXPECT_EQ(got[i].mean, want[i].mean);
        EXPECT_EQ(got[i].stddev, want[i].stddev);
        EXPECT_EQ(got[i].samples, want[i].samples);
      }
      const auto want_latest = seq.table_for_test().latest(key);
      const auto got_latest = sc.latest(key);
      ASSERT_EQ(got_latest.has_value(), want_latest.has_value());
      if (want_latest) {
        EXPECT_EQ(got_latest->mean, want_latest->mean);
      }
    }
    // ...and identical change alerts (order-normalized).
    const auto alerts = testing::sorted_alerts(sc.alert_sink());
    ASSERT_EQ(alerts.size(), seq_alerts.size());
    for (std::size_t i = 0; i < alerts.size(); ++i) {
      EXPECT_TRUE(same_key(alerts[i].key, seq_alerts[i].key));
      EXPECT_EQ(alerts[i].epoch_start_s, seq_alerts[i].epoch_start_s);
      EXPECT_EQ(alerts[i].previous_mean, seq_alerts[i].previous_mean);
      EXPECT_EQ(alerts[i].new_mean, seq_alerts[i].new_mean);
      EXPECT_EQ(alerts[i].previous_stddev, seq_alerts[i].previous_stddev);
    }
  }
}

TEST(ShardedCoordinator, SynchronousSingleShardReproducesSequentialExactly) {
  // num_shards = 1, synchronous = true must be the sequential coordinator:
  // same task decisions (same rng draws), same budget accounting, same
  // estimates.
  const geo::zone_grid grid(test_proj(), 250.0);
  const std::vector<std::string> nets{"NetB", "NetC"};
  coordinator_config ccfg = small_epoch_config();
  ccfg.client_daily_budget_mb = 2.0;

  alert_ring alerts(ccfg.alert_ring_capacity);
  coordinator seq(grid, nets, ccfg, /*seed=*/9, alerts);
  sharded_config cfg;
  cfg.coordinator = ccfg;
  cfg.num_shards = 1;
  cfg.synchronous = true;
  sharded_coordinator sc(grid, nets, cfg, /*seed=*/9);

  stats::rng_stream rng(123);
  const geo::projection proj = test_proj();
  std::uint64_t tasks = 0;
  for (int i = 0; i < 2000; ++i) {
    const double t = 500.0 + i * 3.0;
    const geo::lat_lon pos = proj.to_lat_lon(
        {300.0 * static_cast<double>(rng.uniform_int(-1, 1)),
         300.0 * static_cast<double>(rng.uniform_int(-1, 1))});
    const std::size_t net = static_cast<std::size_t>(rng.uniform_int(0, 1));
    const std::uint64_t client = 1 + static_cast<std::uint64_t>(i % 3);
    const auto a = seq.checkin(pos, t, net, 4, client);
    const auto b = sc.checkin(pos, t, net, 4, client);
    ASSERT_EQ(a.has_value(), b.has_value()) << "checkin " << i;
    if (a) {
      EXPECT_EQ(a->kind, b->kind);
      EXPECT_EQ(a->network_index, b->network_index);
      ++tasks;
      auto rec = testing::make_record(t, nets[net], pos, a->kind, 1e6);
      rec.client_id = client;
      seq.report(rec);
      ASSERT_TRUE(sc.report(rec));
    }
  }
  ASSERT_GT(tasks, 0u);
  EXPECT_EQ(sc.tasks_issued(), tasks);
  for (std::uint64_t client : {1ull, 2ull, 3ull}) {
    EXPECT_EQ(sc.client_spend_mb(client, 6000.0),
              seq.client_spend_mb(client, 6000.0));
  }
  for (const auto& key : seq.table_for_test().keys()) {
    const auto want = seq.table_for_test().history(key);
    const auto got = sc.history(key);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].mean, want[i].mean);
      EXPECT_EQ(got[i].samples, want[i].samples);
    }
  }
  EXPECT_EQ(seq.alert_sink().pushed(), sc.alert_sink().pushed());
}

TEST(ShardedCoordinator, EpochAndTargetManagementWorkPerShard) {
  const geo::zone_grid grid(test_proj(), 250.0);
  const std::vector<std::string> nets{"NetB"};
  sharded_config cfg;
  cfg.coordinator = small_epoch_config();
  cfg.num_shards = 4;
  sharded_coordinator sc(grid, nets, cfg, 3);
  sc.start_planning();

  const auto stream = synthetic_stream(5, 2000);
  for (const auto& rec : stream) {
    auto r = rec;
    r.network = "NetB";
    ASSERT_TRUE(sc.report(r));
  }
  sc.flush();
  sc.recompute_epochs();  // must not deadlock or race with drain workers

  const geo::zone_id zone = grid.zone_of(test_proj().to_lat_lon({0.0, 0.0}));
  const auto status = sc.status_of(zone);
  EXPECT_GT(status.epoch_duration_s, 0.0);
  const std::size_t target =
      sc.refine_sample_target(zone, "NetB", trace::metric::rtt_s);
  EXPECT_GT(target, 0u);

  std::uint64_t per_shard_total = 0;
  for (std::size_t s = 0; s < sc.num_shards(); ++s) {
    per_shard_total += sc.stats_of(s).reports_ingested;
  }
  EXPECT_EQ(per_shard_total, stream.size());
}

// ---- batched apply == per-record apply ------------------------------------

// A stream built to break a chunked, prefetched apply if it reorders or
// caches anything it must not: every rejection reason, rollovers and gap
// jumps inside chunks, wire-cached ids that are right, missing and wrong,
// an unknown operator, and zones and streams first seen mid-chunk so both
// directories grow while a chunk is in flight. A run of distinct operator
// names in one zone saturates that shard's interner part way through, and a
// long tail of one planning stream fills its history past
// zone_planner::history_cap, so it trims inside a chunk.
std::vector<trace::measurement_record> apply_equivalence_stream() {
  stats::rng_stream rng(2026);
  const geo::projection proj = test_proj();
  std::vector<trace::measurement_record> out;
  const auto flood_at = proj.to_lat_lon({150.0, 150.0});
  int flood = 0;
  for (std::size_t i = 0; i < 3000; ++i) {
    const double t = 100.0 + static_cast<double>(i) * 0.5;
    // Half the records keep to a hot 3x3 neighbourhood (long histories);
    // the rest keep finding new zones as their neighbourhood widens over
    // the stream.
    const int reach = rng.chance(0.5) ? 1 : 1 + static_cast<int>(i / 150);
    const geo::xy xy{443.0 * rng.uniform_int(-reach, reach),
                     443.0 * rng.uniform_int(-reach, reach)};
    const auto kind = static_cast<trace::probe_kind>(rng.uniform_int(0, 3));
    const double base = kind == trace::probe_kind::ping ? 0.12 : 1.5e6;
    const double level = i < 1500 ? base : base * 3.0;  // alerts
    const bool b = rng.chance(0.5);
    auto r = testing::make_record(t, b ? "NetB" : "NetC", proj.to_lat_lon(xy),
                                  kind, level * (1.0 + 0.05 * rng.normal()));
    r.loss_rate = 0.01 * rng.uniform();
    r.jitter_s = 0.002 * rng.uniform();
    // Wire-cached ids: right, unresolved, or naming the other operator.
    const int id_shape = static_cast<int>(rng.uniform_int(0, 2));
    r.network_id = id_shape == 0   ? static_cast<std::uint16_t>(b ? 0 : 1)
                   : id_shape == 1 ? trace::no_network_id
                                   : static_cast<std::uint16_t>(b ? 1 : 0);
    switch (rng.uniform_int(0, 19)) {
      case 0:
        r.success = false;
        break;
      case 1:
        r.pos = geo::lat_lon{4e8, -4e8};  // outside the packed cell range
        break;
      case 2:
        r.time_s = rng.chance(0.5) ? std::numeric_limits<double>::quiet_NaN()
                                   : std::numeric_limits<double>::infinity();
        break;
      case 3:
        r.network = "NetX";  // not configured: interned on first sight
        break;
      case 4:
        r.time_s += 400.0 * rng.uniform();  // jumps epochs ahead
        break;
      default:
        break;
    }
    out.push_back(std::move(r));
    // Mid-stream, a run of one-off operator names floods one zone.
    if (i >= 1000 && i < 2050) {
      for (int k = 0; k < 4; ++k) {
        auto f = testing::make_record(t, "Flood" + std::to_string(flood++),
                                      flood_at, trace::probe_kind::ping, 0.1);
        out.push_back(std::move(f));
      }
    }
  }
  // The tail: 12 udp_burst reports per 30 s epoch in one hot zone for 420
  // epochs. The planning history keeps each epoch's first 10 (the target),
  // 4,200 in all, so the series trims once.
  const auto hot = proj.to_lat_lon({0.0, 0.0});
  for (std::size_t i = 0; i < 420 * 12; ++i) {
    out.push_back(testing::make_record(
        2100.0 + 2.5 * static_cast<double>(i), "NetB", hot,
        trace::probe_kind::udp_burst, 1.5e6 * (1.0 + 0.05 * rng.normal())));
  }
  return out;
}

std::uint64_t counter_value(const char* name) {
  return obs::registry::global().get_counter(name).value();
}

// Everything a coordinator publishes: tables (keys, frozen histories, open
// epochs), alerts and the serving mirror.
void expect_same_estimates(sharded_coordinator& want,
                           sharded_coordinator& got) {
  const auto sorted_keys = [](sharded_coordinator& c) {
    auto keys = c.keys();
    std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
      return std::tie(a.zone.ix, a.zone.iy, a.network, a.metric) <
             std::tie(b.zone.ix, b.zone.iy, b.network, b.metric);
    });
    return keys;
  };
  const auto keys = sorted_keys(want);
  ASSERT_EQ(sorted_keys(got), keys);
  const estimate_view want_view(want), got_view(got);
  for (const auto& key : keys) {
    const auto a = want.history(key);
    const auto b = got.history(key);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].epoch_start_s, b[i].epoch_start_s);
      EXPECT_EQ(a[i].mean, b[i].mean);
      EXPECT_EQ(a[i].stddev, b[i].stddev);
      EXPECT_EQ(a[i].samples, b[i].samples);
    }
    const auto oa = want.open_state(key);
    const auto ob = got.open_state(key);
    ASSERT_EQ(oa.has_value(), ob.has_value());
    if (oa) {
      EXPECT_EQ(oa->open_start_s, ob->open_start_s);
      EXPECT_EQ(oa->n, ob->n);
      EXPECT_EQ(oa->mean, ob->mean);
      EXPECT_EQ(oa->m2, ob->m2);
    }
    const auto ma = want_view.lookup(key.zone, key.network, key.metric);
    const auto mb = got_view.lookup(key.zone, key.network, key.metric);
    ASSERT_EQ(ma.has_value(), mb.has_value());
    if (ma) {
      EXPECT_EQ(ma->count, mb->count);
      EXPECT_EQ(ma->mean, mb->mean);
      EXPECT_EQ(ma->stddev, mb->stddev);
      EXPECT_EQ(ma->epoch_index, mb->epoch_index);
    }
  }
  const auto aa = testing::sorted_alerts(want.alert_sink());
  const auto ab = testing::sorted_alerts(got.alert_sink());
  ASSERT_EQ(aa.size(), want.alert_sink().pushed());
  ASSERT_EQ(aa.size(), ab.size());
  for (std::size_t i = 0; i < aa.size(); ++i) {
    EXPECT_TRUE(same_key(aa[i].key, ab[i].key));
    EXPECT_EQ(aa[i].epoch_start_s, ab[i].epoch_start_s);
    EXPECT_EQ(aa[i].new_mean, ab[i].new_mean);
    EXPECT_EQ(aa[i].previous_mean, ab[i].previous_mean);
  }
}

// Everything a coordinator publishes or keeps: its estimates, and the
// per-zone epoch state the planning history drives (after
// recompute_epochs).
void expect_same_state(sharded_coordinator& want, sharded_coordinator& got,
                       const std::vector<geo::zone_id>& zones) {
  expect_same_estimates(want, got);
  if (::testing::Test::HasFatalFailure()) return;
  // The epoch-estimation histories surface through what they drive: the
  // NKLD sample targets and the Allan epoch durations.
  want.recompute_epochs();
  got.recompute_epochs();
  for (const auto& z : zones) {
    for (const char* net : {"NetB", "NetC"}) {
      EXPECT_EQ(want.refine_sample_target(z, net, trace::metric::rtt_s),
                got.refine_sample_target(z, net, trace::metric::rtt_s));
    }
    const auto sa = want.status_of(z);
    const auto sb = got.status_of(z);
    EXPECT_EQ(sa.epoch_duration_s, sb.epoch_duration_s);
    EXPECT_EQ(sa.samples_target, sb.samples_target);
    EXPECT_EQ(sa.open_epoch_samples, sb.open_epoch_samples);
    const auto ha = want.history_for_test(z);
    const auto hb = got.history_for_test(z);
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].time_s, hb[i].time_s);
      EXPECT_EQ(ha[i].value, hb[i].value);
    }
  }
}

TEST(ShardedCoordinator, BatchedApplyMatchesPerRecordReport) {
  const auto stream = apply_equivalence_stream();
  const geo::zone_grid grid(test_proj(), 250.0);
  const std::vector<std::string> nets{"NetB", "NetC"};
  std::vector<geo::zone_id> zones;
  for (const auto& r : stream) {
    const auto z = grid.zone_of(r.pos);
    if (std::find(zones.begin(), zones.end(), z) == zones.end()) {
      zones.push_back(z);
    }
  }
  coordinator_config ccfg = small_epoch_config();
  ccfg.epochs.default_epoch_s = 30.0;  // rollovers inside every chunk
  {
    // The planning history keeps only the samples under a zone's target
    // per epoch; the stream's tail still fills a series to the cap, and it
    // trims.
    sharded_config one;
    one.coordinator = ccfg;
    one.num_shards = 1;
    one.synchronous = true;
    sharded_coordinator sc(grid, nets, one, 42);
    sc.start_planning();
    std::size_t at_cap = 0;
    for (const auto& r : stream) {
      ASSERT_TRUE(sc.report(r));
      if (sc.history_for_test(grid.zone_of(r.pos)).size() ==
          zone_planner::history_cap) {
        ++at_cap;
      }
    }
    ASSERT_GT(at_cap, 0u);
  }

  for (const std::size_t shards : {1u, 2u, 4u}) {
    sharded_config ref_cfg;
    ref_cfg.coordinator = ccfg;
    ref_cfg.num_shards = shards;
    ref_cfg.synchronous = true;
    for (const std::size_t chunk : {0u, 1u, 63u, 64u, 65u, 1000u}) {
      for (const bool synchronous : {true, false}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " chunk=" + std::to_string(chunk) +
                     (synchronous ? " sync" : " async"));
        // The reference: one report() per record, applied inline. Built
        // fresh each time: the comparison draws its planner rng.
        sharded_coordinator ref(grid, nets, ref_cfg, 42);
        ref.start_planning();
        const std::uint64_t acc0 =
            counter_value(obs::names::kCoordReportsAccepted);
        const std::uint64_t rej0 =
            counter_value(obs::names::kCoordReportsRejected);
        for (const auto& r : stream) ASSERT_TRUE(ref.report(r));
        const std::uint64_t ref_acc =
            counter_value(obs::names::kCoordReportsAccepted) - acc0;
        const std::uint64_t ref_rej =
            counter_value(obs::names::kCoordReportsRejected) - rej0;
        ASSERT_GT(ref_rej, 0u);
        ASSERT_GT(ref.alert_sink().pushed(), 0u);

        sharded_config cfg = ref_cfg;
        cfg.synchronous = synchronous;
        cfg.queue_capacity = 512;
        sharded_coordinator sc(grid, nets, cfg, 42);
        sc.start_planning();
        const std::uint64_t a0 =
            counter_value(obs::names::kCoordReportsAccepted);
        const std::uint64_t r0 =
            counter_value(obs::names::kCoordReportsRejected);
        const std::uint64_t e0 =
            counter_value(obs::names::kShardedApplyErrors);
        sharded_coordinator::shard_batches routes;
        for (std::size_t i = 0; i < stream.size();) {
          // chunk 0: an empty batch (a no-op) before every single record.
          const std::size_t n =
              chunk == 0 ? 1 : std::min(chunk, stream.size() - i);
          if (chunk == 0) {
            std::vector<trace::measurement_record> none;
            ASSERT_EQ(sc.report_owned(none, routes), 0u);
          }
          std::vector<trace::measurement_record> batch(
              stream.begin() + static_cast<std::ptrdiff_t>(i),
              stream.begin() + static_cast<std::ptrdiff_t>(i + n));
          ASSERT_EQ(sc.report_owned(batch, routes), n);
          ASSERT_TRUE(batch.empty());
          i += n;
        }
        sc.flush();
        EXPECT_EQ(counter_value(obs::names::kCoordReportsAccepted) - a0,
                  ref_acc);
        EXPECT_EQ(counter_value(obs::names::kCoordReportsRejected) - r0,
                  ref_rej);
        EXPECT_EQ(counter_value(obs::names::kShardedApplyErrors), e0);
        EXPECT_EQ(sc.reports_ingested(), stream.size());
        expect_same_state(ref, sc, zones);
      }
    }
  }
}

TEST(ShardedCoordinator, StartingAPlannerChangesNoEstimateUntilAPlanIsTaken) {
  // The planner only records: until recompute_epochs() or
  // refine_sample_target() moves a plan, a planning coordinator publishes
  // bit for bit what one without a planner does. Without one, both calls
  // are no-ops and every zone reports the configured defaults.
  const auto stream = apply_equivalence_stream();
  const geo::zone_grid grid(test_proj(), 250.0);
  const std::vector<std::string> nets{"NetB", "NetC"};
  coordinator_config ccfg = small_epoch_config();
  ccfg.epochs.default_epoch_s = 30.0;
  for (const bool synchronous : {true, false}) {
    SCOPED_TRACE(synchronous ? "1 sync shard" : "4 async shards");
    sharded_config cfg;
    cfg.coordinator = ccfg;
    cfg.num_shards = synchronous ? 1 : 4;
    cfg.synchronous = synchronous;
    sharded_coordinator planned(grid, nets, cfg, 42);
    sharded_coordinator unplanned(grid, nets, cfg, 42);
    planned.start_planning();
    for (const auto& r : stream) {
      ASSERT_TRUE(planned.report(r));
      ASSERT_TRUE(unplanned.report(r));
    }
    planned.flush();
    unplanned.flush();
    expect_same_estimates(planned, unplanned);

    unplanned.recompute_epochs();
    for (const auto& r : stream) {
      const geo::zone_id z = grid.zone_of(r.pos);
      const auto st = unplanned.status_of(z);
      ASSERT_EQ(st.epoch_duration_s, ccfg.epochs.default_epoch_s);
      ASSERT_EQ(st.samples_target, ccfg.default_samples_per_epoch);
      ASSERT_EQ(unplanned.refine_sample_target(z, "NetB",
                                               trace::metric::rtt_s),
                ccfg.default_samples_per_epoch);
      ASSERT_TRUE(unplanned.history_for_test(z).empty());
    }
    // The planned twin did keep a history to plan from.
    EXPECT_FALSE(
        planned.history_for_test(grid.zone_of(stream.back().pos)).empty());
  }
}

TEST(ShardedCoordinator, AlertsRaisedCountsEveryAlertPastRingEviction) {
  // core.coordinator.alerts_raised counts from each zone table's own alert
  // counter, not from the bounded ring shared by the shards: every
  // >2-sigma rollover counts exactly once at any shard count, even when
  // the ring has long evicted it.
  const geo::projection proj = test_proj();
  const geo::zone_grid grid(proj, 250.0);
  constexpr std::size_t kCapacity = 8;
  constexpr int kZones = 6;
  constexpr int kEpochs = 12;  // the last one stays open
  // Each zone's RTT alternates between two levels far apart against the
  // per-epoch spread, so every frozen epoch after a zone's first alerts.
  std::vector<trace::measurement_record> stream;
  for (int e = 0; e < kEpochs; ++e) {
    const double level = e % 2 == 0 ? 0.05 : 0.5;
    for (int z = 0; z < kZones; ++z) {
      const geo::lat_lon pos = grid.center({0, z});
      for (int i = 0; i < 5; ++i) {
        stream.push_back(testing::make_record(60.0 * e + i, "NetB", pos,
                                              trace::probe_kind::ping,
                                              level * (1.0 + 0.01 * i)));
      }
    }
  }
  const std::uint64_t raised = kZones * (kEpochs - 2);
  ASSERT_GT(raised, kCapacity);

  for (const bool synchronous : {true, false}) {
    SCOPED_TRACE(synchronous ? "1 shard, sync" : "2 shards, async");
    sharded_config cfg;
    cfg.coordinator.epochs.default_epoch_s = 60.0;
    cfg.coordinator.alert_ring_capacity = kCapacity;
    cfg.num_shards = synchronous ? 1 : 2;
    cfg.synchronous = synchronous;
    sharded_coordinator sc(grid, {"NetB"}, cfg, 7);
    const std::uint64_t before = counter_value(obs::names::kCoordAlertsRaised);
    ASSERT_EQ(sc.report_batch(stream), stream.size());
    sc.flush();
    const std::uint64_t counted =
        counter_value(obs::names::kCoordAlertsRaised) - before;
    EXPECT_EQ(counted, sc.alert_sink().pushed());
    EXPECT_EQ(counted, raised);
    const alert_drain d = sc.alert_sink().drain_since(0, kCapacity);
    EXPECT_EQ(d.dropped, raised - kCapacity);
    EXPECT_EQ(d.alerts.size(), kCapacity);
    for (std::size_t i = 0; i < sc.num_shards(); ++i) {
      EXPECT_GT(sc.stats_of(i).reports_ingested, 0u) << "shard " << i;
    }
  }
}

TEST(ShardedCoordinatorStress, EightProducersLoseNoReports) {
  // 8 producer threads x 10k reports each through the concurrent server;
  // the counters must account for every line (run under TSan by
  // tools/run_tsan.sh).
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 10'000;

  const geo::zone_grid grid(test_proj(), 250.0);
  const std::vector<std::string> nets{"NetB", "NetC"};
  sharded_config cfg;
  cfg.coordinator = small_epoch_config();
  cfg.num_shards = 4;
  cfg.queue_capacity = 512;  // small: exercises producer backpressure
  sharded_coordinator sc(grid, nets, cfg, 17);
  proto::coordinator_server server(sc);

  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (std::size_t p = 0; p < kThreads; ++p) {
    producers.emplace_back([&, p] {
      stats::rng_stream rng(1000 + p);
      const geo::projection proj = test_proj();
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const double t = 1000.0 + static_cast<double>(i);
        const geo::xy xy{443.0 * static_cast<double>(rng.uniform_int(-2, 2)),
                         443.0 * static_cast<double>(rng.uniform_int(-2, 2))};
        auto rec = testing::make_record(
            t, p % 2 == 0 ? "NetB" : "NetC", proj.to_lat_lon(xy),
            trace::probe_kind::ping, 0.1 + 0.01 * rng.uniform());
        rec.client_id = 100 + p;
        proto::measurement_report rep;
        rep.client_id = rec.client_id;
        rep.record = rec;
        const std::string reply = testing::reply_of(server, proto::encode(rep));
        ASSERT_EQ(reply, "ACK");
      }
    });
  }
  for (auto& th : producers) th.join();
  sc.flush();

  const std::uint64_t expected = kThreads * kPerThread;
  EXPECT_EQ(server.reports_received(), expected);
  EXPECT_EQ(server.errors(), 0u);
  EXPECT_EQ(sc.reports_received(), expected);
  EXPECT_EQ(sc.reports_ingested(), expected);
  EXPECT_EQ(sc.queue_depth(), 0u);

  // Every shard that owns zones did real, batched work.
  std::uint64_t ingested = 0, batches = 0;
  for (std::size_t s = 0; s < sc.num_shards(); ++s) {
    const auto stats = sc.stats_of(s);
    ingested += stats.reports_ingested;
    batches += stats.drain_batches;
    EXPECT_EQ(stats.queue_depth, 0u);
  }
  EXPECT_EQ(ingested, expected);
  EXPECT_GT(batches, 0u);
  EXPECT_LT(batches, expected);  // drains were lock-amortised over batches

  sc.stop();
  EXPECT_FALSE(sc.report(trace::measurement_record{}));
}

}  // namespace
}  // namespace wiscape::core
