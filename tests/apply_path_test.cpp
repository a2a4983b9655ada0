// The dense interned estimate store's load-bearing promise (ISSUE 4): the
// open-addressing zone_table with O(1) epoch fast-forward publishes
// bit-for-bit the estimates, alerts and open-epoch state of the seed's
// string-keyed unordered_map walk -- including across huge sample gaps and
// mid-stream epoch-duration changes. The seed implementation is frozen
// verbatim below as `legacy::` and used as the reference.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "cellnet/presets.h"
#include "core/alert_ring.h"
#include "core/coordinator.h"
#include "core/network_interner.h"
#include "core/zone_table.h"
#include "geo/zone_grid.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "stats/rng.h"
#include "trace/record.h"
#include "test_util.h"

namespace wiscape::core {
namespace {

// ---------------------------------------------------------------------------
// The seed zone_table (pre-ISSUE-4), frozen verbatim: unordered_map keyed by
// the string estimate_key, one loop iteration per elapsed epoch.
namespace legacy {

class zone_table {
 public:
  explicit zone_table(double change_sigma_factor = 2.0)
      : sigma_factor_(change_sigma_factor) {}

  void add_sample(const estimate_key& key, double time_s, double value,
                  double epoch_duration_s) {
    if (!(epoch_duration_s > 0.0)) {
      throw std::invalid_argument("epoch duration must be positive");
    }
    stream& s = streams_[key];
    if (s.open_start_s < 0.0) {
      s.open_start_s =
          std::floor(time_s / epoch_duration_s) * epoch_duration_s;
    }
    while (time_s >= s.open_start_s + epoch_duration_s) {
      rollover(key, s);
      s.open_start_s += epoch_duration_s;
    }
    s.open.add(value);
  }

  std::optional<epoch_estimate> latest(const estimate_key& key) const {
    const auto it = streams_.find(key);
    if (it == streams_.end() || it->second.frozen.empty()) return std::nullopt;
    return it->second.frozen.back();
  }

  std::size_t open_epoch_samples(const estimate_key& key) const {
    const auto it = streams_.find(key);
    return it == streams_.end() ? 0 : it->second.open.count();
  }

  std::vector<epoch_estimate> history(const estimate_key& key) const {
    const auto it = streams_.find(key);
    return it == streams_.end() ? std::vector<epoch_estimate>{}
                                : it->second.frozen;
  }

  const std::vector<change_alert>& alerts() const noexcept { return alerts_; }

  std::vector<estimate_key> keys() const {
    std::vector<estimate_key> out;
    out.reserve(streams_.size());
    for (const auto& [k, _] : streams_) out.push_back(k);
    return out;
  }

  void restore(const estimate_key& key, const epoch_estimate& estimate) {
    streams_[key].frozen.push_back(estimate);
  }

 private:
  struct stream {
    stats::running_stats open;
    double open_start_s = -1.0;
    std::vector<epoch_estimate> frozen;
  };

  void rollover(const estimate_key& key, stream& s) {
    if (s.open.empty()) return;
    epoch_estimate e;
    e.epoch_start_s = s.open_start_s;
    e.mean = s.open.mean();
    e.stddev = s.open.stddev();
    e.samples = s.open.count();
    if (!s.frozen.empty()) {
      const epoch_estimate& prev = s.frozen.back();
      const double threshold = sigma_factor_ * prev.stddev;
      if (threshold > 0.0 && std::abs(e.mean - prev.mean) > threshold) {
        alerts_.push_back(
            {key, e.epoch_start_s, prev.mean, e.mean, prev.stddev});
      }
    }
    s.frozen.push_back(e);
    s.open.reset();
  }

  double sigma_factor_;
  std::unordered_map<estimate_key, stream, estimate_key_hash> streams_;
  std::vector<change_alert> alerts_;
};

}  // namespace legacy

// ---------------------------------------------------------------------------

struct apply {
  estimate_key key;
  double time_s;
  double value;
  double duration_s;
};

void expect_same_estimate(const epoch_estimate& a, const epoch_estimate& b,
                          const char* what) {
  EXPECT_EQ(a.epoch_start_s, b.epoch_start_s) << what;
  EXPECT_EQ(a.mean, b.mean) << what;
  EXPECT_EQ(a.stddev, b.stddev) << what;
  EXPECT_EQ(a.samples, b.samples) << what;
}

// Replays a corpus through both implementations and requires bit-for-bit
// identical observable state: per-key history, latest, open-epoch sample
// counts, and the alert stream (content and order) -- the seed's own alert
// list against what the fast table pushed into its ring.
void expect_equivalent(const std::vector<apply>& corpus,
                       const std::vector<std::string>& networks = {}) {
  legacy::zone_table want(2.0);
  zone_table got(networks);
  alert_ring ring(corpus.size() + 1);  // room for every rollover's alert
  got.set_alert_sink(&ring);
  for (const auto& a : corpus) {
    want.add_sample(a.key, a.time_s, a.value, a.duration_s);
    got.add_sample(a.key, a.time_s, a.value, a.duration_s);
  }
  const auto keys = want.keys();
  EXPECT_EQ(keys.size(), got.keys().size());
  for (const auto& key : keys) {
    const auto wh = want.history(key);
    const auto gh = got.history(key);
    ASSERT_EQ(wh.size(), gh.size()) << key.network;
    for (std::size_t i = 0; i < wh.size(); ++i) {
      expect_same_estimate(wh[i], gh[i], key.network.c_str());
    }
    EXPECT_EQ(want.open_epoch_samples(key), got.open_epoch_samples(key));
    const auto wl = want.latest(key);
    const auto gl = got.latest(key);
    ASSERT_EQ(wl.has_value(), gl.has_value());
    if (wl) expect_same_estimate(*wl, *gl, "latest");
  }
  const auto& wa = want.alerts();
  const auto ga = testing::drained_alerts(ring);
  ASSERT_EQ(wa.size(), ga.size());
  EXPECT_EQ(got.alerts_raised(), ga.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].key, ga[i].key);
    EXPECT_EQ(wa[i].epoch_start_s, ga[i].epoch_start_s);
    EXPECT_EQ(wa[i].previous_mean, ga[i].previous_mean);
    EXPECT_EQ(wa[i].new_mean, ga[i].new_mean);
    EXPECT_EQ(wa[i].previous_stddev, ga[i].previous_stddev);
  }
}

estimate_key key_of(int ix, int iy, const std::string& net,
                    trace::metric m = trace::metric::tcp_throughput_bps) {
  return {geo::zone_id{ix, iy}, net, m};
}

// ---------------------------------------------------------------------------
// Randomized equivalence corpora

TEST(ApplyPathEquivalence, RandomizedStreamsMatchSeedBitForBit) {
  for (const std::uint64_t seed : {7ull, 21ull, 99ull}) {
    stats::rng_stream rng(seed);
    const std::vector<std::string> nets = {"NetB", "NetC", "NetD"};
    const trace::metric metrics[] = {trace::metric::tcp_throughput_bps,
                                     trace::metric::rtt_s,
                                     trace::metric::loss_rate};
    std::vector<apply> corpus;
    double t = 1000.0;
    for (int i = 0; i < 4000; ++i) {
      // Mostly small forward steps, occasionally a multi-epoch gap.
      t += rng.chance(0.02) ? 120.0 * static_cast<double>(rng.uniform_int(3, 40))
                            : static_cast<double>(rng.uniform_int(0, 30));
      corpus.push_back({key_of(rng.uniform_int(-2, 2), rng.uniform_int(-2, 2),
                               nets[static_cast<std::size_t>(
                                   rng.uniform_int(0, 2))],
                               metrics[static_cast<std::size_t>(
                                   rng.uniform_int(0, 2))]),
                        t, rng.normal(1.5e6, 4e5), 120.0});
    }
    expect_equivalent(corpus, {"NetB", "NetC"});
  }
}

TEST(ApplyPathEquivalence, MidStreamDurationChangesMatchSeed) {
  // Epoch re-estimation changes a zone's duration while streams are mid
  // epoch; the fast-forward must reproduce the seed's iterated boundaries,
  // which are NOT multiples of the new duration.
  stats::rng_stream rng(13);
  std::vector<apply> corpus;
  double t = 10.0;
  double d = 120.0;
  for (int i = 0; i < 3000; ++i) {
    if (i % 250 == 249) d = (d == 120.0) ? 100.0 : (d == 100.0 ? 360.0 : 120.0);
    t += rng.chance(0.03) ? d * static_cast<double>(rng.uniform_int(2, 25))
                          : static_cast<double>(rng.uniform_int(0, 20));
    corpus.push_back(
        {key_of(0, 0, rng.chance(0.5) ? "NetB" : "NetC"), t,
         rng.normal(10.0, 3.0), d});
  }
  expect_equivalent(corpus, {"NetB", "NetC"});
}

TEST(ApplyPathEquivalence, UnknownNetworksAndOutOfOrderTimesMatchSeed) {
  // Operators never passed to the constructor intern on first sight; stale
  // (backwards) timestamps just land in the open epoch, as in the seed.
  std::vector<apply> corpus;
  const std::vector<std::string> nets = {"NetB", "mvno-x", "roam/7", ""};
  double t = 500.0;
  stats::rng_stream rng(3);
  for (int i = 0; i < 1200; ++i) {
    t += static_cast<double>(rng.uniform_int(-40, 60));
    corpus.push_back({key_of(1, -1, nets[static_cast<std::size_t>(
                                 rng.uniform_int(0, 3))]),
                      t, rng.normal(5.0, 1.0), 60.0});
  }
  expect_equivalent(corpus, {"NetB"});
}

// The exact boundary-pinning case from the design note: duration change
// 120 -> 100 leaves the epoch boundary at 920 for a sample at t=1000 (the
// iterated walk from 120), not at floor(1000/100)*100 = 1000.
TEST(ApplyPathEquivalence, DurationChangeBoundaryIsIteratedNotSnapped) {
  const auto key = key_of(0, 0, "NetB");
  std::vector<apply> corpus = {
      {key, 10.0, 1.0, 120.0},    // opens epoch [0, 120)
      {key, 130.0, 2.0, 120.0},   // rollover; open epoch starts at 120
      {key, 1000.0, 3.0, 100.0},  // duration changed: walk 120 -> 920
      {key, 1020.0, 4.0, 100.0},  // rollover publishes [920, 1020)
  };
  expect_equivalent(corpus);

  zone_table t;
  for (const auto& a : corpus) t.add_sample(a.key, a.time_s, a.value, a.duration_s);
  const auto hist = t.history(key);
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[0].epoch_start_s, 0.0);
  EXPECT_EQ(hist[1].epoch_start_s, 120.0);
  EXPECT_EQ(hist[2].epoch_start_s, 920.0);  // not 1000: no floor-snapping
}

// ---------------------------------------------------------------------------
// Gap fast-forward

TEST(ApplyPathGap, MillionEpochGapMatchesSeedBitForBit) {
  const auto key = key_of(3, -4, "NetB", trace::metric::rtt_s);
  const double d = 60.0;
  std::vector<apply> corpus;
  stats::rng_stream rng(17);
  double t = 120.0;
  for (int i = 0; i < 50; ++i) {
    t += static_cast<double>(rng.uniform_int(0, 15));
    corpus.push_back({key, t, rng.normal(0.1, 0.02), d});
  }
  t += 1e6 * d;  // a million empty epochs
  for (int i = 0; i < 50; ++i) {
    t += static_cast<double>(rng.uniform_int(0, 15));
    corpus.push_back({key, t, rng.normal(0.4, 0.02), d});
  }
  expect_equivalent(corpus, {"NetB"});
}

TEST(ApplyPathGap, TrillionEpochGapAppliesInConstantTime) {
  // 10^12 elapsed epochs would take hours with the seed's per-epoch loop;
  // the fused jump must land on the exact same boundary the iterated walk
  // would reach (all quantities are exactly representable: integral d, and
  // the boundary stays a multiple of d below 2^53).
  zone_table t({"NetB"});
  const auto key = key_of(0, 0, "NetB");
  const double d = 60.0;
  t.add_sample(key, 30.0, 1.0, d);  // opens epoch [0, 60)
  const double far = 1e12 * d + 30.0;
  const auto t0 = std::chrono::steady_clock::now();
  t.add_sample(key, far, 2.0, d);
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(took, 0.5) << "gap apply was not O(1)";
  // Roll the far epoch over and check its start: the open epoch containing
  // `far` must start at the closed-form boundary floor(far/d)*d.
  t.add_sample(key, far + d, 3.0, d);
  const auto hist = t.history(key);
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0].epoch_start_s, 0.0);
  EXPECT_EQ(hist[1].epoch_start_s, std::floor(far / d) * d);
  EXPECT_EQ(hist[1].samples, 1u);
}

TEST(ApplyPathGap, GapFastForwardCounterIncrements) {
  auto& gap = obs::registry::global().get_counter(
      obs::names::kZoneTableGapFastForwards);
  const std::uint64_t before = gap.value();
  zone_table t;
  const auto key = key_of(0, 0, "NetB");
  t.add_sample(key, 0.0, 1.0, 60.0);
  t.add_sample(key, 60.0 * 5000.0, 2.0, 60.0);
  EXPECT_GE(gap.value(), before + 1);
}

// ---------------------------------------------------------------------------
// network_interner

TEST(NetworkInterner, FirstSeenOrderAndStability) {
  network_interner in;
  EXPECT_EQ(in.size(), 0u);
  EXPECT_EQ(in.id_of("NetB"), 0u);
  EXPECT_EQ(in.id_of("NetC"), 1u);
  EXPECT_EQ(in.id_of("NetB"), 0u);  // stable on re-lookup
  EXPECT_EQ(in.try_id("NetC"), 1u);
  EXPECT_EQ(in.try_id("NetZ"), network_interner::npos);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.name_of(0), "NetB");
  EXPECT_EQ(in.name_of(1), "NetC");
  EXPECT_THROW(in.name_of(2), std::out_of_range);
}

TEST(NetworkInterner, ConstructorSeedsFixedPrefixAndCollapsesDuplicates) {
  const std::vector<std::string> nets = {"NetB", "NetC", "NetB", "NetD"};
  network_interner a(nets), b(nets);
  // Identical assignment on both (the cross-shard agreement the wire cache
  // depends on); the duplicate collapses to its first id.
  for (const auto& n : nets) EXPECT_EQ(a.try_id(n), b.try_id(n));
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.try_id("NetB"), 0u);
  EXPECT_EQ(a.try_id("NetC"), 1u);
  EXPECT_EQ(a.try_id("NetD"), 2u);
}

TEST(NetworkInterner, CapacityCapThrows) {
  network_interner in;
  for (std::size_t i = 0; i < network_interner::max_networks; ++i) {
    in.id_of("net" + std::to_string(i));
  }
  EXPECT_EQ(in.size(), network_interner::max_networks);
  EXPECT_THROW(in.id_of("one-too-many"), std::length_error);
  // try_id stays non-throwing at capacity.
  EXPECT_EQ(in.try_id("one-too-many"), network_interner::npos);
  // try_intern saturates to npos instead of throwing (the wire-facing
  // contract: a flood of distinct names must reject, not unwind) and keeps
  // resolving already-interned names.
  EXPECT_EQ(in.try_intern("one-too-many"), network_interner::npos);
  EXPECT_EQ(in.try_intern("net0"), 0u);
  EXPECT_EQ(in.size(), network_interner::max_networks);
}

TEST(NetworkInterner, TryInternAssignsIdsBelowCapacity) {
  network_interner in;
  EXPECT_EQ(in.try_intern("NetB"), 0u);
  EXPECT_EQ(in.try_intern("NetC"), 1u);
  EXPECT_EQ(in.try_intern("NetB"), 0u);  // stable on re-intern
  EXPECT_EQ(in.size(), 2u);
}

// ---------------------------------------------------------------------------
// zone_table surface

TEST(ZoneTableStore, HistoryViewAliasesStorageAndMatchesCopy) {
  zone_table t({"NetB"});
  const auto key = key_of(0, 0, "NetB");
  for (int i = 0; i < 10; ++i) {
    t.add_sample(key, 60.0 * static_cast<double>(i), 1.0 + i, 60.0);
  }
  const auto view = t.history_view(key);
  const auto copy = t.history(key);
  ASSERT_EQ(view.size(), copy.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    expect_same_estimate(view[i], copy[i], "view");
  }
  // Same storage on re-query while the table is untouched.
  EXPECT_EQ(t.history_view(key).data(), view.data());
  // Unknown key / unknown network: empty view, no interning side effect.
  EXPECT_TRUE(t.history_view(key_of(9, 9, "NetB")).empty());
  EXPECT_TRUE(t.history_view(key_of(0, 0, "nope")).empty());
  EXPECT_EQ(t.interner().try_id("nope"), network_interner::npos);
}

TEST(ZoneTableStore, PackedZoneRangeGuardThrows) {
  zone_table t;
  const int big = 1 << 23;
  EXPECT_THROW(
      t.add_sample(key_of(big, 0, "NetB"), 0.0, 1.0, 60.0),
      std::invalid_argument);
  EXPECT_THROW(
      t.add_sample(key_of(0, -big - 1, "NetB"), 0.0, 1.0, 60.0),
      std::invalid_argument);
  // The extremes of the representable range are fine.
  t.add_sample(key_of(big - 1, -big, "NetB"), 0.0, 1.0, 60.0);
  EXPECT_EQ(t.open_epoch_samples(key_of(big - 1, -big, "NetB")), 1u);
}

TEST(ZoneTableStore, OutOfRangeNetworkIdThrowsInsteadOfAliasing) {
  // Regression: pack_group used to mask network_id & 0xFFF, so feeding
  // network_interner::npos (0xFFFF) to the id-keyed write path silently
  // landed the sample on valid id 4095's streams. It must throw instead.
  zone_table t({"NetB"});
  const geo::zone_id z{0, 0};
  const auto m = trace::metric::tcp_throughput_bps;
  t.add_sample(z, 0, m, 0.0, 1.0, 60.0);
  EXPECT_THROW(t.add_sample(z, network_interner::npos, m, 1.0, 2.0, 60.0),
               std::invalid_argument);
  EXPECT_THROW(
      t.add_sample(z, static_cast<std::uint16_t>(network_interner::max_networks),
                   m, 1.0, 2.0, 60.0),
      std::invalid_argument);
  // No phantom stream was created, and the real stream is untouched.
  EXPECT_EQ(t.keys().size(), 1u);
  EXPECT_EQ(t.open_epoch_samples(z, 0, m), 1u);
  // Read paths saturate silently for out-of-range ids.
  EXPECT_EQ(t.open_epoch_samples(z, network_interner::npos, m), 0u);
  EXPECT_TRUE(t.history_view(z, network_interner::npos, m).empty());
}

TEST(ZoneTableStore, RestoreThenAppendMatchesLegacy) {
  legacy::zone_table want;
  zone_table got;
  const auto key = key_of(2, 2, "NetC", trace::metric::loss_rate);
  const epoch_estimate est{120.0, 0.25, 0.04, 17};
  want.restore(key, est);
  got.merge_estimate(key, est, 120.0);
  for (double t = 400.0; t < 1000.0; t += 35.0) {
    want.add_sample(key, t, 0.3, 120.0);
    got.add_sample(key, t, 0.3, 120.0);
  }
  const auto wh = want.history(key);
  const auto gh = got.history(key);
  ASSERT_EQ(wh.size(), gh.size());
  for (std::size_t i = 0; i < wh.size(); ++i) {
    expect_same_estimate(wh[i], gh[i], "restore");
  }
  EXPECT_EQ(want.alerts().size(), got.alerts_raised());
}

TEST(ZoneTableStore, ManyStreamsSurviveTableGrowth) {
  // Push well past the initial 64-slot index so every stream survives
  // several rehashes with its history intact.
  zone_table t;
  legacy::zone_table want(2.0);
  for (int ix = 0; ix < 20; ++ix) {
    for (int iy = 0; iy < 20; ++iy) {
      const auto key = key_of(ix, iy, iy % 2 ? "NetB" : "NetC");
      for (int e = 0; e < 3; ++e) {
        const double time = 60.0 * static_cast<double>(e);
        const double v = ix * 100.0 + iy + e;
        t.add_sample(key, time, v, 60.0);
        want.add_sample(key, time, v, 60.0);
      }
    }
  }
  for (int ix = 0; ix < 20; ++ix) {
    for (int iy = 0; iy < 20; ++iy) {
      const auto key = key_of(ix, iy, iy % 2 ? "NetB" : "NetC");
      const auto wh = want.history(key);
      const auto gh = t.history(key);
      ASSERT_EQ(wh.size(), gh.size());
      for (std::size_t i = 0; i < wh.size(); ++i) {
        expect_same_estimate(wh[i], gh[i], "growth");
      }
    }
  }
}

// Epochs before t=0 are real epochs: they freeze, and an install closes
// them. The legacy oracle above treats any negative start as "no epoch
// yet" (so such a stream re-aligns on every sample and freezes nothing
// until t >= 0), so these cases are pinned directly.
TEST(ZoneTableStore, EpochsBeforeTimeZeroFreezeLikeLaterOnes) {
  zone_table t;
  const auto key = key_of(0, 0, "NetB");
  for (const double time : {-250.0, -240.0, -150.0, -140.0, -50.0, 10.0,
                            20.0, 110.0}) {
    t.add_sample(key, time, time, 100.0);
  }
  const auto hist = t.history(key);
  const std::vector<std::pair<double, std::size_t>> want = {
      {-300.0, 2}, {-200.0, 2}, {-100.0, 1}, {0.0, 2}};
  ASSERT_EQ(hist.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(hist[i].epoch_start_s, want[i].first) << i;
    EXPECT_EQ(hist[i].samples, want[i].second) << i;
  }
  EXPECT_EQ(hist[0].mean, -245.0);
  EXPECT_EQ(t.open_epoch_samples(key), 1u);  // t=110 opened [100, 200)
}

TEST(ZoneTableStore, InstallingAnEpochBeforeTimeZeroClosesIt) {
  zone_table t;
  const auto key = key_of(0, 0, "NetB");
  const epoch_estimate installed{-300.0, 4.0, 0.5, 3};
  EXPECT_FALSE(t.merge_estimate(key, installed, 100.0));
  // A late sample from the installed epoch lands in the open epoch after
  // it, so the rollover below freezes -200 and never -300 a second time.
  t.add_sample(key, -280.0, 9.0, 100.0);
  t.add_sample(key, -150.0, 11.0, 100.0);
  t.add_sample(key, -50.0, 1.0, 100.0);
  const auto hist = t.history(key);
  ASSERT_EQ(hist.size(), 2u);
  expect_same_estimate(hist[0], installed, "installed");
  EXPECT_EQ(hist[1].epoch_start_s, -200.0);
  EXPECT_EQ(hist[1].samples, 2u);
  EXPECT_EQ(hist[1].mean, 10.0);
}

// ---------------------------------------------------------------------------
// Coordinator-level fold: metrics_of() must preserve the seed's per-record
// metric fold order (alert order is observable), and the wire-cached
// network_id must be validated, not trusted.

TEST(ApplyPathCoordinator, ReportFoldMatchesLegacyAllMetricsWalk) {
  geo::projection proj(cellnet::anchors::madison);
  geo::zone_grid grid(proj, 250.0);
  coordinator_config cfg;
  cfg.epochs.default_epoch_s = 120.0;
  cfg.alert_ring_capacity = 2000 * 3;  // every record's metrics could alert
  alert_ring alerts(cfg.alert_ring_capacity);
  coordinator coord(grid, {"NetB", "NetC"}, cfg, 42, alerts);

  // The seed fold: for each record, walk all six metrics in declaration
  // order and apply those whose kind matches.
  legacy::zone_table want(zone_table::change_sigma_factor);
  static constexpr trace::metric all_metrics[] = {
      trace::metric::tcp_throughput_bps, trace::metric::udp_throughput_bps,
      trace::metric::loss_rate, trace::metric::jitter_s, trace::metric::rtt_s,
      trace::metric::uplink_throughput_bps};

  stats::rng_stream rng(8);
  for (int i = 0; i < 2000; ++i) {
    trace::measurement_record rec;
    rec.time_s = 1000.0 + 3.0 * static_cast<double>(i);
    rec.network = rng.chance(0.5) ? "NetB" : "NetC";
    rec.pos = proj.to_lat_lon(
        {300.0 * static_cast<double>(rng.uniform_int(-2, 2)),
         300.0 * static_cast<double>(rng.uniform_int(-2, 2))});
    rec.kind = static_cast<trace::probe_kind>(rng.uniform_int(0, 3));
    rec.success = !rng.chance(0.1);
    const double base = i < 1000 ? 1.0e6 : 3.0e6;
    rec.throughput_bps = base * (1.0 + 0.05 * rng.normal());
    rec.loss_rate = 0.02 * (1.0 + 0.5 * rng.normal());
    rec.jitter_s = 0.004 * (1.0 + 0.5 * rng.normal());
    rec.rtt_s = 0.1 * (1.0 + 0.2 * rng.normal());
    // Poison the cached id on some records: a foreign id must be ignored
    // (validated against the name), never change the fold.
    if (rng.chance(0.3)) {
      rec.network_id = static_cast<std::uint16_t>(rng.uniform_int(0, 5));
    }

    coord.report(rec);
    if (rec.success) {
      const geo::zone_id z = grid.zone_of(rec.pos);
      for (const trace::metric m : all_metrics) {
        if (trace::kind_for(m) != rec.kind) continue;
        want.add_sample({z, rec.network, m}, rec.time_s,
                        trace::value_of(rec, m), cfg.epochs.default_epoch_s);
      }
    }
  }

  const auto keys = want.keys();
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(coord.table_for_test().keys().size(), keys.size());
  for (const auto& key : keys) {
    const auto wh = want.history(key);
    const auto gh = coord.table_for_test().history(key);
    ASSERT_EQ(wh.size(), gh.size()) << key.network;
    for (std::size_t i = 0; i < wh.size(); ++i) {
      expect_same_estimate(wh[i], gh[i], "fold");
    }
    EXPECT_EQ(want.open_epoch_samples(key),
              coord.table_for_test().open_epoch_samples(key));
  }
  // Alert streams agree alert-for-alert (order included).
  const auto& wa = want.alerts();
  const auto ga = testing::drained_alerts(coord.alert_sink());
  ASSERT_EQ(wa.size(), ga.size());
  EXPECT_EQ(coord.alert_sink().pushed(), ga.size());
  ASSERT_FALSE(wa.empty()) << "corpus raised no alerts; weak test";
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].key, ga[i].key);
    EXPECT_EQ(wa[i].new_mean, ga[i].new_mean);
  }
}

TEST(ApplyPathCoordinator, MetricsOfMatchesKindFor) {
  for (const auto kind :
       {trace::probe_kind::tcp_download, trace::probe_kind::udp_burst,
        trace::probe_kind::ping, trace::probe_kind::udp_uplink}) {
    for (const trace::metric m : trace::metrics_of(kind)) {
      EXPECT_EQ(trace::kind_for(m), kind);
    }
  }
  EXPECT_EQ(trace::metrics_of(trace::probe_kind::udp_burst).size(), 3u);
}

TEST(ApplyPath, NonFiniteAndSaturatedTimestampsTerminate) {
  // Regression (found by the scenario fuzz corpus): a +inf timestamp made
  // cross_epochs spin forever -- open_start + duration == open_start at fp
  // saturation, so the rollover walk never advanced. add_sample must
  // terminate for ANY double, because the coordinator boundary is the only
  // validation layer and direct zone_table users have none.
  core::zone_table table({"NetB"});
  const geo::zone_id z{1, 1};
  const auto nid = table.interner().id_of("NetB");
  for (const double poison :
       {std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), 1.0e308, -1.0e308}) {
    table.add_sample(z, nid, trace::metric::rtt_s, poison, 0.1, 300.0);
    // A normal-time sample on the now-poisoned stream must also terminate.
    table.add_sample(z, nid, trace::metric::rtt_s, 100.0, 0.1, 300.0);
  }
  // And the coordinator boundary rejects non-finite timestamps outright.
  geo::projection proj(cellnet::anchors::madison);
  geo::zone_grid grid(proj, 250.0);
  alert_ring alerts;
  coordinator coord(grid, {"NetB"}, {}, 1, alerts);
  obs::counter& rejected =
      obs::registry::global().get_counter(obs::names::kCoordReportsRejected);
  const std::uint64_t rejected0 = rejected.value();
  trace::measurement_record rec;
  rec.network = "NetB";
  rec.pos = proj.to_lat_lon({10.0, 10.0});
  rec.kind = trace::probe_kind::ping;
  rec.success = true;
  rec.rtt_s = 0.1;
  rec.time_s = std::numeric_limits<double>::infinity();
  coord.report(rec);
  rec.time_s = std::numeric_limits<double>::quiet_NaN();
  coord.report(rec);
  EXPECT_EQ(rejected.value(), rejected0 + 2);
}

}  // namespace
}  // namespace wiscape::core
