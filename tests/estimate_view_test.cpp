// Serving-layer promises (ISSUE 5):
//  * estimate_view serves, bit-for-bit, the estimates the zone table froze
//    -- on one synchronous shard and over the sharded pipeline;
//  * the sharded read path is snapshot-consistent under a concurrent query
//    storm: every returned triple equals some prefix-consistent sequential
//    state of its stream (no torn values), keyed by epoch_index;
//  * alert draining is monotone by sequence number and never loses an alert
//    silently, even when ring wraparound evicts alerts under a lagging
//    cursor (served + dropped accounts for everything pushed);
//  * estimate_knowledge reproduces the decisions of the frozen direct-read
//    path, so apps moved onto the facade keep their behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/estimate_knowledge.h"
#include "core/alert_ring.h"
#include "core/coordinator.h"
#include "core/estimate_mirror.h"
#include "core/estimate_view.h"
#include "core/sharded_coordinator.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "proto/messages.h"
#include "proto/server.h"
#include "proto/wire_v3.h"
#include "test_util.h"

namespace wiscape::core {
namespace {

geo::projection test_proj() {
  return geo::projection(cellnet::anchors::madison);
}

// Same seeded synthetic fleet idiom the sharded equivalence tests use: a
// 5x5 zone neighbourhood, two networks, all probe kinds, a mid-stream mean
// shift so rollovers raise change alerts.
std::vector<trace::measurement_record> synthetic_stream(std::uint64_t seed,
                                                        std::size_t count) {
  stats::rng_stream rng(seed);
  const geo::projection proj = test_proj();
  std::vector<trace::measurement_record> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double t = 1000.0 + static_cast<double>(i) * 2.0;
    const double cell = 443.0;
    const geo::xy pos_xy{cell * static_cast<double>(rng.uniform_int(-2, 2)),
                         cell * static_cast<double>(rng.uniform_int(-2, 2))};
    const char* net = rng.chance(0.5) ? "NetB" : "NetC";
    const auto kind = static_cast<trace::probe_kind>(rng.uniform_int(0, 3));
    const double base = kind == trace::probe_kind::ping ? 0.12 : 1.5e6;
    const double level = i < count / 2 ? base : base * 3.0;
    const double value = level * (1.0 + 0.05 * rng.normal());
    auto rec = testing::make_record(t, net, proj.to_lat_lon(pos_xy), kind,
                                    std::abs(value));
    rec.client_id = 1 + (i % 7);
    out.push_back(rec);
  }
  return out;
}

coordinator_config small_epoch_config() {
  coordinator_config cfg;
  cfg.epochs.default_epoch_s = 120.0;
  cfg.default_samples_per_epoch = 10;
  return cfg;
}

change_alert nth_alert(int n) {
  change_alert a;
  a.key = estimate_key{geo::zone_id{n, -n}, "NetB",
                       trace::metric::tcp_throughput_bps};
  a.epoch_start_s = 100.0 * n;
  a.previous_mean = 1.0 * n;
  a.new_mean = 2.0 * n;
  a.previous_stddev = 0.5 * n;
  return a;
}

TEST(AlertRing, SequencesStartAtOneAndDrainInOrder) {
  alert_ring ring(8);
  EXPECT_EQ(ring.pushed(), 0u);
  const auto empty = ring.drain_since(0);
  EXPECT_TRUE(empty.alerts.empty());
  EXPECT_EQ(empty.next_seq, 0u);
  EXPECT_EQ(empty.dropped, 0u);

  for (int i = 1; i <= 5; ++i) ring.push(nth_alert(i));
  EXPECT_EQ(ring.pushed(), 5u);

  const auto all = ring.drain_since(0);
  ASSERT_EQ(all.alerts.size(), 5u);
  EXPECT_EQ(all.dropped, 0u);
  EXPECT_EQ(all.next_seq, 5u);
  for (std::size_t i = 0; i < all.alerts.size(); ++i) {
    EXPECT_EQ(all.alerts[i].seq, i + 1);
    EXPECT_EQ(all.alerts[i].alert.new_mean, 2.0 * static_cast<double>(i + 1));
  }

  // Cursor semantics: draining from the returned cursor yields nothing new.
  const auto again = ring.drain_since(all.next_seq);
  EXPECT_TRUE(again.alerts.empty());
  EXPECT_EQ(again.next_seq, 5u);
}

TEST(AlertRing, MaxTruncationKeepsCursorResumable) {
  alert_ring ring(16);
  for (int i = 1; i <= 7; ++i) ring.push(nth_alert(i));

  std::uint64_t cursor = 0;
  std::vector<std::uint64_t> seen;
  for (int round = 0; round < 10 && cursor < 7; ++round) {
    const auto d = ring.drain_since(cursor, /*max=*/2);
    EXPECT_LE(d.alerts.size(), 2u);
    EXPECT_EQ(d.dropped, 0u);
    for (const auto& a : d.alerts) seen.push_back(a.seq);
    cursor = d.next_seq;
  }
  ASSERT_EQ(seen.size(), 7u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(AlertRing, WraparoundAccountsDroppedExactly) {
  alert_ring ring(4);
  for (int i = 1; i <= 10; ++i) ring.push(nth_alert(i));
  EXPECT_EQ(ring.pushed(), 10u);

  // A reader whose cursor predates the ring only gets the surviving tail,
  // but learns exactly how many it lost.
  const auto d = ring.drain_since(0);
  ASSERT_EQ(d.alerts.size(), 4u);
  EXPECT_EQ(d.dropped, 6u);
  EXPECT_EQ(d.alerts.front().seq, 7u);
  EXPECT_EQ(d.alerts.back().seq, 10u);
  EXPECT_EQ(d.alerts.size() + d.dropped, ring.pushed());

  // A reader only slightly behind loses only what was really evicted.
  const auto d2 = ring.drain_since(5);
  ASSERT_EQ(d2.alerts.size(), 4u);
  EXPECT_EQ(d2.dropped, 1u);  // seq 6 evicted; 7..10 survive
}

TEST(EstimateMirror, PublishReadRoundTripAndGrowth) {
  estimate_mirror mirror;
  epoch_estimate e;
  e.epoch_start_s = 42.0;
  e.mean = 3.14;
  e.stddev = 0.7;
  e.samples = 9;

  // Unknown / invalid keys answer not-found, never garbage.
  published_estimate out;
  EXPECT_FALSE(mirror.read(0x8000000000000001ull, out));
  EXPECT_FALSE(mirror.read(0, out));
  mirror.publish(0, e, 0);  // invalid key: ignored, not stored
  EXPECT_EQ(mirror.size(), 0u);

  // Enough streams to force several directory growths.
  const std::size_t streams = 300;
  for (std::size_t i = 0; i < streams; ++i) {
    const std::uint64_t key = (1ull << 63) | (i + 1);
    epoch_estimate ei = e;
    ei.mean = static_cast<double>(i);
    ei.samples = i + 1;
    mirror.publish(key, ei, /*epoch_index=*/i % 5);
  }
  EXPECT_EQ(mirror.size(), streams);
  for (std::size_t i = 0; i < streams; ++i) {
    const std::uint64_t key = (1ull << 63) | (i + 1);
    ASSERT_TRUE(mirror.read(key, out)) << i;
    EXPECT_EQ(out.mean, static_cast<double>(i));
    EXPECT_EQ(out.count, i + 1);
    EXPECT_EQ(out.epoch_index, i % 5);
    EXPECT_EQ(out.epoch_start_s, 42.0);
    EXPECT_EQ(out.stddev, 0.7);
  }

  // Republish overwrites in place (same stream, next epoch).
  epoch_estimate e2 = e;
  e2.mean = 99.0;
  mirror.publish((1ull << 63) | 1, e2, 7);
  ASSERT_TRUE(mirror.read((1ull << 63) | 1, out));
  EXPECT_EQ(out.mean, 99.0);
  EXPECT_EQ(out.epoch_index, 7u);
  EXPECT_EQ(mirror.size(), streams);
}

TEST(EstimateMirror, NewStreamIsNeverReadBeforeItsFirstPublish) {
  // Regression: a new stream's directory key was released before its first
  // payload was written, so a reader racing that publish could find the
  // key and read the slot's all-zero initial state -- served as an
  // estimate of 0 samples instead of not-found. Readers chase the key the
  // writer is about to publish; every estimate they find must be real.
  estimate_mirror mirror;
  constexpr std::uint64_t kStreams = 100000;
  std::atomic<std::uint64_t> next{1};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> unpublished_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      published_estimate out;
      while (!done.load(std::memory_order_relaxed)) {
        const std::uint64_t key =
            (1ull << 63) | next.load(std::memory_order_relaxed);
        if (mirror.read(key, out) && out.count == 0) {
          unpublished_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  epoch_estimate e;
  e.mean = 1.0;
  e.samples = 1;
  for (std::uint64_t i = 1; i <= kStreams; ++i) {
    next.store(i, std::memory_order_relaxed);
    mirror.publish((1ull << 63) | i, e, 0);
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(unpublished_reads.load(), 0u);
  EXPECT_EQ(mirror.size(), kStreams);
}

TEST(EstimateMirror, ReadBatchMatchesReadKeyForKey) {
  estimate_mirror mirror;
  published_estimate sentinel;
  sentinel.mean = -7.0;

  // No directory yet: everything misses, nothing is written.
  {
    const std::vector<std::uint64_t> keys{0, (1ull << 63) | 1};
    std::vector<published_estimate> out(keys.size(), sentinel);
    bool found[2] = {true, true};
    EXPECT_EQ(mirror.read_batch(keys, out, found), 0u);
    EXPECT_FALSE(found[0]);
    EXPECT_FALSE(found[1]);
    EXPECT_EQ(out[1].mean, -7.0);
  }

  const std::size_t streams = 500;  // several growths, several passes
  for (std::size_t i = 0; i < streams; ++i) {
    epoch_estimate e;
    e.epoch_start_s = 10.0 * static_cast<double>(i);
    e.mean = 1.0 / static_cast<double>(i + 3);
    e.stddev = static_cast<double>(i) * 0.25;
    e.samples = i + 1;
    mirror.publish((1ull << 63) | (i + 1), e, i % 7);
  }

  // Present keys, absent keys, the out-of-range sentinel 0 and repeats,
  // in frames of every size around the pass width, including empty.
  std::vector<std::uint64_t> pool;
  for (std::size_t i = 0; i < streams; i += 3) pool.push_back((1ull << 63) | (i + 1));
  for (std::size_t i = 0; i < 40; ++i) pool.push_back((1ull << 62) | (i + 1));
  for (std::size_t i = 0; i < 10; ++i) pool.push_back(0);
  for (std::size_t i = 0; i < 50; ++i) pool.push_back(pool[i * 2]);
  const std::size_t w = estimate_mirror::batch_width;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, w - 1, w, w + 1,
                              3 * w + 5, pool.size()}) {
    const std::span<const std::uint64_t> keys(pool.data(), n);
    std::vector<published_estimate> out(n, sentinel);
    std::unique_ptr<bool[]> found(new bool[n + 1]);
    std::size_t want_hits = 0;
    const std::size_t hits =
        mirror.read_batch(keys, out, {found.get(), n});
    for (std::size_t i = 0; i < n; ++i) {
      published_estimate want = sentinel;
      const bool want_found = mirror.read(keys[i], want);
      want_hits += want_found ? 1 : 0;
      ASSERT_EQ(found[i], want_found) << "frame " << n << " key " << i;
      EXPECT_EQ(out[i].count, want.count);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i].mean),
                std::bit_cast<std::uint64_t>(want.mean));
      EXPECT_EQ(out[i].stddev, want.stddev);
      EXPECT_EQ(out[i].epoch_start_s, want.epoch_start_s);
      EXPECT_EQ(out[i].epoch_index, want.epoch_index);
    }
    EXPECT_EQ(hits, want_hits) << "frame " << n;
  }
}

TEST(EstimateView, ServesExactlyWhatTheTableFroze) {
  const geo::zone_grid grid(test_proj(), 250.0);
  const std::vector<std::string> nets{"NetB", "NetC"};
  auto coord =
      testing::sync_coordinator(grid, nets, small_epoch_config(), /*seed=*/42);
  const estimate_view view(coord);

  // Nothing published yet: every lookup is a miss.
  EXPECT_FALSE(view.lookup(geo::zone_id{0, 0}, "NetB",
                           trace::metric::tcp_throughput_bps));

  for (const auto& rec : synthetic_stream(/*seed=*/9, /*count=*/4000)) {
    coord.report(rec);
  }

  const auto keys = coord.keys();
  ASSERT_FALSE(keys.empty());
  std::size_t published = 0;
  for (const auto& key : keys) {
    const auto want = coord.latest(key);
    const auto got = view.lookup(key.zone, key.network, key.metric);
    ASSERT_EQ(want.has_value(), got.has_value()) << key.network;
    if (!want) continue;
    ++published;
    // Bit-for-bit: the mirror republishes the exact frozen doubles.
    EXPECT_EQ(got->mean, want->mean);
    EXPECT_EQ(got->stddev, want->stddev);
    EXPECT_EQ(got->epoch_start_s, want->epoch_start_s);
    EXPECT_EQ(got->count, static_cast<std::uint64_t>(want->samples));
    const auto hist = coord.history(key);
    EXPECT_EQ(got->epoch_index, hist.size() - 1);
    // Serving context: confidence is the paper's ~100-sample ratio,
    // staleness prices the caller's clock.
    EXPECT_EQ(got->confidence,
              std::min(1.0, static_cast<double>(want->samples) / 100.0));
    EXPECT_EQ(got->staleness_s, -1.0);  // no clock passed
    const auto timed =
        view.lookup(key.zone, key.network, key.metric,
                    want->epoch_start_s + 30.0);
    ASSERT_TRUE(timed.has_value());
    EXPECT_EQ(timed->staleness_s, 30.0);
  }
  EXPECT_GT(published, 0u);

  // Unknown names and out-of-range zones answer not-found, never throw.
  EXPECT_FALSE(view.lookup(keys.front().zone, "NoSuchNet",
                           keys.front().metric));
  EXPECT_FALSE(view.lookup(geo::zone_id{1 << 24, 0}, "NetB",
                           trace::metric::tcp_throughput_bps));
}

TEST(EstimateView, SequentialAlertsMatchTableOrderWithSequences) {
  const geo::zone_grid grid(test_proj(), 250.0);
  const std::vector<std::string> nets{"NetB", "NetC"};
  coordinator_config cfg = small_epoch_config();
  cfg.alert_ring_capacity = 1 << 14;  // keep everything for the comparison
  // The view serves one synchronous shard; the raise order comes from the
  // own ring of a plain coordinator fed the same stream.
  alert_ring alerts(cfg.alert_ring_capacity);
  coordinator seq(grid, nets, cfg, /*seed=*/42, alerts);
  auto coord = testing::sync_coordinator(grid, nets, cfg, /*seed=*/42);
  const estimate_view view(coord);

  for (const auto& rec : synthetic_stream(/*seed=*/21, /*count=*/4000)) {
    seq.report(rec);
    ASSERT_TRUE(coord.report(rec));
  }
  const auto table_alerts = testing::drained_alerts(seq.alert_sink());
  ASSERT_FALSE(table_alerts.empty());

  const auto drained = view.alerts_since(0, table_alerts.size() + 10);
  ASSERT_EQ(drained.alerts.size(), table_alerts.size());
  EXPECT_EQ(drained.dropped, 0u);
  for (std::size_t i = 0; i < table_alerts.size(); ++i) {
    EXPECT_EQ(drained.alerts[i].seq, i + 1);
    EXPECT_EQ(drained.alerts[i].alert.key, table_alerts[i].key);
    EXPECT_EQ(drained.alerts[i].alert.new_mean, table_alerts[i].new_mean);
    EXPECT_EQ(drained.alerts[i].alert.previous_mean,
              table_alerts[i].previous_mean);
  }
}

// The concurrent property (ISSUE 5 acceptance): a randomized QUERY storm
// against a 4-shard ingest must only ever observe prefix-consistent
// sequential states -- every (count, mean, stddev, epoch_start) returned
// matches the sequential reference at the returned epoch_index, bit for
// bit. A torn read (fields from two different epochs) cannot satisfy that.
TEST(EstimateView, ShardedQueryStormIsPrefixConsistent) {
  const auto stream = synthetic_stream(/*seed=*/133, /*count=*/12000);
  const geo::zone_grid grid(test_proj(), 250.0);
  const std::vector<std::string> nets{"NetB", "NetC"};
  const coordinator_config ccfg = small_epoch_config();

  // Sequential reference: per stream, the exact frozen history. Per-stream
  // history depends only on that stream's samples in order, and shard
  // routing preserves per-zone order, so it is interleaving-independent.
  alert_ring alerts;
  coordinator seq(grid, nets, ccfg, /*seed=*/42, alerts);
  for (const auto& rec : stream) seq.report(rec);
  struct ref_stream {
    geo::zone_id zone;
    std::uint16_t network_id;
    trace::metric metric;
    std::vector<epoch_estimate> history;
  };
  std::vector<ref_stream> refs;
  for (const auto& key : seq.keys()) {
    refs.push_back({key.zone, seq.network_id_of(key.network), key.metric,
                    seq.table_for_test().history(key)});
  }
  ASSERT_FALSE(refs.empty());

  sharded_config scfg;
  scfg.coordinator = ccfg;
  scfg.num_shards = 4;
  scfg.synchronous = false;
  sharded_coordinator sharded(grid, nets, scfg, /*seed=*/42);
  const estimate_view view(sharded);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> violations{0};
  const auto consistent = [&](const ref_stream& r,
                              const served_estimate& got) {
    if (got.epoch_index >= r.history.size()) return false;
    const auto& want = r.history[got.epoch_index];
    return got.mean == want.mean && got.stddev == want.stddev &&
           got.epoch_start_s == want.epoch_start_s &&
           got.count == static_cast<std::uint64_t>(want.samples);
  };

  std::vector<std::thread> readers;
  for (int tid = 0; tid < 4; ++tid) {
    readers.emplace_back([&, tid] {
      stats::rng_stream rng(900 + tid);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& r = refs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(refs.size()) - 1))];
        const auto got = view.lookup(r.zone, r.network_id, r.metric);
        if (!got) continue;  // not yet published: a valid prefix state
        hits.fetch_add(1, std::memory_order_relaxed);
        if (!consistent(r, *got)) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (const auto& rec : stream) ASSERT_TRUE(sharded.report(rec));
  sharded.flush();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(hits.load(), 0u) << "storm never observed a published estimate";

  // After the flush the view serves exactly the final sequential state.
  for (const auto& r : refs) {
    const auto got = view.lookup(r.zone, r.network_id, r.metric);
    if (r.history.empty()) {
      EXPECT_FALSE(got.has_value());
      continue;
    }
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->epoch_index, r.history.size() - 1);
    EXPECT_TRUE(consistent(r, *got));
  }
}

// The batched twin of the storm above: readers answer whole frames through
// lookup_batch while the 4-shard drain workers publish -- rolling the very
// streams being read and growing the mirrors' directories under the
// batches. Every element found must be a prefix-consistent sequential
// state, and per reader a stream's epoch never goes backwards. TSan runs
// this as part of the EstimateView.* stage.
TEST(EstimateView, ShardedBatchStormIsPrefixConsistent) {
  const auto stream = synthetic_stream(/*seed=*/134, /*count=*/12000);
  const geo::zone_grid grid(test_proj(), 250.0);
  const std::vector<std::string> nets{"NetB", "NetC"};
  const coordinator_config ccfg = small_epoch_config();

  alert_ring alerts;
  coordinator seq(grid, nets, ccfg, /*seed=*/42, alerts);
  for (const auto& rec : stream) seq.report(rec);
  struct ref_stream {
    stream_lookup query;
    std::vector<epoch_estimate> history;
  };
  std::vector<ref_stream> refs;
  for (const auto& key : seq.keys()) {
    stream_lookup q;
    q.zone = key.zone;
    q.network_id = seq.network_id_of(key.network);
    q.metric = key.metric;
    refs.push_back({q, seq.table_for_test().history(key)});
  }
  ASSERT_FALSE(refs.empty());

  sharded_config scfg;
  scfg.coordinator = ccfg;
  scfg.num_shards = 4;
  scfg.synchronous = false;
  sharded_coordinator sharded(grid, nets, scfg, /*seed=*/42);
  const estimate_view view(sharded);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (int tid = 0; tid < 3; ++tid) {
    readers.emplace_back([&, tid] {
      stats::rng_stream rng(700 + tid);
      std::vector<std::size_t> picked(96);
      std::vector<stream_lookup> frame(96);
      std::vector<std::uint64_t> last_epoch(refs.size(), 0);
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::size_t i = 0; i < frame.size(); ++i) {
          picked[i] = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(refs.size()) - 1));
          frame[i] = refs[picked[i]].query;
        }
        view.lookup_batch(frame);
        for (std::size_t i = 0; i < frame.size(); ++i) {
          if (!frame[i].found) continue;
          hits.fetch_add(1, std::memory_order_relaxed);
          const ref_stream& r = refs[picked[i]];
          const served_estimate& got = frame[i].est;
          const bool ok =
              got.epoch_index < r.history.size() &&
              got.epoch_index >= last_epoch[picked[i]] &&
              got.mean == r.history[got.epoch_index].mean &&
              got.stddev == r.history[got.epoch_index].stddev &&
              got.epoch_start_s == r.history[got.epoch_index].epoch_start_s &&
              got.count == static_cast<std::uint64_t>(
                               r.history[got.epoch_index].samples);
          if (!ok) violations.fetch_add(1, std::memory_order_relaxed);
          last_epoch[picked[i]] = got.epoch_index;
        }
      }
    });
  }

  for (const auto& rec : stream) ASSERT_TRUE(sharded.report(rec));
  sharded.flush();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(hits.load(), 0u) << "storm never observed a published estimate";
}

// ---- batched lookups (QUERYB's one pass over the mirror) ------------------

std::uint64_t counter_value(std::string_view name) {
  return obs::registry::global().get_counter(name).value();
}

bool same_served(const served_estimate& a, const served_estimate& b) {
  return a.count == b.count && a.epoch_index == b.epoch_index &&
         std::bit_cast<std::uint64_t>(a.mean) ==
             std::bit_cast<std::uint64_t>(b.mean) &&
         std::bit_cast<std::uint64_t>(a.stddev) ==
             std::bit_cast<std::uint64_t>(b.stddev) &&
         std::bit_cast<std::uint64_t>(a.epoch_start_s) ==
             std::bit_cast<std::uint64_t>(b.epoch_start_s) &&
         std::bit_cast<std::uint64_t>(a.staleness_s) ==
             std::bit_cast<std::uint64_t>(b.staleness_s) &&
         std::bit_cast<std::uint64_t>(a.confidence) ==
             std::bit_cast<std::uint64_t>(b.confidence);
}

// The reference answer to one query: per-key estimate_view::lookup and the
// estimate_reply the server staged before lookups were batched.
std::optional<proto::estimate_reply> reference_reply(
    const estimate_view& view, const geo::zone_grid& grid,
    const proto::query_request& q) {
  const geo::zone_id zone = grid.zone_of(q.pos);
  const auto est = view.lookup(zone, q.network, q.metric, q.time_s);
  if (!est) return std::nullopt;
  proto::estimate_reply rep;
  rep.zone = zone;
  rep.network = q.network;
  rep.metric = q.metric;
  rep.count = est->count;
  rep.mean = est->mean;
  rep.stddev = est->stddev;
  rep.epoch_index = est->epoch_index;
  rep.staleness_s = est->staleness_s;
  rep.confidence = est->confidence;
  return rep;
}

// Every query shape a frame can carry: hits at zone centres (with and
// without a client clock), misses on materialised zones, zones no report
// ever reached, unknown operators, positions outside the packable zone
// range (stream key 0), and repeats of all of them.
std::vector<proto::query_request> query_pool(const coordinator_config& cfg,
                                             const geo::zone_grid& grid) {
  alert_ring alerts;
  coordinator seq(grid, {"NetB", "NetC"}, cfg, /*seed=*/42, alerts);
  for (const auto& rec : synthetic_stream(/*seed=*/9, /*count=*/4000)) {
    seq.report(rec);
  }
  std::vector<proto::query_request> pool;
  std::size_t i = 0;
  for (const auto& key : seq.keys()) {
    proto::query_request q;
    q.pos = grid.center(key.zone);
    q.network = key.network;
    q.metric = key.metric;
    q.time_s = i % 2 == 0 ? -1.0 : 4000.0 + static_cast<double>(i);
    pool.push_back(q);
    q.metric = trace::metric::uplink_throughput_bps;  // never reported
    if (i % 5 == 0) pool.push_back(q);
    ++i;
  }
  const std::size_t materialised = pool.size();
  proto::query_request far;
  far.pos = grid.center(geo::zone_id{40, -40});
  far.network = "NetB";
  pool.push_back(far);
  proto::query_request unknown = pool.front();
  unknown.network = "NoSuchNet";
  pool.push_back(unknown);
  proto::query_request out_of_range = pool.front();
  out_of_range.pos.lon_deg = 1.0e6;
  pool.push_back(out_of_range);
  for (std::size_t k = 0; k < materialised; k += 4) pool.push_back(pool[k]);
  pool.push_back(far);
  pool.push_back(unknown);
  pool.push_back(out_of_range);
  return pool;
}

// QUERYB and QUERY answers, text and v3, at 1, 2 and 4 shards, must be the
// bytes per-key lookups plus the estimate_reply encoders produce -- frame
// by frame, from an empty frame up to one larger than any before it, and
// back down (scratch left over from a larger frame must not leak).
TEST(EstimateView, BatchedQueriesAreByteIdenticalToPerKeyLookups) {
  const geo::zone_grid grid(test_proj(), 250.0);
  const coordinator_config ccfg = small_epoch_config();
  const std::vector<proto::query_request> pool = query_pool(ccfg, grid);
  ASSERT_GT(pool.size(), 2 * estimate_mirror::batch_width);

  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sharded_config scfg;
    scfg.coordinator = ccfg;
    scfg.num_shards = shards;
    scfg.synchronous = true;
    sharded_coordinator coord(grid, {"NetB", "NetC"}, scfg, /*seed=*/42);
    for (const auto& rec : synthetic_stream(/*seed=*/9, /*count=*/4000)) {
      ASSERT_TRUE(coord.report(rec));
    }
    const estimate_view view(coord);
    proto::coordinator_server server(coord);
    proto::reply_buffer out;

    std::size_t hits = 0;
    for (const auto& q : pool) {
      const auto want = reference_reply(view, grid, q);
      hits += want ? 1 : 0;
      out.clear();
      server.handle(proto::request_view::text(proto::encode(q)), out);
      EXPECT_EQ(out.view(), want ? proto::encode(*want) : "NONE");
      proto::reply_buffer want_v3;
      proto::v3::encode_estimate_frame(want, want_v3);
      out.clear();
      server.handle(
          proto::request_view::binary(proto::v3::encode_query_frame(q)), out);
      EXPECT_EQ(out.view(), want_v3.view());
    }
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, pool.size());

    const std::size_t w = estimate_mirror::batch_width;
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, w - 1, w + 1,
                                pool.size(), std::size_t{5}}) {
      SCOPED_TRACE("frame=" + std::to_string(n));
      const std::span<const proto::query_request> frame(pool.data(), n);
      std::vector<std::optional<proto::estimate_reply>> want;
      for (const auto& q : frame) want.push_back(reference_reply(view, grid, q));

      const std::uint64_t lookups0 =
          counter_value(obs::names::kEstimateViewLookups);
      const std::uint64_t misses0 =
          counter_value(obs::names::kEstimateViewMisses);
      out.clear();
      server.handle(
          proto::request_view::text(proto::encode_query_batch(frame)), out);
      std::string want_estb = "ESTB " + std::to_string(want.size());
      for (const auto& r : want) {
        want_estb += '\n';
        want_estb += r ? proto::encode(*r) : "NONE";
      }
      EXPECT_EQ(out.view(), want_estb);
      std::size_t frame_hits = 0;
      for (const auto& r : want) frame_hits += r ? 1 : 0;
      EXPECT_EQ(counter_value(obs::names::kEstimateViewLookups) - lookups0, n);
      EXPECT_EQ(counter_value(obs::names::kEstimateViewMisses) - misses0,
                n - frame_hits);

      proto::reply_buffer want_v3;
      proto::v3::estimate_batch_builder estb(
          static_cast<std::uint32_t>(want.size()), want_v3);
      for (const auto& r : want) estb.add(r);
      estb.finish();
      out.clear();
      server.handle(proto::request_view::binary(
                        proto::v3::encode_query_batch_frame(frame)),
                    out);
      EXPECT_EQ(out.view(), want_v3.view());
    }
  }
}

// lookup_batch itself, element by element against lookup(), at 1, 2 and 4
// shards; counters move once per batch.
TEST(EstimateView, LookupBatchMatchesLookupAtEveryShardCount) {
  const geo::zone_grid grid(test_proj(), 250.0);
  const coordinator_config ccfg = small_epoch_config();
  const std::vector<proto::query_request> pool = query_pool(ccfg, grid);

  const auto check = [&](const estimate_view& view) {
    std::vector<stream_lookup> batch;
    for (const auto& q : pool) {
      stream_lookup l;
      l.zone = grid.zone_of(q.pos);
      l.network_id = view.network_id_of(q.network);
      l.metric = q.metric;
      l.now_s = q.time_s;
      l.found = true;  // must be overwritten on a miss
      batch.push_back(l);
    }
    // An out-of-range zone given directly (the packer's 0 key).
    batch.push_back(batch.front());
    batch.back().zone = geo::zone_id{1 << 24, 0};
    const std::uint64_t lookups0 =
        counter_value(obs::names::kEstimateViewLookups);
    const std::uint64_t misses0 =
        counter_value(obs::names::kEstimateViewMisses);
    const std::size_t hits = view.lookup_batch(batch);
    EXPECT_EQ(counter_value(obs::names::kEstimateViewLookups) - lookups0,
              batch.size());
    EXPECT_EQ(counter_value(obs::names::kEstimateViewMisses) - misses0,
              batch.size() - hits);
    std::size_t want_hits = 0;
    for (const auto& l : batch) {
      const auto want = view.lookup(l.zone, l.network_id, l.metric, l.now_s);
      ASSERT_EQ(l.found, want.has_value());
      if (!want) continue;
      ++want_hits;
      EXPECT_TRUE(same_served(l.est, *want));
    }
    EXPECT_EQ(hits, want_hits);
    EXPECT_GT(hits, 0u);
    EXPECT_FALSE(batch.back().found);
    EXPECT_EQ(view.lookup_batch(std::span<stream_lookup>{}), 0u);
  };

  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sharded_config scfg;
    scfg.coordinator = ccfg;
    scfg.num_shards = shards;
    scfg.synchronous = true;
    sharded_coordinator coord(grid, {"NetB", "NetC"}, scfg, /*seed=*/42);
    for (const auto& rec : synthetic_stream(/*seed=*/9, /*count=*/4000)) {
      ASSERT_TRUE(coord.report(rec));
    }
    check(estimate_view(coord));
  }
}

TEST(EstimateView, ShardedAlertDrainIsMonotoneAndAccountsLosses) {
  const auto stream = synthetic_stream(/*seed=*/55, /*count=*/12000);
  const geo::zone_grid grid(test_proj(), 250.0);
  const std::vector<std::string> nets{"NetB", "NetC"};

  sharded_config scfg;
  scfg.coordinator = small_epoch_config();
  // A deliberately tiny ring so the storm forces wraparound while the
  // drainer lags: losses must be visible, not silent.
  scfg.coordinator.alert_ring_capacity = 8;
  scfg.num_shards = 4;
  scfg.synchronous = false;
  sharded_coordinator sharded(grid, nets, scfg, /*seed=*/42);
  const estimate_view view(sharded);

  std::atomic<bool> stop{false};
  std::uint64_t served = 0, dropped = 0, last_seq = 0;
  bool monotone = true;
  std::thread drainer([&] {
    std::uint64_t cursor = 0;
    while (true) {
      const bool final_round = stop.load(std::memory_order_relaxed);
      const auto d = view.alerts_since(cursor, /*max=*/3);
      for (const auto& a : d.alerts) {
        if (a.seq <= last_seq) monotone = false;
        last_seq = a.seq;
      }
      served += d.alerts.size();
      dropped += d.dropped;
      cursor = d.next_seq;
      if (final_round && d.alerts.empty()) break;
      std::this_thread::yield();
    }
  });

  for (const auto& rec : stream) ASSERT_TRUE(sharded.report(rec));
  sharded.flush();
  stop.store(true, std::memory_order_relaxed);
  drainer.join();

  const std::uint64_t pushed = sharded.alert_sink().pushed();
  ASSERT_GT(pushed, 8u) << "stream too tame to wrap the ring";
  EXPECT_TRUE(monotone) << "alert sequences went backwards across drains";
  // No-loss accounting: everything pushed was either served or reported
  // dropped -- the cursor protocol never loses an alert silently.
  EXPECT_EQ(served + dropped, pushed);
  EXPECT_EQ(last_seq, pushed);
}

// Equivalence freeze (ISSUE 5 acceptance): multihoming decisions through
// estimate_knowledge must reproduce, bit for bit, the decisions computed by
// the old direct zone_table read path. The reference below *is* that path,
// kept verbatim against table_for_test().
TEST(EstimateKnowledge, MatchesFrozenDirectReadDecisions) {
  const geo::zone_grid grid(test_proj(), 250.0);
  const std::vector<std::string> nets{"NetB", "NetC"};
  // The view serves a 1-shard synchronous coordinator; the reference reads
  // the zone table of a plain coordinator fed the same stream (the two are
  // bit-equal, see sharded_coordinator_test).
  alert_ring alerts;
  coordinator coord(grid, nets, small_epoch_config(), /*seed=*/42, alerts);
  auto served =
      testing::sync_coordinator(grid, nets, small_epoch_config(), /*seed=*/42);
  // A dense TCP-only stream over a 3x3 zone block, so the decision grid
  // below sees all three regimes: zone estimates above the min-samples
  // gate, thin estimates falling back, and unmeasured zones.
  {
    stats::rng_stream rng(71);
    const geo::projection proj = test_proj();
    for (std::size_t i = 0; i < 6000; ++i) {
      const double cell = 443.0;
      const geo::xy pos_xy{cell * static_cast<double>(rng.uniform_int(-1, 1)),
                           cell * static_cast<double>(rng.uniform_int(-1, 1))};
      const char* net = rng.chance(0.5) ? "NetB" : "NetC";
      const double value =
          (net[3] == 'B' ? 1.5e6 : 2.5e6) * (1.0 + 0.2 * rng.normal());
      const auto rec = testing::make_record(
          1000.0 + static_cast<double>(i), net, proj.to_lat_lon(pos_xy),
          trace::probe_kind::tcp_download, std::abs(value));
      coord.report(rec);
      ASSERT_TRUE(served.report(rec));
    }
  }

  const std::size_t min_samples = 3;
  const core::estimate_view view(served);
  const apps::estimate_knowledge knowledge(view, grid, nets, min_samples);

  // --- frozen reference: the pre-facade direct-read logic ---------------
  const auto& table = coord.table_for_test();
  std::vector<double> ref_global(nets.size(), 0.0);
  {
    std::vector<double> wsum(nets.size(), 0.0), w(nets.size(), 0.0);
    for (const auto& key : table.keys()) {
      if (key.metric != trace::metric::tcp_throughput_bps) continue;
      for (std::size_t n = 0; n < nets.size(); ++n) {
        if (key.network != nets[n]) continue;
        if (const auto est = table.latest(key); est && est->samples > 0) {
          wsum[n] += est->mean * static_cast<double>(est->samples);
          w[n] += static_cast<double>(est->samples);
        }
        break;
      }
    }
    for (std::size_t n = 0; n < nets.size(); ++n) {
      ref_global[n] = w[n] > 0.0 ? wsum[n] / w[n] : 0.0;
    }
  }
  const auto ref_expected = [&](std::size_t n, const geo::lat_lon& pos) {
    const auto est = table.latest(
        estimate_key{grid.zone_of(pos), nets[n],
                     trace::metric::tcp_throughput_bps});
    if (est && est->samples >= min_samples && est->mean > 0.0) {
      return est->mean;
    }
    return ref_global[n];
  };
  const auto ref_best = [&](const geo::lat_lon& pos) {
    std::size_t best = 0;
    double best_bps = ref_expected(0, pos);
    for (std::size_t n = 1; n < nets.size(); ++n) {
      const double bps = ref_expected(n, pos);
      if (bps > best_bps) {
        best_bps = bps;
        best = n;
      }
    }
    return best;
  };
  // ----------------------------------------------------------------------

  for (std::size_t n = 0; n < nets.size(); ++n) {
    EXPECT_EQ(knowledge.global_mean_bps(n), ref_global[n]) << nets[n];
  }

  const geo::projection proj = test_proj();
  std::size_t zone_hits = 0;
  for (double x = -1200.0; x <= 1200.0; x += 221.0) {
    for (double y = -1200.0; y <= 1200.0; y += 221.0) {
      const geo::lat_lon pos = proj.to_lat_lon({x, y});
      for (std::size_t n = 0; n < nets.size(); ++n) {
        const double want = ref_expected(n, pos);
        EXPECT_EQ(knowledge.expected_bps(n, pos), want) << x << "," << y;
        if (want != ref_global[n]) ++zone_hits;
      }
      EXPECT_EQ(knowledge.best_network(pos), ref_best(pos)) << x << "," << y;
    }
  }
  EXPECT_GT(zone_hits, 0u)
      << "grid never hit a published zone estimate; test is vacuous";
}

}  // namespace
}  // namespace wiscape::core
