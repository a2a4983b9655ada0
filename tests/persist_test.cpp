#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/epoch_codec.h"
#include "core/estimate_view.h"
#include "core/persist.h"
#include "core/sharded_coordinator.h"
#include "geo/projection.h"
#include "geo/zone_grid.h"
#include "test_util.h"

namespace wiscape::core {
namespace {

// ---- the epoch-record codec ---------------------------------------------------

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double from_bits(std::uint64_t b) {
  double v = 0.0;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

// The snprintf renderers the codec replaced: the byte reference every
// snapshot written so far was produced by.
std::string ref_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ref_est(const estimate_key& key, const epoch_estimate& est) {
  char buf[320];
  std::snprintf(buf, sizeof(buf), "EST %s %s %s %.17g %.17g %.17g %zu\n",
                geo::to_string(key.zone).c_str(), key.network.c_str(),
                trace::to_string(key.metric).c_str(), est.epoch_start_s,
                est.mean, est.stddev, est.samples);
  return buf;
}

std::string ref_open(const estimate_key& key, const open_epoch_state& st) {
  char buf[320];
  std::snprintf(buf, sizeof(buf), "OPEN %s %s %s %.17g %llu %.17g %.17g\n",
                geo::to_string(key.zone).c_str(), key.network.c_str(),
                trace::to_string(key.metric).c_str(), st.open_start_s,
                static_cast<unsigned long long>(st.n), st.mean, st.m2);
  return buf;
}

void sort_like_persist(std::vector<estimate_key>& keys) {
  std::sort(keys.begin(), keys.end(),
            [](const estimate_key& a, const estimate_key& b) {
              if (a.zone != b.zone) return a.zone < b.zone;
              if (a.network != b.network) return a.network < b.network;
              return static_cast<int>(a.metric) < static_cast<int>(b.metric);
            });
}

/// The text table dump the way the snprintf renderers wrote it.
std::string ref_table_text(const durable_state& state) {
  auto keys = state.keys();
  sort_like_persist(keys);
  std::string out;
  for (const auto& key : keys) {
    for (const auto& est : state.history(key)) out += ref_est(key, est);
    if (const auto open = state.open_state(key)) out += ref_open(key, *open);
  }
  return out;
}

// ---- an independent reference of the v3 snapshot layout ---------------------

/// One stream's block, as the reference encoder takes it.
struct ref_block {
  estimate_key key;
  std::vector<epoch_estimate> frozen;
  std::optional<open_epoch_state> open;
};

void ref_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

/// The checksum from its definition: each little-endian word, then the
/// zero-padded tail word, then the length.
std::uint64_t ref_checksum(std::string_view b) {
  const auto step = [](std::uint64_t h, std::uint64_t w) {
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 32);
  };
  const auto word_at = [&](std::size_t i) {
    std::uint64_t w = 0;
    for (std::size_t k = 0; k < 8 && i + k < b.size(); ++k) {
      w |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i + k]))
           << (8 * k);
    }
    return w;
  };
  std::uint64_t h = 0x5749534341504533ull;
  std::size_t i = 0;
  for (; i + 8 <= b.size(); i += 8) h = step(h, word_at(i));
  h = step(h, word_at(i));
  return step(h, b.size());
}

/// Rewrites the last 8 bytes of `bytes` as the checksum of the rest, so a
/// structural change meets the loader's field checks, not its checksum.
std::string resealed(std::string bytes) {
  bytes.resize(bytes.size() - 8);
  ref_le(bytes, ref_checksum(bytes), 8);
  return bytes;
}

/// Encodes `blocks`, in the order given, field by field.
std::string ref_snapshot(const std::vector<ref_block>& blocks,
                         std::uint64_t alert_seq) {
  std::vector<std::string> names;
  for (const auto& b : blocks) names.push_back(b.key.network);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::string out = "WISCAPE-COORD v3\n";
  ref_le(out, names.size(), 2);
  for (const auto& n : names) {
    ref_le(out, n.size(), 2);
    out += n;
  }
  for (const auto& b : blocks) {
    const auto net = std::find(names.begin(), names.end(), b.key.network);
    ref_le(out, static_cast<std::uint32_t>(b.key.zone.ix), 4);
    ref_le(out, static_cast<std::uint32_t>(b.key.zone.iy), 4);
    ref_le(out, static_cast<std::uint64_t>(net - names.begin()), 2);
    ref_le(out, static_cast<std::uint64_t>(b.key.metric), 1);
    ref_le(out, b.open ? 1 : 0, 1);
    ref_le(out, b.frozen.size(), 4);
    for (const auto& e : b.frozen) {
      ref_le(out, bits_of(e.epoch_start_s), 8);
      ref_le(out, bits_of(e.mean), 8);
      ref_le(out, bits_of(e.stddev), 8);
      ref_le(out, e.samples, 8);
    }
    if (b.open) {
      ref_le(out, bits_of(b.open->open_start_s), 8);
      ref_le(out, b.open->n, 8);
      ref_le(out, bits_of(b.open->mean), 8);
      ref_le(out, bits_of(b.open->m2), 8);
    }
  }
  ref_le(out, blocks.size(), 8);
  ref_le(out, alert_seq, 8);
  ref_le(out, ref_checksum(out), 8);
  return out;
}

/// `state`'s streams in snapshot order; a stream with neither a frozen
/// nor an open epoch has no block.
std::string ref_snapshot(const durable_state& state) {
  auto keys = state.keys();
  sort_like_persist(keys);
  std::vector<ref_block> blocks;
  for (const auto& key : keys) {
    ref_block b{key, state.history(key), state.open_state(key)};
    if (!b.frozen.empty() || b.open) blocks.push_back(std::move(b));
  }
  return ref_snapshot(blocks, state.alert_seq());
}

// Doubles a renderer is most likely to get wrong, beside random bits.
std::vector<double> awkward_doubles() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v = {0.0,      -0.0,     inf,       -inf,
                           DBL_MAX,  -DBL_MAX, DBL_MIN,   -DBL_MIN,
                           DBL_TRUE_MIN, -DBL_TRUE_MIN, DBL_EPSILON,
                           1.0,      0.1,      1e6 / 3.0, 7.0 / 9.0,
                           300.125,  1e21,     1e-7,      123456789012345678.0,
                           9007199254740993.0, 5e-324 * 3};
  for (std::uint64_t i = 1; i <= 5; ++i) {  // the WAL corpus's values
    v.push_back(300.0 * static_cast<double>(i) + 0.125);
    v.push_back(1.0e6 / 3.0 + static_cast<double>(i));
  }
  return v;
}

// Random bit patterns cover every exponent, subnormals and NaN payloads.
std::vector<double> random_doubles(std::size_t n) {
  std::mt19937_64 gen(20111102);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(from_bits(gen()));
  return v;
}

/// Encodes `v` into every double field of an epoch record and decodes it
/// back.
epoch_estimate record_round_trip(double v) {
  std::string bytes;
  epoch_codec::put_record(bytes, 5, {{-4, 7}, "NetB", trace::metric::rtt_s},
                          {v, v, v, 3}, 0);
  epoch_update back;
  EXPECT_EQ(epoch_codec::get_record(bytes, back), bytes.size());
  EXPECT_EQ(back.seq, 5u);
  return back.est;
}

TEST(EpochCodec, DoublesRenderLikePrintfAndParseBackBitExact) {
  std::vector<double> all = awkward_doubles();
  const std::vector<double> rnd = random_doubles(200000);
  all.insert(all.end(), rnd.begin(), rnd.end());
  std::size_t nans = 0;
  for (const double v : all) {
    std::string got;
    epoch_codec::put_double(got, v);
    ASSERT_EQ(got, ref_double(v)) << "bits " << std::hex << bits_of(v);
    // The record carries raw bits: every pattern, NaN payloads included,
    // comes back as it went (WAL replay refuses NaN; wal_test.cpp).
    nans += std::isnan(v) ? 1 : 0;
    const epoch_estimate back = record_round_trip(v);
    EXPECT_EQ(bits_of(back.epoch_start_s), bits_of(v)) << got;
    EXPECT_EQ(bits_of(back.mean), bits_of(v)) << got;
    EXPECT_EQ(bits_of(back.stddev), bits_of(v)) << got;
  }
  EXPECT_GT(nans, 0u);  // the random patterns did reach the NaN space
}

sharded_coordinator one_network_coordinator() {
  return sharded_coordinator(
      geo::zone_grid{geo::projection{{43.0, -89.4}}, 250.0}, {"NetB"}, {}, 1);
}

TEST(EpochCodec, NanFieldIsMalformedInSnapshotsLikeInTheWal) {
  // A NaN estimate carries nothing and cannot round-trip its payload, so a
  // NaN in any double field of a snapshot, frozen or open, is refused from
  // a stream and in memory alike (the WAL side is pinned in wal_test.cpp);
  // +-inf loads back exactly.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const estimate_key key{{1, 1}, "NetB", trace::metric::rtt_s};
  std::vector<ref_block> bad;
  for (int field = 0; field < 3; ++field) {
    epoch_estimate e{0.0, 1.0, 1.0, 1};
    (field == 0 ? e.epoch_start_s : field == 1 ? e.mean : e.stddev) =
        field == 1 ? -nan : nan;
    bad.push_back({key, {e}, std::nullopt});
  }
  for (int field = 0; field < 3; ++field) {
    open_epoch_state o{0.0, 2, 1.0, 1.0};
    (field == 0 ? o.open_start_s : field == 1 ? o.mean : o.m2) =
        from_bits(bits_of(nan) | 1);  // with a payload
    bad.push_back({key, {}, o});
  }
  for (const auto& b : bad) {
    const std::string bytes = ref_snapshot({b}, 0);
    auto c = one_network_coordinator();
    std::istringstream is(bytes);
    EXPECT_THROW(load_state(is, c), std::invalid_argument);
    EXPECT_THROW(load_state(std::string_view(bytes), c), std::invalid_argument);
  }
  const std::string infs =
      ref_snapshot({{key, {{0.0, inf, -inf, 4}}, std::nullopt}}, 0);
  auto back = one_network_coordinator();
  std::istringstream is(infs);
  load_state(is, back);
  const auto hist = back.history(key);
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist[0].mean, inf);
  EXPECT_EQ(hist[0].stddev, -inf);
}

TEST(EpochCodec, SeededRecordsRoundTripBitIdentical) {
  std::mt19937_64 gen(22);
  const std::vector<double> awkward = awkward_doubles();
  const auto any_double = [&] {
    const std::uint64_t r = gen();
    return r % 4 == 0 ? awkward[(r >> 8) % awkward.size()] : from_bits(gen());
  };
  const auto any_count = [&] {
    const std::uint64_t r = gen();
    return r % 8 == 0 ? std::numeric_limits<std::uint64_t>::max()
           : r % 8 == 1 ? std::uint64_t{0}
                        : gen() >> (gen() % 64);
  };
  const auto any_coord = [&] {
    const std::uint64_t r = gen();
    return r % 8 == 0   ? std::numeric_limits<int>::min()
           : r % 8 == 1 ? std::numeric_limits<int>::max()
                        : static_cast<int>(static_cast<std::uint32_t>(gen()));
  };
  // Network names of any bytes, up to one past the 65535 the record keeps.
  const auto any_network = [&] {
    const std::uint64_t r = gen();
    std::string net(r % 512 == 0 ? 0x10000 : gen() % 24, 'x');
    for (char& c : net) c = static_cast<char>(gen());
    return net;
  };
  std::string bytes;
  std::vector<epoch_update> want;
  for (int i = 0; i < 20000; ++i) {
    const estimate_key key{{any_coord(), any_coord()},
                           any_network(),
                           static_cast<trace::metric>(gen() % trace::metric_count)};
    const epoch_estimate est{any_double(), any_double(), any_double(),
                             static_cast<std::size_t>(any_count())};
    want.push_back({any_count(), key, est, any_count()});
    epoch_codec::put_record(bytes, want.back().seq, key, est,
                            want.back().alert_seq);
    if (want.back().key.network.size() > 0xffff) {
      want.back().key.network.resize(0xffff);  // clipped
    }
  }
  // Back to back, each record decodes whole and bit-identical.
  std::string_view rest = bytes;
  for (const epoch_update& w : want) {
    epoch_update got;
    const std::size_t took = epoch_codec::get_record(rest, got);
    ASSERT_EQ(took, epoch_codec::min_record_bytes + w.key.network.size());
    rest.remove_prefix(took);
    EXPECT_EQ(got.seq, w.seq);
    EXPECT_EQ(got.key, w.key);
    EXPECT_EQ(bits_of(got.est.epoch_start_s), bits_of(w.est.epoch_start_s));
    EXPECT_EQ(bits_of(got.est.mean), bits_of(w.est.mean));
    EXPECT_EQ(bits_of(got.est.stddev), bits_of(w.est.stddev));
    EXPECT_EQ(got.est.samples, w.est.samples);
    EXPECT_EQ(got.alert_seq, w.alert_seq);
  }
  EXPECT_TRUE(rest.empty());
  // A cut anywhere inside a record, or a metric byte out of range, is
  // refused with std::invalid_argument.
  epoch_update got;
  const std::string_view first(bytes.data(), epoch_codec::min_record_bytes +
                                                 want[0].key.network.size());
  for (std::size_t cut = 0; cut < first.size(); ++cut) {
    EXPECT_THROW(epoch_codec::get_record(first.substr(0, cut), got),
                 std::invalid_argument)
        << cut;
  }
  std::string bad(first);
  bad[16] = static_cast<char>(trace::metric_count);
  EXPECT_THROW(epoch_codec::get_record(bad, got), std::invalid_argument);
}

/// A coordinator, empty or (streams > 0) filled from a fixed seed with
/// frozen histories, open epochs and an alert high-water mark, awkward
/// doubles mixed into the fields.
struct golden_state {
  geo::zone_grid grid{geo::projection{{43.0, -89.4}}, 250.0};
  sharded_coordinator coord{grid, {"NetA", "NetB", "NetC"}, {}, 7};

  explicit golden_state(std::size_t streams) {
    if (streams == 0) return;
    std::mt19937_64 gen(1102);
    const std::vector<double> awkward = awkward_doubles();
    const char* nets[] = {"NetA", "NetB", "NetC"};
    auto pick = [&](double scale) {
      const std::uint64_t r = gen();
      if (r % 5 == 0) return awkward[r % awkward.size()];
      return scale * std::uniform_real_distribution<double>(-1.0, 1.0)(gen);
    };
    for (std::size_t i = 0; i < streams; ++i) {
      const estimate_key key{
          {static_cast<int>(gen() % 200) - 100, static_cast<int>(gen() % 200) - 100},
          nets[gen() % 3],
          static_cast<trace::metric>(gen() % 6)};
      const std::size_t epochs = gen() % 4;
      for (std::size_t e = 0; e < epochs; ++e) {
        coord.restore_estimate(
            key, {300.0 * static_cast<double>(e), pick(1e6), pick(1e3),
                  static_cast<std::size_t>(gen() % 100000)});
      }
      if (gen() % 2 == 0) {
        coord.restore_open(key, {pick(1e5), gen() % 1000 + 1, pick(1e6), pick(1e9)});
      }
    }
    coord.resume_alert_seq(4242);
  }
};

void expect_same_state(const durable_state& a, const durable_state& b) {
  auto ka = a.keys();
  ASSERT_EQ(ka.size(), b.keys().size());
  for (const auto& k : ka) {
    const auto ha = a.history(k);
    const auto hb = b.history(k);
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(bits_of(ha[i].epoch_start_s), bits_of(hb[i].epoch_start_s));
      EXPECT_EQ(bits_of(ha[i].mean), bits_of(hb[i].mean));
      EXPECT_EQ(bits_of(ha[i].stddev), bits_of(hb[i].stddev));
      EXPECT_EQ(ha[i].samples, hb[i].samples);
    }
    const auto oa = a.open_state(k);
    const auto ob = b.open_state(k);
    ASSERT_EQ(oa.has_value(), ob.has_value());
    if (oa) {
      EXPECT_EQ(bits_of(oa->open_start_s), bits_of(ob->open_start_s));
      EXPECT_EQ(oa->n, ob->n);
      EXPECT_EQ(bits_of(oa->mean), bits_of(ob->mean));
      EXPECT_EQ(bits_of(oa->m2), bits_of(ob->m2));
    }
  }
  EXPECT_EQ(a.alert_seq(), b.alert_seq());
}

TEST(Persist, SaveStateBytesMatchTheReferenceEncoder) {
  const golden_state g(400);
  const std::string want = ref_snapshot(g.coord);
  std::ostringstream os;
  save_state(os, g.coord);
  EXPECT_EQ(os.str(), want);
  std::string in_memory = "prefix ";
  save_state(in_memory, g.coord);  // appends
  EXPECT_EQ(in_memory, "prefix " + want);
  EXPECT_EQ(want.substr(0, want.find('\n')), "WISCAPE-COORD v3");

  // The reference's bytes load bit-equal, from a stream and in place.
  golden_state from_stream(0), from_memory(0);
  std::istringstream is(want);
  load_state(is, from_stream.coord);
  load_state(std::string_view(want), from_memory.coord);
  expect_same_state(g.coord, from_stream.coord);
  expect_same_state(g.coord, from_memory.coord);
}

TEST(Persist, TableTextMatchesTheSnprintfRendering) {
  const golden_state g(400);
  EXPECT_EQ(estimate_table_text(g.coord), ref_table_text(g.coord));
  EXPECT_EQ(estimate_table_text(golden_state(0).coord), "");
}

// A 1-shard synchronous coordinator fed four 100 s epochs of two streams
// (zone 3:-2 on NetB by UDP burst, zone 0:5 on NetC by ping): three frozen
// epochs each, and a fourth left open with 20 samples.
struct populated_state {
  geo::zone_grid grid{geo::projection{{43.0, -89.4}}, 250.0};
  sharded_coordinator coord = empty();

  /// Feeds `coord` (or a coordinator restored from its snapshot) one sample
  /// of the NetB stream.
  static void report_a(sharded_coordinator& c, double t, double value) {
    c.report(testing::make_record(t, "NetB", c.grid().center({3, -2}),
                                  trace::probe_kind::udp_burst, value));
  }
  /// A fresh coordinator of the same shape, to load a snapshot into.
  sharded_coordinator empty() const {
    coordinator_config cfg;
    cfg.epochs.default_epoch_s = 100.0;
    return testing::sync_coordinator(grid, {"NetB", "NetC"}, cfg, 7);
  }

  populated_state() {
    stats::rng_stream r(4);
    const geo::lat_lon b = grid.center({0, 5});
    for (int epoch = 0; epoch < 4; ++epoch) {
      for (int i = 0; i < 20; ++i) {
        const double t = epoch * 100.0 + i;
        report_a(coord, t, r.normal(1e6, 5e4));
        coord.report(testing::make_record(t, "NetC", b, trace::probe_kind::ping,
                                          r.normal(0.12, 0.01)));
      }
    }
  }
};

const estimate_key stream_a{{3, -2}, "NetB", trace::metric::udp_throughput_bps};

TEST(Persist, RoundTripPreservesHistory) {
  const populated_state p;
  std::stringstream ss;
  save_state(ss, p.coord);
  auto back = p.empty();
  load_state(ss, back);

  ASSERT_EQ(back.keys().size(), p.coord.keys().size());
  for (const auto& key : p.coord.keys()) {
    const auto orig = p.coord.history(key);
    ASSERT_EQ(orig.size(), 3u);
    const auto rest = back.history(key);
    ASSERT_EQ(rest.size(), orig.size());
    for (std::size_t i = 0; i < orig.size(); ++i) {
      EXPECT_EQ(rest[i].epoch_start_s, orig[i].epoch_start_s);
      EXPECT_EQ(rest[i].samples, orig[i].samples);
    }
  }
}

TEST(Persist, RestoredTableKeepsAccumulating) {
  const populated_state p;
  std::stringstream ss;
  save_state(ss, p.coord);
  auto back = p.empty();
  load_state(ss, back);

  // New samples after a restart roll into fresh epochs. The snapshot
  // carries the interrupted open epoch (20 samples at t = 300..319), so
  // the first post-restart sample first freezes THAT epoch, then
  // accumulates into a new one: +2 frozen estimates, not +1.
  const std::size_t before = back.history(stream_a).size();
  for (int i = 0; i < 10; ++i) {
    populated_state::report_a(back, 1000.0 + i, 1e6);
  }
  populated_state::report_a(back, 1200.0, 1e6);  // rollover
  const auto hist = back.history(stream_a);
  ASSERT_EQ(hist.size(), before + 2);
  // The recovered epoch publishes all 20 pre-restart samples.
  EXPECT_EQ(hist[before].samples, 20u);
  EXPECT_EQ(hist[before].epoch_start_s, 300.0);
  EXPECT_EQ(hist[before + 1].samples, 10u);
}

TEST(Persist, RoundTripIsBitExact) {
  // Raw IEEE-754 bits make the round trip lossless: every double compares
  // equal bit for bit -- +-0, +-inf, subnormals and DBL_MAX among them --
  // and re-saving reproduces the same bytes.
  golden_state g(400);
  const std::vector<double> awkward = awkward_doubles();
  for (std::size_t i = 0; i < awkward.size(); ++i) {
    const double v = awkward[i];
    const estimate_key key{{static_cast<int>(i), 500}, "NetB",
                           trace::metric::rtt_s};
    g.coord.restore_estimate(key, {v, v, v, i});
    g.coord.restore_open(key, {v, i + 1, v, v});
  }
  std::stringstream ss;
  save_state(ss, g.coord);
  golden_state back(0);
  load_state(ss, back.coord);
  expect_same_state(g.coord, back.coord);
  for (std::size_t i = 0; i < awkward.size(); ++i) {
    const estimate_key key{{static_cast<int>(i), 500}, "NetB",
                           trace::metric::rtt_s};
    const auto hist = back.coord.history(key);
    ASSERT_EQ(hist.size(), 1u);
    EXPECT_EQ(bits_of(hist[0].epoch_start_s), bits_of(awkward[i]));
    EXPECT_EQ(bits_of(hist[0].mean), bits_of(awkward[i]));
    const auto open = back.coord.open_state(key);
    ASSERT_TRUE(open.has_value());
    EXPECT_EQ(bits_of(open->m2), bits_of(awkward[i]));
  }
  std::stringstream again;
  save_state(again, back.coord);
  EXPECT_EQ(again.str(), ss.str());

  const populated_state p;
  std::stringstream ps;
  save_state(ps, p.coord);
  auto pb = p.empty();
  load_state(ps, pb);
  expect_same_state(p.coord, pb);
}

TEST(Persist, OpenEpochStateRoundTrips) {
  const populated_state p;
  const auto open = p.coord.open_state(stream_a);
  ASSERT_TRUE(open.has_value());
  EXPECT_EQ(open->n, 20u);

  std::stringstream ss;
  save_state(ss, p.coord);
  auto back = p.empty();
  load_state(ss, back);
  const auto restored = back.open_state(stream_a);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(bits_of(restored->open_start_s), bits_of(open->open_start_s));
  EXPECT_EQ(restored->n, open->n);
  EXPECT_EQ(bits_of(restored->mean), bits_of(open->mean));
  EXPECT_EQ(bits_of(restored->m2), bits_of(open->m2));
}

TEST(Persist, DeterministicFileOrder) {
  const populated_state p;
  std::stringstream s1, s2;
  save_state(s1, p.coord);
  save_state(s2, p.coord);
  EXPECT_EQ(s1.str(), s2.str());
}

TEST(Persist, EmptyTableRoundTrip) {
  const populated_state p;
  const auto empty = p.empty();
  std::stringstream ss;
  save_state(ss, empty);
  // The header, an empty name table and the trailer.
  EXPECT_EQ(ss.str(), ref_snapshot({}, 0));
  EXPECT_EQ(ss.str().size(), 17u + 2u + 24u);
  auto back = p.empty();
  load_state(ss, back);
  EXPECT_TRUE(back.keys().empty());
  EXPECT_EQ(back.alert_seq(), 0u);
}

/// Expects both load flavours to refuse `bytes` with std::invalid_argument
/// whose message holds `says`, the in-memory one before any install.
void expect_refused(const populated_state& p, const std::string& bytes,
                    const std::string& says = "") {
  SCOPED_TRACE(::testing::PrintToString(bytes.substr(0, 40)));
  auto c = p.empty();
  std::istringstream is(bytes);
  try {
    load_state(is, c);
    ADD_FAILURE() << "stream load accepted it";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(says), std::string::npos) << e.what();
  }
  auto m = p.empty();
  try {
    load_state(std::string_view(bytes), m);
    ADD_FAILURE() << "in-memory load accepted it";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(says), std::string::npos) << e.what();
  }
  EXPECT_TRUE(m.keys().empty());
}

TEST(Persist, RejectsMalformedInput) {
  const populated_state p;
  // Not a snapshot, or an older one: a v2 text snapshot is refused by its
  // version, not read.
  expect_refused(p, "", "header");
  expect_refused(p, "nope\n", "header");
  expect_refused(p, "WISCAPE-COORD v1\nEST 1:1 NetB rtt 0 1 1 1\n", "'v1'");
  expect_refused(p, "WISCAPE-COORD v2\nEST 1:1 NetB rtt 0 1 1 1\nALERTSEQ 0\n",
                 "'v2'");
  expect_refused(p, "WISCAPE-COORD v2\nALERTSEQ 0\n", "'v2'");

  // Fields out of range in a file whose checksum holds. One NetB block at
  // 0:0: the name table ends at byte 25, the block's network index is at
  // 33, its metric at 35, its flags at 36, its frozen count at 37.
  const estimate_key key{{0, 0}, "NetB", trace::metric::rtt_s};
  const std::string good =
      ref_snapshot({{key, {{0.0, 1.0, 0.5, 3}}, std::nullopt}}, 0);
  {
    auto c = p.empty();
    load_state(std::string_view(good), c);
    ASSERT_EQ(c.history(key).size(), 1u);
  }
  const auto with = [&](std::size_t at, char byte) {
    std::string b = good;
    b[at] = byte;
    return resealed(b);
  };
  expect_refused(p, with(33, 1), "malformed stream block");   // no name 1
  expect_refused(p, with(35, 6), "malformed stream block");   // no metric 6
  expect_refused(p, with(36, 2), "malformed stream block");   // unknown flag
  expect_refused(p, with(36, 1), "cut");                      // open missing
  expect_refused(p, with(37, 2));                             // 2 epochs?
  expect_refused(p, with(good.size() - 24, 2), "trailer counts");
  std::string names = good;
  names[17] = names[18] = '\xff';  // 65535 names?
  expect_refused(p, resealed(names), "network");
  expect_refused(p, resealed(good + std::string(8, '\0')), "");
  std::string flipped = good;
  flipped[50] ^= 0x10;
  expect_refused(p, flipped, "checksum");
}

TEST(Persist, FileRoundTrip) {
  const populated_state p;
  const std::string path = ::testing::TempDir() + "/wiscape_state.txt";
  {
    std::ofstream os(path);
    save_state(os, p.coord);
  }
  auto back = p.empty();
  {
    std::ifstream is(path);
    load_state(is, back);
  }
  expect_same_state(p.coord, back);
  std::filesystem::remove(path);
}

TEST(Persist, FileLargerThanTheReadBufferLoadsLikeItsInMemoryText) {
  // Thousands of streams put the snapshot well past one read buffer, so
  // lines straddle the loader's refills.
  const golden_state g(6000);
  std::string text;
  save_state(text, g.coord);
  ASSERT_GT(text.size(), 4 * snapshot_buffer_size);
  const std::string path = ::testing::TempDir() + "/wiscape_big_state.txt";
  {
    std::ofstream os(path);
    save_state(os, g.coord);
  }
  ASSERT_EQ(std::filesystem::file_size(path), text.size());
  golden_state from_file(0), from_text(0);
  {
    std::ifstream is(path);
    load_state(is, from_file.coord);
  }
  load_state(std::string_view(text), from_text.coord);
  expect_same_state(from_text.coord, from_file.coord);
  expect_same_state(g.coord, from_file.coord);
  std::filesystem::remove(path);
}

// A stream that hands out at most `k` bytes per read, so the reader's
// refills land wherever `k` puts them.
class trickle_buf : public std::streambuf {
 public:
  trickle_buf(std::string_view text, std::size_t k) : text_(text), k_(k) {}

 protected:
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    const std::size_t len = std::min({static_cast<std::size_t>(n), k_,
                                      text_.size() - pos_});
    std::memcpy(s, text_.data() + pos_, len);
    pos_ += len;
    return static_cast<std::streamsize>(len);
  }

 private:
  std::string_view text_;
  std::size_t k_;
  std::size_t pos_ = 0;
};

TEST(Persist, StreamLoadsAlikeAtEveryReadSize) {
  // Every read size moves the loader's refills, and the checksum's carried
  // partial word, across every field of the blocks.
  const golden_state g(40);
  std::string bytes;
  save_state(bytes, g.coord);
  for (std::size_t k = 1; k <= 80; ++k) {
    trickle_buf buf(bytes, k);
    std::istream is(&buf);
    golden_state back(0);
    load_state(is, back.coord);
    expect_same_state(g.coord, back.coord);
    if (::testing::Test::HasFailure()) FAIL() << "read size " << k;
  }
}

TEST(Persist, SnapshotCutAtAnyByteIsRefused) {
  // A cut at a block boundary leaves whole blocks that decode, and a cut
  // inside a field leaves a shorter file, so neither may load: the
  // trailer's count and checksum refuse every cut, from a stream and in
  // memory, and the in-memory load installs nothing first.
  const populated_state p;
  std::string bytes;
  save_state(bytes, p.coord);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string part = bytes.substr(0, cut);
    auto c = p.empty();
    std::istringstream is(part);
    EXPECT_THROW(load_state(is, c), std::invalid_argument) << "cut at " << cut;
    auto m = p.empty();
    EXPECT_THROW(load_state(std::string_view(part), m), std::invalid_argument)
        << "cut at " << cut;
    EXPECT_TRUE(m.keys().empty()) << "cut at " << cut;
  }
  auto whole = p.empty();
  std::istringstream is(bytes);
  load_state(is, whole);
  expect_same_state(p.coord, whole);
}

/// Forwards a load into `to`, installing each stream block with one
/// restore_stream call, or (per_epoch) with one restore_estimate call per
/// frozen epoch and a restore_open, and no sizing hint -- the install
/// sequence loads made before a block installed whole. Counts the merged
/// epochs and keeps the last hint.
class counting_install final : public durable_state {
 public:
  counting_install(durable_state& to, bool per_epoch)
      : to_(to), per_epoch_(per_epoch) {}

  std::vector<estimate_key> keys() const override { return to_.keys(); }
  std::vector<epoch_estimate> history(const estimate_key& key) const override {
    return to_.history(key);
  }
  std::optional<open_epoch_state> open_state(
      const estimate_key& key) const override {
    return to_.open_state(key);
  }
  std::size_t restore_stream(const estimate_key& key,
                             std::span<const epoch_estimate> frozen,
                             const open_epoch_state* open) override {
    std::size_t m = 0;
    if (per_epoch_) {
      for (const auto& e : frozen) m += to_.restore_estimate(key, e) ? 1 : 0;
      if (open != nullptr) to_.restore_open(key, *open);
    } else {
      m = to_.restore_stream(key, frozen, open);
    }
    merged += m;
    return m;
  }
  void reserve_streams(std::size_t streams) override {
    hint = streams;
    if (!per_epoch_) to_.reserve_streams(streams);
  }
  std::uint64_t alert_seq() const override { return to_.alert_seq(); }
  void resume_alert_seq(std::uint64_t last_seq) override {
    to_.resume_alert_seq(last_seq);
  }

  std::size_t merged = 0;
  std::size_t hint = 0;

 private:
  durable_state& to_;
  bool per_epoch_;
};

/// Every key of `a` serves bit-equal estimates from `a`'s and `b`'s
/// mirrors (epoch_index included), and each shard's mirror holds as many
/// streams in both.
void expect_same_mirrors(const sharded_coordinator& a,
                         const sharded_coordinator& b) {
  const estimate_view va(a), vb(b);
  for (const auto& k : a.keys()) {
    const auto ea = va.lookup(k.zone, k.network, k.metric);
    const auto eb = vb.lookup(k.zone, k.network, k.metric);
    ASSERT_EQ(ea.has_value(), eb.has_value());
    if (!ea) continue;
    EXPECT_EQ(ea->count, eb->count);
    EXPECT_EQ(bits_of(ea->mean), bits_of(eb->mean));
    EXPECT_EQ(bits_of(ea->stddev), bits_of(eb->stddev));
    EXPECT_EQ(bits_of(ea->epoch_start_s), bits_of(eb->epoch_start_s));
    EXPECT_EQ(ea->epoch_index, eb->epoch_index);
  }
  for (std::size_t i = 0; i < a.num_shards(); ++i) {
    EXPECT_EQ(a.published_of(i).size(), b.published_of(i).size());
  }
}

TEST(Persist, StreamInstallMatchesPerEpochInstall) {
  // A block installed whole lands exactly as its epochs installed one by
  // one: same tables, open epochs, mirror reads and merged counts, into an
  // empty target and into targets already holding some of the epochs --
  // bitwise copies (no-ops), different values (merges, and epochs between
  // the snapshot's), or an open epoch the installs close.
  const golden_state g(600);
  std::string bytes;
  save_state(bytes, g.coord);
  const auto keys = g.coord.keys();
  enum { empty, equal_copies, different_values, open_at_or_before };
  const auto prefill = [&](durable_state& c, int kind) {
    std::mt19937_64 gen(static_cast<std::uint64_t>(kind));
    for (const auto& key : keys) {
      if (kind == empty || gen() % 3 != 0) continue;
      const auto hist = g.coord.history(key);
      const double start =
          hist.empty() ? 0.0 : hist[gen() % hist.size()].epoch_start_s;
      const epoch_estimate held =
          hist.empty() ? epoch_estimate{start, 5.0, 1.0, 4}
                       : hist[gen() % hist.size()];
      switch (kind) {
        case equal_copies:
          c.restore_estimate(key, held);
          break;
        case different_values:
          c.restore_estimate(key, {held.epoch_start_s, held.mean + 1.0,
                                   held.stddev * 0.5, held.samples + 3});
          c.restore_estimate(key, {start + 150.0, 2.0, 0.25, 7});
          break;
        case open_at_or_before: {
          const double at[] = {-1e9, start, start + 1e6};
          c.restore_open(key, {at[gen() % 3], gen() % 50 + 1, 3.0, 8.0});
          break;
        }
      }
    }
  };
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    sharded_config cfg;
    cfg.num_shards = shards;
    cfg.synchronous = shards == 1;
    const auto make = [&] {
      return sharded_coordinator(g.grid, {"NetA", "NetB", "NetC"}, cfg, 7);
    };
    for (const int kind :
         {empty, equal_copies, different_values, open_at_or_before}) {
      for (const bool from_stream : {true, false}) {
        SCOPED_TRACE(::testing::Message() << shards << " shards, prefill "
                                          << kind << ", stream " << from_stream);
        auto whole = make();
        auto one_by_one = make();
        prefill(whole, kind);
        prefill(one_by_one, kind);
        counting_install w(whole, false), o(one_by_one, true);
        if (from_stream) {
          std::istringstream a(bytes), b(bytes);
          load_state(a, w);
          load_state(b, o);
        } else {
          load_state(std::string_view(bytes), w);
          load_state(std::string_view(bytes), o);
        }
        EXPECT_EQ(w.merged, o.merged);
        if (kind == empty || kind == open_at_or_before) {
          EXPECT_EQ(w.merged, 0u);
        } else {
          EXPECT_GT(w.merged, 0u);
        }
        EXPECT_GT(w.hint, 0u);
        expect_same_state(one_by_one, whole);
        expect_same_mirrors(one_by_one, whole);
        expect_same_mirrors(whole, one_by_one);
      }
    }
  }
}

TEST(Persist, TrailerStreamCountOnlySizesWithinTheBytes) {
  // The trailer's block count sizes the target before the first block, so
  // a hostile count must size no more than the bytes can hold (one 48-byte
  // block per stream at least), and the load is refused as before.
  const golden_state g(300);
  std::string good;
  save_state(good, g.coord);
  const std::size_t blocks = [&] {
    std::size_t n = 0;
    for (const auto& k : g.coord.keys()) {
      n += !g.coord.history(k).empty() || g.coord.open_state(k) ? 1 : 0;
    }
    return n;
  }();
  const std::size_t bound = good.size() / 48;
  {
    golden_state back(0);
    counting_install rec(back.coord, false);
    std::istringstream is(good);
    load_state(is, rec);
    EXPECT_EQ(rec.hint, blocks);
    expect_same_state(g.coord, back.coord);
  }
  {
    // A stream that cannot seek loads without a hint.
    golden_state back(0);
    counting_install rec(back.coord, false);
    trickle_buf buf(good, 4096);
    std::istream is(&buf);
    load_state(is, rec);
    EXPECT_EQ(rec.hint, 0u);
    expect_same_state(g.coord, back.coord);
  }
  const std::uint64_t lies[] = {std::uint64_t{1} << 62, 0, blocks - 1};
  for (const std::uint64_t count : lies) {
    std::string bad = good;
    const std::size_t at = bad.size() - 24;
    for (int i = 0; i < 8; ++i) {
      bad[at + i] = static_cast<char>((count >> (8 * i)) & 0xffu);
    }
    const std::string says = "trailer counts " + std::to_string(count) +
                             " streams, read " + std::to_string(blocks);
    for (const bool sealed : {false, true}) {
      const std::string bytes = sealed ? resealed(bad) : bad;
      SCOPED_TRACE(::testing::Message() << "count " << count << " sealed "
                                        << sealed);
      golden_state s(0), m(0);
      counting_install in_stream(s.coord, false), in_memory(m.coord, false);
      std::istringstream is(bytes);
      try {
        load_state(is, in_stream);
        ADD_FAILURE() << "stream load accepted it";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(sealed ? says : "checksum"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_LE(in_stream.hint, bound);
      EXPECT_EQ(in_stream.hint, std::min<std::uint64_t>(count, bound));
      try {
        load_state(std::string_view(bytes), in_memory);
        ADD_FAILURE() << "in-memory load accepted it";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(sealed ? says : "checksum"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_EQ(in_memory.hint, 0u);  // refused before the installing pass
      EXPECT_TRUE(m.coord.keys().empty());
    }
  }
}

TEST(MetricFromString, RoundTripsAllMetrics) {
  for (auto m : {trace::metric::tcp_throughput_bps,
                 trace::metric::udp_throughput_bps, trace::metric::loss_rate,
                 trace::metric::jitter_s, trace::metric::rtt_s,
                 trace::metric::uplink_throughput_bps}) {
    EXPECT_EQ(trace::metric_from_string(trace::to_string(m)), m);
  }
  EXPECT_THROW(trace::metric_from_string("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace wiscape::core
