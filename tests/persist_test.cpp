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
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/epoch_codec.h"
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

std::string ref_state(const durable_state& state) {
  auto keys = state.keys();
  std::sort(keys.begin(), keys.end(),
            [](const estimate_key& a, const estimate_key& b) {
              if (a.zone != b.zone) return a.zone < b.zone;
              if (a.network != b.network) return a.network < b.network;
              return static_cast<int>(a.metric) < static_cast<int>(b.metric);
            });
  std::string out = "WISCAPE-COORD v2\n";
  for (const auto& key : keys) {
    for (const auto& est : state.history(key)) out += ref_est(key, est);
    if (const auto open = state.open_state(key)) out += ref_open(key, *open);
  }
  return out + "ALERTSEQ " + std::to_string(state.alert_seq()) + "\n";
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

/// Renders `v` into every double field of an EST line and parses it back.
bool est_round_trip(double v, epoch_estimate& back) {
  std::string line;
  epoch_codec::put_est(line, {{-4, 7}, "NetB", trace::metric::rtt_s},
                       {v, v, v, 3});
  line.pop_back();  // the newline
  epoch_codec::state_line rec;
  if (!epoch_codec::parse_state_line(line, rec)) return false;
  back = rec.est;
  return rec.tag == epoch_codec::state_line::kind::est;
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
    epoch_estimate back;
    if (std::isnan(v)) {
      ++nans;
      EXPECT_FALSE(est_round_trip(v, back));  // pinned: NaN is malformed
      continue;
    }
    ASSERT_TRUE(est_round_trip(v, back)) << got;
    EXPECT_EQ(bits_of(back.epoch_start_s), bits_of(v)) << got;
    EXPECT_EQ(bits_of(back.mean), bits_of(v)) << got;
    EXPECT_EQ(bits_of(back.stddev), bits_of(v)) << got;
  }
  EXPECT_GT(nans, 0u);  // the random patterns did reach the NaN space
}

TEST(EpochCodec, NanFieldIsMalformedInSnapshotsLikeInTheWal) {
  // A NaN estimate carries nothing and cannot round-trip its payload, so a
  // `nan` field is rejected in every position (the WAL side is pinned in
  // wal_test.cpp); `inf` parses back exactly.
  for (const char* line : {"EST 1:1 NetB rtt nan 1 1 1", "EST 1:1 NetB rtt 0 -nan 1 1",
                           "EST 1:1 NetB rtt 0 1 NaN 1",
                           "OPEN 1:1 NetB rtt 0 2 nan 1",
                           "OPEN 1:1 NetB rtt 0 2 1 nan(0x1)"}) {
    std::stringstream coord(std::string("WISCAPE-COORD v2\n") + line + "\n");
    sharded_coordinator c(geo::zone_grid{geo::projection{{43.0, -89.4}}, 250.0},
                          {"NetB"}, {}, 1);
    EXPECT_THROW(load_state(coord, c), std::invalid_argument) << line;
  }
  std::stringstream inf("WISCAPE-COORD v2\nEST 1:1 NetB rtt 0 inf -inf 4\n");
  sharded_coordinator back(geo::zone_grid{geo::projection{{43.0, -89.4}}, 250.0},
                           {"NetB"}, {}, 1);
  load_state(inf, back);
  const auto hist = back.history({{1, 1}, "NetB", trace::metric::rtt_s});
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist[0].mean, std::numeric_limits<double>::infinity());
  EXPECT_EQ(hist[0].stddev, -std::numeric_limits<double>::infinity());
}

TEST(EpochCodec, RejectsTrailingAndMissingFields) {
  epoch_codec::state_line rec;
  EXPECT_TRUE(epoch_codec::parse_state_line("EST 1:-1 NetB rtt 0 1 1 1", rec));
  EXPECT_TRUE(epoch_codec::parse_state_line(" EST\t1:-1 NetB rtt 0 1 1 1 ", rec));
  EXPECT_FALSE(epoch_codec::parse_state_line("EST 1:-1 NetB rtt 0 1 1", rec));
  EXPECT_FALSE(epoch_codec::parse_state_line("EST 1:-1 NetB rtt 0 1 1 1 9", rec));
  EXPECT_FALSE(epoch_codec::parse_state_line("EST 1:-1 NetB rtt 0 1 1 1x", rec));
  EXPECT_FALSE(epoch_codec::parse_state_line("EST 1:-1x NetB rtt 0 1 1 1", rec));
  EXPECT_FALSE(epoch_codec::parse_state_line("EST 1:-1 NetB rtt 0 1 1 -1", rec));
  EXPECT_FALSE(epoch_codec::parse_state_line("EST 1:-1 NetB rtt 0 1e999 1 1", rec));
  EXPECT_FALSE(epoch_codec::parse_state_line("ALERTSEQ", rec));
  EXPECT_FALSE(epoch_codec::parse_state_line("ALERTSEQ 1 2", rec));
  EXPECT_TRUE(epoch_codec::parse_state_line("ALERTSEQ 18446744073709551615", rec));
  EXPECT_EQ(rec.alert_seq, 18446744073709551615ull);
  EXPECT_FALSE(epoch_codec::parse_state_line("", rec));
}

// ---- the separator set: ' ', '\t', '\r', '\v', '\f' and nothing else ---------

const std::string kSeparatorBytes = " \t\r\v\f";
// Whitespace in some other character set, and the bytes a line ends with:
// all of them belong to a field.
const std::string kFieldBytes = std::string("\n\0\x85\xA0", 4);

/// `fields` joined by `gap`, between `lead` and `trail`; `odd_gap`, when
/// set, replaces the gap before field `odd_at` (0 = the leading padding,
/// fields.size() = the trailing padding).
std::string spaced(const std::vector<std::string>& fields, std::string_view lead,
                   std::string_view gap, std::string_view trail,
                   std::size_t odd_at = std::string::npos,
                   std::string_view odd_gap = {}) {
  std::string out;
  for (std::size_t i = 0; i <= fields.size(); ++i) {
    const std::string_view edge = i == 0 ? lead : i == fields.size() ? trail : gap;
    out += i == odd_at ? odd_gap : edge;
    if (i < fields.size()) out += fields[i];
  }
  return out;
}

/// `body` with the WAL checksum suffix ` C<fnv1a32 %08x>` it must carry.
std::string wal_line(const std::string& body) {
  std::uint32_t h = 2166136261u;
  for (const char c : body) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  char crc[16];
  std::snprintf(crc, sizeof(crc), " C%08x", h);
  return body + crc;
}

const std::vector<std::string> kEstFields = {"EST", "1:-1", "NetB", "rtt",
                                             "0",   "1",    "2",    "3"};
const std::vector<std::string> kOpenFields = {"OPEN", "1:-1", "NetB", "rtt",
                                              "0",    "2",    "1",    "5"};
const std::vector<std::string> kAlertFields = {"ALERTSEQ", "9"};
const std::vector<std::string> kWalFields = {"W", "7", "1:-1", "NetB", "rtt",
                                             "0", "1", "2",    "3"};

bool parses_as_canonical_state_line(const std::string& line) {
  epoch_codec::state_line rec;
  if (!epoch_codec::parse_state_line(line, rec)) return false;
  const estimate_key key{{1, -1}, "NetB", trace::metric::rtt_s};
  switch (rec.tag) {
    case epoch_codec::state_line::kind::est:
      return rec.key == key && rec.est.epoch_start_s == 0.0 &&
             rec.est.mean == 1.0 && rec.est.stddev == 2.0 &&
             rec.est.samples == 3;
    case epoch_codec::state_line::kind::open:
      return rec.key == key && rec.open.open_start_s == 0.0 &&
             rec.open.n == 2 && rec.open.mean == 1.0 && rec.open.m2 == 5.0;
    case epoch_codec::state_line::kind::alert_seq:
      return rec.alert_seq == 9;
  }
  return false;
}

bool parses_as_canonical_wal(const std::string& line) {
  std::uint64_t seq = 0;
  estimate_key key;
  epoch_estimate est;
  return epoch_codec::parse_wal(line, seq, key, est) && seq == 7 &&
         key == estimate_key{{1, -1}, "NetB", trace::metric::rtt_s} &&
         est.epoch_start_s == 0.0 && est.mean == 1.0 && est.stddev == 2.0 &&
         est.samples == 3;
}

TEST(EpochCodec, EachSeparatorDelimitsEveryFieldAndPadsEveryLine) {
  std::vector<std::string> gaps;
  for (const char c : kSeparatorBytes) gaps.emplace_back(1, c);
  gaps.push_back(kSeparatorBytes);  // all five in one run
  for (const std::string& gap : gaps) {
    const std::string shown = ::testing::PrintToString(gap);
    for (const auto* fields : {&kEstFields, &kOpenFields, &kAlertFields}) {
      EXPECT_TRUE(parses_as_canonical_state_line(spaced(*fields, "", gap, "")))
          << shown;
      EXPECT_TRUE(parses_as_canonical_state_line(spaced(*fields, gap, gap, gap)))
          << shown;
      // One odd gap among single spaces, at every position.
      for (std::size_t at = 0; at <= fields->size(); ++at) {
        EXPECT_TRUE(parses_as_canonical_state_line(
            spaced(*fields, "", " ", "", at, gap)))
            << shown << " at " << at;
      }
    }
    // A WAL line's checksummed body follows the same rule, padding
    // included; the ` C<hex>` suffix that ends the line is fixed bytes.
    EXPECT_TRUE(parses_as_canonical_wal(wal_line(spaced(kWalFields, gap, gap, gap))))
        << shown;
    for (std::size_t at = 0; at <= kWalFields.size(); ++at) {
      EXPECT_TRUE(parses_as_canonical_wal(
          wal_line(spaced(kWalFields, "", " ", "", at, gap))))
          << shown << " at " << at;
    }
  }
  const std::string wal = wal_line(spaced(kWalFields, "", " ", ""));
  EXPECT_FALSE(parses_as_canonical_wal(wal + " "));
  EXPECT_FALSE(parses_as_canonical_wal(
      std::string(wal).replace(wal.rfind(" C"), 1, "\t")));
}

TEST(EpochCodec, OtherWhitespaceAndLineBytesAreFieldBytes) {
  for (const char c : kFieldBytes) {
    const std::string bad(1, c);
    const std::string shown = ::testing::PrintToString(bad);
    for (const auto* fields : {&kEstFields, &kOpenFields, &kAlertFields}) {
      // As the only gap, as padding, and in place of one single space.
      EXPECT_FALSE(parses_as_canonical_state_line(spaced(*fields, "", bad, "")))
          << shown;
      for (std::size_t at = 0; at <= fields->size(); ++at) {
        EXPECT_FALSE(parses_as_canonical_state_line(
            spaced(*fields, "", " ", "", at, bad)))
            << shown << " at " << at;
      }
    }
    for (std::size_t at = 0; at <= kWalFields.size(); ++at) {
      EXPECT_FALSE(parses_as_canonical_wal(
          wal_line(spaced(kWalFields, "", " ", "", at, bad))))
          << shown << " at " << at;
    }
  }
}

TEST(EpochCodec, SeededRecordsRoundTripBitIdentical) {
  std::mt19937_64 gen(22);
  const std::vector<double> awkward = awkward_doubles();
  const auto any_double = [&] {
    for (;;) {
      const std::uint64_t r = gen();
      const double v =
          r % 4 == 0 ? awkward[(r >> 8) % awkward.size()] : from_bits(gen());
      if (!std::isnan(v)) return v;  // NaN is malformed by design
    }
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
  // Network names of any bytes but the separators and '\n' (a line's end).
  const auto any_network = [&] {
    std::string net(1 + gen() % 24, 'x');
    for (char& c : net) {
      do {
        c = static_cast<char>(gen());
      } while (c == '\n' || kSeparatorBytes.find(c) != std::string::npos);
    }
    return net;
  };
  for (int i = 0; i < 20000; ++i) {
    const estimate_key key{{any_coord(), any_coord()},
                           any_network(),
                           static_cast<trace::metric>(gen() % trace::metric_count)};
    const epoch_estimate est{any_double(), any_double(), any_double(),
                             static_cast<std::size_t>(any_count())};
    const open_epoch_state open{any_double(), any_count(), any_double(),
                                any_double()};
    const std::uint64_t seq = any_count();

    std::string text;
    epoch_codec::put_est(text, key, est);
    epoch_codec::put_open(text, key, open);
    epoch_codec::put_alert_seq(text, seq);
    epoch_codec::put_wal(text, seq, key, est);
    epoch_codec::line_reader in{std::string_view(text)};
    std::string_view line;
    epoch_codec::state_line rec;

    ASSERT_TRUE(in.next(line) && epoch_codec::parse_state_line(line, rec)) << line;
    ASSERT_EQ(rec.tag, epoch_codec::state_line::kind::est);
    EXPECT_EQ(rec.key, key);
    EXPECT_EQ(bits_of(rec.est.epoch_start_s), bits_of(est.epoch_start_s));
    EXPECT_EQ(bits_of(rec.est.mean), bits_of(est.mean));
    EXPECT_EQ(bits_of(rec.est.stddev), bits_of(est.stddev));
    EXPECT_EQ(rec.est.samples, est.samples);

    ASSERT_TRUE(in.next(line) && epoch_codec::parse_state_line(line, rec)) << line;
    ASSERT_EQ(rec.tag, epoch_codec::state_line::kind::open);
    EXPECT_EQ(rec.key, key);
    EXPECT_EQ(bits_of(rec.open.open_start_s), bits_of(open.open_start_s));
    EXPECT_EQ(rec.open.n, open.n);
    EXPECT_EQ(bits_of(rec.open.mean), bits_of(open.mean));
    EXPECT_EQ(bits_of(rec.open.m2), bits_of(open.m2));

    ASSERT_TRUE(in.next(line) && epoch_codec::parse_state_line(line, rec)) << line;
    ASSERT_EQ(rec.tag, epoch_codec::state_line::kind::alert_seq);
    EXPECT_EQ(rec.alert_seq, seq);

    std::uint64_t wal_seq = 0;
    estimate_key wal_key;
    epoch_estimate wal_est;
    ASSERT_TRUE(in.next(line) &&
                epoch_codec::parse_wal(line, wal_seq, wal_key, wal_est))
        << line;
    EXPECT_EQ(wal_seq, seq);
    EXPECT_EQ(wal_key, key);
    EXPECT_EQ(bits_of(wal_est.epoch_start_s), bits_of(est.epoch_start_s));
    EXPECT_EQ(bits_of(wal_est.mean), bits_of(est.mean));
    EXPECT_EQ(bits_of(wal_est.stddev), bits_of(est.stddev));
    EXPECT_EQ(wal_est.samples, est.samples);
    EXPECT_FALSE(in.next(line));
  }
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

TEST(Persist, SaveStateBytesMatchTheSnprintfRendering) {
  const golden_state g(400);
  const std::string want = ref_state(g.coord);
  std::ostringstream os;
  save_state(os, g.coord);
  EXPECT_EQ(os.str(), want);
  std::string in_memory = "prefix ";
  save_state(in_memory, g.coord);  // appends
  EXPECT_EQ(in_memory, "prefix " + want);

  // A snapshot rendered the old way loads bit-equal, from a stream and in
  // place alike.
  golden_state from_stream(0), from_text(0);
  std::istringstream is(want);
  load_state(is, from_stream.coord);
  load_state(std::string_view(want), from_text.coord);
  expect_same_state(g.coord, from_stream.coord);
  expect_same_state(g.coord, from_text.coord);
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

TEST(Persist, V2RoundTripIsBitExact) {
  const populated_state p;
  std::stringstream ss;
  save_state(ss, p.coord);
  auto back = p.empty();
  load_state(ss, back);

  // %.17g rendering makes the text round trip lossless: every double
  // compares equal bit for bit, and re-saving reproduces the same bytes.
  expect_same_state(p.coord, back);
  std::stringstream again;
  save_state(again, back);
  EXPECT_EQ(again.str(), ss.str());
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
  EXPECT_EQ(ss.str(), "WISCAPE-COORD v2\nALERTSEQ 0\n");
  auto back = p.empty();
  load_state(ss, back);
  EXPECT_TRUE(back.keys().empty());
  EXPECT_EQ(back.alert_seq(), 0u);
}

TEST(Persist, RejectsMalformedInput) {
  const populated_state p;
  for (const char* text :
       {"nope\n", "WISCAPE-COORD v1\nEST 1:1 NetB rtt 0 1 1 1\n",
        "WISCAPE-COORD v2\nEST garbage\n",
        "WISCAPE-COORD v2\nEST nozone NetB rtt 0 1 1 1\n",
        "WISCAPE-COORD v2\nEST 1:1 NetB warp 0 1 1 1\n"}) {
    std::stringstream bad(text);
    auto c = p.empty();
    EXPECT_THROW(load_state(bad, c), std::invalid_argument) << text;
  }
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
  ASSERT_GT(text.size(), 4 * epoch_codec::line_reader::buffer_size);
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

TEST(EpochCodec, LineReaderHandsOutTheSameLinesAtEveryRefillBoundary) {
  // Every read size from 1 byte up moves the refill boundary across every
  // offset of the lines; one line longer than the read buffer makes the
  // reader grow it.
  const golden_state g(12);
  std::string text;
  save_state(text, g.coord);
  text += std::string(epoch_codec::line_reader::buffer_size + 300, 'x') +
          "\n\n" + "tail without newline";
  std::vector<std::string> want;
  std::size_t pos = 0;
  for (std::size_t nl; (nl = text.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    want.push_back(text.substr(pos, nl - pos));
  }
  want.push_back(text.substr(pos));

  // Only the final line (no newline after it) reads as cut.
  auto drain = [](epoch_codec::line_reader& in, std::size_t& cuts) {
    std::vector<std::string> got;
    std::string_view line;
    cuts = 0;
    while (in.next(line)) {
      got.emplace_back(line);
      cuts += in.cut() ? 1 : 0;
    }
    return got;
  };
  std::size_t cuts = 0;
  for (std::size_t k = 1; k <= 320; ++k) {
    trickle_buf buf(text, k);
    std::istream is(&buf);
    epoch_codec::line_reader in(is);
    ASSERT_EQ(drain(in, cuts), want) << "read size " << k;
    EXPECT_EQ(cuts, 1u);
    EXPECT_TRUE(in.cut());
  }
  epoch_codec::line_reader whole{std::string_view(text)};
  EXPECT_EQ(drain(whole, cuts), want);
  EXPECT_EQ(cuts, 1u);

  // A newline-terminated text ends clean; an empty one has no lines.
  std::istringstream clean("a\nb\n");
  epoch_codec::line_reader in(clean);
  std::string_view line;
  ASSERT_TRUE(in.next(line));
  ASSERT_TRUE(in.next(line));
  EXPECT_EQ(line, "b");
  EXPECT_FALSE(in.cut());
  EXPECT_FALSE(in.next(line));
  epoch_codec::line_reader empty{std::string_view()};
  EXPECT_FALSE(empty.next(line));
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
