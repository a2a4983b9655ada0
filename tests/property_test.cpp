// Parameterized property-style sweeps over seeds, zone radii and operators:
// the invariants the paper's design rests on must hold across the parameter
// space, not at one lucky point.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/dominance.h"
#include "core/durable_log.h"
#include "core/persist.h"
#include "core/sample_planner.h"
#include "core/sharded_coordinator.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "proto/server.h"
#include "geo/zone_grid.h"
#include "probe/engine.h"
#include "proto/messages.h"
#include "proto/wire_v3.h"
#include "repl/replica.h"
#include "trace/hygiene.h"
#include "stats/allan.h"
#include "stats/histogram.h"
#include "stats/sampling.h"
#include "stats/summary.h"
#include "test_util.h"

namespace wiscape {
namespace {

// ---------------------------------------------------- seeds x determinism ----

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, DeploymentDeterministicPerSeed) {
  const auto seed = GetParam();
  const auto a = testing::tiny_deployment(seed);
  const auto b = testing::tiny_deployment(seed);
  const geo::xy p{321.0, -123.0};
  for (std::size_t n = 0; n < a.size(); ++n) {
    const auto ca = a.network(n).conditions_at(p, 4321.0);
    const auto cb = b.network(n).conditions_at(p, 4321.0);
    EXPECT_DOUBLE_EQ(ca.capacity_bps, cb.capacity_bps);
    EXPECT_DOUBLE_EQ(ca.rtt_s, cb.rtt_s);
  }
}

TEST_P(SeedSweep, ProbeMetricsStayPhysical) {
  const auto seed = GetParam();
  const auto dep = testing::tiny_deployment(seed);
  probe::probe_engine eng(dep, seed ^ 0xabcd);
  const mobility::gps_fix fix{dep.proj().to_lat_lon({200.0, 100.0}), 0.0,
                              10.0 * 3600};
  probe::tcp_probe_params tcp;
  tcp.bytes = 120'000;
  const auto t = eng.tcp_probe(0, fix, tcp);
  if (t.success) {
    EXPECT_GT(t.throughput_bps, 0.0);
    EXPECT_LE(t.throughput_bps, 3.1e6);  // never above the EV-DO cap
  }
  const auto u = eng.udp_probe(0, fix);
  if (u.success) {
    EXPECT_GE(u.loss_rate, 0.0);
    EXPECT_LE(u.loss_rate, 1.0);
    EXPECT_GE(u.jitter_s, 0.0);
  }
  const auto p = eng.ping_probe(0, fix);
  EXPECT_EQ(p.ping_sent, 12);
  EXPECT_GE(p.ping_failures, 0);
  EXPECT_LE(p.ping_failures, p.ping_sent);
}

TEST_P(SeedSweep, NkldNonNegativeAndIdentityZero) {
  stats::rng_stream rng(GetParam());
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.normal(50.0, 7.0));
  EXPECT_GE(stats::nkld_of_samples(xs, xs), 0.0);
  EXPECT_LT(stats::nkld_of_samples(xs, xs), 1e-9);
}

TEST_P(SeedSweep, RandomSplitAlwaysPartitions) {
  stats::rng_stream rng(GetParam());
  const auto split = stats::random_split(257, 0.41, rng);
  EXPECT_EQ(split.first.size() + split.second.size(), 257u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u, 987654u));

// ------------------------------------------------------- zone radius sweep ----

class RadiusSweep : public ::testing::TestWithParam<double> {};

TEST_P(RadiusSweep, GridRoundTripAtEveryRadius) {
  const double radius = GetParam();
  const geo::zone_grid grid(geo::projection(cellnet::anchors::madison), radius);
  stats::rng_stream rng(3);
  for (int i = 0; i < 50; ++i) {
    const geo::xy p{rng.uniform(-5000.0, 5000.0), rng.uniform(-5000.0, 5000.0)};
    const auto z = grid.zone_of(p);
    EXPECT_EQ(grid.zone_of(grid.center_xy(z)), z);
  }
}

TEST_P(RadiusSweep, IntraZoneSpreadGrowsWithRadius) {
  // Fig 4's driver: spatial capacity spread inside a zone grows (weakly)
  // with zone size. Compare this radius against a tiny 50 m zone.
  const double radius = GetParam();
  if (radius <= 50.0) GTEST_SKIP();
  const auto dep = testing::tiny_deployment(5);
  const auto& net = dep.network(0);
  stats::rng_stream rng(17);

  auto spread_at = [&](double r) {
    stats::running_stats rel;
    for (int zone = 0; zone < 12; ++zone) {
      const geo::xy center{rng.uniform(-1200.0, 1200.0),
                           rng.uniform(-1200.0, 1200.0)};
      stats::running_stats caps;
      for (int i = 0; i < 24; ++i) {
        const geo::xy p{center.x_m + rng.uniform(-r, r),
                        center.y_m + rng.uniform(-r, r)};
        const auto lc = net.conditions_at(p, 12.0 * 3600);
        if (lc.in_coverage) caps.add(lc.capacity_bps);
      }
      if (caps.count() > 10) rel.add(caps.relative_stddev());
    }
    return rel.mean();
  };
  EXPECT_GE(spread_at(radius) + 0.03, spread_at(50.0));
}

INSTANTIATE_TEST_SUITE_P(Radii, RadiusSweep,
                         ::testing::Values(50.0, 150.0, 250.0, 450.0, 750.0));

// ------------------------------------------------------ allan noise sweep ----

class AllanNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(AllanNoiseSweep, WhiteNoiseAllanScalesWithSigma) {
  const double sigma = GetParam();
  const auto ts = testing::noise_series(20000, 1.0, 100.0, sigma, 9);
  // Allan deviation at tau=1 approximates the per-sample sigma.
  EXPECT_NEAR(stats::allan_deviation(ts, 1.0), sigma, sigma * 0.1 + 0.01);
}

TEST_P(AllanNoiseSweep, AllanAlwaysNonNegative) {
  const double sigma = GetParam();
  const auto ts = testing::noise_series(2000, 1.0, 100.0, sigma, 10);
  for (double tau : {1.0, 7.0, 50.0, 300.0}) {
    EXPECT_GE(stats::allan_deviation(ts, tau), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, AllanNoiseSweep,
                         ::testing::Values(0.5, 2.0, 8.0, 25.0));

// ----------------------------------------------- planner population sweep ----

struct planner_case {
  double rel_stddev;
  const char* label;
};

// The label names each case: as the test name (the generator below) and as
// the value CMake's test discovery appends to it, so neither carries the
// struct's raw bytes (a pointer among them, which changes every run).
void PrintTo(const planner_case& c, std::ostream* os) { *os << c.label; }

class PlannerSweep : public ::testing::TestWithParam<planner_case> {};

TEST_P(PlannerSweep, SubsetMeanConvergesToPopulationMean) {
  const auto param = GetParam();
  stats::rng_stream gen(13);
  std::vector<double> population;
  for (int i = 0; i < 4000; ++i) {
    population.push_back(gen.normal(1000.0, 1000.0 * param.rel_stddev));
  }
  core::planner_config cfg;
  cfg.iterations = 40;
  const core::sample_planner planner(cfg);
  stats::rng_stream rng(14);
  const std::size_t n = planner.packets_for_accuracy(population, rng);
  // Check the claim: n draws average within 3% most of the time.
  double err = 0.0;
  for (int it = 0; it < 40; ++it) {
    const auto sub = stats::sample_without_replacement(population, n, rng);
    err += std::abs(stats::mean(sub) - stats::mean(population)) / 1000.0;
  }
  EXPECT_LE(err / 40.0, 0.05) << param.label;
}

INSTANTIATE_TEST_SUITE_P(
    Populations, PlannerSweep,
    ::testing::Values(planner_case{0.05, "calm"}, planner_case{0.15, "city"},
                      planner_case{0.30, "wild"}),
    [](const ::testing::TestParamInfo<planner_case>& info) {
      return std::string(info.param.label);
    });

// -------------------------------------------------- dominance gap sweep ----

class DominanceGapSweep : public ::testing::TestWithParam<double> {};

TEST_P(DominanceGapSweep, WinnerIffGapExceedsSpread) {
  const double gap = GetParam();  // mean separation in units of sigma
  stats::rng_stream r(19);
  const double sigma = 1e5;
  std::vector<std::vector<double>> nets(2);
  for (int i = 0; i < 300; ++i) {
    nets[0].push_back(r.normal(1e6 + gap * sigma, sigma));
    nets[1].push_back(r.normal(1e6, sigma));
  }
  const int winner =
      core::dominant_network(nets, core::preference::higher_is_better);
  // 5th vs 95th percentile gap is ~3.3 sigma: clear separation far beyond
  // that must dominate; tiny separation must not.
  if (gap >= 5.0) {
    EXPECT_EQ(winner, 0) << "gap=" << gap;
  } else if (gap <= 2.0) {
    EXPECT_EQ(winner, -1) << "gap=" << gap;
  }
}

INSTANTIATE_TEST_SUITE_P(Gaps, DominanceGapSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0, 8.0));

// ------------------------------------------------- hygiene & proto fuzz ----

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, HygieneIsIdempotent) {
  stats::rng_stream rng(GetParam());
  trace::dataset ds;
  for (int i = 0; i < 150; ++i) {
    auto r = testing::make_record(
        rng.uniform(0.0, 86400.0), rng.chance(0.5) ? "NetB" : "NetC",
        geo::destination(cellnet::anchors::madison, rng.uniform(0.0, 360.0),
                         rng.uniform(0.0, 20000.0)),
        rng.chance(0.5) ? trace::probe_kind::tcp_download
                        : trace::probe_kind::ping,
        rng.uniform(-1e5, 30e6));
    r.loss_rate = rng.uniform(-0.2, 1.4);
    ds.add(r);
  }
  trace::dataset once, twice;
  const auto rep1 = trace::scrub(ds, {}, once);
  const auto rep2 = trace::scrub(once, {}, twice);
  EXPECT_EQ(once.size(), rep1.kept);
  // A scrubbed dataset passes its own scrub untouched.
  EXPECT_EQ(rep2.kept, once.size());
  EXPECT_EQ(rep2.dropped(), 0u);
}

TEST_P(FuzzSweep, ProtoDecodersNeverAcceptGarbage) {
  stats::rng_stream rng(GetParam());
  static constexpr char alphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 =._-";
  for (int i = 0; i < 200; ++i) {
    std::string line;
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 120));
    for (std::size_t k = 0; k < len; ++k) {
      line.push_back(alphabet[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sizeof(alphabet)) - 2))]);
    }
    // Decoders must throw (or the line parses as a valid message, which is
    // astronomically unlikely but permitted); they must never crash.
    try {
      (void)proto::decode_checkin(line);
    } catch (const std::invalid_argument&) {
    }
    try {
      (void)proto::decode_task(line);
    } catch (const std::invalid_argument&) {
    }
    try {
      (void)proto::decode_report(line);
    } catch (const std::invalid_argument&) {
    }
    (void)proto::message_type(line);
  }
  SUCCEED();
}

TEST_P(FuzzSweep, HostileRecordsNeverThrowAndAlwaysAccount) {
  // A hostile-client corpus hammered at a live wire server: NaN/Inf
  // coordinates, zones far outside the +-2^23 index range, thousands of
  // distinct operator names (interner exhaustion), and duplicated REPORTB
  // frames. The coordinator must never throw, and every record must land in
  // exactly one of the accepted/rejected counters.
  stats::rng_stream rng(GetParam());
  geo::projection proj(cellnet::anchors::madison);
  geo::zone_grid grid(proj, 250.0);
  core::sharded_config scfg;
  scfg.num_shards = 1;
  scfg.synchronous = true;  // counters are exact without a flush
  core::sharded_coordinator coord(grid, {"NetB", "NetC"}, scfg, GetParam());
  proto::coordinator_server server(coord);

  obs::registry& reg = obs::registry::global();
  const std::uint64_t accepted0 =
      reg.get_counter(obs::names::kCoordReportsAccepted).value();
  const std::uint64_t rejected0 =
      reg.get_counter(obs::names::kCoordReportsRejected).value();
  const std::uint64_t apply_err0 =
      reg.get_counter(obs::names::kShardedApplyErrors).value();

  std::uint64_t acked = 0, erred_records = 0;
  auto send = [&](std::span<const trace::measurement_record> recs) {
    const std::string reply =
        testing::reply_of(server, proto::encode_report_batch(recs));
    if (proto::message_type(reply) == "ACK") {
      acked += recs.size();
    } else {
      erred_records += recs.size();
    }
  };

  static constexpr double kPoison[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      1.0e308,
      -1.0e308,
      4.0e7,   // ~2^23 zones past the grid origin at 250 m
      -4.0e7,
  };
  std::vector<trace::measurement_record> batch;
  for (int i = 0; i < 400; ++i) {
    trace::measurement_record r;
    r.time_s = rng.uniform(0.0, 86400.0);
    r.kind = trace::probe_kind::udp_burst;
    r.success = true;
    r.throughput_bps = rng.uniform(-1e9, 1e9);
    const int shape = static_cast<int>(rng.uniform_int(0, 3));
    if (shape == 0) {
      // Poisoned coordinates on a configured operator.
      r.network = rng.chance(0.5) ? "NetB" : "NetC";
      r.pos = {kPoison[rng.uniform_int(0, 6)], kPoison[rng.uniform_int(0, 6)]};
    } else if (shape == 1) {
      // One-off operator names: floods the per-shard interner.
      r.network = "Hostile" + std::to_string(i) + "_" +
                  std::to_string(GetParam());
      r.pos = proj.to_lat_lon({rng.uniform(-500.0, 500.0), 0.0});
    } else if (shape == 2) {
      // Valid position, poisoned timestamp.
      r.network = "NetB";
      r.pos = proj.to_lat_lon({0.0, rng.uniform(-500.0, 500.0)});
      r.time_s = kPoison[rng.uniform_int(0, 4)];
    } else {
      r.network = "NetC";
      r.pos = proj.to_lat_lon(
          {rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)});
    }
    batch.push_back(std::move(r));
    if (batch.size() == 25) {
      ASSERT_NO_THROW(send(batch));
      if (rng.chance(0.3)) {
        ASSERT_NO_THROW(send(batch));  // duplicate frame
      }
      batch.clear();
    }
  }
  if (!batch.empty()) {
    ASSERT_NO_THROW(send(batch));
  }

  // 4096+ distinct names in one shard: the interner cap must reject the
  // tail without throwing.
  std::vector<trace::measurement_record> flood;
  const geo::lat_lon pinned = proj.to_lat_lon({100.0, 100.0});
  for (int k = 0; k < 4300; ++k) {
    trace::measurement_record r;
    r.time_s = 100.0;
    r.network = "Flood" + std::to_string(k);
    r.pos = pinned;
    r.kind = trace::probe_kind::ping;
    r.success = true;
    r.rtt_s = 0.1;
    flood.push_back(std::move(r));
    if (flood.size() == 100) {
      ASSERT_NO_THROW(send(flood));
      flood.clear();
    }
  }

  const std::uint64_t accepted_delta =
      reg.get_counter(obs::names::kCoordReportsAccepted).value() - accepted0;
  const std::uint64_t rejected_delta =
      reg.get_counter(obs::names::kCoordReportsRejected).value() - rejected0;
  // Every acked record landed in exactly one counter; nothing threw inside
  // the apply path; erred frames (if any) never reached the counters.
  EXPECT_EQ(acked, accepted_delta + rejected_delta);
  EXPECT_GT(rejected_delta, 0u);  // the corpus genuinely exercised rejection
  EXPECT_EQ(reg.get_counter(obs::names::kShardedApplyErrors).value(),
            apply_err0);
  (void)erred_records;
}

// A served pair for the request fuzzer: a leader replica over a warm
// coordinator whose log holds a few epoch rollovers, and a follower replica
// over an empty one, each behind its own coordinator_server.
struct fuzz_servers {
  geo::projection proj{cellnet::anchors::madison};
  geo::zone_grid grid{proj, 250.0};
  core::sharded_coordinator lc;
  proto::coordinator_server lserver;
  repl::replica lead;
  core::sharded_coordinator fc;
  proto::coordinator_server fserver;
  repl::replica fol;

  static core::sharded_config cfg() {
    core::sharded_config c;
    c.coordinator.epochs.default_epoch_s = 100.0;
    c.num_shards = 1;
    c.synchronous = true;
    return c;
  }

  fuzz_servers()
      : lc(grid, {"NetB", "NetC"}, cfg(), 1),
        lserver(lc),
        lead(lc, repl::role::leader),
        fc(grid, {"NetB", "NetC"}, cfg(), 1),
        fserver(fc),
        fol(fc, repl::role::follower) {
    lserver.attach_replication(&lead);
    fserver.attach_replication(&fol);
    std::vector<trace::measurement_record> recs;
    for (int i = 0; i < 40; ++i) recs.push_back(record(10.0 * i));
    lc.report_batch(recs);
  }

  trace::measurement_record record(double t) const {
    trace::measurement_record r;
    r.time_s = t;
    r.network = "NetB";
    r.pos = proj.to_lat_lon(geo::xy{120.0, 80.0});
    r.client_id = 3;
    r.kind = trace::probe_kind::tcp_download;
    r.success = true;
    r.throughput_bps = 2.0e6 + 1.0e3 * t;
    return r;
  }

  /// One valid request of every command family, text and v3, replication
  /// opcodes included: the seeds the fuzzer mutates.
  std::vector<std::string> valid_requests() const {
    const trace::measurement_record rec = record(405.0);
    const proto::measurement_report report{rec.client_id, rec};
    const std::vector<trace::measurement_record> batch{rec, record(406.0)};
    proto::query_request q;
    q.pos = rec.pos;
    q.network = "NetB";
    q.metric = trace::metric::tcp_throughput_bps;
    q.time_s = 410.0;
    const std::vector<proto::query_request> queries{q, q};
    proto::checkin_request checkin;
    checkin.client_id = 9;
    checkin.pos = rec.pos;
    checkin.time_s = 411.0;
    checkin.active_in_zone = 1;
    proto::epoch_update up;
    up.seq = 1;
    up.key = {grid.zone_of(rec.pos), "NetB",
              trace::metric::tcp_throughput_bps};
    up.est = {0.0, 2.0e6, 1.0e4, 10};
    proto::epoch_update up2 = up;
    up2.seq = 2;
    up2.est.epoch_start_s = 100.0;
    const std::vector<proto::epoch_update> updates{up, up2};

    return {proto::encode(report),
            proto::encode_report_batch(batch),
            proto::encode(q),
            proto::encode_query_batch(queries),
            proto::encode(proto::hello_request{3}),
            proto::encode(proto::alerts_request{0, 16}),
            proto::encode(checkin),
            "STATS",
            testing::frame_of(proto::v3::encode_report_frame, report),
            proto::v3::encode_report_batch_frame(batch),
            proto::v3::encode_query_frame(q),
            proto::v3::encode_query_batch_frame(queries),
            proto::v3::encode_epoch_pull_frame({0, 8}),
            testing::frame_of(proto::v3::encode_epoch_batch_frame,
                              std::span<const proto::epoch_update>(updates)),
            testing::frame_of(proto::v3::encode_snapshot_req_frame, 0),
            testing::frame_of(proto::v3::encode_promote_frame)};
  }
};

/// Checks handle()'s contract on one input: it never throws, appends a
/// non-empty reply (one whole v3 frame for a binary request), and counts at
/// most one error.
void expect_one_answer(proto::coordinator_server& server,
                       const std::string& input, proto::reply_buffer& rb) {
  SCOPED_TRACE("input of " + std::to_string(input.size()) + " bytes");
  const proto::request_view req = proto::request_view::detect(input);
  const std::uint64_t errors0 = server.errors();
  rb.clear();
  ASSERT_NO_THROW(server.handle(req, rb));
  const std::string_view reply = rb.view();
  ASSERT_FALSE(reply.empty());
  if (req.framing() == proto::request_view::kind::binary) {
    const auto hdr = proto::v3::peek_header(reply);
    ASSERT_TRUE(hdr.has_value());
    EXPECT_EQ(reply.size(),
              proto::v3::frame_header_bytes + hdr->payload_len);
  }
  EXPECT_LE(server.errors() - errors0, 1u);
}

TEST_P(FuzzSweep, HandleAnswersEveryRequestOnce) {
  stats::rng_stream rng(GetParam());
  fuzz_servers fx;
  const std::vector<std::string> seeds = fx.valid_requests();
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto byte = [&] {
    return static_cast<char>(rng.uniform_int(0, 255));
  };
  proto::reply_buffer rb;
  for (int i = 0; i < 3000; ++i) {
    std::string input;
    const int shape = static_cast<int>(rng.uniform_int(0, 3));
    if (shape == 0) {
      // Random bytes, a third of them behind the binary frame magic.
      const std::size_t len = pick(64);
      if (rng.chance(1.0 / 3.0)) input.push_back('\xB3');
      for (std::size_t k = 0; k < len; ++k) input.push_back(byte());
    } else {
      input = seeds[pick(seeds.size())];
      if (shape != 2 && !input.empty()) {  // byte flips
        const std::size_t flips = 1 + pick(4);
        for (std::size_t k = 0; k < flips; ++k) {
          input[pick(input.size())] ^= static_cast<char>(1 + pick(255));
        }
      }
      if (shape != 1) input.resize(pick(input.size() + 1));  // truncation
      // Half the mangled frames get their length prefix rewritten to fit,
      // so the payload decoders, not the envelope check, meet the damage.
      if (proto::v3::is_frame_start(input) &&
          input.size() >= proto::v3::frame_header_bytes && rng.chance(0.5)) {
        const std::size_t len = input.size() - proto::v3::frame_header_bytes;
        for (std::size_t k = 0; k < 4; ++k) {
          input[2 + k] = static_cast<char>((len >> (8 * k)) & 0xff);
        }
      }
    }
    expect_one_answer(fx.lserver, input, rb);
    expect_one_answer(fx.fserver, input, rb);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(FuzzSweep, SnapshotLoaderRefusesDamageWithInvalidArgumentOnly) {
  // Every truncation of a small valid snapshot, single-byte flips, and
  // random bytes after a valid header line. Both load flavours refuse each
  // with std::invalid_argument (any other exception fails the test), and
  // the in-memory one installs nothing first.
  stats::rng_stream rng(GetParam());
  fuzz_servers fx;
  std::string good;
  core::save_state(good, fx.lc);
  const std::size_t header = good.find('\n') + 1;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  core::sharded_coordinator untouched(fx.grid, {"NetB", "NetC"},
                                      fuzz_servers::cfg(), 1);
  const auto expect_refused = [&](const std::string& bytes) {
    SCOPED_TRACE("input of " + std::to_string(bytes.size()) + " bytes");
    core::sharded_coordinator target(fx.grid, {"NetB", "NetC"},
                                     fuzz_servers::cfg(), 1);
    std::istringstream is(bytes);
    EXPECT_THROW(core::load_state(is, target), std::invalid_argument);
    EXPECT_THROW(core::load_state(std::string_view(bytes), untouched),
                 std::invalid_argument);
    EXPECT_TRUE(untouched.keys().empty());
  };
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    expect_refused(good.substr(0, cut));
    if (::testing::Test::HasFailure()) return;
  }
  for (int i = 0; i < 300; ++i) {
    std::string flipped = good;
    flipped[pick(flipped.size())] ^= static_cast<char>(1 + pick(255));
    expect_refused(flipped);
    std::string noise = good.substr(0, header);
    const std::size_t len = pick(256);
    for (std::size_t k = 0; k < len; ++k) {
      noise.push_back(static_cast<char>(pick(256)));
    }
    expect_refused(noise);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST_P(FuzzSweep, DamagedCatchUpLeavesTheFollowerAsItWas) {
  // The follower holds the leader's table from one catch-up; the leader
  // moves on; then the catch-up body it serves reaches the follower cut,
  // with flipped snapshot bytes, or with noise after the snapshot's
  // header line. Each is refused and leaves the follower's keys,
  // histories, open epochs, cursor and alert mark as they were.
  stats::rng_stream rng(GetParam());
  fuzz_servers fx;
  const repl::transport to_leader = [&](std::string_view frame) {
    return testing::reply_of(fx.lserver, frame);
  };
  fx.fol.catch_up(to_leader);
  std::vector<trace::measurement_record> more;
  for (int i = 40; i < 70; ++i) more.push_back(fx.record(10.0 * i));
  fx.lc.report_batch(more);

  std::string body, data;
  std::uint64_t total = 0;
  for (bool last = false; !last;) {
    ASSERT_TRUE(fx.lead.snapshot(body.size(), data, total, last));
    body += data;
  }
  const std::size_t snap_at = body.find('\n') + 1;
  const std::size_t header = body.find('\n', snap_at) + 1;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::string table = testing::estimate_state(fx.fc);
  const std::uint64_t cursor = fx.fol.applied_seq();
  const std::uint64_t alerts = fx.fc.alert_seq();
  ASSERT_NE(table, testing::estimate_state(fx.lc));

  for (int i = 0; i < 200; ++i) {
    std::string damaged = body;
    const int shape = static_cast<int>(rng.uniform_int(0, 2));
    if (shape == 0) {
      damaged.resize(pick(body.size()));
    } else if (shape == 1) {
      const std::size_t flips = 1 + pick(4);
      for (std::size_t k = 0; k < flips; ++k) {
        damaged[snap_at + pick(body.size() - snap_at)] ^=
            static_cast<char>(1 + pick(255));
      }
    } else {
      damaged.resize(header);
      const std::size_t len = pick(body.size());
      for (std::size_t k = 0; k < len; ++k) {
        damaged.push_back(static_cast<char>(pick(256)));
      }
    }
    const repl::transport send = [&](std::string_view) {
      return testing::frame_of(proto::v3::encode_snapshot_chunk_frame, 0,
                               damaged.size(), true, damaged);
    };
    SCOPED_TRACE("shape " + std::to_string(shape) + ", " +
                 std::to_string(damaged.size()) + " bytes");
    EXPECT_ANY_THROW(fx.fol.catch_up(send));
    EXPECT_EQ(testing::estimate_state(fx.fc), table);
    EXPECT_EQ(fx.fol.applied_seq(), cursor);
    EXPECT_EQ(fx.fc.alert_seq(), alerts);
    if (::testing::Test::HasFailure()) return;
  }
  fx.fol.catch_up(to_leader);
  EXPECT_EQ(testing::estimate_state(fx.fc), testing::estimate_state(fx.lc));
}

TEST_P(FuzzSweep, WalReplayAppliesOnlyAWholePrefix) {
  // A seeded binary WAL, cut at every byte, with 1-4 bytes flipped, and
  // with noise after a whole record. Replay never throws, applies exactly
  // the whole records before the first damaged byte, and reports a valid
  // prefix that ends on a record boundary.
  stats::rng_stream rng(GetParam());
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::vector<core::epoch_update> recs;
  for (std::uint64_t i = 1; i <= 12; ++i) {
    core::epoch_update u;
    u.seq = i;
    u.key = {{static_cast<int>(pick(64)) - 32, static_cast<int>(pick(64))},
             std::string(1 + pick(12), static_cast<char>('A' + pick(26))),
             static_cast<trace::metric>(pick(trace::metric_count))};
    u.est = {100.0 * static_cast<double>(i), rng.normal(1.0e6, 1.0e5),
             rng.uniform(0.0, 1.0e4), 1 + pick(1000)};
    u.alert_seq = pick(2) == 0 ? 0 : i;
    recs.push_back(u);
  }
  const std::string dir = ::testing::TempDir() + "fuzz_wal_" +
                          std::to_string(GetParam());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::size_t> ends;  // where the header and each record end
  std::string good;
  {
    core::durable_log dl(dir);
    for (const core::epoch_update& u : recs) {
      dl.append(u.seq, u.key, u.est, u.alert_seq);
      ends.push_back(std::filesystem::file_size(dl.wal_path()));
    }
    std::ifstream is(dl.wal_path(), std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(is), {});
  }
  std::filesystem::remove_all(dir);
  ends.insert(ends.begin(), good.find('\n') + 1);

  // `whole`: the records wholly before the first damaged byte.
  const auto expect_prefix = [&](const std::string& bytes, std::size_t whole) {
    SCOPED_TRACE("input of " + std::to_string(bytes.size()) + " bytes");
    std::istringstream is(bytes);
    std::vector<core::epoch_update> got;
    core::wal_extent ext;
    std::uint64_t last = 0;
    EXPECT_NO_THROW(last = core::wal_replay(
                        is, [&](const core::epoch_update& u) { got.push_back(u); },
                        &ext));
    ASSERT_EQ(got.size(), whole);
    for (std::size_t i = 0; i < whole; ++i) {
      EXPECT_EQ(got[i].seq, recs[i].seq);
      EXPECT_EQ(got[i].key, recs[i].key);
      EXPECT_EQ(got[i].est.mean, recs[i].est.mean);
      EXPECT_EQ(got[i].est.samples, recs[i].est.samples);
      EXPECT_EQ(got[i].alert_seq, recs[i].alert_seq);
    }
    EXPECT_EQ(last, whole == 0 ? 0u : recs[whole - 1].seq);
    EXPECT_EQ(ext.read_bytes, bytes.size());
    // On a record boundary: the header's end with at least the header
    // whole, else 0.
    EXPECT_EQ(ext.valid_bytes,
              bytes.compare(0, ends[0], good, 0, ends[0]) == 0 ? ends[whole]
                                                               : 0u);
  };
  const auto whole_before = [&](std::size_t at) {
    std::size_t n = 0;
    while (n + 1 < ends.size() && ends[n + 1] <= at) ++n;
    return n;
  };
  for (std::size_t cut = 0; cut <= good.size(); ++cut) {
    expect_prefix(good.substr(0, cut), whole_before(cut));
    if (::testing::Test::HasFailure()) return;
  }
  for (int i = 0; i < 300; ++i) {
    std::string flipped = good;
    const std::size_t flips = 1 + pick(4);
    std::size_t first = good.size();
    for (std::size_t k = 0; k < flips; ++k) {
      const std::size_t at = pick(good.size());
      flipped[at] ^= static_cast<char>(1 + pick(255));
      first = std::min(first, at);
    }
    expect_prefix(flipped, whole_before(first));
    const std::size_t keep = ends[pick(ends.size())];
    std::string noisy = good.substr(0, keep);
    const std::size_t len = 1 + pick(256);
    for (std::size_t k = 0; k < len; ++k) {
      noisy.push_back(static_cast<char>(pick(256)));
    }
    expect_prefix(noisy, whole_before(keep));
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, FuzzSweep,
                         ::testing::Values(3u, 17u, 2026u));

}  // namespace
}  // namespace wiscape

