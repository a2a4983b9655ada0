// Replicated-coordinator tests (ISSUE 10): the epoch log, the five
// replication opcodes end-to-end through the unified server entry point,
// follower catch-up bit-equality, commutative + idempotent merges,
// promotion semantics, snapshot chunking, and the replica_lag fault.
//
// The TSan-targeted ReplStress suite at the bottom runs a leader and two
// followers under a concurrent ingest storm with a promotion mid-storm;
// tools/run_tsan.sh runs it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/persist.h"
#include "core/sharded_coordinator.h"
#include "core/zone_table.h"
#include "geo/projection.h"
#include "geo/zone_grid.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "proto/server.h"
#include "proto/wire_v3.h"
#include "repl/replica.h"
#include "scenario/injector.h"
#include "test_util.h"
#include "trace/record.h"

namespace wiscape {
namespace {

namespace v3 = proto::v3;

core::epoch_estimate make_est(double start, double mean, std::uint64_t n) {
  core::epoch_estimate e;
  e.epoch_start_s = start;
  e.mean = mean;
  e.stddev = mean / 10.0;
  e.samples = n;
  return e;
}

// ---- epoch log -------------------------------------------------------------

TEST(EpochLog, SequencesRecordsAndServesSuffixes) {
  repl::epoch_log log(/*capacity=*/4);
  const core::estimate_key k{{1, 2}, "NetB", trace::metric::rtt_s};
  for (int i = 1; i <= 6; ++i) {
    log.on_epoch(k, make_est(100.0 * i, 0.1 * i, 10));
  }
  EXPECT_EQ(log.last_seq(), 6u);
  EXPECT_EQ(log.base_seq(), 3u);  // 1 and 2 evicted past capacity

  std::vector<proto::epoch_update> out;
  // A cursor still inside the retained window pulls the suffix in order.
  ASSERT_TRUE(log.pull(2, 100, out));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.front().seq, 3u);
  EXPECT_EQ(out.back().seq, 6u);
  EXPECT_EQ(out.front().network, "NetB");
  // A cursor below the retained base means snapshot catch-up.
  out.clear();
  EXPECT_FALSE(log.pull(1, 100, out));
  // A drained cursor pulls an empty batch, successfully.
  out.clear();
  ASSERT_TRUE(log.pull(6, 100, out));
  EXPECT_TRUE(out.empty());
  // max caps the batch.
  out.clear();
  ASSERT_TRUE(log.pull(2, 2, out));
  EXPECT_EQ(out.size(), 2u);

  log.reset(10);
  EXPECT_EQ(log.last_seq(), 9u);
  EXPECT_EQ(log.base_seq(), 10u);
  log.on_epoch(k, make_est(700.0, 0.7, 10));
  EXPECT_EQ(log.last_seq(), 10u);
}

// ---- replication frame codecs ---------------------------------------------

TEST(WireV3Repl, EpochPullAndBatchRoundTrip) {
  const v3::epoch_pull p{77, 512};
  const std::string pf = v3::encode_epoch_pull_frame(p);
  const v3::epoch_pull back = v3::decode_epoch_pull_frame(pf);
  EXPECT_EQ(back.since_seq, 77u);
  EXPECT_EQ(back.max_records, 512u);

  std::vector<proto::epoch_update> ups(2);
  ups[0] = {1, {3, -2}, "NetB", trace::metric::udp_throughput_bps,
            300.0, 1.0e6 / 3.0, 123.456, 41};
  ups[1] = {2, {0, 5}, "NetC", trace::metric::rtt_s,
            600.0, 0.125, 0.0078125, 7};
  const std::string bf = testing::frame_of(v3::encode_epoch_batch_frame, ups);
  const auto rb = testing::into<std::vector<proto::epoch_update>>(
      v3::decode_epoch_batch_frame_into, bf);
  ASSERT_EQ(rb.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(rb[i].seq, ups[i].seq);
    EXPECT_EQ(rb[i].zone.ix, ups[i].zone.ix);
    EXPECT_EQ(rb[i].zone.iy, ups[i].zone.iy);
    EXPECT_EQ(rb[i].network, ups[i].network);
    EXPECT_EQ(rb[i].metric, ups[i].metric);
    // Raw IEEE-754 bits on the wire: bit-exact by construction.
    EXPECT_EQ(rb[i].epoch_start_s, ups[i].epoch_start_s);
    EXPECT_EQ(rb[i].mean, ups[i].mean);
    EXPECT_EQ(rb[i].stddev, ups[i].stddev);
    EXPECT_EQ(rb[i].samples, ups[i].samples);
  }
}

TEST(WireV3Repl, SnapshotAndPromoteFramesRoundTrip) {
  const std::string rf = testing::frame_of(v3::encode_snapshot_req_frame, 4096);
  EXPECT_EQ(v3::decode_snapshot_req_frame(rf), 4096u);

  proto::reply_buffer out;
  const std::string payload(100, 'x');
  v3::encode_snapshot_chunk_frame(32, 132, true, payload, out);
  const v3::snapshot_chunk c =
      v3::decode_snapshot_chunk_frame(out.view());
  EXPECT_EQ(c.offset, 32u);
  EXPECT_EQ(c.total, 132u);
  EXPECT_TRUE(c.last);
  EXPECT_EQ(c.data, payload);

  const std::string pf = testing::frame_of(v3::encode_promote_frame);
  EXPECT_NO_THROW(v3::decode_promote_frame(pf));
  // A PROMOTE with payload bytes is malformed.
  std::string bad = pf;
  bad[2] = 1;  // declare one payload byte
  bad += 'x';
  EXPECT_THROW(v3::decode_promote_frame(bad), std::invalid_argument);
}

// ---- leader/follower pair over the unified server entry -------------------

struct repl_pair {
  geo::projection proj{geo::lat_lon{43.0, -89.4}};
  geo::zone_grid grid{proj, 250.0};
  core::sharded_config scfg;
  core::sharded_coordinator lc;
  proto::coordinator_server lserver;
  repl::replica lead;
  core::sharded_coordinator fc;
  proto::coordinator_server fserver;
  repl::replica fol;
  repl::transport to_leader;

  static core::sharded_config sync_cfg() {
    core::sharded_config c;
    c.coordinator.epochs.default_epoch_s = 100.0;
    c.num_shards = 2;
    c.synchronous = true;
    return c;
  }

  explicit repl_pair(std::size_t log_capacity = repl::default_log_capacity)
      : scfg(sync_cfg()),
        lc(grid, {"NetB", "NetC"}, scfg, 1),
        lserver(lc),
        lead(lc, repl::role::leader, log_capacity),
        fc(grid, {"NetB", "NetC"}, scfg, 1),
        fserver(fc),
        fol(fc, repl::role::follower),
        to_leader([this](std::string_view f) {
          return testing::reply_of(lserver, f);
        }) {
    lserver.attach_replication(&lead);
    fserver.attach_replication(&fol);
  }

  /// Feeds `n` tcp_download records per epoch across epochs [first,
  /// epochs) of 100 s, rolling each epoch over as the next one's samples
  /// arrive.
  void ingest(double mean, int epochs, int n = 8, double x = 200.0,
              int first = 0) {
    std::vector<trace::measurement_record> recs;
    for (int e = first; e < epochs; ++e) {
      for (int i = 0; i < n; ++i) {
        trace::measurement_record r;
        r.time_s = 100.0 * e + 2.0 * i;
        r.network = "NetB";
        r.pos = proj.to_lat_lon(geo::xy{x, 100.0});
        r.client_id = 7;
        r.kind = trace::probe_kind::tcp_download;
        r.success = true;
        r.throughput_bps = mean + 1000.0 * i + 10.0 * e;
        recs.push_back(r);
      }
    }
    lc.report_batch(recs);
    lc.flush();
  }

  void expect_states_bit_equal() {
    const auto lk = lc.keys();
    auto fk = fc.keys();
    ASSERT_EQ(lk.size(), fk.size());
    for (const core::estimate_key& k : lk) {
      const auto lh = lc.history(k);
      const auto fh = fc.history(k);
      ASSERT_EQ(lh.size(), fh.size()) << k.network;
      for (std::size_t i = 0; i < lh.size(); ++i) {
        EXPECT_EQ(lh[i].epoch_start_s, fh[i].epoch_start_s);
        EXPECT_EQ(lh[i].mean, fh[i].mean);
        EXPECT_EQ(lh[i].stddev, fh[i].stddev);
        EXPECT_EQ(lh[i].samples, fh[i].samples);
      }
    }
  }
};

TEST(Replication, FollowerCatchUpAndPollTrackTheLeaderBitExactly) {
  repl_pair p;
  p.ingest(1.0e6, 3);  // epochs 0 and 1 freeze; epoch 2 stays open

  // A joiner catches up by snapshot, then rides the epoch stream.
  p.fol.catch_up(p.to_leader);
  ASSERT_TRUE(p.fol.poll(p.to_leader).has_value());
  p.expect_states_bit_equal();
  EXPECT_EQ(p.fol.applied_seq(), p.lead.log().last_seq());

  // More rollovers stream incrementally.
  p.ingest(2.0e6, 6);
  const auto applied = p.fol.poll(p.to_leader);
  ASSERT_TRUE(applied.has_value());
  EXPECT_GT(*applied, 0u);
  p.expect_states_bit_equal();
}

TEST(Replication, EpochbIsAlsoAnApplyRequestAndAcksTheCount) {
  repl_pair p;
  std::vector<proto::epoch_update> ups(2);
  ups[0] = {1, {4, 1}, "NetB", trace::metric::tcp_throughput_bps,
            0.0, 5.0e6, 1.0e5, 12};
  ups[1] = {2, {4, 1}, "NetB", trace::metric::tcp_throughput_bps,
            100.0, 6.0e6, 2.0e5, 9};
  const std::string reply =
      testing::reply_of(p.fserver,
                        testing::frame_of(v3::encode_epoch_batch_frame, ups));
  const auto hdr = v3::peek_header(reply);
  ASSERT_TRUE(hdr.has_value());
  ASSERT_EQ(hdr->op, v3::opcode::ack);
  EXPECT_EQ(v3::decode_ack_frame(reply).count, 2u);
  const auto latest = p.fc.latest(
      {{4, 1}, "NetB", trace::metric::tcp_throughput_bps});
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->mean, 6.0e6);
  // Re-sending the same batch is deduplicated by the cursor.
  const std::string again =
      testing::reply_of(p.fserver,
                        testing::frame_of(v3::encode_epoch_batch_frame, ups));
  EXPECT_EQ(v3::decode_ack_frame(again).count, 0u);
}

TEST(Replication, ReplicationOpcodesWithoutAnEndpointDrawErrUnsupported) {
  geo::projection proj(geo::lat_lon{43.0, -89.4});
  geo::zone_grid grid(proj, 250.0);
  core::sharded_coordinator coord(grid, {"NetB"}, {}, 1);
  proto::coordinator_server server(coord);  // nothing attached

  for (const std::string& frame :
       {v3::encode_epoch_pull_frame({0, 16}),
        testing::frame_of(v3::encode_epoch_batch_frame,
                          std::span<const proto::epoch_update>()),
        testing::frame_of(v3::encode_snapshot_req_frame, 0),
        testing::frame_of(v3::encode_promote_frame)}) {
    const std::string reply = testing::reply_of(server, frame);
    const auto hdr = v3::peek_header(reply);
    ASSERT_TRUE(hdr.has_value());
    ASSERT_EQ(hdr->op, v3::opcode::err);
    EXPECT_EQ(v3::decode_error_frame(reply).code,
              proto::err_code::unsupported);
  }
}

TEST(Replication, WirePromoteFlipsTheFollowerAndRefusesRepeats) {
  repl_pair p;
  p.ingest(1.0e6, 2);
  p.fol.catch_up(p.to_leader);
  ASSERT_TRUE(p.fol.poll(p.to_leader).has_value());
  const std::uint64_t cursor = p.fol.applied_seq();

  const std::string ok =
      testing::reply_of(p.fserver, testing::frame_of(v3::encode_promote_frame));
  ASSERT_EQ(v3::peek_header(ok)->op, v3::opcode::ack);
  EXPECT_TRUE(p.fol.promoted());
  // A second PROMOTE is refused, like promoting the leader itself.
  const std::string rep =
      testing::reply_of(p.fserver, testing::frame_of(v3::encode_promote_frame));
  EXPECT_EQ(v3::peek_header(rep)->op, v3::opcode::err);
  std::vector<proto::epoch_update> out;
  EXPECT_FALSE(p.lead.promote());

  // Post-promotion rollovers land in the follower's own log, continuing
  // the sequence numbering from the applied cursor -- a peer's pull
  // cursor stays valid across the failover.
  std::vector<trace::measurement_record> recs;
  for (int i = 0; i < 6; ++i) {
    trace::measurement_record r;
    r.time_s = 1000.0 + 20.0 * i;
    r.network = "NetB";
    r.pos = p.proj.to_lat_lon(geo::xy{200.0, 100.0});
    r.client_id = 9;
    r.kind = trace::probe_kind::tcp_download;
    r.success = true;
    r.throughput_bps = 3.0e6;
    recs.push_back(r);
  }
  p.fc.report_batch(recs);
  trace::measurement_record roll = recs.back();
  roll.time_s = 2000.0;  // crosses the epoch boundary: freezes the open one
  p.fc.report_batch({&roll, 1});
  p.fc.flush();
  out.clear();
  ASSERT_TRUE(p.fol.pull(cursor, 100, out));
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().seq, cursor + 1);
}

TEST(Replication, PromotedReplicaAppliesNoPushedEpochsAndALeaderRefusesPromote) {
  repl_pair p;
  p.ingest(1.0e6, 3);
  p.fol.catch_up(p.to_leader);
  ASSERT_TRUE(p.fol.poll(p.to_leader).has_value());
  const std::uint64_t cursor = p.fol.applied_seq();
  const std::string promoted = testing::reply_of(
      p.fserver, testing::frame_of(v3::encode_promote_frame));
  ASSERT_EQ(v3::peek_header(promoted)->op, v3::opcode::ack);

  // The old leader, unaware of the failover, pushes epochs past the
  // promoted replica's cursor: one for a stream it holds, one for a
  // stream it has never seen. A leading replica installs neither.
  const core::estimate_key held = p.fc.keys().front();
  const std::size_t held_epochs = p.fc.history(held).size();
  const core::estimate_key unseen{{9, 9}, "NetC", trace::metric::rtt_s};
  std::vector<proto::epoch_update> ups(2);
  ups[0] = {cursor + 1, held.zone, held.network, held.metric,
            5000.0,     7.0e6,     1.0e5,        12};
  ups[1] = {cursor + 2, unseen.zone, unseen.network, unseen.metric,
            5000.0,     0.25,        0.01,           4};
  auto& applied = obs::registry::global().get_counter(
      obs::names::kReplEpochsApplied);
  const std::uint64_t applied0 = applied.value();
  const std::string reply =
      testing::reply_of(p.fserver,
                        testing::frame_of(v3::encode_epoch_batch_frame, ups));
  ASSERT_EQ(v3::peek_header(reply)->op, v3::opcode::ack);
  EXPECT_EQ(v3::decode_ack_frame(reply).count, 0u);
  EXPECT_EQ(applied.value(), applied0);
  EXPECT_EQ(p.fol.applied_seq(), cursor);
  EXPECT_EQ(p.fc.history(held).size(), held_epochs);
  EXPECT_FALSE(p.fc.latest(unseen).has_value());

  // PROMOTE to a replica built leading is refused the same way.
  const std::string refused =
      testing::reply_of(p.lserver, testing::frame_of(v3::encode_promote_frame));
  ASSERT_EQ(v3::peek_header(refused)->op, v3::opcode::err);
  EXPECT_EQ(v3::decode_error_frame(refused).code,
            proto::err_code::unsupported);
  EXPECT_TRUE(p.lead.promoted());
}

TEST(Replication, SnapshotCatchUpStreamsInBoundedChunks) {
  repl_pair p;
  // Enough frozen history that the persist rendering crosses several
  // 16 KiB chunks.
  for (int z = 0; z < 40; ++z) {
    for (int e = 0; e < 10; ++e) {
      p.lc.restore_estimate(
          {{z, 3}, "NetB", trace::metric::udp_throughput_bps},
          make_est(100.0 * e, 1.0e6 + 13.0 * z + e, 21));
    }
  }
  auto& chunks = obs::registry::global().get_counter(
      obs::names::kReplSnapshotChunks);
  const std::uint64_t before = chunks.value();
  p.fol.catch_up(p.to_leader);
  EXPECT_GE(chunks.value() - before, 2u);
  p.expect_states_bit_equal();
}

TEST(Replication, SnapshotChunksCarryReplseqAndThePersistRendering) {
  repl_pair p;
  p.ingest(1.0e6, 3);
  for (int z = 0; z < 40; ++z) {
    p.lc.restore_estimate({{z, -3}, "NetC", trace::metric::rtt_s},
                          make_est(100.0 * z + 0.1, 1.0 / (z + 3.0), 7));
  }
  // The chunks reassemble to exactly "REPLSEQ <seq>\n" + save_state's
  // bytes (which persist_test.cpp pins to the %.17g rendering).
  std::ostringstream state;
  core::save_state(state, p.lc);
  const std::string want = "REPLSEQ " +
                           std::to_string(p.lead.log().last_seq()) + "\n" +
                           state.str();
  std::string got, data;
  std::uint64_t total = 0;
  bool last = false;
  while (!last) {
    ASSERT_TRUE(p.lead.snapshot(got.size(), data, total, last));
    ASSERT_LE(data.size(), proto::v3::max_snapshot_chunk);
    got += data;
  }
  EXPECT_EQ(total, want.size());
  EXPECT_EQ(got, want);
}

TEST(Replication, FailedSnapshotCaptureLeavesNoTornBodyToServe) {
  repl_pair p;
  p.ingest(1.0e6, 3);
  std::string data;
  std::uint64_t total = 0;
  bool last = false;
  ASSERT_TRUE(p.lead.snapshot(0, data, total, last));
  ASSERT_GT(total, 8u);
  {
    scenario::injector inj(1);
    inj.add_rule({core::fault::site::persist_save, 0, 1, 1.0,
                  core::fault::action::fail});
    scenario::arm_scope armed(inj);
    EXPECT_THROW(p.lead.snapshot(0, data, total, last), std::runtime_error);
  }
  // A follower still fetching the earlier capture is refused rather than
  // served the header of a capture that never finished.
  EXPECT_FALSE(p.lead.snapshot(8, data, total, last));
  ASSERT_TRUE(p.lead.snapshot(0, data, total, last));
  EXPECT_EQ(data.rfind("REPLSEQ ", 0), 0u);
}

TEST(Replication, CatchUpRejectsAMalformedReplseqHeader) {
  repl_pair p;
  for (const char* bad : {"REPLSEQ x\nWISCAPE-COORD v2\n",
                          "REPLSEQ 12 \nWISCAPE-COORD v2\n",
                          "REPLSEQ \nWISCAPE-COORD v2\n", "REPLSEQ 3"}) {
    const repl::transport send = [&](std::string_view) {
      proto::reply_buffer frame;
      proto::v3::encode_snapshot_chunk_frame(0, std::string_view(bad).size(),
                                             true, bad, frame);
      return std::string(frame.view());
    };
    EXPECT_THROW(p.fol.catch_up(send), std::runtime_error) << bad;
  }
  EXPECT_EQ(p.fol.applied_seq(), 0u);
}

TEST(Replication, ReplicaLagFaultSkipsThePollRound) {
  repl_pair p;
  p.ingest(1.0e6, 3);
  scenario::injector inj(1);
  inj.add_rule({core::fault::site::replica_lag, 0, 1, 1.0,
                core::fault::action::fail});
  scenario::arm_scope armed(inj);

  const auto skipped = p.fol.poll(p.to_leader);
  ASSERT_TRUE(skipped.has_value());
  EXPECT_EQ(*skipped, 0u);
  EXPECT_EQ(p.fol.applied_seq(), 0u);
  EXPECT_EQ(inj.fired(core::fault::site::replica_lag), 1u);
  // The budget is spent: the next round catches up fully.
  const auto applied = p.fol.poll(p.to_leader);
  ASSERT_TRUE(applied.has_value());
  EXPECT_GT(*applied, 0u);
  p.expect_states_bit_equal();
}

TEST(Replication, EvictedLogTellsTheFollowerToSnapshot) {
  geo::projection proj(geo::lat_lon{43.0, -89.4});
  geo::zone_grid grid(proj, 250.0);
  core::sharded_config scfg = repl_pair::sync_cfg();
  core::sharded_coordinator lc(grid, {"NetB"}, scfg, 1);
  proto::coordinator_server lserver(lc);
  repl::replica lead(lc, repl::role::leader, /*log_capacity=*/2);
  lserver.attach_replication(&lead);
  core::sharded_coordinator fc(grid, {"NetB"}, scfg, 1);
  repl::replica fol(fc, repl::role::follower);

  const core::estimate_key k{{2, 2}, "NetB", trace::metric::rtt_s};
  for (int i = 0; i < 6; ++i) {
    lc.restore_estimate(k, make_est(100.0 * i, 0.1, 5));
    lead.log().on_epoch(k, make_est(100.0 * i, 0.1, 5));
  }
  // The follower's cursor (0) fell below the ring's base: poll reports
  // the truncation instead of silently skipping epochs...
  const repl::transport t = [&](std::string_view f) {
    return testing::reply_of(lserver, f);
  };
  EXPECT_FALSE(fol.poll(t).has_value());
  // ...and catch-up (snapshot + fenced suffix) repairs it.
  fol.catch_up(t);
  ASSERT_TRUE(fol.poll(t).has_value());
  EXPECT_EQ(fc.history(k).size(), lc.history(k).size());
}

// ---- each frozen epoch lands once -------------------------------------------

TEST(Replication, CatchUpAfterFallingOffTheLogAppliesEachEpochOnce) {
  repl_pair p(/*log_capacity=*/2);
  // Epochs 0, 100 and 200 freeze; 200's jump in mean raises an alert.
  p.ingest(1.0e6, 2);
  p.ingest(2.0e6, 4, 8, 200.0, 2);
  p.fol.catch_up(p.to_leader);
  ASSERT_TRUE(p.fol.poll(p.to_leader).has_value());
  p.ingest(1.0e6, 9, 8, 200.0, 4);  // five more rollovers overrun the log
  EXPECT_FALSE(p.fol.poll(p.to_leader).has_value());
  // The snapshot repeats the epochs the follower already holds, and its
  // alert mark moved on while the follower raised none.
  p.fol.catch_up(p.to_leader);
  ASSERT_TRUE(p.fol.poll(p.to_leader).has_value());
  p.expect_states_bit_equal();
  EXPECT_EQ(testing::estimate_state(p.fc), testing::estimate_state(p.lc));
  EXPECT_GT(p.lc.alert_seq(), 1u);
  EXPECT_EQ(p.fc.alert_seq(), p.lc.alert_seq());
}

TEST(Replication, FollowerPromotedAfterAMidEpochCatchUpFreezesEachEpochOnce) {
  repl_pair p;
  const auto recs = testing::reports_at(
      p.proj.to_lat_lon(geo::xy{200.0, 100.0}),
      {10, 20, 30, 40, 50, 60, 70, 80, 110, 120, 130, 140, 200});
  const std::span<const trace::measurement_record> all(recs);
  // The uninterrupted run: epoch 0 with 8 samples, epoch 100 with 4.
  core::sharded_coordinator want(p.grid, {"NetB", "NetC"}, p.scfg, 1);
  want.report_batch(all);

  p.lc.report_batch(all.first(4));
  p.fol.catch_up(p.to_leader);  // the snapshot carries epoch 0 open
  p.lc.report_batch(all.subspan(4, 5));  // epoch 0 freezes; 100 opens
  ASSERT_TRUE(p.fol.poll(p.to_leader).has_value());
  ASSERT_TRUE(p.fol.promote());
  // The leader dies with epoch 100 open. Clients re-submit the reports
  // ACKed since the catch-up whose epoch the follower has not frozen.
  p.fc.report_batch(all.subspan(8));
  EXPECT_EQ(testing::estimate_state(p.fc), testing::estimate_state(want));
}

// ---- commutative + idempotent merges ---------------------------------------

TEST(ZoneTableMerge, DisjointFeedsMergeCommutatively) {
  const core::estimate_key k{{1, 1}, "NetB", trace::metric::loss_rate};
  const core::epoch_estimate a = make_est(300.0, 0.02, 17);
  const core::epoch_estimate b = make_est(300.0, 0.05, 4);

  core::zone_table ab(2.0);
  ab.merge_estimate(k, a, 300.0);
  ab.merge_estimate(k, b, 300.0);
  core::zone_table ba(2.0);
  ba.merge_estimate(k, b, 300.0);
  ba.merge_estimate(k, a, 300.0);

  const auto ra = ab.latest(k);
  const auto rb = ba.latest(k);
  ASSERT_TRUE(ra && rb);
  EXPECT_EQ(ra->mean, rb->mean);
  EXPECT_EQ(ra->stddev, rb->stddev);
  EXPECT_EQ(ra->samples, a.samples + b.samples);
  EXPECT_EQ(rb->samples, a.samples + b.samples);
}

TEST(ZoneTableMerge, BitIdenticalReApplyIsIdempotent) {
  // The snapshot/pull overlap during live catch-up re-delivers the same
  // frozen epoch; re-applying it must be a no-op, not a double-count.
  const core::estimate_key k{{1, 1}, "NetB", trace::metric::jitter_s};
  const core::epoch_estimate e = make_est(600.0, 0.004, 25);
  core::zone_table t(2.0);
  // First delivery inserts a fresh epoch (merge_estimate reports false:
  // nothing combined); the bit-identical re-delivery is absorbed as a
  // merge-with-self no-op (reports true).
  ASSERT_FALSE(t.merge_estimate(k, e, 300.0));
  ASSERT_TRUE(t.merge_estimate(k, e, 300.0));
  const auto latest = t.latest(k);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->samples, 25u);
  EXPECT_EQ(latest->mean, e.mean);
  EXPECT_EQ(latest->stddev, e.stddev);
  EXPECT_EQ(t.history(k).size(), 1u);
}

// ---- TSan-targeted stress: leader + two followers, promotion mid-storm ----

TEST(ReplStress, PromotionMidStorm) {
  geo::projection proj(geo::lat_lon{43.0, -89.4});
  geo::zone_grid grid(proj, 250.0);
  core::sharded_config scfg;
  scfg.coordinator.epochs.default_epoch_s = 60.0;  // rollovers every ~2 batches
  scfg.num_shards = 4;  // asynchronous: drain workers race the pullers
  core::sharded_coordinator lc(grid, {"NetB", "NetC"}, scfg, 1);
  proto::coordinator_server lserver(lc);
  repl::replica lead(lc, repl::role::leader);
  lserver.attach_replication(&lead);

  core::sharded_coordinator f1c(grid, {"NetB", "NetC"}, scfg, 1);
  proto::coordinator_server f1server(f1c);
  repl::replica f1(f1c, repl::role::follower);
  f1server.attach_replication(&f1);
  core::sharded_coordinator f2c(grid, {"NetB", "NetC"}, scfg, 1);
  proto::coordinator_server f2server(f2c);
  repl::replica f2(f2c, repl::role::follower);
  f2server.attach_replication(&f2);

  const repl::transport to_leader = [&](std::string_view f) {
    return testing::reply_of(lserver, f);
  };

  std::atomic<bool> stop{false};
  // Ingest storm: binary REPORTB frames through the leader's unified
  // entry point while both followers sync.
  std::thread writer([&] {
    double t = 0.0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<trace::measurement_record> recs;
      for (int i = 0; i < 16; ++i) {
        trace::measurement_record r;
        r.time_s = t + i;
        r.network = i % 2 == 0 ? "NetB" : "NetC";
        r.pos = proj.to_lat_lon(
            geo::xy{100.0 * (i % 5), 150.0 * (i % 3)});
        r.client_id = 100 + i;
        r.kind = trace::probe_kind::tcp_download;
        r.success = true;
        r.throughput_bps = 1.0e6 + 1000.0 * i;
        recs.push_back(r);
      }
      (void)testing::reply_of(lserver, v3::encode_report_batch_frame(recs));
      t += 40.0;  // rollovers fire continuously under the storm
    }
  });
  auto puller = [&](repl::replica& f) {
    f.catch_up(to_leader);
    // Poll until real records have flowed -- the writer needs wall time
    // to cross epoch boundaries -- but stay bounded so a broken feed
    // still terminates (the applied_seq assertions below then fail).
    for (int round = 0; round < 200000 && f.applied_seq() < 200; ++round) {
      if (!f.poll(to_leader).has_value()) f.catch_up(to_leader);
      if (round % 16 == 0) std::this_thread::yield();
    }
  };
  std::thread p1(puller, std::ref(f1));
  std::thread p2(puller, std::ref(f2));
  p1.join();
  // Promotion mid-storm, through the wire path, while p2 still pulls.
  const std::string reply =
      testing::reply_of(f1server, testing::frame_of(v3::encode_promote_frame));
  EXPECT_EQ(v3::peek_header(reply)->op, v3::opcode::ack);
  p2.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  lc.flush();
  EXPECT_TRUE(f1.promoted());
  EXPECT_FALSE(f2.promoted());
  EXPECT_GT(f1.applied_seq(), 0u);
  EXPECT_GT(f2.applied_seq(), 0u);
  // Both followers hold a prefix-consistent mirror: every stream they
  // know, the leader knows, with at least as much history.
  for (const core::estimate_key& k : f2c.keys()) {
    EXPECT_GE(lc.history(k).size(), f2c.history(k).size());
  }
}

}  // namespace
}  // namespace wiscape
