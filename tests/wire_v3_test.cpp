// Wire protocol v3 (ISSUE 9 tentpole): the length-prefixed binary codec,
// its hostile-input behaviour, and the server's opcode dispatch.
//
// Three layers of coverage:
//   * codec round trips -- every frame type travels bit-exact (doubles as
//     raw IEEE-754 bits: NaN payloads, denormals, -0.0 and u64 ids above
//     2^53 all survive), and the incremental ESTB builder emits the exact
//     bytes of the whole-batch encoder;
//   * hostile input -- truncation at every byte boundary, patched-length
//     frames cut mid-field, trailing bytes, undefined opcodes, and batch
//     counts that lie about the payload: always std::invalid_argument (or
//     a typed ERR through the server), never a crash, and never an
//     allocation sized by the attacker's declared count;
//   * server dispatch -- binary frames answer binary frames with the same
//     accounting as their text twins, reply opcodes sent as requests draw
//     ERR unsupported, non-finite timestamps are rejected at the same
//     coordinator seam as text non-finite timestamps, and a v2-capped
//     server (server_options::advertised_version) answers text identically --
//     the v1/v2 interop guarantee.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "proto/messages.h"
#include "proto/server.h"
#include "proto/wire_v3.h"
#include "test_util.h"

namespace wiscape::proto {
namespace {

const geo::lat_lon here = cellnet::anchors::madison;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t counter_value(const char* name) {
  return static_cast<std::uint64_t>(
      obs::registry::global().get_counter(name).value());
}

/// A record that populates every field with values a text codec would
/// mangle: non-representable decimals, a denormal, -0.0, an id over 2^53.
trace::measurement_record tricky_record() {
  trace::measurement_record r;
  r.time_s = 0.1;
  r.network = "NetB";
  r.pos = {43.0 + 1.0 / 3.0, -89.0 - 2.0 / 3.0};
  r.speed_mps = 5e-324;  // smallest denormal
  r.client_id = (1ull << 53) + 3;
  r.kind = trace::probe_kind::ping;
  r.success = true;
  r.throughput_bps = -0.0;
  r.loss_rate = 1e-9;
  r.jitter_s = 0.30000000000000004;
  r.rtt_s = 1.0 / 3.0;
  r.ping_sent = 10;
  r.ping_failures = 2;
  r.rssi_dbm = -101.75;
  r.device = "n95";
  return r;
}

/// Overwrites the u32 length field of a frame's header in place.
void patch_length(std::string& frame, std::uint32_t len) {
  for (int i = 0; i < 4; ++i) {
    frame[2 + i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
}

core::coordinator_config fast_epochs() {
  core::coordinator_config cfg;
  cfg.epochs.default_epoch_s = 120.0;
  cfg.default_samples_per_epoch = 10;
  return cfg;
}

struct server_fixture {
  cellnet::deployment dep = testing::tiny_deployment();
  geo::zone_grid grid{dep.proj(), 250.0};
  core::sharded_coordinator coord =
      testing::sync_coordinator(grid, dep.names(), fast_epochs(), 5);
  coordinator_server server;

  /// `advertised` caps HELLO negotiation (a construction-time option now:
  /// the interop fixtures build a v2-capped server instead of mutating a
  /// live one).
  explicit server_fixture(std::uint32_t advertised = wire_version)
      : server{coord, {.advertised_version = advertised}} {}

  /// Ingests enough reports over several epochs that estimates freeze and
  /// publish (same recipe as ProtoServerV2.QueryServesWhatTheViewServes).
  void publish_stream(const std::string& network, geo::lat_lon pos) {
    for (int i = 0; i < 400; ++i) {
      measurement_report rep;
      rep.client_id = 1;
      rep.record = testing::make_record(1000.0 + i * 2.0, network, pos,
                                        trace::probe_kind::udp_burst,
                                        2e6 * (1.0 + 0.01 * i));
      testing::reply_of(server,
                        testing::frame_of(v3::encode_report_frame, rep));
    }
  }
};

// ---- round trips ----------------------------------------------------------

TEST(WireV3Codec, ReportRoundTripBitExact) {
  measurement_report m;
  m.client_id = (1ull << 63) + 7;
  m.record = tricky_record();
  const std::string frame = testing::frame_of(v3::encode_report_frame, m);
  ASSERT_TRUE(v3::is_frame_start(frame));
  const auto hdr = v3::peek_header(frame);
  ASSERT_TRUE(hdr.has_value());
  EXPECT_EQ(hdr->op, v3::opcode::report);
  EXPECT_EQ(v3::frame_header_bytes + hdr->payload_len, frame.size());

  const measurement_report back = v3::decode_report_frame(frame);
  EXPECT_EQ(back.client_id, m.client_id);
  const trace::measurement_record& r = back.record;
  const trace::measurement_record& e = m.record;
  EXPECT_EQ(bits(r.time_s), bits(e.time_s));
  EXPECT_EQ(bits(r.pos.lat_deg), bits(e.pos.lat_deg));
  EXPECT_EQ(bits(r.pos.lon_deg), bits(e.pos.lon_deg));
  EXPECT_EQ(bits(r.speed_mps), bits(e.speed_mps));
  EXPECT_EQ(r.client_id, e.client_id);
  EXPECT_EQ(r.kind, e.kind);
  EXPECT_EQ(r.success, e.success);
  EXPECT_EQ(bits(r.throughput_bps), bits(e.throughput_bps));  // -0.0 kept
  EXPECT_EQ(bits(r.loss_rate), bits(e.loss_rate));
  EXPECT_EQ(bits(r.jitter_s), bits(e.jitter_s));
  EXPECT_EQ(bits(r.rtt_s), bits(e.rtt_s));
  EXPECT_EQ(r.ping_sent, e.ping_sent);
  EXPECT_EQ(r.ping_failures, e.ping_failures);
  EXPECT_EQ(bits(r.rssi_dbm), bits(e.rssi_dbm));
  EXPECT_EQ(r.network, e.network);
  EXPECT_EQ(r.device, e.device);
}

TEST(WireV3Codec, NanPayloadFloatsTravelAsRawBits) {
  // The codec itself carries NaN/Inf untouched (rejection is the
  // coordinator's seam, tested below against the server).
  measurement_report m;
  m.client_id = 1;
  m.record = tricky_record();
  m.record.time_s = std::numeric_limits<double>::quiet_NaN();
  m.record.rtt_s = std::numeric_limits<double>::infinity();
  const auto back =
      v3::decode_report_frame(testing::frame_of(v3::encode_report_frame, m));
  EXPECT_EQ(bits(back.record.time_s), bits(m.record.time_s));
  EXPECT_EQ(bits(back.record.rtt_s), bits(m.record.rtt_s));
}

TEST(WireV3Codec, ReportBatchRoundTrip) {
  std::vector<trace::measurement_record> recs;
  for (int i = 0; i < 5; ++i) {
    recs.push_back(tricky_record());
    recs.back().time_s = 100.0 + i;
    recs.back().network = i % 2 ? "NetB" : "NetC";
  }
  const auto back = testing::into<std::vector<trace::measurement_record>>(
      v3::decode_report_batch_frame_into, v3::encode_report_batch_frame(recs));
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(bits(back[i].time_s), bits(recs[i].time_s));
    EXPECT_EQ(back[i].network, recs[i].network);
    EXPECT_EQ(back[i].client_id, recs[i].client_id);
  }
}

TEST(WireV3Codec, QueryRoundTripBitExact) {
  query_request q;
  q.pos = {here.lat_deg + 1.0 / 3.0, here.lon_deg - 1.0 / 7.0};
  q.network = "NetC";
  q.metric = trace::metric::rtt_s;
  q.time_s = 12345.000000001;
  const auto back = v3::decode_query_frame(v3::encode_query_frame(q));
  EXPECT_EQ(bits(back.pos.lat_deg), bits(q.pos.lat_deg));
  EXPECT_EQ(bits(back.pos.lon_deg), bits(q.pos.lon_deg));
  EXPECT_EQ(back.network, q.network);
  EXPECT_EQ(back.metric, q.metric);
  EXPECT_EQ(bits(back.time_s), bits(q.time_s));

  std::vector<query_request> qs{q, q};
  qs[1].metric = trace::metric::loss_rate;
  qs[1].network = "NetB";
  const auto bb = testing::into<std::vector<query_request>>(
      v3::decode_query_batch_frame_into, v3::encode_query_batch_frame(qs));
  ASSERT_EQ(bb.size(), 2u);
  EXPECT_EQ(bb[1].metric, trace::metric::loss_rate);
  EXPECT_EQ(bb[1].network, "NetB");
}

TEST(WireV3Codec, AckFrames) {
  reply_buffer rb;
  v3::encode_ack_frame(rb);
  const v3::ack_frame single = v3::decode_ack_frame(rb.view());
  EXPECT_FALSE(single.batched);

  rb.clear();
  v3::encode_ack_frame(12345678901234ull, rb);
  const v3::ack_frame batch = v3::decode_ack_frame(rb.view());
  EXPECT_TRUE(batch.batched);
  EXPECT_EQ(batch.count, 12345678901234ull);
}

TEST(WireV3Codec, EstimateFramePresenceAndNone) {
  estimate_reply est;
  est.zone = {-3, 17};
  est.network = "NetB";
  est.metric = trace::metric::udp_throughput_bps;
  est.count = 42;
  est.mean = 1.0 / 3.0e6;
  est.stddev = 2.0 / 7.0;
  est.epoch_index = 9;
  est.staleness_s = 0.25;
  est.confidence = 0.875;

  reply_buffer rb;
  v3::encode_estimate_frame(est, rb);
  const auto back = v3::decode_estimate_frame(rb.view());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->zone.ix, -3);
  EXPECT_EQ(back->zone.iy, 17);
  EXPECT_EQ(back->network, "NetB");
  EXPECT_EQ(back->metric, est.metric);
  EXPECT_EQ(back->count, 42u);
  EXPECT_EQ(bits(back->mean), bits(est.mean));
  EXPECT_EQ(bits(back->stddev), bits(est.stddev));
  EXPECT_EQ(back->epoch_index, 9u);
  EXPECT_EQ(bits(back->staleness_s), bits(est.staleness_s));
  EXPECT_EQ(bits(back->confidence), bits(est.confidence));

  rb.clear();
  v3::encode_estimate_frame(std::nullopt, rb);
  EXPECT_FALSE(v3::decode_estimate_frame(rb.view()).has_value());
}

TEST(WireV3Codec, EstimateBatchBuilderMatchesWholeBatchEncoder) {
  estimate_reply est;
  est.zone = {1, 2};
  est.network = "NetC";
  est.count = 3;
  est.mean = 0.1;
  std::vector<std::optional<estimate_reply>> reps{est, std::nullopt, est};
  reps[2]->zone = {4, 5};

  // The whole-batch frame, assembled independently of the builder: the
  // estb header, the u32 count, then each element exactly as a single EST
  // frame carries it.
  std::string whole{static_cast<char>(v3::frame_magic),
                    static_cast<char>(v3::opcode::estb), 0, 0, 0, 0};
  whole.append(std::string_view("\x03\0\0\0", 4));
  for (const auto& r : reps) {
    reply_buffer one;
    v3::encode_estimate_frame(r, one);
    whole.append(one.view().substr(v3::frame_header_bytes));
  }
  patch_length(whole, static_cast<std::uint32_t>(whole.size() -
                                                 v3::frame_header_bytes));

  reply_buffer streamed;
  v3::estimate_batch_builder b(static_cast<std::uint32_t>(reps.size()),
                               streamed);
  for (const auto& r : reps) b.add(r);
  b.finish();
  EXPECT_EQ(whole, std::string(streamed.view()));

  const auto back = v3::decode_estimate_batch_frame(whole);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_TRUE(back[0].has_value());
  EXPECT_FALSE(back[1].has_value());
  ASSERT_TRUE(back[2].has_value());
  EXPECT_EQ(back[2]->zone.ix, 4);
}

TEST(WireV3Codec, ErrorFrameClipsDetailLikeTextEncoder) {
  reply_buffer rb;
  v3::encode_error_frame(err_code::parse, "bad field 'x'", rb);
  const v3::error_frame e = v3::decode_error_frame(rb.view());
  EXPECT_EQ(e.code, err_code::parse);
  EXPECT_EQ(e.detail, "bad field 'x'");

  const std::string long_detail(500, 'y');
  rb.clear();
  v3::encode_error_frame(err_code::overload, long_detail, rb);
  EXPECT_EQ(v3::decode_error_frame(rb.view()).detail,
            error_excerpt(long_detail));  // same 120-byte clip + "..."
}

// ---- hostile input --------------------------------------------------------

TEST(WireV3Codec, PeekHeaderRejectsShortMagicAndOpcode) {
  EXPECT_FALSE(v3::peek_header("").has_value());
  EXPECT_FALSE(v3::peek_header("\xB3\x01\x00\x00\x00").has_value());  // 5 bytes
  EXPECT_FALSE(v3::peek_header("ACK\n??").has_value());   // wrong magic
  std::string bad_op("\xB3\x00\x00\x00\x00\x00", 6);      // opcode 0
  EXPECT_FALSE(v3::peek_header(bad_op).has_value());
  bad_op[1] = '\x0e';  // one past promote (the replication opcodes' end)
  EXPECT_FALSE(v3::peek_header(bad_op).has_value());
  bad_op[1] = '\x08';
  ASSERT_TRUE(v3::peek_header(bad_op).has_value());
  EXPECT_EQ(v3::peek_header(bad_op)->op, v3::opcode::err);
  bad_op[1] = '\x0d';
  ASSERT_TRUE(v3::peek_header(bad_op).has_value());
  EXPECT_EQ(v3::peek_header(bad_op)->op, v3::opcode::promote);
}

TEST(WireV3Codec, TruncationAtEveryBoundaryThrowsNeverCrashes) {
  measurement_report m;
  m.client_id = 9;
  m.record = tricky_record();
  query_request q;
  q.pos = here;
  q.network = "NetB";
  std::vector<trace::measurement_record> recs{tricky_record(),
                                              tricky_record()};
  std::vector<query_request> qs{q, q};

  for (const std::string& frame :
       {testing::frame_of(v3::encode_report_frame, m),
        v3::encode_report_batch_frame(recs),
        v3::encode_query_frame(q), v3::encode_query_batch_frame(qs)}) {
    // Raw prefixes: the envelope check (declared vs present bytes) throws.
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      EXPECT_THROW((void)v3::decode_report_frame(frame.substr(0, cut)),
                   std::invalid_argument);
    }
    // Patched prefixes: the header honestly declares the short payload, so
    // the cut lands mid-field and the reader's underrun check throws.
    for (std::size_t cut = v3::frame_header_bytes; cut < frame.size();
         ++cut) {
      std::string t = frame.substr(0, cut);
      patch_length(t, static_cast<std::uint32_t>(cut - v3::frame_header_bytes));
      const auto op = v3::peek_header(t)->op;
      try {
        switch (op) {
          case v3::opcode::report: (void)v3::decode_report_frame(t); break;
          case v3::opcode::reportb:
            (void)testing::into<std::vector<trace::measurement_record>>(
                v3::decode_report_batch_frame_into, t);
            break;
          case v3::opcode::query: (void)v3::decode_query_frame(t); break;
          default:
            (void)testing::into<std::vector<query_request>>(
                v3::decode_query_batch_frame_into, t);
            break;
        }
        FAIL() << "patched truncation at " << cut << " decoded";
      } catch (const std::invalid_argument&) {
      }
    }
  }
}

TEST(WireV3Codec, TrailingBytesAfterPayloadRejected) {
  query_request q;
  q.pos = here;
  q.network = "NetB";
  std::string frame = v3::encode_query_frame(q);
  frame += '\x00';
  patch_length(frame, static_cast<std::uint32_t>(frame.size() -
                                                 v3::frame_header_bytes));
  EXPECT_THROW((void)v3::decode_query_frame(frame), std::invalid_argument);
}

TEST(WireV3Codec, HostileBatchCountCannotForceAllocation) {
  // A 10-byte reportb frame claiming max_report_batch records: the count
  // check compares the claim against the actual payload bytes before any
  // reserve, so the lie is caught with zero allocation.
  std::string frame("\xB3\x02\x04\x00\x00\x00", 6);
  const std::uint32_t count = max_report_batch;
  for (int i = 0; i < 4; ++i) {
    frame += static_cast<char>((count >> (8 * i)) & 0xff);
  }
  std::vector<trace::measurement_record> out;
  EXPECT_THROW(v3::decode_report_batch_frame_into(frame, out),
               std::invalid_argument);
  EXPECT_EQ(out.capacity(), 0u);

  // Over the protocol cap is refused outright, whatever the payload size.
  std::string over("\xB3\x04\x04\x00\x00\x00", 6);
  const std::uint32_t qcount = max_query_batch + 1;
  for (int i = 0; i < 4; ++i) {
    over += static_cast<char>((qcount >> (8 * i)) & 0xff);
  }
  std::vector<query_request> qout;
  EXPECT_THROW(v3::decode_query_batch_frame_into(over, qout),
               std::invalid_argument);
  EXPECT_EQ(qout.capacity(), 0u);
}

TEST(WireV3Codec, FieldRangeValidation) {
  measurement_report m;
  m.client_id = 1;
  m.record = tricky_record();
  std::string frame = testing::frame_of(v3::encode_report_frame, m);
  // kind byte sits right after time/lat/lon/speed (4 f64) + client (u64):
  // flip it past udp_uplink and the decoder must refuse.
  const std::size_t kind_at = v3::frame_header_bytes + 8 /*client*/ + 40;
  frame[kind_at] = '\x07';
  EXPECT_THROW((void)v3::decode_report_frame(frame), std::invalid_argument);
  frame[kind_at] = '\x02';
  frame[kind_at + 1] = '\x02';  // success flag must be 0/1
  EXPECT_THROW((void)v3::decode_report_frame(frame), std::invalid_argument);
}

// ---- server dispatch ------------------------------------------------------

TEST(WireV3Server, BinaryReportAcksAndIngests) {
  server_fixture fx;
  const std::uint64_t frames0 =
      counter_value(obs::names::kServerBinaryFrames);
  measurement_report m;
  m.client_id = 7;
  m.record = testing::make_record(100.0, "NetB", here,
                                  trace::probe_kind::udp_burst, 1e6);
  const std::string reply =
      testing::reply_of(fx.server,
                        testing::frame_of(v3::encode_report_frame, m));
  ASSERT_TRUE(v3::is_frame_start(reply));
  EXPECT_FALSE(v3::decode_ack_frame(reply).batched);
  EXPECT_EQ(fx.server.reports_received(), 1u);
  EXPECT_GT(fx.coord.status_of(fx.grid.zone_of(here)).open_epoch_samples, 0u);

  std::vector<trace::measurement_record> recs(3, m.record);
  const std::string breply =
      testing::reply_of(fx.server, v3::encode_report_batch_frame(recs));
  const v3::ack_frame ack = v3::decode_ack_frame(breply);
  EXPECT_TRUE(ack.batched);
  EXPECT_EQ(ack.count, 3u);
  EXPECT_EQ(fx.server.reports_received(), 4u);
  EXPECT_EQ(counter_value(obs::names::kServerBinaryFrames) - frames0, 2u);
}

TEST(WireV3Server, BinaryQueryMatchesTextBitExact) {
  server_fixture fx;
  fx.publish_stream("NetB", here);

  query_request q;
  q.pos = here;
  q.network = "NetB";
  q.metric = trace::metric::udp_throughput_bps;
  q.time_s = 2000.0;

  const std::string text = testing::reply_of(fx.server, encode(q));
  ASSERT_EQ(message_type(text), "EST") << text;
  const estimate_reply via_text = decode_estimate(text);

  const std::string bin =
      testing::reply_of(fx.server, v3::encode_query_frame(q));
  const auto via_bin = v3::decode_estimate_frame(bin);
  ASSERT_TRUE(via_bin.has_value());
  // The text path round-trips through %.17g (exact for doubles); the
  // binary path ships raw bits. Both must surface the same estimate.
  EXPECT_EQ(bits(via_bin->mean), bits(via_text.mean));
  EXPECT_EQ(bits(via_bin->stddev), bits(via_text.stddev));
  EXPECT_EQ(via_bin->count, via_text.count);
  EXPECT_EQ(via_bin->zone.ix, via_text.zone.ix);
  EXPECT_EQ(via_bin->zone.iy, via_text.zone.iy);
  EXPECT_EQ(via_bin->network, via_text.network);

  // An unpublished stream answers presence=0, the binary NONE.
  query_request miss = q;
  miss.network = "NetC";
  const auto none = v3::decode_estimate_frame(
      testing::reply_of(fx.server, v3::encode_query_frame(miss)));
  EXPECT_FALSE(none.has_value());
}

TEST(WireV3Server, BinaryQuerybPositionalWithGaps) {
  server_fixture fx;
  fx.publish_stream("NetB", here);

  query_request hit;
  hit.pos = here;
  hit.network = "NetB";
  hit.metric = trace::metric::udp_throughput_bps;
  hit.time_s = 3000.0;
  query_request miss = hit;
  miss.network = "NetC";
  std::vector<query_request> qs{miss, hit, miss};

  const std::string reply =
      testing::reply_of(fx.server, v3::encode_query_batch_frame(qs));
  const auto back = v3::decode_estimate_batch_frame(reply);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_FALSE(back[0].has_value());
  ASSERT_TRUE(back[1].has_value());
  EXPECT_EQ(back[1]->network, "NetB");
  EXPECT_FALSE(back[2].has_value());
}

TEST(WireV3Server, ReplyOpcodesAsRequestsDrawUnsupported) {
  server_fixture fx;
  reply_buffer rb;
  v3::encode_ack_frame(rb);
  const std::string ack(rb.view());
  rb.clear();
  v3::encode_estimate_frame(std::nullopt, rb);
  const std::string est(rb.view());
  rb.clear();
  v3::encode_error_frame(err_code::parse, "x", rb);
  const std::string err(rb.view());
  for (const std::string& req : {ack, est, err}) {
    const v3::error_frame e =
        v3::decode_error_frame(testing::reply_of(fx.server, req));
    EXPECT_EQ(e.code, err_code::unsupported) << e.detail;
  }
}

TEST(WireV3Server, MalformedBinaryFramesDrawTypedErrNeverCrash) {
  server_fixture fx;
  // Envelope lie: header declares more bytes than the frame carries.
  std::string lie("\xB3\x01\xff\x00\x00\x00", 6);
  EXPECT_EQ(v3::decode_error_frame(testing::reply_of(fx.server, lie)).code,
            err_code::parse);
  // Undefined opcode.
  std::string bad_op("\xB3\x1f\x00\x00\x00\x00", 6);
  EXPECT_EQ(v3::decode_error_frame(testing::reply_of(fx.server, bad_op)).code,
            err_code::parse);
  // Truncated payload mid-record, honestly declared.
  measurement_report m;
  m.client_id = 1;
  m.record = tricky_record();
  std::string cut = testing::frame_of(v3::encode_report_frame, m).substr(0, 40);
  patch_length(cut, static_cast<std::uint32_t>(cut.size() -
                                               v3::frame_header_bytes));
  EXPECT_EQ(v3::decode_error_frame(testing::reply_of(fx.server, cut)).code,
            err_code::parse);
}

TEST(WireV3Server, NonFiniteTimestampRejectedAtCoordinatorSeam) {
  server_fixture fx;
  const std::uint64_t rejected0 =
      counter_value(obs::names::kCoordReportsRejected);
  measurement_report m;
  m.client_id = 7;
  m.record = testing::make_record(100.0, "NetB", here,
                                  trace::probe_kind::udp_burst, 1e6);
  m.record.time_s = std::numeric_limits<double>::quiet_NaN();
  // Binary and text land at the same coordinator::report isfinite seam:
  // the wire accepts the frame (ACK), the record is rejected, not folded.
  const std::string bin_reply =
      testing::reply_of(fx.server,
                        testing::frame_of(v3::encode_report_frame, m));
  EXPECT_EQ(v3::peek_header(bin_reply)->op, v3::opcode::ack);
  m.record.time_s = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(v3::peek_header(
                testing::reply_of(
                    fx.server, testing::frame_of(v3::encode_report_frame, m)))
                ->op,
            v3::opcode::ack);
  EXPECT_EQ(counter_value(obs::names::kCoordReportsRejected) - rejected0, 2u);
  EXPECT_EQ(fx.coord.status_of(fx.grid.zone_of(here)).open_epoch_samples, 0u);
}

TEST(WireV3Server, HelloNegotiationCapsAtAdvertisedVersion) {
  server_fixture fx;
  EXPECT_EQ(decode_hello_reply(
                testing::reply_of(fx.server, encode(hello_request{})))
                .version,
            wire_version);
  hello_request old;
  old.version = 2;
  EXPECT_EQ(
      decode_hello_reply(testing::reply_of(fx.server, encode(old))).version,
      2u);

  // A v2-capped server (interop harness): v3 clients negotiate down to 2
  // and must fall back to text; the in-process handler still accepts
  // binary unconditionally (the TCP session is where the gate lives).
  server_fixture v2fx(2);
  EXPECT_EQ(decode_hello_reply(
                testing::reply_of(v2fx.server, encode(hello_request{})))
                .version,
            2u);
  measurement_report m;
  m.client_id = 7;
  m.record = testing::make_record(100.0, "NetB", here,
                                  trace::probe_kind::udp_burst, 1e6);
  EXPECT_EQ(v3::peek_header(
                testing::reply_of(
                    v2fx.server, testing::frame_of(v3::encode_report_frame, m)))
                ->op,
            v3::opcode::ack);
}

TEST(WireV3Server, TextRepliesByteIdenticalAcrossAdvertisedVersions) {
  // The v1/v2 interop guarantee: a text client cannot tell a v3 server
  // from a v2-capped one on any reply except HELLO's ver field. Identical
  // coordinators, identical text corpus, byte-compared replies.
  server_fixture v3srv;
  server_fixture v2srv(2);

  std::vector<std::string> corpus;
  checkin_request chk;
  chk.client_id = 5;
  chk.pos = here;
  chk.time_s = 50.0;
  chk.network_index = 0;
  chk.active_in_zone = 2;
  corpus.push_back(encode(chk));
  measurement_report m;
  m.client_id = 5;
  m.record = testing::make_record(60.0, "NetB", here,
                                  trace::probe_kind::ping, 0.12);
  corpus.push_back(encode(m));
  std::vector<trace::measurement_record> recs(4, m.record);
  corpus.push_back(encode_report_batch(recs));
  query_request q;
  q.pos = here;
  q.network = "NetB";
  q.metric = trace::metric::rtt_s;
  q.time_s = 70.0;
  corpus.push_back(encode(q));
  corpus.push_back(encode_query_batch(std::vector<query_request>{q, q}));
  corpus.push_back(encode(alerts_request{0, 16}));
  corpus.push_back("GARBAGE in, typed ERR out");
  corpus.push_back("REPORTB 2\nnot,csv");

  for (const std::string& req : corpus) {
    EXPECT_EQ(testing::reply_of(v3srv.server, req),
              testing::reply_of(v2srv.server, req))
        << "diverged on: " << req;
  }
}

}  // namespace
}  // namespace wiscape::proto
