// The server's one request entry point, handle(request_view, reply_buffer&).
// The golden corpus pins the exact reply bytes of every command family in
// both framings (plus malformed inputs), on a 1-shard synchronous server and
// on a 2-shard asynchronous one, together with each request's delta on the
// proto.server.* counters: a change that moves a single reply byte or
// counter tick, or answers differently with the shard count, fails here.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/sharded_coordinator.h"
#include "geo/projection.h"
#include "geo/zone_grid.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "proto/messages.h"
#include "proto/server.h"
#include "proto/wire_v3.h"
#include "test_util.h"
#include "trace/record.h"

namespace wiscape {
namespace {

namespace v3 = proto::v3;

struct corpus_fixture {
  geo::projection proj{geo::lat_lon{43.0, -89.4}};
  geo::zone_grid grid{proj, 250.0};
  core::sharded_coordinator coord;
  proto::coordinator_server server;

  static core::sharded_config cfg(std::size_t shards, bool synchronous) {
    core::sharded_config c;
    c.coordinator.epochs.default_epoch_s = 100.0;
    c.num_shards = shards;
    c.synchronous = synchronous;
    return c;
  }

  explicit corpus_fixture(std::size_t shards = 1, bool synchronous = true)
      : coord(grid, {"NetB"}, cfg(shards, synchronous), 1), server(coord) {
    // Publish one frozen epoch so QUERY draws an EST with real payload.
    std::vector<trace::measurement_record> recs;
    for (int i = 0; i < 12; ++i) {
      trace::measurement_record r;
      r.time_s = 10.0 * i;
      r.network = "NetB";
      r.pos = proj.to_lat_lon(geo::xy{120.0, 80.0});
      r.client_id = 3;
      r.kind = trace::probe_kind::tcp_download;
      r.success = true;
      r.throughput_bps = 2.0e6 + 1.0e4 * i;
      recs.push_back(r);
    }
    coord.report_batch(recs);
    coord.flush();
  }

  /// The golden corpus: every command family in both framings, plus
  /// malformed inputs, run in order against one coordinator.
  std::vector<std::string> corpus() const {
    trace::measurement_record rec;
    rec.time_s = 205.0;
    rec.network = "NetB";
    rec.pos = proj.to_lat_lon(geo::xy{120.0, 80.0});
    rec.client_id = 4;
    rec.kind = trace::probe_kind::ping;
    rec.success = true;
    rec.rtt_s = 0.031;
    rec.ping_sent = 10;
    const proto::measurement_report report{rec.client_id, rec};

    std::vector<trace::measurement_record> batch(2, rec);
    batch[0].time_s = 206.0;
    batch[1].time_s = 207.0;
    batch[1].rtt_s = 0.029;

    proto::query_request q;
    q.pos = rec.pos;
    q.network = "NetB";
    q.metric = trace::metric::tcp_throughput_bps;
    q.time_s = 210.0;
    proto::query_request unknown = q;
    unknown.network = "NoSuchNet";
    const std::vector<proto::query_request> queries{q, unknown};

    std::vector<std::string> reqs;
    reqs.push_back(proto::encode(report));
    reqs.push_back(proto::encode_report_batch(batch));
    reqs.push_back(proto::encode(q));
    reqs.push_back(proto::encode_query_batch(queries));
    reqs.push_back(proto::encode(proto::hello_request{2}));
    reqs.push_back(proto::encode(proto::alerts_request{0, 16}));
    // (STATS is deliberately absent: its reply embeds live counter values,
    // so repeated calls can never be byte-stable.)
    reqs.push_back("REPORTB 2\ngarbage");        // malformed text
    reqs.push_back("NOSUCH arg=1");              // unknown command
    reqs.push_back(testing::frame_of(v3::encode_report_frame, report));
    reqs.push_back(v3::encode_report_batch_frame(batch));
    reqs.push_back(v3::encode_query_frame(q));
    reqs.push_back(v3::encode_query_batch_frame(queries));
    reqs.push_back(v3::encode_epoch_pull_frame({0, 8}));  // unattached: ERR
    reqs.push_back(testing::frame_of(v3::encode_promote_frame));  // ditto
    std::string bad = v3::encode_query_frame(q);
    bad[1] = '\x7f';  // invalid opcode byte
    reqs.push_back(bad);
    proto::checkin_request checkin;
    checkin.client_id = 9;
    checkin.pos = rec.pos;
    checkin.time_s = 211.0;
    checkin.active_in_zone = 1;
    reqs.push_back(proto::encode(checkin));
    // Unattached: ERR.
    reqs.push_back(testing::frame_of(v3::encode_snapshot_req_frame, 0));
    reqs.push_back(testing::frame_of(v3::encode_epoch_batch_frame,
                                     std::span<const proto::epoch_update>()));
    proto::reply_buffer ack;
    v3::encode_ack_frame(ack);
    reqs.emplace_back(ack.view());  // a reply opcode sent as a request
    reqs.emplace_back();            // an empty text line
    // Envelopes whose declared payload length disagrees with the bytes.
    reqs.push_back(v3::encode_query_frame(q) + '\0');
    const std::string short_frame = v3::encode_query_frame(q);
    reqs.push_back(short_frame.substr(0, short_frame.size() - 1));
    return reqs;
  }
};

std::string hex(std::string_view bytes) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto u = static_cast<unsigned char>(c);
    out.push_back(digits[u >> 4]);
    out.push_back(digits[u & 0xf]);
  }
  return out;
}

// The corpus replies, positional with corpus(): text replies verbatim,
// binary reply frames as hex. Recorded once from a running server, not
// derived from the code under test; only an intended wire change may move
// them.
const std::vector<std::string_view>& golden_replies() {
  static const std::vector<std::string_view> replies{
      "ACK",
      "ACK 2",
      "EST zone=0:0 net=NetB metric=tcp_throughput count=10 mean=2045000 "
        "stddev=30276.503540974914 epoch=0 staleness_s=210 conf=0.100000000"
        "00000001",
      "ESTB 2\nEST zone=0:0 net=NetB metric=tcp_throughput count=10 mean="
        "2045000 stddev=30276.503540974914 epoch=0 staleness_s=210 conf=0.1"
        "0000000000000001\nNONE",
      "HELLO ver=2 min=1",
      "ALERTS 0 next=0 dropped=0",
      "ERR parse REPORTB record 0: bad CSV field time_s: 'garbage'",
      "ERR unsupported unsupported request: 'NOSUCH arg=1'",
      "b30509000000000000000000000000",
      "b30509000000010200000000000000",
      "b30640000000010000000000000000000a000000000000000000000048343f41dd"
        "ec033a2091dd4000000000000000000000000000406a409a9999999999b93f0400"
        "4e657442",
      "b3074500000002000000010000000000000000000a000000000000000000000048"
        "343f41ddec033a2091dd4000000000000000000000000000406a409a9999999999"
        "b93f04004e65744200",
      "b3081b0000000118007265706c69636174696f6e206e6f74206174746163686564",
      "b3081b0000000118007265706c69636174696f6e206e6f74206174746163686564",
      "b30822000000001f006d616c666f726d65642062696e617279206672616d652065"
        "6e76656c6f7065",
      "TASK kind=tcp net=0 tcp_bytes=0 udp_packets=0 ping_count=0",
      "b3081b0000000118007265706c69636174696f6e206e6f74206174746163686564",
      "b3081b0000000118007265706c69636174696f6e206e6f74206174746163686564",
      "b308260000000123007265706c79206f70636f6465202761636b27206973206e6f"
        "7420612072657175657374",
      "ERR unsupported unsupported request: ''",
      "b30822000000001f006d616c666f726d65642062696e617279206672616d652065"
        "6e76656c6f7065",
      "b30822000000001f006d616c666f726d65642062696e617279206672616d652065"
        "6e76656c6f7065"};
  return replies;
}

// The proto.server.* counters whose per-request deltas are pinned.
constexpr const char* kPinnedCounters[] = {
    obs::names::kServerLines,          obs::names::kServerBinaryFrames,
    obs::names::kServerCheckins,       obs::names::kServerReports,
    obs::names::kServerReportBatches,  obs::names::kServerQueries,
    obs::names::kServerQueryBatches,   obs::names::kServerHellos,
    obs::names::kServerAlertsRequests, obs::names::kServerErrParse,
    obs::names::kServerErrUnsupported, obs::names::kServerErrStopped,
    obs::names::kServerErrVersion,     obs::names::kServerErrInternal,
    obs::names::kServerErrOverload,    obs::names::kServerReplyBytes};

std::vector<std::uint64_t> pinned_counters() {
  std::vector<std::uint64_t> v;
  for (const char* name : kPinnedCounters) {
    v.push_back(obs::registry::global().get_counter(name).value());
  }
  return v;
}

/// "lines=1 reports=1 reply_bytes=3": every pinned counter that moved since
/// `before`, named without its "proto.server." prefix.
std::string counter_deltas(const std::vector<std::uint64_t>& before) {
  const std::vector<std::uint64_t> after = pinned_counters();
  std::string out;
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (after[i] == before[i]) continue;
    if (!out.empty()) out += ' ';
    out += std::string_view(kPinnedCounters[i]).substr(13);
    out += '=';
    out += std::to_string(after[i] - before[i]);
  }
  return out;
}

// The counter deltas of each corpus request, positional with corpus().
const std::vector<std::string_view>& golden_deltas() {
  static const std::vector<std::string_view> deltas{
      "lines=1 reports=1 reply_bytes=3",
      "lines=1 reports=2 report_batches=1 reply_bytes=5",
      "lines=1 queries=1 reply_bytes=140",
      "lines=1 queries=2 query_batches=1 reply_bytes=152",
      "lines=1 hellos=1 reply_bytes=17",
      "lines=1 alerts_requests=1 reply_bytes=25",
      "lines=1 err_parse=1 reply_bytes=59",
      "lines=1 err_unsupported=1 reply_bytes=51",
      "lines=1 binary_frames=1 reports=1 reply_bytes=15",
      "lines=1 binary_frames=1 reports=2 report_batches=1 reply_bytes=15",
      "lines=1 binary_frames=1 queries=1 reply_bytes=70",
      "lines=1 binary_frames=1 queries=2 query_batches=1 reply_bytes=75",
      "lines=1 binary_frames=1 err_unsupported=1 reply_bytes=33",
      "lines=1 binary_frames=1 err_unsupported=1 reply_bytes=33",
      "lines=1 binary_frames=1 err_parse=1 reply_bytes=40",
      "lines=1 checkins=1 reply_bytes=58",
      "lines=1 binary_frames=1 err_unsupported=1 reply_bytes=33",
      "lines=1 binary_frames=1 err_unsupported=1 reply_bytes=33",
      "lines=1 binary_frames=1 err_unsupported=1 reply_bytes=44",
      "lines=1 err_unsupported=1 reply_bytes=39",
      "lines=1 binary_frames=1 err_parse=1 reply_bytes=40",
      "lines=1 binary_frames=1 err_parse=1 reply_bytes=40"};
  return deltas;
}

void expect_golden(std::size_t shards, bool synchronous) {
  corpus_fixture fx(shards, synchronous);
  const std::vector<std::string> corpus = fx.corpus();
  ASSERT_EQ(corpus.size(), golden_replies().size());
  ASSERT_EQ(corpus.size(), golden_deltas().size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string& req = corpus[i];
    proto::reply_buffer out;
    const proto::request_view view = proto::request_view::detect(req);
    const std::vector<std::uint64_t> before = pinned_counters();
    fx.server.handle(view, out);
    const std::string deltas = counter_deltas(before);
    // An asynchronous coordinator ACKs before it applies: settle every
    // request so the next one reads the same state the 1-shard run does.
    fx.coord.flush();
    const bool binary = view.framing() == proto::request_view::kind::binary;
    EXPECT_EQ(binary ? hex(out.view()) : std::string(out.view()),
              golden_replies()[i])
        << "request " << i << ": " << (binary ? hex(req) : req);
    EXPECT_EQ(deltas, golden_deltas()[i])
        << "request " << i << ": " << (binary ? hex(req) : req);
  }
}

TEST(UnifiedHandle, GoldenRepliesOnOneSynchronousShard) {
  expect_golden(1, true);
}

TEST(UnifiedHandle, GoldenRepliesOnTwoAsynchronousShards) {
  expect_golden(2, false);
}

TEST(UnifiedHandle, DetectClassifiesByLeadingByte) {
  const proto::request_view text = proto::request_view::detect("QUERY x=1");
  EXPECT_EQ(text.framing(), proto::request_view::kind::text);
  EXPECT_EQ(text.bytes(), "QUERY x=1");

  const std::string frame = testing::frame_of(v3::encode_promote_frame);
  const proto::request_view bin = proto::request_view::detect(frame);
  EXPECT_EQ(bin.framing(), proto::request_view::kind::binary);
  EXPECT_EQ(bin.bytes(), frame);

  // An explicitly-classified view overrides detection: a session that
  // negotiated text framing can force a magic-leading line through the
  // text path.
  const std::string odd = "\xB3 looks binary but is text";
  EXPECT_EQ(proto::request_view::text(odd).framing(),
            proto::request_view::kind::text);
  EXPECT_EQ(proto::request_view::detect(odd).framing(),
            proto::request_view::kind::binary);
}

TEST(UnifiedHandle, AdvertisedVersionIsFixedAtConstruction) {
  corpus_fixture fx;
  // server_options replaced the set_advertised_version() mutable knob:
  // the advertised version is a construction-time property.
  proto::coordinator_server v2(fx.coord, {.advertised_version = 2});
  EXPECT_EQ(v2.advertised_version(), 2u);
  EXPECT_EQ(fx.server.advertised_version(), proto::wire_version);

  const std::string hello2 =
      testing::reply_of(v2, proto::encode(proto::hello_request{3}));
  EXPECT_NE(hello2.find("ver=2"), std::string::npos);
  const std::string hello3 =
      testing::reply_of(fx.server, proto::encode(proto::hello_request{3}));
  EXPECT_NE(hello3.find("ver=3"), std::string::npos);
}

}  // namespace
}  // namespace wiscape
