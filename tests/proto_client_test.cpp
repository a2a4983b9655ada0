// proto::client against a 1-shard synchronous coordinator_server: every
// method, in each framing it supports, sends exactly the bytes the codec's
// encoders produce and returns the decoded reply; every ERR comes back as a
// reply_error carrying its code; and a device agent never hands back a
// report the coordinator refused.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fault_injection.h"
#include "probe/engine.h"
#include "proto/client.h"
#include "proto/messages.h"
#include "proto/server.h"
#include "proto/wire_v3.h"
#include "repl/replica.h"
#include "test_util.h"

namespace wiscape::proto {
namespace {

/// A coordinator behind the server and a transport that records every
/// request and reply crossing it.
struct recorded_server {
  cellnet::deployment dep = testing::tiny_deployment();
  geo::zone_grid grid{dep.proj(), 250.0};
  core::sharded_coordinator coord;
  coordinator_server server;
  std::vector<std::pair<std::string, std::string>> wire;

  static core::coordinator_config fast_epochs() {
    core::coordinator_config cfg;
    cfg.epochs.default_epoch_s = 120.0;
    return cfg;
  }

  recorded_server()
      : coord(testing::sync_coordinator(grid, dep.names(), fast_epochs(), 5)),
        server(coord) {}

  transport send() {
    return [this](std::string_view req) {
      std::string reply = testing::reply_of(server, req);
      wire.emplace_back(std::string(req), reply);
      return reply;
    };
  }
  const std::string& last_request() const { return wire.back().first; }
  const std::string& last_reply() const { return wire.back().second; }

  geo::lat_lon center() const { return dep.proj().to_lat_lon({0.0, 0.0}); }

  /// Enough ping reports at center() over several 120 s epochs that its
  /// rtt stream publishes an estimate.
  std::vector<trace::measurement_record> pings(int n = 300) const {
    std::vector<trace::measurement_record> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(testing::make_record(1000.0 + i * 2.0, dep.names()[0],
                                         center(), trace::probe_kind::ping,
                                         0.08 + 0.001 * (i % 7)));
      out.back().client_id = 1;
    }
    return out;
  }

  query_request rtt_query() const {
    query_request q;
    q.pos = center();
    q.network = dep.names()[0];
    q.metric = trace::metric::rtt_s;
    q.time_s = 1700.0;
    return q;
  }
};

/// Fails every server_handle seam while installed.
struct refuse_every_request final : core::fault::hook {
  core::fault::action on(core::fault::site s) noexcept override {
    return s == core::fault::site::server_handle ? core::fault::action::fail
                                                 : core::fault::action::proceed;
  }
};

template <typename Fn>
err_code code_of(Fn&& fn) {
  try {
    std::forward<Fn>(fn)();
  } catch (const reply_error& e) {
    return e.code();
  }
  ADD_FAILURE() << "no reply_error raised";
  return err_code::internal;
}

TEST(ProtoClient, TextRequestsMatchTheEncodersAndDecodeTheirReplies) {
  recorded_server s;
  client c(s.send());

  const hello_reply hello = c.hello(2);
  EXPECT_EQ(s.last_request(), encode(hello_request{2}));
  EXPECT_EQ(hello.version, 2u);
  EXPECT_EQ(hello.min_version, wire_min_version);

  checkin_request chk;
  chk.client_id = 7;
  chk.pos = s.center();
  chk.time_s = 900.0;
  chk.active_in_zone = 1;
  const auto task = c.checkin(chk);
  EXPECT_EQ(s.last_request(), encode(chk));
  ASSERT_EQ(task.has_value(), message_type(s.last_reply()) == "TASK");
  if (task) {
    EXPECT_EQ(encode(*task), s.last_reply());
  }

  const auto recs = s.pings();
  const measurement_report first{1, recs.front()};
  c.report(first);
  EXPECT_EQ(s.last_request(), encode(first));
  EXPECT_EQ(s.server.reports_received(), 1u);

  const auto rest = std::span(recs).subspan(1);
  EXPECT_EQ(c.report_batch(rest), rest.size());
  EXPECT_EQ(s.last_request(), encode_report_batch(rest));
  EXPECT_EQ(s.server.reports_received(), recs.size());

  const query_request q = s.rtt_query();
  const auto est = c.query(q);
  EXPECT_EQ(s.last_request(), encode(q));
  ASSERT_TRUE(est.has_value());
  EXPECT_EQ(encode(*est), s.last_reply());

  query_request miss = q;
  miss.network = s.dep.names()[1];
  EXPECT_FALSE(c.query(miss).has_value());
  EXPECT_EQ(s.last_reply(), "NONE");

  const std::vector<query_request> qs{q, miss, q};
  const auto batch = c.query_batch(qs);
  EXPECT_EQ(s.last_request(), encode_query_batch(qs));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[0].has_value());
  EXPECT_FALSE(batch[1].has_value());
  EXPECT_EQ(encode(*batch[2]), encode(*est));

  const alerts_reply alerts = c.alerts(0, 16);
  EXPECT_EQ(s.last_request(), encode(alerts_request{0, 16}));
  EXPECT_EQ(encode(alerts), s.last_reply());
}

TEST(ProtoClient, V3RequestsMatchTheFrameEncodersAndDecodeTheirReplies) {
  recorded_server s;
  client c(s.send(), client::framing::v3);

  // The control commands stay text on a v3 client.
  EXPECT_EQ(c.hello().version, wire_version);
  EXPECT_EQ(s.last_request(), encode(hello_request{}));
  checkin_request chk;
  chk.pos = s.center();
  (void)c.checkin(chk);
  EXPECT_EQ(s.last_request(), encode(chk));

  const auto recs = s.pings();
  const measurement_report first{1, recs.front()};
  c.report(first);
  EXPECT_EQ(s.last_request(),
            testing::frame_of(v3::encode_report_frame, first));
  EXPECT_FALSE(v3::decode_ack_frame(s.last_reply()).batched);

  const auto rest = std::span(recs).subspan(1);
  EXPECT_EQ(c.report_batch(rest), rest.size());
  EXPECT_EQ(s.last_request(), v3::encode_report_batch_frame(rest));
  EXPECT_EQ(s.server.reports_received(), recs.size());

  const query_request q = s.rtt_query();
  const auto est = c.query(q);
  EXPECT_EQ(s.last_request(), v3::encode_query_frame(q));
  ASSERT_TRUE(est.has_value());
  const auto want = v3::decode_estimate_frame(s.last_reply());
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(encode(*est), encode(*want));

  const std::vector<query_request> qs{q, q};
  const auto batch = c.query_batch(qs);
  EXPECT_EQ(s.last_request(), v3::encode_query_batch_frame(qs));
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[1].has_value());
  EXPECT_EQ(encode(*batch[1]), encode(*est));

  (void)c.alerts(3);
  EXPECT_EQ(s.last_request(), encode(alerts_request{3, 256}));
}

TEST(ProtoClient, ReplicationRequestsAreV3FramesInEitherFraming) {
  recorded_server lead_side;
  repl::replica lead(lead_side.coord, repl::role::leader);
  lead_side.server.attach_replication(&lead);
  lead_side.coord.report_batch(lead_side.pings());
  lead_side.coord.flush();
  ASSERT_GT(lead.log().last_seq(), 0u);

  for (const client::framing f : {client::framing::text, client::framing::v3}) {
    client c(lead_side.send(), f);
    const auto updates = c.pull(0, 2);
    EXPECT_EQ(lead_side.last_request(), v3::encode_epoch_pull_frame({0, 2}));
    const auto want = testing::into<std::vector<epoch_update>>(
        v3::decode_epoch_batch_frame_into, lead_side.last_reply());
    ASSERT_EQ(updates.size(), want.size());
    ASSERT_EQ(updates.size(), 2u);
    EXPECT_EQ(updates[1].seq, want[1].seq);
    EXPECT_EQ(updates[1].mean, want[1].mean);

    const v3::snapshot_chunk chunk = c.snapshot(0);
    EXPECT_EQ(lead_side.last_request(),
              testing::frame_of(v3::encode_snapshot_req_frame, 0));
    EXPECT_EQ(chunk.offset, 0u);
    EXPECT_GT(chunk.total, 0u);
    EXPECT_EQ(chunk.data.substr(0, 8), "REPLSEQ ");
  }

  recorded_server follow_side;
  repl::replica fol(follow_side.coord, repl::role::follower);
  follow_side.server.attach_replication(&fol);
  client c(follow_side.send());
  c.promote();
  EXPECT_EQ(follow_side.last_request(),
            testing::frame_of(v3::encode_promote_frame));
  EXPECT_TRUE(fol.promoted());
  // Promotion is one-shot: the second PROMOTE is refused.
  EXPECT_EQ(code_of([&] { c.promote(); }), err_code::unsupported);
}

TEST(ProtoClient, EveryErrRaisesReplyErrorWithItsCode) {
  for (const client::framing f : {client::framing::text, client::framing::v3}) {
    SCOPED_TRACE(f == client::framing::v3 ? "v3" : "text");
    recorded_server s;
    client c(s.send(), f);

    // parse: a QUERYB frame over the protocol cap fails to decode.
    const std::vector<query_request> too_many(max_query_batch + 1,
                                              s.rtt_query());
    EXPECT_EQ(code_of([&] { (void)c.query_batch(too_many); }),
              err_code::parse);
    // version: an offer below the supported minimum.
    EXPECT_EQ(code_of([&] { (void)c.hello(0); }), err_code::version);
    // unsupported: no replication endpoint attached.
    try {
      (void)c.pull(0, 8);
      ADD_FAILURE() << "pull without replication succeeded";
    } catch (const reply_error& e) {
      EXPECT_EQ(e.code(), err_code::unsupported);
      EXPECT_EQ(e.detail(), "replication not attached");
      EXPECT_EQ(std::string(e.what()),
                "ERR unsupported replication not attached");
    }
    EXPECT_EQ(code_of([&] { (void)c.snapshot(0); }), err_code::unsupported);
    EXPECT_EQ(code_of([&] { c.promote(); }), err_code::unsupported);
    // internal: an armed server_handle fault refuses before dispatch.
    {
      refuse_every_request refuse;
      core::fault::hook* prev = core::fault::install(&refuse);
      const auto rec = s.pings(1).front();
      const err_code report_code =
          code_of([&] { c.report(measurement_report{1, rec}); });
      const err_code checkin_code =
          code_of([&] { (void)c.checkin(checkin_request{}); });
      core::fault::install(prev);
      EXPECT_EQ(report_code, err_code::internal);
      EXPECT_EQ(checkin_code, err_code::internal);
    }
    // stopped: the ingestion pipeline refuses reports.
    s.coord.stop();
    const auto recs = s.pings(3);
    EXPECT_EQ(code_of([&] { c.report(measurement_report{1, recs[0]}); }),
              err_code::stopped);
    EXPECT_EQ(code_of([&] { (void)c.report_batch(recs); }),
              err_code::stopped);
    EXPECT_EQ(s.server.reports_received(), 0u);
  }
}

TEST(ProtoClient, UnexpectedRepliesAreNotReplyErrors) {
  std::string canned;
  client c([&](std::string_view) { return canned; });
  // A reply of the wrong type is a protocol violation, not a refusal.
  canned = "ACK";
  EXPECT_THROW((void)c.query(query_request{}), std::runtime_error);
  try {
    (void)c.alerts(0);
  } catch (const reply_error&) {
    ADD_FAILURE() << "a non-ERR reply raised reply_error";
  } catch (const std::runtime_error&) {
  }
  // An ERR code token this build does not know reads as internal.
  canned = "ERR from_the_future detail words";
  try {
    (void)c.hello();
    ADD_FAILURE() << "ERR reply accepted";
  } catch (const reply_error& e) {
    EXPECT_EQ(e.code(), err_code::internal);
    EXPECT_EQ(e.detail(), "detail words");
  }
}

TEST(ProtoClient, RemoteAgentNeverHandsBackARefusedReport) {
  // With the ingestion pipeline stopped the coordinator still tasks, but
  // refuses every REPORT: step() must surface the refusal instead of
  // returning a record the coordinator never took.
  recorded_server s;
  probe::probe_engine engine(s.dep, 8);
  remote_agent agent(engine, s.send(), 101);
  s.coord.stop();
  int refused = 0;
  for (int i = 0; i < 60; ++i) {
    const mobility::gps_fix fix{s.center(), 0.0, 8.0 * 3600 + i * 30.0};
    std::optional<trace::measurement_record> got;
    try {
      got = agent.step(fix, 0, 1);
    } catch (const reply_error& e) {
      EXPECT_EQ(e.code(), err_code::stopped);
      ++refused;
    }
    EXPECT_FALSE(got.has_value()) << "step " << i << " reported a refusal";
  }
  EXPECT_GT(refused, 0);
  EXPECT_EQ(s.server.reports_received(), 0u);
}

}  // namespace
}  // namespace wiscape::proto
