#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <thread>

#include "obs/names.h"
#include "obs/registry.h"
#include "proto/client.h"
#include "proto/messages.h"
#include "proto/server.h"
#include "test_util.h"

namespace wiscape::proto {
namespace {

const geo::lat_lon here = cellnet::anchors::madison;

// Parses a STATS wire reply ("STATS <n>" + n "name value" lines) into a
// name -> value map. The obs registry is process-wide, so tests assert on
// deltas between two dumps rather than absolute values.
std::map<std::string, double> parse_stats(const std::string& reply) {
  std::istringstream in(reply);
  std::string tag;
  std::size_t n = 0;
  in >> tag >> n;
  EXPECT_EQ(tag, "STATS");
  std::map<std::string, double> out;
  std::string name;
  double value = 0.0;
  while (in >> name >> value) out[name] = value;
  EXPECT_EQ(out.size(), n);
  return out;
}

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  const auto b = before.find(name);
  const auto a = after.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

TEST(ProtoCodec, CheckinRoundTrip) {
  checkin_request m;
  m.client_id = 42;
  m.pos = here;
  m.time_s = 1234.567;
  m.network_index = 2;
  m.active_in_zone = 7;
  m.device = "phone";
  const auto back = decode_checkin(encode(m));
  EXPECT_EQ(back.client_id, 42u);
  EXPECT_NEAR(back.pos.lat_deg, here.lat_deg, 1e-6);
  EXPECT_NEAR(back.time_s, 1234.567, 1e-3);
  EXPECT_EQ(back.network_index, 2u);
  EXPECT_EQ(back.active_in_zone, 7u);
  EXPECT_EQ(back.device, "phone");
}

TEST(ProtoCodec, TaskRoundTripAllKinds) {
  for (auto kind : {trace::probe_kind::tcp_download, trace::probe_kind::udp_burst,
                    trace::probe_kind::ping, trace::probe_kind::udp_uplink}) {
    task_assignment m;
    m.kind = kind;
    m.network_index = 1;
    m.tcp_bytes = 500'000;
    m.udp_packets = 80;
    m.ping_count = 12;
    const auto back = decode_task(encode(m));
    EXPECT_EQ(back.kind, kind);
    EXPECT_EQ(back.network_index, 1u);
    EXPECT_EQ(back.tcp_bytes, 500'000u);
    EXPECT_EQ(back.udp_packets, 80u);
    EXPECT_EQ(back.ping_count, 12u);
  }
}

TEST(ProtoCodec, ReportRoundTripCarriesRecord) {
  measurement_report m;
  m.client_id = 9;
  m.record = testing::make_record(99.0, "NetB", here,
                                  trace::probe_kind::udp_burst, 1.25e6);
  m.record.jitter_s = 0.004;
  const auto back = decode_report(encode(m));
  EXPECT_EQ(back.client_id, 9u);
  EXPECT_EQ(back.record.network, "NetB");
  EXPECT_NEAR(back.record.throughput_bps, 1.25e6, 1.0);
  EXPECT_NEAR(back.record.jitter_s, 0.004, 1e-6);
}

TEST(ProtoCodec, MessageTypeTagging) {
  EXPECT_EQ(message_type(encode(checkin_request{})), "CHECKIN");
  EXPECT_EQ(message_type(encode(task_assignment{})), "TASK");
  EXPECT_EQ(message_type("IDLE"), "IDLE");
  EXPECT_EQ(message_type("garbage line"), "");
}

TEST(ProtoCodec, FrameHeaderCountsRefuseRequestsAndClampReplies) {
  const auto request = [](std::string_view h) {
    return frame_extra_lines(h, frame_side::request);
  };
  const auto reply = [](std::string_view h) {
    return frame_extra_lines(h, frame_side::reply);
  };
  // Both sides read "<TAG> <count>" the same way.
  EXPECT_EQ(request("REPORTB 3"), 3u);
  EXPECT_EQ(request("QUERYB\t2\r"), 2u);
  EXPECT_EQ(request("REPORTB 3 trailing"), 3u);  // the decoder's problem
  EXPECT_EQ(reply("ESTB 2"), 2u);
  EXPECT_EQ(reply("ALERTS 4 next=9 dropped=0"), 4u);
  EXPECT_EQ(reply("STATS 7"), 7u);
  // A tag opens a frame only on its own side.
  EXPECT_EQ(request("ESTB 2"), 0u);
  EXPECT_EQ(request("ALERTS since=0 max=4"), 0u);
  EXPECT_EQ(reply("REPORTB 3"), 0u);
  EXPECT_EQ(request("REPORT client=1 csv=x"), 0u);
  EXPECT_EQ(reply("ACK 2"), 0u);
  // Requests refuse a missing, malformed or over-cap count...
  for (const std::string_view bad :
       {"REPORTB", "REPORTB ", "REPORTB x", "QUERYB -1",
        "REPORTB 99999999999999999999999", "QUERYB 4097",
        "REPORTB 65537"}) {
    EXPECT_EQ(request(bad), bad_frame_count) << bad;
  }
  EXPECT_EQ(request("QUERYB 4096"), max_query_batch);
  EXPECT_EQ(request("REPORTB 65536"), max_report_batch);
  // ...while replies answer 0 for a malformed header and clamp to the cap.
  for (const std::string_view bad : {"ESTB", "ESTB ", "ESTB x", "ALERTS -1"}) {
    EXPECT_EQ(reply(bad), 0u) << bad;
  }
  EXPECT_EQ(reply("ESTB 99999"), max_query_batch);
  EXPECT_EQ(reply("ALERTS 5000 next=1 dropped=0"), max_alert_batch);
}

TEST(ProtoCodec, RejectsMalformedInput) {
  EXPECT_THROW(decode_checkin("TASK kind=udp"), std::invalid_argument);
  EXPECT_THROW(decode_checkin("CHECKIN client=1"), std::invalid_argument);
  EXPECT_THROW(decode_checkin("CHECKIN client=x lat=1 lon=1 t=1 net=0 "
                              "active=1 device=laptop"),
               std::invalid_argument);
  EXPECT_THROW(decode_task("TASK kind=warp net=0 tcp_bytes=0 udp_packets=0 "
                           "ping_count=0"),
               std::invalid_argument);
  EXPECT_THROW(decode_report("REPORT client=1"), std::invalid_argument);
  EXPECT_THROW(decode_report("REPORT client=abc csv=x"),
               std::invalid_argument);
}

TEST(ProtoServer, CheckinYieldsTaskOrIdleAndReportAcks) {
  const auto dep = testing::tiny_deployment();
  geo::zone_grid grid(dep.proj(), 250.0);
  core::coordinator_config cfg;
  cfg.default_samples_per_epoch = 3;
  auto coord = testing::sync_coordinator(grid, dep.names(), cfg, 5);
  coordinator_server server(coord);

  checkin_request req;
  req.client_id = 1;
  req.pos = dep.proj().to_lat_lon({100.0, 100.0});
  req.time_s = 1000.0;
  req.network_index = 0;
  req.active_in_zone = 1;

  int tasks = 0;
  for (int i = 0; i < 30; ++i) {
    req.time_s += 10.0;
    const std::string reply = testing::reply_of(server, encode(req));
    const auto type = message_type(reply);
    ASSERT_TRUE(type == "TASK" || type == "IDLE") << reply;
    if (type != "TASK") continue;
    ++tasks;
    // Report a matching fake measurement back.
    measurement_report rep;
    rep.client_id = 1;
    rep.record = testing::make_record(req.time_s, dep.names()[0], req.pos,
                                      decode_task(reply).kind, 1e6);
    EXPECT_EQ(testing::reply_of(server, encode(rep)), "ACK");
  }
  EXPECT_GT(tasks, 0);
  EXPECT_EQ(server.tasks_issued(), static_cast<std::uint64_t>(tasks));
  EXPECT_EQ(server.reports_received(), static_cast<std::uint64_t>(tasks));
  // The coordinator actually ingested the reports.
  EXPECT_GT(coord.status_of(grid.zone_of(req.pos)).open_epoch_samples, 0u);
}

TEST(ProtoServer, AnswersUnknownRequestsWithErr) {
  const auto dep = testing::tiny_deployment();
  auto coord = testing::sync_coordinator(geo::zone_grid(dep.proj(), 250.0),
                                         dep.names(), {}, 5);
  coordinator_server server(coord);
  EXPECT_EQ(message_type(testing::reply_of(server, "HELLO")), "ERR");
  EXPECT_EQ(message_type(testing::reply_of(server, "IDLE")), "ERR");
  EXPECT_EQ(server.errors(), 2u);
}

TEST(ProtoServer, MapsMalformedLinesToErrReplies) {
  // Regression: handle() used to propagate std::invalid_argument out of the
  // decoder; a line-protocol server must answer every request, so malformed
  // CHECKIN/REPORT lines come back as "ERR <reason>" instead.
  const auto dep = testing::tiny_deployment();
  auto coord = testing::sync_coordinator(geo::zone_grid(dep.proj(), 250.0),
                                         dep.names(), {}, 5);
  coordinator_server server(coord);

  for (const std::string bad : {
           "CHECKIN client=1",                               // missing fields
           "CHECKIN client=x lat=1 lon=1 t=1 net=0 active=1 device=laptop",
           "CHECKIN client=1 lat=bogus lon=1 t=1 net=0 active=1 device=a",
           "REPORT client=1",                                // missing csv
           "REPORT client=abc csv=x",                        // bad client id
       }) {
    const std::string reply = testing::reply_of(server, bad);
    EXPECT_EQ(message_type(reply), "ERR") << bad << " -> " << reply;
    EXPECT_GT(reply.size(), 4u) << "ERR reply should carry a reason";
  }
  EXPECT_EQ(server.errors(), 5u);
  // Nothing malformed was counted as real traffic.
  EXPECT_EQ(server.reports_received(), 0u);
  EXPECT_EQ(server.tasks_issued(), 0u);
  // The server still works after the garbage.
  checkin_request req;
  req.pos = dep.proj().to_lat_lon({0.0, 0.0});
  req.time_s = 100.0;
  const auto type = message_type(testing::reply_of(server, encode(req)));
  EXPECT_TRUE(type == "TASK" || type == "IDLE");
}

TEST(ProtoServer, ExtremeReportFieldsAreContained) {
  // Regression (review of ISSUE 4): REPORT carries unvalidated doubles and a
  // free-form network name; absurd coordinates (zone outside the store's
  // packed cell range) must not throw through the server. The record is
  // rejected inside the coordinator and the line still gets its ACK.
  const auto dep = testing::tiny_deployment();
  auto coord = testing::sync_coordinator(geo::zone_grid(dep.proj(), 250.0),
                                         dep.names(), {}, 5);
  coordinator_server server(coord);

  measurement_report rep;
  rep.client_id = 1;
  rep.record = testing::make_record(10.0, dep.names()[0],
                                    geo::lat_lon{5e8, -5e8},
                                    trace::probe_kind::udp_burst, 1e6);
  EXPECT_EQ(testing::reply_of(server, encode(rep)), "ACK");
  EXPECT_EQ(server.errors(), 0u);
  // Nothing landed in the table, and the server still answers.
  EXPECT_TRUE(coord.keys().empty());
  rep.record = testing::make_record(20.0, dep.names()[0],
                                    dep.proj().to_lat_lon({0.0, 0.0}),
                                    trace::probe_kind::udp_burst, 1e6);
  EXPECT_EQ(testing::reply_of(server, encode(rep)), "ACK");
  EXPECT_EQ(coord.keys().empty(), false);
}

TEST(ProtoCodec, MetricRoundTripAllValues) {
  // Enum growth must not silently desync client and server: every metric
  // round-trips through its wire string.
  for (const trace::metric m :
       {trace::metric::tcp_throughput_bps, trace::metric::udp_throughput_bps,
        trace::metric::loss_rate, trace::metric::jitter_s,
        trace::metric::rtt_s, trace::metric::uplink_throughput_bps}) {
    const std::string wire = trace::to_string(m);
    EXPECT_FALSE(wire.empty());
    EXPECT_EQ(trace::metric_from_string(wire), m);
  }
  EXPECT_THROW(trace::metric_from_string("no_such_metric"),
               std::invalid_argument);
}

TEST(ProtoCodec, ProbeKindRoundTripAllValues) {
  for (const trace::probe_kind k :
       {trace::probe_kind::tcp_download, trace::probe_kind::udp_burst,
        trace::probe_kind::ping, trace::probe_kind::udp_uplink}) {
    const std::string wire = trace::to_string(k);
    EXPECT_FALSE(wire.empty());
    EXPECT_EQ(trace::probe_kind_from_string(wire), k);
  }
  EXPECT_THROW(trace::probe_kind_from_string("warp"), std::invalid_argument);
}

TEST(ProtoServer, ConcurrentModeServesShardedCoordinator) {
  const auto dep = testing::tiny_deployment();
  geo::zone_grid grid(dep.proj(), 250.0);
  core::sharded_config cfg;
  cfg.coordinator.default_samples_per_epoch = 3;
  cfg.num_shards = 2;
  core::sharded_coordinator coord(grid, dep.names(), cfg, 5);
  coordinator_server server(coord);

  checkin_request req;
  req.client_id = 1;
  req.pos = dep.proj().to_lat_lon({100.0, 100.0});
  req.time_s = 1000.0;
  int tasks = 0;
  for (int i = 0; i < 30; ++i) {
    req.time_s += 10.0;
    const std::string reply = testing::reply_of(server, encode(req));
    const auto type = message_type(reply);
    ASSERT_TRUE(type == "TASK" || type == "IDLE") << reply;
    if (type != "TASK") continue;
    ++tasks;
    measurement_report rep;
    rep.client_id = 1;
    rep.record = testing::make_record(req.time_s, dep.names()[0], req.pos,
                                      decode_task(reply).kind, 1e6);
    EXPECT_EQ(testing::reply_of(server, encode(rep)), "ACK");
  }
  EXPECT_GT(tasks, 0);
  coord.flush();
  EXPECT_EQ(server.tasks_issued(), static_cast<std::uint64_t>(tasks));
  EXPECT_EQ(coord.reports_ingested(), static_cast<std::uint64_t>(tasks));
  EXPECT_GT(coord.status_of(grid.zone_of(req.pos)).open_epoch_samples, 0u);
}

TEST(ProtoEndToEnd, RemoteAgentDrivesFullLoop) {
  // The whole Sec 3.4 loop over the wire: remote agents check in through a
  // string transport, execute real probes, and report back; the coordinator
  // accumulates estimates exactly as with in-process agents.
  const auto dep = testing::tiny_deployment();
  probe::probe_engine engine(dep, 8);
  geo::zone_grid grid(dep.proj(), 250.0);
  core::coordinator_config cfg;
  cfg.default_samples_per_epoch = 5;
  cfg.epochs.default_epoch_s = 300.0;
  auto coord = testing::sync_coordinator(grid, dep.names(), cfg, 5);
  coordinator_server server(coord);

  const transport send = [&server](std::string_view line) {
    return testing::reply_of(server, line);
  };
  remote_agent agent_b(engine, send, 101);
  remote_agent agent_phone(engine, send, 102, probe::phone_device());

  const geo::lat_lon loc = dep.proj().to_lat_lon({150.0, -150.0});
  int ran = 0;
  for (int i = 0; i < 120; ++i) {
    const mobility::gps_fix fix{loc, 0.0, 8.0 * 3600 + i * 30.0};
    if (const auto rec = agent_b.step(fix, 0, 2)) {
      ++ran;
      EXPECT_EQ(rec->device, "laptop");
    }
    if (const auto rec = agent_phone.step(fix, 1, 2)) {
      ++ran;
      EXPECT_EQ(rec->device, "phone");
    }
  }
  EXPECT_GT(ran, 5);
  EXPECT_EQ(server.reports_received(), static_cast<std::uint64_t>(ran));

  // Estimates were published under both networks.
  int published = 0;
  for (const auto& key : coord.keys()) {
    published += coord.latest(key).has_value() ? 1 : 0;
  }
  EXPECT_GT(published, 0);
}

TEST(ProtoServer, ReportBatchAcksAndIngests) {
  // REPORTB against one synchronous shard: one frame, n records, one
  // "ACK <n>" reply, all ingested exactly as n single REPORTs would be.
  const auto dep = testing::tiny_deployment();
  geo::zone_grid grid(dep.proj(), 250.0);
  auto coord = testing::sync_coordinator(grid, dep.names(), {}, 5);
  coordinator_server server(coord);
  const auto before = parse_stats(testing::reply_of(server, "STATS"));

  const geo::lat_lon pos = dep.proj().to_lat_lon({50.0, 50.0});
  std::vector<trace::measurement_record> recs;
  for (int i = 0; i < 25; ++i) {
    recs.push_back(testing::make_record(1000.0 + i * 10.0, dep.names()[0],
                                        pos, trace::probe_kind::udp_burst,
                                        1e6));
  }
  EXPECT_EQ(testing::reply_of(server, encode_report_batch(recs)), "ACK 25");
  EXPECT_EQ(server.reports_received(), 25u);
  EXPECT_GT(coord.status_of(grid.zone_of(pos)).open_epoch_samples, 0u);

  const auto after = parse_stats(testing::reply_of(server, "STATS"));
  using namespace obs::names;
  EXPECT_EQ(delta(before, after, kServerReports), 25.0);
  EXPECT_EQ(delta(before, after, kServerReportBatches), 1.0);
  EXPECT_EQ(delta(before, after, kCoordReportsAccepted), 25.0);
  EXPECT_EQ(delta(before, after,
                  std::string(kServerBatchLatency) + ".count"),
            1.0);
  // lines = the one REPORTB frame + the closing STATS itself.
  EXPECT_EQ(delta(before, after, kServerLines), 2.0);
}

TEST(ProtoServer, ReportBatchIsAllOrNothingOnBadRecord) {
  const auto dep = testing::tiny_deployment();
  geo::zone_grid grid(dep.proj(), 250.0);
  auto coord = testing::sync_coordinator(grid, dep.names(), {}, 5);
  coordinator_server server(coord);

  const geo::lat_lon pos = dep.proj().to_lat_lon({50.0, 50.0});
  std::vector<trace::measurement_record> recs;
  for (int i = 0; i < 3; ++i) {
    recs.push_back(testing::make_record(1000.0 + i, dep.names()[0], pos,
                                        trace::probe_kind::udp_burst, 1e6));
  }
  std::string frame = encode_report_batch(recs);
  frame += "\nnot,a,valid,record";  // 4th line breaks the declared count
  EXPECT_EQ(message_type(testing::reply_of(server, frame)), "ERR");
  EXPECT_EQ(server.reports_received(), 0u);
  EXPECT_EQ(coord.status_of(grid.zone_of(pos)).open_epoch_samples, 0u);
  EXPECT_EQ(server.errors(), 1u);
}

TEST(ProtoServer, ReportBatchFlowsThroughShardedPipeline) {
  // REPORTB against the 2-shard concurrent server: the batch is routed per
  // shard and drained; after flush the tables saw every record.
  const auto dep = testing::tiny_deployment();
  geo::zone_grid grid(dep.proj(), 250.0);
  core::sharded_config cfg;
  cfg.coordinator.epochs.default_epoch_s = 120.0;
  cfg.num_shards = 2;
  core::sharded_coordinator coord(grid, dep.names(), cfg, 5);
  coordinator_server server(coord);
  const auto before = parse_stats(testing::reply_of(server, "STATS"));

  stats::rng_stream rng(7);
  constexpr int kFrames = 8;
  constexpr int kPerFrame = 40;
  for (int f = 0; f < kFrames; ++f) {
    std::vector<trace::measurement_record> recs;
    for (int i = 0; i < kPerFrame; ++i) {
      recs.push_back(testing::make_record(
          1000.0 + f * 100.0 + i, dep.names()[0],
          dep.proj().to_lat_lon({250.0 * rng.uniform_int(-2, 2),
                                 250.0 * rng.uniform_int(-2, 2)}),
          trace::probe_kind::udp_burst, 1e6));
    }
    EXPECT_EQ(testing::reply_of(server, encode_report_batch(recs)),
              "ACK " + std::to_string(kPerFrame));
  }
  coord.flush();
  constexpr std::uint64_t kTotal = kFrames * kPerFrame;
  EXPECT_EQ(server.reports_received(), kTotal);
  EXPECT_EQ(coord.reports_received(), kTotal);
  EXPECT_EQ(coord.reports_ingested(), kTotal);

  const auto after = parse_stats(testing::reply_of(server, "STATS"));
  using namespace obs::names;
  EXPECT_EQ(delta(before, after, kServerReports), double(kTotal));
  EXPECT_EQ(delta(before, after, kServerReportBatches), double(kFrames));
  EXPECT_EQ(delta(before, after, kShardedRoutedTotal), double(kTotal));
  EXPECT_EQ(delta(before, after, kCoordReportsAccepted), double(kTotal));

  // Stopped pipeline refuses the whole frame.
  coord.stop();
  std::vector<trace::measurement_record> one{testing::make_record(
      9000.0, dep.names()[0], dep.proj().to_lat_lon({0.0, 0.0}),
      trace::probe_kind::udp_burst, 1e6)};
  EXPECT_EQ(
      message_type(testing::reply_of(server, encode_report_batch(one))),
      "ERR");
}

TEST(ProtoServer, LongGarbageLineEchoIsClipped) {
  // A multi-megabyte garbage line must not be reflected verbatim into the
  // ERR reply (or the obs error path).
  const auto dep = testing::tiny_deployment();
  auto coord = testing::sync_coordinator(geo::zone_grid(dep.proj(), 250.0),
                                         dep.names(), {}, 5);
  coordinator_server server(coord);

  const std::string garbage = "NOISE " + std::string(4 << 20, 'x');
  const std::string reply = testing::reply_of(server, garbage);
  EXPECT_EQ(message_type(reply), "ERR");
  EXPECT_LT(reply.size(), 256u) << "ERR reply must clip the echoed line";

  const std::string bad_checkin =
      "CHECKIN client=1 lat=" + std::string(1 << 20, '9') +
      " lon=1 t=1 net=0 active=1 device=a";
  const std::string reply2 = testing::reply_of(server, bad_checkin);
  EXPECT_EQ(message_type(reply2), "ERR");
  EXPECT_LT(reply2.size(), 256u);
}

TEST(ProtoServer, StatsReflectsReportsAndErrLines) {
  // Regression for the STATS command: a known sequence of ACKed reports and
  // ERR replies must show up, exactly counted, in the metrics dump.
  const auto dep = testing::tiny_deployment();
  geo::zone_grid grid(dep.proj(), 250.0);
  auto coord = testing::sync_coordinator(grid, dep.names(), {}, 5);
  coordinator_server server(coord);

  const auto before = parse_stats(testing::reply_of(server, "STATS"));

  constexpr int kGood = 7;
  constexpr int kMalformed = 3;
  const geo::lat_lon pos = dep.proj().to_lat_lon({50.0, 50.0});
  for (int i = 0; i < kGood; ++i) {
    measurement_report rep;
    rep.client_id = 1;
    rep.record = testing::make_record(1000.0 + i * 10.0, dep.names()[0], pos,
                                      trace::probe_kind::udp_burst, 1e6);
    ASSERT_EQ(testing::reply_of(server, encode(rep)), "ACK");
  }
  for (int i = 0; i < kMalformed; ++i) {
    ASSERT_EQ(message_type(testing::reply_of(server, "REPORT client=1")),
              "ERR");
  }
  // v2 note: "HELLO there" is now a recognised-but-malformed HELLO (parse
  // error); a genuinely unknown verb is what counts as unsupported.
  ASSERT_EQ(message_type(testing::reply_of(server, "BOGUS there")), "ERR");

  const auto after = parse_stats(testing::reply_of(server, "STATS"));
  using namespace obs::names;
  EXPECT_EQ(delta(before, after, kServerReports), kGood);
  EXPECT_EQ(delta(before, after, kServerErrParse), kMalformed);
  EXPECT_EQ(delta(before, after, kServerErrUnsupported), 1.0);
  // lines = good + malformed + unsupported + the closing STATS itself.
  EXPECT_EQ(delta(before, after, kServerLines), kGood + kMalformed + 1 + 1);
  EXPECT_EQ(delta(before, after, kServerStats), 1.0);
  // The coordinator layer saw exactly the successful records.
  EXPECT_EQ(delta(before, after, kCoordReportsAccepted), kGood);
  EXPECT_EQ(delta(before, after, kCoordReportsRejected), 0.0);
  // Per-command latency histograms observed each ACKed report.
  EXPECT_EQ(delta(before, after,
                  std::string(kServerReportLatency) + ".count"),
            kGood + kMalformed);
}

TEST(ProtoServer, StatsAccountsForAllReportsInShardedStress) {
  // Acceptance check from ISSUE 2: after a multi-producer run against a
  // 4-shard pipeline, the STATS dump must account for 100% of submitted
  // lines: drained (applied to shard tables) + still queued + rejected.
  const auto dep = testing::tiny_deployment();
  geo::zone_grid grid(dep.proj(), 250.0);
  core::sharded_config cfg;
  cfg.coordinator.epochs.default_epoch_s = 120.0;
  cfg.num_shards = 4;
  core::sharded_coordinator coord(grid, dep.names(), cfg, 5);
  coordinator_server server(coord);
  const auto before = parse_stats(testing::reply_of(server, "STATS"));

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  constexpr int kMalformedEvery = 10;  // every 10th line is garbage
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      stats::rng_stream rng(100 + p);
      for (int i = 0; i < kPerProducer; ++i) {
        if (i % kMalformedEvery == 0) {
          EXPECT_EQ(
              message_type(testing::reply_of(server, "REPORT client=oops")),
              "ERR");
          continue;
        }
        measurement_report rep;
        rep.client_id = p + 1;
        rep.record = testing::make_record(
            1000.0 + i, dep.names()[0],
            dep.proj().to_lat_lon({250.0 * rng.uniform_int(-2, 2),
                                   250.0 * rng.uniform_int(-2, 2)}),
            trace::probe_kind::udp_burst, 1e6);
        EXPECT_EQ(testing::reply_of(server, encode(rep)), "ACK");
      }
    });
  }
  for (auto& th : producers) th.join();
  coord.flush();

  const auto after = parse_stats(testing::reply_of(server, "STATS"));
  using namespace obs::names;
  constexpr double kSubmitted = kProducers * kPerProducer;
  const double rejected = delta(before, after, kServerErrParse);
  const double routed = delta(before, after, kShardedRoutedTotal);
  const double queued = delta(before, after, kQueueEnqueued) -
                        delta(before, after, kQueueDequeued);
  double drained = 0.0;
  for (int s = 0; s < 4; ++s) {
    drained += delta(before, after,
                     std::string(kShardPrefix) + std::to_string(s) +
                         "." + kShardDrainedSuffix);
  }
  EXPECT_EQ(rejected, kProducers * (kPerProducer / kMalformedEvery));
  EXPECT_EQ(routed, kSubmitted - rejected);
  // 100% accounting: every submitted line is drained, queued or rejected.
  EXPECT_EQ(drained + queued + rejected, kSubmitted);
  EXPECT_EQ(queued, 0.0);  // flushed
  // The server and pipeline layers agree with each other.
  EXPECT_EQ(delta(before, after, kServerReports), routed);
  EXPECT_EQ(delta(before, after, kCoordReportsAccepted), drained);
  // Work actually went through the batched drain path.
  EXPECT_GE(delta(before, after, kShardedDrainBatches), 4.0);
  EXPECT_EQ(delta(before, after,
                  std::string(kShardedDrainLatency) + ".count"),
            delta(before, after, kShardedDrainBatches));
}

// ---------------------------------------------------------------------------
// Wire protocol v2: the read side (QUERY/QUERYB/ALERTS/HELLO) + typed errors.
// ---------------------------------------------------------------------------

TEST(ProtoCodecV2, HelloRoundTripAndNegotiation) {
  hello_request req;
  req.version = 7;
  EXPECT_EQ(decode_hello(encode(req)).version, 7u);

  hello_reply rep;
  rep.version = 2;
  rep.min_version = 1;
  const auto back = decode_hello_reply(encode(rep));
  EXPECT_EQ(back.version, 2u);
  EXPECT_EQ(back.min_version, 1u);

  EXPECT_THROW(decode_hello("HELLO"), std::invalid_argument);  // missing ver
  EXPECT_THROW(decode_hello("HELLO ver=abc"), std::invalid_argument);
  EXPECT_THROW(decode_hello_reply("HELLO ver=2"), std::invalid_argument);
}

TEST(ProtoCodecV2, QueryAndEstimateRoundTripBitExact) {
  query_request q;
  q.pos = here;
  q.network = "NetB";
  q.metric = trace::metric::rtt_s;
  q.time_s = 43000.125;
  const auto qb = decode_query(encode(q));
  EXPECT_NEAR(qb.pos.lat_deg, here.lat_deg, 1e-6);
  EXPECT_EQ(qb.network, "NetB");
  EXPECT_EQ(qb.metric, trace::metric::rtt_s);
  EXPECT_NEAR(qb.time_s, 43000.125, 1e-3);

  // t is optional; omitted means "clock unknown".
  query_request no_t = q;
  no_t.time_s = -1.0;
  EXPECT_EQ(decode_query(encode(no_t)).time_s, -1.0);

  // Estimates carry doubles at %.17g: the wire round trip is bit-exact.
  estimate_reply est;
  est.zone = geo::zone_id{-3, 17};
  est.network = "NetB";
  est.metric = trace::metric::tcp_throughput_bps;
  est.count = 12345678901ull;
  est.mean = 1.0 / 3.0;
  est.stddev = 2.0 / 7.0;
  est.epoch_index = 41;
  est.staleness_s = 0.1 + 0.2;  // deliberately non-representable
  est.confidence = 0.99999999999999989;
  const auto eb = decode_estimate(encode(est));
  EXPECT_EQ(eb.zone, est.zone);
  EXPECT_EQ(eb.network, "NetB");
  EXPECT_EQ(eb.metric, est.metric);
  EXPECT_EQ(eb.count, est.count);
  EXPECT_EQ(eb.mean, est.mean);
  EXPECT_EQ(eb.stddev, est.stddev);
  EXPECT_EQ(eb.epoch_index, 41u);
  EXPECT_EQ(eb.staleness_s, est.staleness_s);
  EXPECT_EQ(eb.confidence, est.confidence);
}

TEST(ProtoCodecV2, QueryBatchAllOrNothing) {
  std::vector<query_request> qs;
  for (int i = 0; i < 3; ++i) {
    query_request q;
    q.pos = here;
    q.network = i % 2 ? "NetC" : "NetB";
    q.metric = trace::metric::loss_rate;
    qs.push_back(q);
  }
  const std::string frame = encode_query_batch(qs);
  EXPECT_EQ(message_type(frame), "QUERYB");
  using queries = std::vector<query_request>;
  const auto back = testing::into<queries>(decode_query_batch_into, frame);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[1].network, "NetC");

  // One bad payload line poisons the whole frame (all-or-nothing).
  std::string poisoned = frame;
  poisoned.replace(poisoned.find("lat="), 4, "bat=");
  EXPECT_THROW(testing::into<queries>(decode_query_batch_into, poisoned),
               std::invalid_argument);
  // Count mismatches in either direction are rejected.
  EXPECT_THROW(testing::into<queries>(decode_query_batch_into,
                                      "QUERYB 2\n" + encode(qs[0])),
               std::invalid_argument);
  EXPECT_THROW(testing::into<queries>(decode_query_batch_into, "QUERYB 90000"),
               std::invalid_argument);
}

TEST(ProtoCodecV2, EstimateBatchPreservesPositionsAndGaps) {
  estimate_reply est;
  est.zone = geo::zone_id{1, 2};
  est.network = "NetB";
  est.metric = trace::metric::jitter_s;
  est.mean = 0.25;
  const std::string frame = "ESTB 3\nNONE\n" + encode(est) + "\nNONE";
  EXPECT_EQ(message_type(frame), "ESTB");
  const auto back = decode_estimate_batch(frame);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_FALSE(back[0].has_value());
  ASSERT_TRUE(back[1].has_value());
  EXPECT_EQ(back[1]->mean, 0.25);
  EXPECT_FALSE(back[2].has_value());
}

TEST(ProtoCodecV2, AlertsRoundTrip) {
  alerts_request req;
  req.since = 41;
  req.max = 5;
  const auto rb = decode_alerts_request(encode(req));
  EXPECT_EQ(rb.since, 41u);
  EXPECT_EQ(rb.max, 5u);
  // max is optional and defaults.
  EXPECT_EQ(decode_alerts_request("ALERTS since=0").max, 256u);
  EXPECT_THROW(decode_alerts_request("ALERTS max=5"), std::invalid_argument);

  alerts_reply rep;
  rep.next_seq = 44;
  rep.dropped = 2;
  alert_event ev;
  ev.seq = 43;
  ev.zone = geo::zone_id{5, -5};
  ev.network = "NetC";
  ev.metric = trace::metric::rtt_s;
  ev.epoch_start_s = 1800.0;
  ev.previous_mean = 0.1;
  ev.new_mean = 1.0 / 3.0;
  ev.previous_stddev = 0.01;
  rep.alerts.push_back(ev);
  const auto back = decode_alerts_reply(encode(rep));
  EXPECT_EQ(back.next_seq, 44u);
  EXPECT_EQ(back.dropped, 2u);
  ASSERT_EQ(back.alerts.size(), 1u);
  EXPECT_EQ(back.alerts[0].seq, 43u);
  EXPECT_EQ(back.alerts[0].zone, ev.zone);
  EXPECT_EQ(back.alerts[0].new_mean, ev.new_mean);  // %.17g bit-exact
}

TEST(ProtoCodecV2, ErrorCodesAreTableDrivenAndClipped) {
  for (auto code : {err_code::parse, err_code::unsupported, err_code::stopped,
                    err_code::version, err_code::internal}) {
    const std::string_view token = to_string(code);
    const auto back = err_code_from_string(token);
    ASSERT_TRUE(back.has_value()) << token;
    EXPECT_EQ(*back, code);
    reply_buffer line;
    encode_error_into(code, "why", line);
    EXPECT_EQ(message_type(line.view()), "ERR");
    EXPECT_EQ(line.view(), "ERR " + std::string(token) + " why");
  }
  EXPECT_FALSE(err_code_from_string("nonsense").has_value());
  // Hostile detail is clipped, never echoed verbatim.
  reply_buffer huge;
  encode_error_into(err_code::parse, std::string(1 << 16, 'x'), huge);
  EXPECT_LT(huge.view().size(), 256u);
}

TEST(ProtoServerV2, HelloNegotiatesAndGatesOldClients) {
  const auto dep = testing::tiny_deployment();
  auto coord = testing::sync_coordinator(geo::zone_grid(dep.proj(), 250.0),
                                         dep.names(), {}, 5);
  coordinator_server server(coord);

  // Newer client: capped to ours. Older-but-supported: their version.
  auto rep = decode_hello_reply(testing::reply_of(server, "HELLO ver=9"));
  EXPECT_EQ(rep.version, wire_version);
  EXPECT_EQ(rep.min_version, wire_min_version);
  rep = decode_hello_reply(testing::reply_of(server, "HELLO ver=1"));
  EXPECT_EQ(rep.version, 1u);

  // Below the minimum: typed version error.
  const std::string err = testing::reply_of(server, "HELLO ver=0");
  EXPECT_EQ(message_type(err), "ERR");
  EXPECT_EQ(err.rfind("ERR version", 0), 0u) << err;
}

TEST(ProtoServerV2, QueryServesWhatTheViewServes) {
  const auto dep = testing::tiny_deployment();
  const geo::zone_grid grid(dep.proj(), 250.0);
  core::coordinator_config cfg;
  cfg.epochs.default_epoch_s = 120.0;
  cfg.default_samples_per_epoch = 10;
  auto coord = testing::sync_coordinator(grid, dep.names(), cfg, 5);
  coordinator_server server(coord);

  const geo::lat_lon pos = dep.proj().to_lat_lon({80.0, -40.0});
  query_request q;
  q.pos = pos;
  q.network = dep.names()[0];
  q.metric = trace::metric::udp_throughput_bps;

  // Before anything is published: NONE, not an error.
  EXPECT_EQ(testing::reply_of(server, encode(q)), "NONE");

  // Ingest enough over several epochs to freeze estimates.
  for (int i = 0; i < 400; ++i) {
    measurement_report rep;
    rep.client_id = 1;
    rep.record = testing::make_record(1000.0 + i * 2.0, dep.names()[0], pos,
                                      trace::probe_kind::udp_burst,
                                      2e6 * (1.0 + 0.01 * i));
    ASSERT_EQ(testing::reply_of(server, encode(rep)), "ACK");
  }

  const double now_s = 3000.0;
  q.time_s = now_s;
  const std::string reply = testing::reply_of(server, encode(q));
  ASSERT_EQ(message_type(reply), "EST") << reply;
  const auto est = decode_estimate(reply);

  const core::estimate_view view(coord);
  const auto want =
      view.lookup(grid.zone_of(pos), q.network, q.metric, now_s);
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(est.zone, grid.zone_of(pos));
  EXPECT_EQ(est.network, q.network);
  EXPECT_EQ(est.metric, q.metric);
  EXPECT_EQ(est.count, want->count);
  EXPECT_EQ(est.mean, want->mean);          // %.17g: wire is bit-exact
  EXPECT_EQ(est.stddev, want->stddev);
  EXPECT_EQ(est.epoch_index, want->epoch_index);
  EXPECT_EQ(est.staleness_s, want->staleness_s);
  EXPECT_EQ(est.confidence, want->confidence);

  // The batched flavour answers positionally, gaps as NONE.
  query_request missing = q;
  missing.network = "NoSuchNet";
  const std::vector<query_request> batch{q, missing, q};
  const auto replies = decode_estimate_batch(
      testing::reply_of(server, encode_query_batch(batch)));
  ASSERT_EQ(replies.size(), 3u);
  ASSERT_TRUE(replies[0].has_value());
  EXPECT_FALSE(replies[1].has_value());
  ASSERT_TRUE(replies[2].has_value());
  EXPECT_EQ(replies[0]->mean, want->mean);
}

TEST(ProtoServerV2, AlertsDrainOverTheWire) {
  const auto dep = testing::tiny_deployment();
  const geo::zone_grid grid(dep.proj(), 250.0);
  core::coordinator_config cfg;
  cfg.epochs.default_epoch_s = 60.0;
  auto coord = testing::sync_coordinator(grid, dep.names(), cfg, 5);
  coordinator_server server(coord);

  // A hard mean shift across epochs raises >2-sigma alerts.
  const geo::lat_lon pos = dep.proj().to_lat_lon({10.0, 10.0});
  for (int i = 0; i < 600; ++i) {
    const double level = i < 300 ? 1e6 : 8e6;
    measurement_report rep;
    rep.client_id = 1;
    rep.record = testing::make_record(
        1000.0 + i * 1.0, dep.names()[0], pos,
        trace::probe_kind::tcp_download, level * (1.0 + 0.01 * (i % 7)));
    ASSERT_EQ(testing::reply_of(server, encode(rep)), "ACK");
  }
  ASSERT_GT(coord.alert_sink().pushed(), 0u);

  std::uint64_t cursor = 0;
  std::size_t served = 0;
  std::uint64_t prev_seq = 0;
  for (int round = 0; round < 100; ++round) {
    alerts_request req;
    req.since = cursor;
    req.max = 2;
    const auto rep =
        decode_alerts_reply(testing::reply_of(server, encode(req)));
    if (rep.alerts.empty()) break;
    for (const auto& a : rep.alerts) {
      EXPECT_GT(a.seq, prev_seq);
      prev_seq = a.seq;
    }
    served += rep.alerts.size();
    cursor = rep.next_seq;
  }
  EXPECT_EQ(served, coord.alert_sink().pushed());

  // Requests clamp to the frame cap rather than erroring.
  alerts_request req;
  req.since = 0;
  req.max = 1 << 30;
  const auto rep = decode_alerts_reply(testing::reply_of(server, encode(req)));
  EXPECT_LE(rep.alerts.size(), max_alert_batch);
}

TEST(ProtoServerV2, RemoteQueryClientSpeaksTheProtocol) {
  const auto dep = testing::tiny_deployment();
  const geo::zone_grid grid(dep.proj(), 250.0);
  core::coordinator_config cfg;
  cfg.epochs.default_epoch_s = 120.0;
  auto coord = testing::sync_coordinator(grid, dep.names(), cfg, 5);
  coordinator_server server(coord);
  client remote(
      [&](std::string_view line) { return testing::reply_of(server, line); });

  EXPECT_EQ(remote.hello().version, wire_version);
  EXPECT_THROW(remote.hello(0), std::runtime_error);
  EXPECT_THROW(remote.hello(0), reply_error);

  query_request q;
  q.pos = dep.proj().to_lat_lon({0.0, 0.0});
  q.network = dep.names()[0];
  q.metric = trace::metric::rtt_s;
  EXPECT_FALSE(remote.query(q).has_value());  // nothing published yet

  for (int i = 0; i < 300; ++i) {
    measurement_report rep;
    rep.client_id = 1;
    rep.record = testing::make_record(1000.0 + i * 2.0, dep.names()[0], q.pos,
                                      trace::probe_kind::ping, 0.08);
    testing::reply_of(server, encode(rep));
  }
  const auto est = remote.query(q);
  ASSERT_TRUE(est.has_value());
  EXPECT_GT(est->count, 0u);

  const std::vector<query_request> batch{q, q};
  const auto replies = remote.query_batch(batch);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[0].has_value());

  const auto alerts = remote.alerts(0);
  EXPECT_EQ(alerts.dropped, 0u);
}

TEST(ProtoServerV2, StatsSurvivesHostileMetricNames) {
  // The STATS encoder must keep its line/token framing even if some
  // component registers a name with embedded whitespace or control bytes.
  auto& reg = obs::registry::global();
  reg.get_counter("test.hostile\nname with spaces\tand\rctl").inc(3);

  const std::string dump = encode_stats();
  std::istringstream in(dump);
  std::string header;
  std::size_t n = 0;
  in >> header >> n;
  EXPECT_EQ(header, "STATS");
  std::string line;
  std::getline(in, line);  // rest of header line
  std::size_t lines = 0;
  bool hostile_seen = false;
  while (std::getline(in, line)) {
    ++lines;
    // Every payload line is exactly "name value".
    const auto space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.find(' ', space + 1), std::string::npos) << line;
    if (line.rfind("test.hostile_name_with_spaces_and_ctl ", 0) == 0) {
      hostile_seen = true;
      EXPECT_EQ(line.substr(space + 1), "3");
    }
  }
  EXPECT_EQ(lines, n) << "frame header count disagrees with payload";
  EXPECT_TRUE(hostile_seen) << dump.substr(0, 400);
}

TEST(ProtoServerV2, QueryCountersAndLatenciesAreAccounted) {
  const auto dep = testing::tiny_deployment();
  auto coord = testing::sync_coordinator(geo::zone_grid(dep.proj(), 250.0),
                                         dep.names(), {}, 5);
  coordinator_server server(coord);
  const auto before = parse_stats(testing::reply_of(server, "STATS"));

  query_request q;
  q.pos = dep.proj().to_lat_lon({0.0, 0.0});
  q.network = dep.names()[0];
  q.metric = trace::metric::rtt_s;
  testing::reply_of(server, encode(q));
  testing::reply_of(server, encode(q));
  testing::reply_of(server,
                    encode_query_batch(std::vector<query_request>{q, q, q}));
  alerts_request areq;
  testing::reply_of(server, encode(areq));
  testing::reply_of(server, "HELLO ver=2");
  testing::reply_of(server, "HELLO ver=0");  // version-gated

  const auto after = parse_stats(testing::reply_of(server, "STATS"));
  using namespace obs::names;
  EXPECT_EQ(delta(before, after, kServerQueries), 5.0);  // 2 single + 3 batched
  EXPECT_EQ(delta(before, after, kServerQueryBatches), 1.0);
  EXPECT_EQ(delta(before, after, kServerAlertsRequests), 1.0);
  EXPECT_EQ(delta(before, after, kServerHellos), 1.0);
  EXPECT_EQ(delta(before, after, kServerErrVersion), 1.0);
  EXPECT_EQ(delta(before, after, std::string(kServerQueryLatency) + ".count"),
            2.0);
  EXPECT_EQ(
      delta(before, after, std::string(kServerQueryBatchLatency) + ".count"),
      1.0);
  EXPECT_EQ(delta(before, after, std::string(kServerAlertsLatency) + ".count"),
            1.0);
}

}  // namespace
}  // namespace wiscape::proto
