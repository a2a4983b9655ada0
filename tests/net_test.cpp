// The TCP front end: byte_ring mechanics, the socket-free session state
// machine (framing, HELLO gating, shed rule, bounded buffers), and the
// epoll server end-to-end over real loopback sockets (round trips, idle
// timeout mid-frame, drain-on-disconnect, concurrent sessions).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/coordinator.h"
#include "core/sharded_coordinator.h"
#include "net/byte_ring.h"
#include "net/client.h"
#include "net/server.h"
#include "net/session.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "proto/messages.h"
#include "proto/server.h"
#include "proto/wire_v3.h"
#include "repl/replica.h"
#include "test_util.h"

namespace wiscape::net {
namespace {

const geo::lat_lon here = cellnet::anchors::madison;

// A 1-shard synchronous coordinator + line handler: sessions only need
// handle().
struct handler_fixture {
  cellnet::deployment dep = testing::tiny_deployment();
  geo::zone_grid grid{dep.proj(), 250.0};
  core::sharded_coordinator coord =
      testing::sync_coordinator(grid, dep.names(), {}, 5);
  proto::coordinator_server server{coord};
};

std::string report_frame(std::size_t n, double t0 = 100.0) {
  std::vector<trace::measurement_record> recs;
  for (std::size_t i = 0; i < n; ++i) {
    recs.push_back(testing::make_record(t0 + static_cast<double>(i), "NetB",
                                        here, trace::probe_kind::udp_burst,
                                        1.0e6));
    recs.back().client_id = 7;
  }
  return proto::encode_report_batch(recs);
}

std::string binary_report_frame(std::size_t n, double t0 = 100.0) {
  std::vector<trace::measurement_record> recs;
  for (std::size_t i = 0; i < n; ++i) {
    recs.push_back(testing::make_record(t0 + static_cast<double>(i), "NetB",
                                        here, trace::probe_kind::udp_burst,
                                        1.0e6));
    recs.back().client_id = 7;
  }
  return proto::v3::encode_report_batch_frame(recs);
}

std::string binary_query_frame() {
  proto::query_request q;
  q.pos = here;
  q.network = "NetB";
  q.metric = trace::metric::udp_throughput_bps;
  q.time_s = 200.0;
  return proto::v3::encode_query_frame(q);
}

std::string ring_text(byte_ring& r) {
  return std::string(r.linearize());
}

std::uint64_t counter_value(const char* name) {
  return static_cast<std::uint64_t>(
      obs::registry::global().get_counter(name).value());
}

// ---- byte_ring ----------------------------------------------------------

TEST(ByteRing, AppendConsumeWrapsAndFinds) {
  byte_ring r(64);
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.append("hello\n"));
  EXPECT_EQ(r.find('\n'), 5u);
  r.consume(6);
  // Push the head far enough that the next append wraps the storage.
  for (int round = 0; round < 20; ++round) {
    EXPECT_TRUE(r.append("0123456789"));
    ASSERT_EQ(ring_text(r).back(), '9');
    r.consume(10);
  }
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.append("wrapped-line\n"));
  EXPECT_EQ(ring_text(r), "wrapped-line\n");
  EXPECT_EQ(r.find('\n'), 12u);
}

TEST(ByteRing, CapBoundsSizeNotStorage) {
  byte_ring r(100);  // not a power of two: storage rounds up, cap does not
  EXPECT_EQ(r.max_bytes(), 100u);
  std::string fill(100, 'x');
  EXPECT_TRUE(r.append(fill));
  EXPECT_TRUE(r.full());
  EXPECT_EQ(r.headroom(), 0u);
  EXPECT_FALSE(r.append("y"));  // over cap refuses, ring unchanged
  EXPECT_EQ(r.size(), 100u);
  r.consume(40);
  EXPECT_EQ(r.headroom(), 40u);
  EXPECT_TRUE(r.append(std::string(40, 'z')));
  EXPECT_FALSE(r.append("y"));
}

TEST(ByteRing, WriteSpansCommitRoundTrip) {
  byte_ring r(256);
  auto spans = r.write_spans(10);
  std::size_t got = 0;
  for (auto s : spans) {
    for (char& c : s) {
      if (got >= 10) break;
      c = static_cast<char>('a' + got++);
    }
  }
  r.commit(10);
  EXPECT_EQ(ring_text(r), "abcdefghij");
}

// ---- session framing ----------------------------------------------------

TEST(NetSession, PartialFrameAcrossReads) {
  handler_fixture fx;
  session_limits lim;
  lim.require_hello = false;
  session s(lim, fx.server);

  const std::string frame = report_frame(3) + "\n";
  // Split inside the second payload line: the header and first line alone
  // must not dispatch anything.
  const std::size_t first_nl = frame.find('\n');
  const std::size_t cut = frame.find('\n', first_nl + 1) + 3;
  ASSERT_LT(cut, frame.size());

  pump_stats stats;
  ASSERT_TRUE(s.in().append(std::string_view(frame).substr(0, cut)));
  EXPECT_TRUE(s.pump({}, stats));
  EXPECT_EQ(stats.dispatched, 0u);
  EXPECT_TRUE(s.out().empty());
  EXPECT_TRUE(s.mid_frame());

  ASSERT_TRUE(s.in().append(std::string_view(frame).substr(cut)));
  EXPECT_TRUE(s.pump({}, stats));
  EXPECT_EQ(stats.dispatched, 1u);
  EXPECT_FALSE(s.mid_frame());
  EXPECT_EQ(ring_text(s.out()).substr(0, 4), "ACK ");
  EXPECT_EQ(fx.server.reports_received(), 3u);
}

TEST(NetSession, CrlfLinesAndFramesDispatch) {
  handler_fixture fx;
  session_limits lim;
  lim.require_hello = false;
  session s(lim, fx.server);

  pump_stats stats;
  ASSERT_TRUE(s.in().append("STATS\r\n"));
  EXPECT_TRUE(s.pump({}, stats));
  EXPECT_EQ(stats.dispatched, 1u);
  EXPECT_EQ(ring_text(s.out()).substr(0, 6), "STATS ");
  s.out().consume(s.out().size());

  // A whole CRLF-terminated frame takes the scratch-rebuild cold path.
  std::string frame = report_frame(2) + "\n";
  std::string crlf;
  for (char c : frame) {
    if (c == '\n') crlf += "\r\n";
    else crlf += c;
  }
  ASSERT_TRUE(s.in().append(crlf));
  EXPECT_TRUE(s.pump({}, stats));
  EXPECT_EQ(stats.dispatched, 2u);
  EXPECT_EQ(ring_text(s.out()).substr(0, 4), "ACK ");
}

TEST(NetSession, OversizedLineDisconnects) {
  handler_fixture fx;
  session_limits lim;
  lim.require_hello = false;
  session s(lim, fx.server);

  // No newline and the ring full: the line can never complete.
  ASSERT_TRUE(s.in().append(std::string(session::read_buffer_bytes, 'x')));
  EXPECT_EQ(s.in().headroom(), 0u);
  pump_stats stats;
  EXPECT_FALSE(s.pump({}, stats));
  EXPECT_EQ(s.reason(), close_reason::oversize);
  EXPECT_EQ(ring_text(s.out()).substr(0, 9), "ERR parse");
}

TEST(NetSession, HostileFrameHeaderDisconnects) {
  handler_fixture fx;
  session_limits lim;
  lim.require_hello = false;
  session s(lim, fx.server);

  ASSERT_TRUE(s.in().append("REPORTB 99999999999\n"));
  pump_stats stats;
  EXPECT_FALSE(s.pump({}, stats));
  EXPECT_EQ(s.reason(), close_reason::bad_frame);
  EXPECT_EQ(ring_text(s.out()).substr(0, 9), "ERR parse");
}

TEST(NetSession, HelloBeforeAnythingEnforced) {
  handler_fixture fx;
  session_limits lim;  // require_hello defaults to true
  session s(lim, fx.server);

  pump_stats stats;
  ASSERT_TRUE(s.in().append("STATS\n"));
  EXPECT_FALSE(s.pump({}, stats));
  EXPECT_EQ(s.reason(), close_reason::hello_violation);
  EXPECT_EQ(stats.dispatched, 0u);
  EXPECT_EQ(ring_text(s.out()).substr(0, 11), "ERR version");

  // A fresh session that negotiates first sails through.
  session ok(lim, fx.server);
  ASSERT_TRUE(ok.in().append(proto::encode(proto::hello_request{}) + "\n"));
  EXPECT_TRUE(ok.pump({}, stats));
  EXPECT_TRUE(ok.saw_hello());
  ok.out().consume(ok.out().size());
  ASSERT_TRUE(ok.in().append("STATS\n"));
  EXPECT_TRUE(ok.pump({}, stats));
  EXPECT_EQ(ring_text(ok.out()).substr(0, 6), "STATS ");
}

TEST(NetSession, SlowReaderDisconnects) {
  handler_fixture fx;
  session_limits lim;
  lim.require_hello = false;
  session s(lim, fx.server);

  // One STATS dump sizes the rest; replies are never drained, and counters
  // only grow, so this many more dumps overflow the write ring.
  pump_stats stats;
  ASSERT_TRUE(s.in().append("STATS\n"));
  ASSERT_TRUE(s.pump({}, stats));
  const std::size_t dump_bytes = s.out().size();
  ASSERT_GT(dump_bytes, 1u);
  std::string requests;
  for (std::size_t i = 0; i <= session::write_buffer_bytes / dump_bytes; ++i) {
    requests += "STATS\n";
  }
  ASSERT_TRUE(s.in().append(requests));
  EXPECT_FALSE(s.pump({}, stats));
  EXPECT_EQ(s.reason(), close_reason::slow_reader);
  EXPECT_LE(s.out().size(), session::write_buffer_bytes);
}

// ---- shed rule ----------------------------------------------------------

TEST(NetSession, ClassifyRequestClasses) {
  const auto text_class = [](std::string_view line) {
    return classify(proto::request_view::text(line).command());
  };
  EXPECT_EQ(text_class("QUERY"), request_class::query);
  EXPECT_EQ(text_class("QUERYB"), request_class::query);
  EXPECT_EQ(text_class("ALERTS"), request_class::query);
  EXPECT_EQ(text_class("REPORT"), request_class::report);
  EXPECT_EQ(text_class("REPORTB"), request_class::report);
  EXPECT_EQ(text_class("HELLO"), request_class::control);
  EXPECT_EQ(text_class("CHECKIN"), request_class::control);
  EXPECT_EQ(text_class("STATS"), request_class::control);
  EXPECT_EQ(text_class("NONSENSE"), request_class::control);
  // Binary frames classify by opcode through the same command enum.
  const auto frame_class = [](const std::string& frame) {
    return classify(proto::request_view::binary(frame).command());
  };
  EXPECT_EQ(frame_class(binary_query_frame()), request_class::query);
  EXPECT_EQ(frame_class(binary_report_frame(1)), request_class::report);
  EXPECT_EQ(frame_class(testing::frame_of(proto::v3::encode_promote_frame)),
            request_class::control);
}

TEST(NetSession, ShedPolicyAccounting) {
  // The rule at each threshold's edges, by class.
  struct row {
    double saturation;
    bool query, report, control;  // sheds?
  };
  const row table[] = {
      {0.74, false, false, false},
      {0.75, true, false, false},
      {0.94, true, false, false},
      {0.95, true, true, false},
  };
  for (const row& r : table) {
    SCOPED_TRACE("saturation=" + std::to_string(r.saturation));
    const shed_state at{r.saturation};
    EXPECT_EQ(sheds(request_class::query, at), r.query);
    EXPECT_EQ(sheds(request_class::report, at), r.report);
    EXPECT_EQ(sheds(request_class::control, at), r.control);
  }

  handler_fixture fx;
  session_limits lim;
  lim.require_hello = false;
  session s(lim, fx.server);

  shed_state shed;
  shed.saturation = 0.8;  // past shed_start, below shed_hard

  pump_stats stats;
  // Query-class sheds without dispatching; report-class still lands.
  ASSERT_TRUE(s.in().append("QUERY lat=43.07 lon=-89.4 net=NetB "
                            "metric=tcp_throughput t=1\n"));
  ASSERT_TRUE(s.in().append(report_frame(2) + "\n"));
  EXPECT_TRUE(s.pump(shed, stats));
  EXPECT_EQ(stats.shed_queries, 1u);
  EXPECT_EQ(stats.shed_reports, 0u);
  EXPECT_EQ(stats.dispatched, 1u);
  EXPECT_EQ(fx.server.reports_received(), 2u);
  EXPECT_NE(ring_text(s.out()).find("ERR overload"), std::string::npos);

  // Past shed_hard both classes shed; control still serves.
  session s2(lim, fx.server);
  shed.saturation = 0.99;
  pump_stats stats2;
  ASSERT_TRUE(s2.in().append("QUERY lat=43.07 lon=-89.4 net=NetB "
                             "metric=tcp_throughput t=1\n"));
  ASSERT_TRUE(s2.in().append(report_frame(2) + "\n"));
  ASSERT_TRUE(s2.in().append("STATS\n"));
  EXPECT_TRUE(s2.pump(shed, stats2));
  EXPECT_EQ(stats2.shed_queries, 1u);
  EXPECT_EQ(stats2.shed_reports, 1u);  // one REPORTB frame, one decision
  EXPECT_EQ(stats2.dispatched, 1u);    // the STATS
  EXPECT_EQ(fx.server.reports_received(), 2u);
}

// ---- real sockets -------------------------------------------------------

int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  return fd;
}

void send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// True when the peer closes the connection within `wait_s` seconds.
bool eof_within(int fd, double wait_s) {
  const timeval tv{static_cast<time_t>(wait_s),
                   static_cast<suseconds_t>((wait_s - static_cast<time_t>(
                                                          wait_s)) *
                                            1e6)};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  char buf[256];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return true;  // orderly close
    if (n < 0) {
      // A close with bytes still queued on the receive side arrives as RST.
      return errno == ECONNRESET;
    }
  }
}

TEST(TcpServer, RoundTripMatchesInProcessHandler) {
  handler_fixture fx;
  server_config cfg;
  cfg.event_loops = 1;
  tcp_server srv(fx.server, cfg);
  srv.start();

  line_client client;
  client.connect("127.0.0.1", srv.port());
  const auto hello = client.hello();
  EXPECT_EQ(hello.version, proto::wire_version);

  const std::string frame = report_frame(4);
  const std::string wire_ack = client.request(frame);
  EXPECT_EQ(proto::message_type(wire_ack), "ACK");

  // The same requests through handle() answer byte-identically.
  for (const std::string& req :
       {std::string("QUERY lat=43.07 lon=-89.4 net=NetB "
                    "metric=udp_throughput t=200"),
        std::string("ALERTS since=0 max=4")}) {
    EXPECT_EQ(client.request(req), testing::reply_of(fx.server, req)) << req;
  }
  client.close();
  srv.stop();
  EXPECT_EQ(srv.active_sessions(), 0u);
}

TEST(TcpServer, IdleTimeoutCutsSessionMidFrame) {
  handler_fixture fx;
  server_config cfg;
  cfg.event_loops = 1;
  cfg.limits.require_hello = false;
  cfg.idle_timeout_s = 0.3;
  tcp_server srv(fx.server, cfg);
  srv.start();

  const std::uint64_t timeouts0 = counter_value(obs::names::kNetIdleTimeouts);
  const int fd = raw_connect(srv.port());
  // A frame header plus one of its five payload lines, then silence: the
  // sweep must cut the session even though a request is in flight.
  send_all(fd, "REPORTB 5\nR client=7 ");
  EXPECT_TRUE(eof_within(fd, 5.0));
  ::close(fd);
  EXPECT_GE(counter_value(obs::names::kNetIdleTimeouts), timeouts0 + 1);
  srv.stop();
}

TEST(TcpServer, DrainOnDisconnectStillDispatches) {
  handler_fixture fx;
  server_config cfg;
  cfg.event_loops = 1;
  cfg.limits.require_hello = false;
  tcp_server srv(fx.server, cfg);
  srv.start();

  const int fd = raw_connect(srv.port());
  send_all(fd, report_frame(3) + "\n");
  ::close(fd);  // gone before the reply -- the records must still land

  for (int spin = 0; spin < 200 && fx.server.reports_received() < 3; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fx.server.reports_received(), 3u);
  srv.stop();
}

TEST(TcpServer, OversizedRequestDisconnectsAndCounts) {
  handler_fixture fx;
  server_config cfg;
  cfg.event_loops = 1;
  cfg.limits.require_hello = false;
  tcp_server srv(fx.server, cfg);
  srv.start();

  const std::uint64_t oversize0 =
      counter_value(obs::names::kNetOversizeDisconnects);
  const int fd = raw_connect(srv.port());
  // No newline ever, and more than the read ring holds.
  send_all(fd, std::string(session::read_buffer_bytes + 1024, 'x'));
  EXPECT_TRUE(eof_within(fd, 5.0));
  ::close(fd);
  EXPECT_GE(counter_value(obs::names::kNetOversizeDisconnects), oversize0 + 1);
  srv.stop();
}

TEST(TcpServer, HelloViolationCountsAndCloses) {
  handler_fixture fx;
  server_config cfg;
  cfg.event_loops = 1;  // require_hello stays on
  tcp_server srv(fx.server, cfg);
  srv.start();

  const std::uint64_t violations0 =
      counter_value(obs::names::kNetHelloViolations);
  line_client client;
  client.connect("127.0.0.1", srv.port());
  const std::string reply = client.request("STATS");
  EXPECT_EQ(reply.substr(0, 11), "ERR version");
  EXPECT_THROW((void)client.request("STATS"), std::runtime_error);  // closed
  EXPECT_GE(counter_value(obs::names::kNetHelloViolations), violations0 + 1);
  srv.stop();
}

TEST(TcpServer, ShedsQueriesUnderSaturation) {
  handler_fixture fx;
  server_config cfg;
  cfg.event_loops = 1;
  cfg.limits.require_hello = false;
  cfg.ingest_saturation = [] { return 0.9; };  // the first pump samples it
  tcp_server srv(fx.server, cfg);
  srv.start();

  const std::uint64_t shed0 = counter_value(obs::names::kNetShedQueries);
  line_client client;
  client.connect("127.0.0.1", srv.port());
  EXPECT_EQ(client.request("ALERTS since=0 max=4").substr(0, 12),
            "ERR overload");
  // Report-class still lands below shed_hard.
  EXPECT_EQ(proto::message_type(client.request(report_frame(2))), "ACK");
  EXPECT_GE(counter_value(obs::names::kNetShedQueries), shed0 + 1);
  client.close();
  srv.stop();
}

std::string report_line(double t) {
  proto::measurement_report rep;
  rep.client_id = 7;
  rep.record = testing::make_record(t, "NetB", here,
                                    trace::probe_kind::udp_burst, 1.0e6);
  return proto::encode(rep);
}

TEST(NetSession, HandleIntoMatchesHandleOnGoldenCorpus) {
  handler_fixture fx;
  // One reused buffer across the corpus, like a session's arena: every
  // reply must still match handle() byte for byte. STATS and CHECKIN are
  // excluded -- their replies move between two calls by design (counters
  // tick, the task rotation advances).
  std::vector<proto::query_request> qs(2);
  qs[0].pos = here;
  qs[0].network = "NetB";
  qs[0].metric = trace::metric::udp_throughput_bps;
  qs[0].time_s = 200.0;
  qs[1].pos = here;
  qs[1].network = "NetB";
  qs[1].metric = trace::metric::loss_rate;
  qs[1].time_s = 200.0;
  const std::vector<std::string> corpus = {
      "HELLO ver=2",
      report_line(100.0),
      report_frame(3),
      "QUERY lat=43.07 lon=-89.4 net=NetB metric=udp_throughput t=200",
      proto::encode_query_batch(qs),
      "ALERTS since=0 max=4",
      "BOGUS command",
      "QUERY lat=not-a-number",
      "REPORT client=1 csv=notcsv",
      std::string("NOISE ") + std::string(300, 'x'),
  };
  proto::reply_buffer out;
  for (const auto& req : corpus) {
    out.clear();
    fx.server.handle(proto::request_view::detect(req), out);
    EXPECT_EQ(out.view(), testing::reply_of(fx.server, req)) << req;
  }
}

TEST(NetSession, ConsecutiveReportsCoalesceIntoOneBatch) {
  handler_fixture fx;
  session_limits lim;
  lim.require_hello = false;
  session s(lim, fx.server);

  std::string burst;
  for (int i = 0; i < 5; ++i) burst += report_line(100.0 + i) + "\n";
  pump_stats stats;
  ASSERT_TRUE(s.in().append(burst));
  EXPECT_TRUE(s.pump({}, stats));
  EXPECT_EQ(stats.dispatched, 5u);
  EXPECT_EQ(stats.grouped_reports, 5u);
  EXPECT_EQ(s.take_queued_replies(), 5u);
  EXPECT_EQ(ring_text(s.out()), "ACK\nACK\nACK\nACK\nACK\n");
  EXPECT_EQ(fx.server.reports_received(), 5u);
}

TEST(NetSession, ReportGroupPreservesPerLineErrors) {
  handler_fixture fx;
  session_limits lim;
  lim.require_hello = false;
  session s(lim, fx.server);

  const std::string bad = "REPORT client=1 csv=notcsv";
  const std::string burst = report_line(100.0) + "\n" + bad + "\n" +
                            report_line(101.0) + "\n";
  pump_stats stats;
  ASSERT_TRUE(s.in().append(burst));
  EXPECT_TRUE(s.pump({}, stats));
  EXPECT_EQ(stats.grouped_reports, 3u);
  // The middle reply is exactly what per-line dispatch answers.
  handler_fixture other;
  const std::string expect =
      "ACK\n" + testing::reply_of(other.server, bad) + "\nACK\n";
  EXPECT_EQ(ring_text(s.out()), expect);
  EXPECT_EQ(fx.server.reports_received(), 2u);
}

TEST(NetSession, ReportRunBrokenByOtherRequestClasses) {
  handler_fixture fx;
  session_limits lim;
  lim.require_hello = false;
  session s(lim, fx.server);

  // REPORT REPORT QUERY REPORT: only the leading run of two groups.
  const std::string query =
      "QUERY lat=43.07 lon=-89.4 net=NetB metric=udp_throughput t=200";
  const std::string burst = report_line(100.0) + "\n" + report_line(101.0) +
                            "\n" + query + "\n" + report_line(102.0) + "\n";
  pump_stats stats;
  ASSERT_TRUE(s.in().append(burst));
  EXPECT_TRUE(s.pump({}, stats));
  EXPECT_EQ(stats.dispatched, 4u);
  EXPECT_EQ(stats.grouped_reports, 2u);
  EXPECT_EQ(fx.server.reports_received(), 3u);
}

TEST(TcpServer, PipelinedRequestsCoalesceWritev) {
  handler_fixture fx;
  server_config cfg;
  cfg.event_loops = 1;
  cfg.limits.require_hello = false;
  tcp_server srv(fx.server, cfg);
  srv.start();

  line_client client;
  client.connect("127.0.0.1", srv.port());
  // Warm the connection so accept-time effects don't blur the delta.
  ASSERT_EQ(proto::message_type(client.request(report_line(50.0))), "ACK");

  constexpr std::size_t kBurst = 64;
  std::string block;
  for (std::size_t i = 0; i < kBurst; ++i) {
    block += report_line(100.0 + static_cast<double>(i)) + "\n";
  }
  const std::uint64_t writev0 = counter_value(obs::names::kNetWritevCalls);
  const std::size_t reply_bytes = client.pipeline(block, kBurst);
  EXPECT_EQ(reply_bytes, kBurst * 4);  // "ACK\n" each
  const std::uint64_t writev_delta =
      counter_value(obs::names::kNetWritevCalls) - writev0;
  // The whole burst usually lands in one wake; loopback scheduling can
  // split it, but per-reply writes would need one call per reply.
  EXPECT_LT(writev_delta, kBurst / 2);
  EXPECT_EQ(fx.server.reports_received(), kBurst + 1);
  client.close();
  srv.stop();
}

TEST(TcpServer, ConcurrentPipelinedSessionsCoalesce) {
  // Two event loops over a sharded (concurrent) handler while client
  // threads pipeline REPORT bursts through 64 sessions at once: the
  // per-wake writev coalescing must stay correct -- every reply
  // delivered, every record ingested -- with both loops flushing
  // concurrently. This is the TSan target for the batched reply path.
  cellnet::deployment dep = testing::tiny_deployment();
  geo::zone_grid grid{dep.proj(), 250.0};
  core::sharded_config scfg;
  scfg.num_shards = 2;
  core::sharded_coordinator coord(grid, dep.names(), scfg, 5);
  proto::coordinator_server server(coord);

  server_config cfg;
  cfg.event_loops = 2;
  cfg.limits.require_hello = false;
  tcp_server srv(server, cfg);
  srv.start();

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSessionsPerThread = 16;  // 64 sessions total
  constexpr std::size_t kBurst = 32;
  const std::uint64_t writev0 = counter_value(obs::names::kNetWritevCalls);
  std::atomic<std::size_t> reply_bytes{0};
  std::vector<std::thread> threads;
  for (std::size_t tix = 0; tix < kThreads; ++tix) {
    threads.emplace_back([&, tix] {
      for (std::size_t sess = 0; sess < kSessionsPerThread; ++sess) {
        line_client c;
        c.connect("127.0.0.1", srv.port());
        std::string block;
        for (std::size_t i = 0; i < kBurst; ++i) {
          block += report_line(1000.0 +
                               static_cast<double>((tix * kSessionsPerThread +
                                                    sess) *
                                                       kBurst +
                                                   i)) +
                   "\n";
        }
        reply_bytes += c.pipeline(block, kBurst);
        c.close();
      }
    });
  }
  for (auto& t : threads) t.join();

  constexpr std::size_t kReplies = kThreads * kSessionsPerThread * kBurst;
  EXPECT_EQ(reply_bytes.load(), kReplies * 4);  // "ACK\n" each
  coord.flush();
  EXPECT_EQ(server.reports_received(), kReplies);
  // Coalescing must survive concurrency: far fewer flushes than replies.
  const std::uint64_t writev_delta =
      counter_value(obs::names::kNetWritevCalls) - writev0;
  EXPECT_LT(writev_delta, kReplies / 2);
  srv.stop();
  EXPECT_EQ(srv.active_sessions(), 0u);
}

TEST(TcpServer, ManyConcurrentSessions) {
  handler_fixture fx;
  server_config cfg;
  cfg.event_loops = 1;
  cfg.limits.require_hello = false;
  tcp_server srv(fx.server, cfg);
  srv.start();

  constexpr std::size_t kSessions = 64;
  std::vector<line_client> clients(kSessions);
  for (auto& c : clients) c.connect("127.0.0.1", srv.port());
  for (std::size_t spin = 0; spin < 200 && srv.active_sessions() < kSessions;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(srv.active_sessions(), kSessions);

  // Every session does a full exchange on the same loop, interleaved.
  for (std::size_t i = 0; i < kSessions; ++i) {
    const std::string reply = clients[i].request(report_frame(1, 1000.0 + i));
    EXPECT_EQ(proto::message_type(reply), "ACK") << i;
  }
  EXPECT_EQ(fx.server.reports_received(), kSessions);

  for (auto& c : clients) c.close();
  for (std::size_t spin = 0; spin < 500 && srv.active_sessions() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(srv.active_sessions(), 0u);
  srv.stop();
}

// ---- binary v3 frames through the session --------------------------------

/// Splits a session's reply bytes into whole v3 frames; fails the test on
/// anything that is not a clean sequence of frames.
std::vector<std::string> split_frames(std::string_view bytes) {
  std::vector<std::string> frames;
  while (!bytes.empty()) {
    const auto hdr = proto::v3::peek_header(bytes);
    if (!hdr) {
      ADD_FAILURE() << "reply bytes are not a v3 frame sequence";
      return frames;
    }
    const std::size_t total = proto::v3::frame_header_bytes + hdr->payload_len;
    frames.emplace_back(bytes.substr(0, total));
    bytes.remove_prefix(total);
  }
  return frames;
}

TEST(NetSession, BinaryFrameDispatchesWithUnterminatedBinaryReply) {
  handler_fixture fx;
  session_limits lim;
  lim.require_hello = false;
  session s(lim, fx.server);

  pump_stats stats;
  ASSERT_TRUE(s.in().append(binary_report_frame(3)));
  EXPECT_TRUE(s.pump({}, stats));
  EXPECT_EQ(stats.dispatched, 1u);
  EXPECT_EQ(s.take_queued_replies(), 1u);
  EXPECT_EQ(fx.server.reports_received(), 3u);

  // Exactly one binary ACK, no trailing '\n' -- frames self-delimit.
  const auto frames = split_frames(ring_text(s.out()));
  ASSERT_EQ(frames.size(), 1u);
  const proto::v3::ack_frame ack = proto::v3::decode_ack_frame(frames[0]);
  EXPECT_TRUE(ack.batched);
  EXPECT_EQ(ack.count, 3u);
}

TEST(NetSession, PartialBinaryFrameWaitsAndCountsAsMidFrame) {
  handler_fixture fx;
  session_limits lim;
  lim.require_hello = false;
  session s(lim, fx.server);

  const std::string frame = binary_report_frame(2);
  pump_stats stats;
  // Header alone, then half the payload: nothing dispatches, and the idle
  // sweep must see a request in flight (mid_frame) both times.
  ASSERT_TRUE(s.in().append(
      std::string_view(frame).substr(0, proto::v3::frame_header_bytes)));
  EXPECT_TRUE(s.pump({}, stats));
  EXPECT_EQ(stats.dispatched, 0u);
  EXPECT_TRUE(s.mid_frame());

  ASSERT_TRUE(s.in().append(std::string_view(frame).substr(
      proto::v3::frame_header_bytes, frame.size() / 2)));
  EXPECT_TRUE(s.pump({}, stats));
  EXPECT_EQ(stats.dispatched, 0u);
  EXPECT_TRUE(s.mid_frame());
  EXPECT_TRUE(s.out().empty());

  ASSERT_TRUE(s.in().append(std::string_view(frame).substr(
      proto::v3::frame_header_bytes + frame.size() / 2)));
  EXPECT_TRUE(s.pump({}, stats));
  EXPECT_EQ(stats.dispatched, 1u);
  EXPECT_FALSE(s.mid_frame());
  EXPECT_EQ(fx.server.reports_received(), 2u);
}

TEST(NetSession, BinaryBeforeHelloViolates) {
  handler_fixture fx;
  session_limits lim;  // require_hello defaults to true
  session s(lim, fx.server);

  pump_stats stats;
  ASSERT_TRUE(s.in().append(binary_report_frame(1)));
  EXPECT_FALSE(s.pump({}, stats));
  EXPECT_EQ(s.reason(), close_reason::hello_violation);
  EXPECT_EQ(stats.dispatched, 0u);
  // The refusal answers in the client's framing: a binary ERR version.
  const auto frames = split_frames(ring_text(s.out()));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(proto::v3::decode_error_frame(frames[0]).code,
            proto::err_code::version);
}

TEST(NetSession, BinaryOnNegotiatedV2SessionIsBadFrame) {
  handler_fixture fx;
  session_limits lim;
  session s(lim, fx.server);

  pump_stats stats;
  // The client explicitly negotiated down to 2: binary frames are a
  // protocol violation on this session even though the server knows v3.
  ASSERT_TRUE(s.in().append("HELLO ver=2\n"));
  EXPECT_TRUE(s.pump({}, stats));
  EXPECT_TRUE(s.saw_hello());
  EXPECT_EQ(s.negotiated_version(), 2u);
  s.out().consume(s.out().size());

  ASSERT_TRUE(s.in().append(binary_report_frame(1)));
  EXPECT_FALSE(s.pump({}, stats));
  EXPECT_EQ(s.reason(), close_reason::bad_frame);
  const auto frames = split_frames(ring_text(s.out()));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(proto::v3::decode_error_frame(frames[0]).code,
            proto::err_code::version);
  EXPECT_EQ(fx.server.reports_received(), 0u);
}

TEST(NetSession, NegotiatedV3SessionInterleavesTextAndBinary) {
  handler_fixture fx;
  session_limits lim;
  session s(lim, fx.server);

  pump_stats stats;
  ASSERT_TRUE(s.in().append(proto::encode(proto::hello_request{}) + "\n"));
  EXPECT_TRUE(s.pump({}, stats));
  EXPECT_EQ(s.negotiated_version(), proto::wire_version);
  s.out().consume(s.out().size());

  // binary REPORTB, text REPORT, binary QUERY, text STATS -- one buffer,
  // one pump, replies in order and each in its request's framing.
  ASSERT_TRUE(s.in().append(binary_report_frame(2)));
  ASSERT_TRUE(s.in().append(report_line(300.0) + "\n"));
  ASSERT_TRUE(s.in().append(binary_query_frame()));
  ASSERT_TRUE(s.in().append("STATS\n"));
  pump_stats mixed;
  EXPECT_TRUE(s.pump({}, mixed));
  EXPECT_EQ(mixed.dispatched, 4u);
  EXPECT_EQ(fx.server.reports_received(), 3u);

  std::string_view out = s.out().linearize();
  const auto ack_hdr = proto::v3::peek_header(out);
  ASSERT_TRUE(ack_hdr.has_value());
  ASSERT_EQ(ack_hdr->op, proto::v3::opcode::ack);
  out.remove_prefix(proto::v3::frame_header_bytes + ack_hdr->payload_len);
  ASSERT_EQ(out.substr(0, 4), "ACK\n");
  out.remove_prefix(4);
  const auto est_hdr = proto::v3::peek_header(out);
  ASSERT_TRUE(est_hdr.has_value());
  EXPECT_EQ(est_hdr->op, proto::v3::opcode::est);
  out.remove_prefix(proto::v3::frame_header_bytes + est_hdr->payload_len);
  EXPECT_EQ(out.substr(0, 6), "STATS ");
}

TEST(NetSession, OversizedBinaryFrameDisconnects) {
  handler_fixture fx;
  session_limits lim;
  lim.require_hello = false;
  session s(lim, fx.server);

  // A 6-byte header declaring a 2 MiB payload, past the 1 MiB read ring:
  // refused from the header alone -- the declared length is never buffered
  // or allocated.
  static_assert(session::read_buffer_bytes < (2u << 20));
  std::string hdr("\xB3\x02\x00\x00\x20\x00", 6);
  pump_stats stats;
  ASSERT_TRUE(s.in().append(hdr));
  EXPECT_FALSE(s.pump({}, stats));
  EXPECT_EQ(s.reason(), close_reason::oversize);
  const auto frames = split_frames(ring_text(s.out()));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(proto::v3::decode_error_frame(frames[0]).code,
            proto::err_code::parse);
}

TEST(NetSession, UndefinedBinaryOpcodeDisconnects) {
  handler_fixture fx;
  session_limits lim;
  lim.require_hello = false;
  session s(lim, fx.server);

  std::string bad("\xB3\x1f\x00\x00\x00\x00", 6);
  pump_stats stats;
  ASSERT_TRUE(s.in().append(bad));
  EXPECT_FALSE(s.pump({}, stats));
  EXPECT_EQ(s.reason(), close_reason::bad_frame);
  const auto frames = split_frames(ring_text(s.out()));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(proto::v3::decode_error_frame(frames[0]).code,
            proto::err_code::parse);
}

TEST(NetSession, BinaryFramesShedByOpcodeClass) {
  handler_fixture fx;
  session_limits lim;
  lim.require_hello = false;
  session s(lim, fx.server);

  shed_state shed;
  shed.saturation = 0.8;

  pump_stats stats;
  ASSERT_TRUE(s.in().append(binary_query_frame()));
  ASSERT_TRUE(s.in().append(binary_report_frame(2)));
  EXPECT_TRUE(s.pump(shed, stats));
  EXPECT_EQ(stats.shed_queries, 1u);
  EXPECT_EQ(stats.shed_reports, 0u);
  EXPECT_EQ(stats.dispatched, 1u);
  EXPECT_EQ(fx.server.reports_received(), 2u);

  // The shed refusal is a binary ERR overload, then the binary ACK.
  const auto frames = split_frames(ring_text(s.out()));
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(proto::v3::decode_error_frame(frames[0]).code,
            proto::err_code::overload);
  EXPECT_TRUE(proto::v3::decode_ack_frame(frames[1]).batched);
}

// ---- the session transcript ----------------------------------------------

// One mixed byte stream through a gated session, in two phases: the first
// unsaturated, the second at saturation 0.8, which sheds queries only. It
// covers the HELLO gate, a grouped REPORT run with a malformed line, a text
// QUERYB frame, binary REPORTB and QUERY frames, a shed query in each
// framing, a lone REPORT and a hostile frame header that closes the session.
struct transcript_phase {
  std::string bytes;
  double saturation;
};

std::vector<transcript_phase> transcript() {
  std::vector<proto::query_request> qs(2);
  qs[0].pos = here;
  qs[0].network = "NetB";
  qs[0].metric = trace::metric::udp_throughput_bps;
  qs[0].time_s = 200.0;
  qs[1] = qs[0];
  qs[1].metric = trace::metric::loss_rate;
  std::string open = "HELLO ver=3\n";
  open += report_line(100.0) + "\n" + report_line(101.0) + "\n";
  open += "REPORT client=1 csv=notcsv\n";
  open += report_line(102.0) + "\n";
  open += proto::encode_query_batch(qs) + "\n";
  open += binary_report_frame(2, 110.0);
  open += binary_query_frame();
  std::string saturated =
      "QUERY lat=43.07 lon=-89.4 net=NetB metric=tcp_throughput t=1\n";
  saturated += binary_query_frame();
  saturated += report_line(120.0) + "\n";
  saturated += "REPORTB 99999999999\n";
  return {{open, 0.0}, {saturated, 0.8}};
}

struct transcript_run {
  std::string out;
  pump_stats stats;
  close_reason reason = close_reason::none;
};

/// Runs the transcript on a fresh server. Phase `split_phase` arrives in
/// two reads cut at `cut`; every other phase arrives in one read. Each read
/// is pumped with its phase's saturation.
transcript_run run_transcript(std::size_t split_phase, std::size_t cut) {
  handler_fixture fx;
  session s(session_limits{}, fx.server);
  transcript_run run;
  const std::vector<transcript_phase> phases = transcript();
  bool open = true;
  for (std::size_t p = 0; p < phases.size() && open; ++p) {
    shed_state shed;
    shed.saturation = phases[p].saturation;
    const std::string_view bytes = phases[p].bytes;
    const std::size_t at = p == split_phase ? cut : bytes.size();
    for (const std::string_view part :
         {bytes.substr(0, at), bytes.substr(at)}) {
      if (part.empty() || !open) continue;
      EXPECT_TRUE(s.in().append(part));
      open = s.pump(shed, run.stats);
    }
  }
  run.out = ring_text(s.out());
  run.reason = s.reason();
  return run;
}

std::string unhex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

TEST(NetSession, MixedTranscriptIsStableAtEverySplit) {
  // Recorded from a running session; only an intended wire or framing
  // change may move it.
  const std::string golden =
      "HELLO ver=3 min=1\nACK\nACK\n"
      "ERR parse bad CSV field time_s: 'notcsv'\nACK\n"
      "ESTB 2\nNONE\nNONE\n" +
      unhex("b30509000000010200000000000000"  // ack 2 (binary REPORTB)
            "b3060100000000") +               // est, none (binary QUERY)
      "ERR overload ingest saturated; retry with backoff\n" +
      unhex("b3082700000005240069"
            "6e67657374207361747572617465643b2072657472792077697468206261"
            "636b6f6666") +
      "ACK\nERR parse malformed batch frame header\n";

  const std::vector<transcript_phase> phases = transcript();
  const transcript_run whole = run_transcript(0, phases[0].bytes.size());
  EXPECT_EQ(whole.out, golden);
  EXPECT_EQ(whole.stats.dispatched, 9u);
  EXPECT_EQ(whole.stats.shed_queries, 2u);
  EXPECT_EQ(whole.stats.shed_reports, 0u);
  EXPECT_EQ(whole.stats.grouped_reports, 4u);
  EXPECT_EQ(whole.reason, close_reason::bad_frame);

  // Any cut changes only how the REPORT run groups, never a reply byte,
  // a count or the close.
  for (std::size_t p = 0; p < phases.size(); ++p) {
    for (std::size_t cut = 1; cut < phases[p].bytes.size(); ++cut) {
      const transcript_run run = run_transcript(p, cut);
      if (run.out != whole.out ||
          run.stats.dispatched != whole.stats.dispatched ||
          run.stats.shed_queries != whole.stats.shed_queries ||
          run.stats.shed_reports != whole.stats.shed_reports ||
          run.reason != whole.reason) {
        ADD_FAILURE() << "phase " << p << " cut at byte " << cut
                      << " changed the transcript";
        return;
      }
    }
  }
}

TEST(TcpServer, MixedTextAndBinaryPipelinedSessionCoalesces) {
  handler_fixture fx;
  server_config cfg;
  cfg.event_loops = 1;  // require_hello stays on: full negotiation path
  tcp_server srv(fx.server, cfg);
  srv.start();

  line_client client;
  client.connect("127.0.0.1", srv.port());
  ASSERT_EQ(client.hello().version, proto::wire_version);

  // One pipelined block alternating text REPORT lines and binary REPORTB
  // frames: replies must come back in order, each in its request's
  // framing, coalesced into far fewer writev calls than replies.
  constexpr std::size_t kPairs = 32;
  std::string block;
  for (std::size_t i = 0; i < kPairs; ++i) {
    block += report_line(100.0 + static_cast<double>(i)) + "\n";
    block += binary_report_frame(2, 200.0 + static_cast<double>(2 * i));
  }
  proto::reply_buffer ack_rb;
  proto::v3::encode_ack_frame(2, ack_rb);
  const std::size_t binary_ack_bytes = ack_rb.view().size();

  const std::uint64_t writev0 = counter_value(obs::names::kNetWritevCalls);
  const std::size_t reply_bytes = client.pipeline(block, 2 * kPairs);
  EXPECT_EQ(reply_bytes, kPairs * (4 + binary_ack_bytes));
  const std::uint64_t writev_delta =
      counter_value(obs::names::kNetWritevCalls) - writev0;
  EXPECT_LT(writev_delta, kPairs);  // 2*kPairs replies, coalesced
  EXPECT_EQ(fx.server.reports_received(), 3 * kPairs);
  client.close();
  srv.stop();
}

TEST(TcpServer, BinaryRequestFrameRoundTripOverSocket) {
  handler_fixture fx;
  server_config cfg;
  cfg.event_loops = 1;
  tcp_server srv(fx.server, cfg);
  srv.start();

  line_client client;
  client.connect("127.0.0.1", srv.port());
  ASSERT_EQ(client.hello().version, proto::wire_version);

  const std::string_view ack = client.request_frame(binary_report_frame(4));
  EXPECT_EQ(proto::v3::decode_ack_frame(ack).count, 4u);
  const std::string_view est = client.request_frame(binary_query_frame());
  ASSERT_TRUE(proto::v3::peek_header(est).has_value());
  EXPECT_EQ(proto::v3::peek_header(est)->op, proto::v3::opcode::est);
  EXPECT_EQ(fx.server.reports_received(), 4u);
  client.close();
  srv.stop();
}

TEST(TcpServer, FollowerCatchUpAndPollOverRealSockets) {
  // The replication stream over the real front end (ISSUE 10): a follower
  // whose transport is line_client::request_frame after a negotiated
  // HELLO. Snapshot catch-up covers the epochs frozen before it joined;
  // poll() streams the ones frozen after. End state: frozen histories
  // bit-equal to the leader's.
  cellnet::deployment dep = testing::tiny_deployment();
  geo::zone_grid grid{dep.proj(), 250.0};
  core::sharded_config scfg;
  scfg.num_shards = 1;
  scfg.synchronous = true;
  scfg.coordinator.epochs.default_epoch_s = 100.0;
  core::sharded_coordinator lcoord(grid, dep.names(), scfg, 5);
  proto::coordinator_server lserver(lcoord);
  repl::replica lead(lcoord, repl::role::leader);
  lserver.attach_replication(&lead);

  server_config cfg;
  cfg.event_loops = 1;
  tcp_server srv(lserver, cfg);
  srv.start();

  auto ingest = [&](double t0, int n) {
    std::vector<trace::measurement_record> recs;
    for (int i = 0; i < n; ++i) {
      recs.push_back(testing::make_record(t0 + 10.0 * i, "NetB", here,
                                          trace::probe_kind::udp_burst,
                                          1.0e6 + 1000.0 * i));
      recs.back().client_id = 7;
    }
    lcoord.report_batch(recs);
    lcoord.flush();
  };
  ingest(0.0, 60);  // epochs frozen before the follower exists

  core::sharded_coordinator fcoord(grid, dep.names(), scfg, 5);
  repl::replica fol(fcoord, repl::role::follower);

  line_client client;
  client.connect("127.0.0.1", srv.port());
  ASSERT_GE(client.hello().version, 3u);  // frames are gated on HELLO
  const repl::transport over_tcp = [&](std::string_view frame) {
    return std::string(client.request_frame(frame));
  };

  fol.catch_up(over_tcp);
  const std::uint64_t after_snapshot = fol.applied_seq();
  EXPECT_GT(after_snapshot, 0u);

  ingest(600.0, 60);  // epochs frozen after catch-up ride the pull stream
  const std::optional<std::uint64_t> applied = fol.poll(over_tcp);
  ASSERT_TRUE(applied.has_value());
  EXPECT_GT(*applied, 0u);
  EXPECT_GT(fol.applied_seq(), after_snapshot);

  const std::vector<core::estimate_key> keys = lcoord.keys();
  ASSERT_FALSE(keys.empty());
  for (const core::estimate_key& k : keys) {
    const auto lh = lcoord.history(k);
    const auto fh = fcoord.history(k);
    ASSERT_EQ(lh.size(), fh.size());
    for (std::size_t i = 0; i < lh.size(); ++i) {
      EXPECT_EQ(lh[i].epoch_start_s, fh[i].epoch_start_s);
      EXPECT_EQ(lh[i].mean, fh[i].mean);
      EXPECT_EQ(lh[i].stddev, fh[i].stddev);
      EXPECT_EQ(lh[i].samples, fh[i].samples);
    }
  }
  client.close();
  srv.stop();
}

}  // namespace
}  // namespace wiscape::net
