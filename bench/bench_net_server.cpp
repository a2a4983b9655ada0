// Net server - the epoll TCP front end (ISSUE 7 tentpole; no paper figure
// -- this bench prices what a remote client pays to talk to the
// coordinator over real sockets instead of in-process handle() calls, and
// proves the two claims the transport makes: it holds C10k concurrent
// sessions on loopback with zero accounting violations, and QUERYB
// batching amortises the per-request syscall round trip away).
//
// Four measurements over one warm 4-shard coordinator (the
// bench_query_path corpus recipe):
//  * C10k: 10,000 concurrent loopback sessions opened, spot-checked with
//    live round trips, then closed. Acceptance: every session accepted
//    and accounted (accepts == closes, active back to 0, no oversize /
//    bad-frame / HELLO-violation disconnects).
//  * ingest: REPORTB frames of 64 streamed over one TCP connection vs the
//    same frames through handle() -- the wire tax on the write path.
//    Acceptance (exit code): wire ingest recovers >= 0.90x of the
//    in-process rate -- the ISSUE 8 zero-allocation reply path plus the
//    one-writev-per-wake flush close the gap from the 0.82x seed.
//  * pipelined REPORT: bursts of single-line REPORTs sent back-to-back on
//    one connection. The session detects the run, groups it through
//    handle_report_group() -> report_batch(), and all the ACKs leave in
//    one writev -- the adaptive micro-batch that makes naive line-per-line
//    reporters cheap without their opting into REPORTB.
//  * single QUERY over TCP: one request per round trip, the naive remote
//    client. Every item pays send + epoll wakeup + recv.
//  * batched QUERYB over TCP: the same lookups in frames of 1024, a few
//    frames in flight (the streamed shape a throughput-bound reader uses).
//    Acceptance (exit code): batched items/s >= 5x the single-QUERY
//    round-trip rate -- the transport claim that motivates QUERYB's
//    existence (docs/WIRE_PROTOCOL.md). The 5x bar applies when the
//    client has a core of its own on top of the event loops; timesharing
//    one core, single round trips degenerate to pure CPU cost (no real
//    wakeup latency to amortise) and the enforced bar becomes recovering
//    >= 80% of the in-process handler ceiling over the wire (5x still
//    enforced) -- the same oversubscription discipline as
//    bench_query_path, recalibrated for the ISSUE 8 handler speedup.
//
// The committed read-side baseline (bench_query_path read_wire, 0.49 M/s
// in-process single QUERY) is re-measured and printed for comparison. On a
// host with enough cores for the event loops, batched QUERYB across
// several connections reaches past that baseline toward 5x via loop
// parallelism (SO_REUSEPORT spreads sessions across loops, and the sharded
// coordinator takes the dispatches).
//
// Machine-readable results go to bench_net_server.jsonl in the working
// directory (one JSON object per line; schema in EXPERIMENTS.md).
//
//   ./bench_net_server [reports] [sessions]
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/sharded_coordinator.h"
#include "geo/projection.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "proto/server.h"
#include "proto/wire_v3.h"
#include "stats/rng.h"
#include "trace/record.h"

using namespace wiscape;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The bench_query_path corpus: all probe kinds, two operators, a 5x5 zone
// neighbourhood.
std::vector<trace::measurement_record> make_stream(const geo::projection& proj,
                                                   std::size_t count) {
  stats::rng_stream rng(bench::bench_seed);
  std::vector<trace::measurement_record> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    trace::measurement_record r;
    r.time_s = 1000.0 + static_cast<double>(i) * 0.5;
    r.network = rng.chance(0.5) ? "NetB" : "NetC";
    r.pos = proj.to_lat_lon(
        {443.0 * static_cast<double>(rng.uniform_int(-2, 2)),
         443.0 * static_cast<double>(rng.uniform_int(-2, 2))});
    r.client_id = 1 + (i % 64);
    r.kind = static_cast<trace::probe_kind>(rng.uniform_int(0, 3));
    r.success = true;
    if (r.kind == trace::probe_kind::ping) {
      r.rtt_s = 0.1 + 0.02 * rng.uniform();
      r.ping_sent = 5;
    } else {
      r.throughput_bps = 1e6 * (1.0 + rng.uniform());
    }
    out.push_back(r);
  }
  return out;
}

core::sharded_config pipeline_config() {
  core::sharded_config cfg;
  cfg.coordinator.epochs.default_epoch_s = 120.0;
  cfg.num_shards = 4;
  cfg.synchronous = false;
  cfg.queue_capacity = 4096;
  return cfg;
}

/// C10k needs ~2x `sessions` descriptors in one process (client + server
/// ends both live here); lift RLIMIT_NOFILE as far as the hard cap allows.
std::size_t raise_nofile(std::size_t want) {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur < want) {
    rlimit raised = lim;
    raised.rlim_cur =
        lim.rlim_max == RLIM_INFINITY
            ? want
            : std::min<rlim_t>(want, lim.rlim_max);
    if (setrlimit(RLIMIT_NOFILE, &raised) == 0) lim = raised;
  }
  return static_cast<std::size_t>(lim.rlim_cur);
}

std::uint64_t counter_value(const char* name) {
  return static_cast<std::uint64_t>(
      obs::registry::global().get_counter(name).value());
}

void jsonl_result(std::ofstream& out, const char* mode, std::size_t ops,
                  double ops_per_s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", ops_per_s);
  out << "{\"bench\":\"net_server\",\"mode\":\"" << mode
      << "\",\"ops\":" << ops << ",\"ops_per_s\":" << buf << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t reports =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200'000;
  std::size_t sessions =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 10'000;
  constexpr int kReps = 3;
  constexpr std::size_t kFrame = 64;     // REPORTB records per frame
  constexpr std::size_t kQueryB = 1024;  // QUERYB lookups per frame

  bench::banner("Net server - epoll TCP front end",
                "no paper figure; ISSUE 7 acceptance (C10k sessions clean, "
                "batched QUERYB >= 5x single round trips)");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t loops = std::min<std::size_t>(4, hw);
  // The client fleet runs in a forked child so each side of the 10k
  // connections has its own descriptor budget (one fd per session per
  // process, plus slack for epoll/listeners/stdio).
  const std::size_t nofile = raise_nofile(sessions + 1024);
  if (nofile > 0 && nofile < sessions + 1024) sessions = nofile - 1024;
  std::printf("  reports: %zu, sessions: %zu, event loops: %zu, "
              "cores: %u, nofile: %zu\n\n",
              reports, sessions, loops, hw, nofile);

  const geo::projection proj(cellnet::anchors::madison);
  const geo::zone_grid grid(proj, 250.0);
  const auto stream = make_stream(proj, reports);
  double sink = 0.0;

  // ---- warm coordinator behind the TCP front end --------------------------
  core::sharded_coordinator warm(grid, {"NetB", "NetC"}, pipeline_config(),
                                 bench::bench_seed);
  for (const auto& rec : stream) warm.report(rec);
  warm.flush();
  proto::coordinator_server server(warm);

  std::vector<proto::query_request> queries;
  for (const auto& key : warm.keys()) {
    proto::query_request q;
    q.pos = grid.center(key.zone);
    q.network = key.network;
    q.metric = key.metric;
    q.time_s = stream.back().time_s;
    queries.push_back(q);
  }
  std::printf("  streams materialised: %zu\n\n", queries.size());

  net::server_config ncfg;
  ncfg.event_loops = loops;
  ncfg.limits.require_hello = false;  // sized legs skip the handshake
  ncfg.max_sessions = sessions + 64;
  // The kernel silently caps the listen backlog (tcp_server::listen_backlog)
  // at somaxconn; an overflowed accept queue drops final ACKs and strands
  // connections in SYN-ACK retransmit backoff, so the connect loop below
  // also paces itself.
  net::tcp_server tcp(server, ncfg);
  tcp.start();

  // ---- C10k: concurrent loopback sessions ---------------------------------
  bool c10k_ok = true;
  double connect_rate = 0.0;
  {
    const std::uint64_t accepts0 = counter_value(obs::names::kNetAccepts);
    const std::uint64_t closes0 = counter_value(obs::names::kNetCloses);
    const std::uint64_t bad0 =
        counter_value(obs::names::kNetOversizeDisconnects) +
        counter_value(obs::names::kNetHelloViolations) +
        counter_value(obs::names::kNetCapacityRejects);

    int to_child[2], to_parent[2];
    if (pipe(to_child) != 0 || pipe(to_parent) != 0) return 2;
    const std::uint16_t port = tcp.port();
    const std::string probe = proto::encode(queries.front());
    const double t0 = now_s();
    const pid_t pid = fork();
    if (pid == 0) {
      // Child: the client fleet. It inherited the server's fds but not its
      // threads -- it only connects, probes, holds, and closes on command.
      ::close(to_child[1]);
      ::close(to_parent[0]);
      std::vector<net::line_client> fleet(sessions);
      std::size_t connected = 0;
      for (auto& c : fleet) {
        if (!c.try_connect("127.0.0.1", port)) break;
        // Stay inside the accept queue: on a timeshared core a tight
        // connect loop outruns the loops' accept drain, overflows the
        // backlog, and strands handshakes in SYN-ACK retransmit backoff.
        if (++connected % 1024 == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
      // Spot-check: every 500th session still answers a live round trip
      // while the other thousands sit connected.
      bool child_ok = connected == sessions;
      for (std::size_t i = 0; i < connected; i += 500) {
        try {
          const std::string reply = fleet[i].request(probe);
          const auto type = proto::message_type(reply);
          child_ok &= type == "EST" || type == "NONE";
        } catch (const std::exception&) {
          child_ok = false;
        }
      }
      char status = child_ok ? 'U' : 'u';
      (void)!::write(to_parent[1], &status, 1);
      char cmd = 0;
      (void)!::read(to_child[0], &cmd, 1);
      for (auto& c : fleet) c.close();
      status = 'D';
      (void)!::write(to_parent[1], &status, 1);
      ::_exit(0);  // skip destructors of the inherited (threadless) server
    }
    ::close(to_child[0]);
    ::close(to_parent[1]);
    char status = 0;
    (void)!::read(to_parent[0], &status, 1);
    const bool probe_ok = status == 'U';
    connect_rate = static_cast<double>(sessions) / (now_s() - t0);
    for (int spin = 0; spin < 5000 && tcp.active_sessions() < sessions;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::size_t peak = tcp.active_sessions();
    const bool up_ok = peak == sessions;

    const char go = 'C';
    (void)!::write(to_child[1], &go, 1);
    (void)!::read(to_parent[0], &status, 1);
    for (int spin = 0; spin < 10000 && tcp.active_sessions() > 0; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    ::close(to_child[1]);
    ::close(to_parent[0]);
    const bool drain_ok = tcp.active_sessions() == 0;
    const std::uint64_t accepted =
        counter_value(obs::names::kNetAccepts) - accepts0;
    const std::uint64_t closed = counter_value(obs::names::kNetCloses) - closes0;
    const std::uint64_t bad =
        counter_value(obs::names::kNetOversizeDisconnects) +
        counter_value(obs::names::kNetHelloViolations) +
        counter_value(obs::names::kNetCapacityRejects) - bad0;
    const bool ledger_ok =
        accepted == sessions && closed == accepted && bad == 0;
    c10k_ok = up_ok && probe_ok && drain_ok && ledger_ok;
    std::printf("  C10k: %zu sessions up (%0.0f connects/s), peak=%zu "
                "accepted=%llu closed=%llu violations=%llu\n"
                "        up=%s probes=%s drain=%s ledger=%s -> %s\n\n",
                sessions, connect_rate, peak,
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(closed),
                static_cast<unsigned long long>(bad), up_ok ? "ok" : "FAIL",
                probe_ok ? "ok" : "FAIL", drain_ok ? "ok" : "FAIL",
                ledger_ok ? "ok" : "FAIL",
                c10k_ok ? "clean" : "VIOLATION");
  }

  // ---- REPORTB ingest: wire vs in-process ---------------------------------
  std::vector<std::string> report_frames;
  for (std::size_t off = 0; off < stream.size(); off += kFrame) {
    const std::size_t n = std::min(kFrame, stream.size() - off);
    report_frames.push_back(
        proto::encode_report_batch(std::span(stream).subspan(off, n)));
  }
  // Strict request-response first (the pre-ISSUE-8 shape, one frame per
  // round trip: every frame pays a context-switch pair), then the streamed
  // shape a real feeder uses -- kDepth frames in flight on one connection,
  // which is what the adaptive read-drain + one-writev-per-wake flush were
  // built for. The streamed number is the gated "TCP REPORTB ingest" rate.
  // The gated ratio interleaves an in-process pass and a streamed pass
  // within each rep and takes the median of the per-rep paired ratios --
  // the bench_query_path discipline, so host drift hits both columns
  // equally instead of letting one leg's lucky rep skew the quotient.
  constexpr std::size_t kDepth = 16;  // REPORTB frames in flight
  std::vector<std::string> bursts;
  std::vector<std::size_t> burst_counts;
  for (std::size_t off = 0; off < report_frames.size(); off += kDepth) {
    const std::size_t n = std::min(kDepth, report_frames.size() - off);
    std::string burst;
    for (std::size_t i = 0; i < n; ++i) {
      burst += report_frames[off + i];
      burst += '\n';
    }
    bursts.push_back(std::move(burst));
    burst_counts.push_back(n);
  }
  double inproc_ingest = 0.0;
  double wire_ingest_rr = 0.0, wire_ingest = 0.0;
  double ingest_ratio = 0.0;
  {
    net::line_client c;
    c.connect("127.0.0.1", tcp.port());
    for (int r = 0; r < kReps; ++r) {
      const double t0 = now_s();
      for (const auto& f : report_frames) sink += c.request_view(f).size();
      wire_ingest_rr = std::max(
          wire_ingest_rr, static_cast<double>(stream.size()) / (now_s() - t0));
    }
    std::vector<double> ratios;
    for (int r = 0; r < kReps; ++r) {
      double t0 = now_s();
      for (const auto& f : report_frames) {
        sink += bench::reply_of(server, f).size();
      }
      const double inproc =
          static_cast<double>(stream.size()) / (now_s() - t0);
      inproc_ingest = std::max(inproc_ingest, inproc);
      t0 = now_s();
      for (std::size_t b = 0; b < bursts.size(); ++b) {
        sink += static_cast<double>(c.pipeline(bursts[b], burst_counts[b]));
      }
      const double wire = static_cast<double>(stream.size()) / (now_s() - t0);
      wire_ingest = std::max(wire_ingest, wire);
      ratios.push_back(wire / inproc);
    }
    std::sort(ratios.begin(), ratios.end());
    ingest_ratio = ratios[ratios.size() / 2];
  }
  std::printf("  REPORTB ingest, in-process:        %11.0f records/s\n",
              inproc_ingest);
  std::printf("  REPORTB ingest, TCP round trips:   %11.0f records/s  "
              "(%.2fx)\n",
              wire_ingest_rr, wire_ingest_rr / inproc_ingest);
  std::printf("  REPORTB ingest, TCP streamed x%zu:  %11.0f records/s  "
              "(%.2fx median paired)\n\n",
              kDepth, wire_ingest, ingest_ratio);

  // ---- binary v3 ingest: the same records, length-prefixed frames ---------
  // The wire v3 REPORTB: identical records, identical stream depth and
  // connection, but fixed-width binary payloads instead of CSV -- no float
  // printing on the client, no parse on the server. Each rep interleaves a
  // text streamed pass and a binary streamed pass and the gated gain is the
  // median of the per-rep paired ratios, so host drift cancels. This is
  // the tentpole claim: the binary framing must buy >= 1.5x the text
  // streamed ingest rate.
  std::vector<std::string> report_frames_v3;
  for (std::size_t off = 0; off < stream.size(); off += kFrame) {
    const std::size_t n = std::min(kFrame, stream.size() - off);
    report_frames_v3.push_back(proto::v3::encode_report_batch_frame(
        std::span(stream).subspan(off, n)));
  }
  double wire_ingest_v3 = 0.0;
  double ingest_v3_gain = 0.0;  // median paired v3/text streamed ratio
  {
    // Binary frames are self-delimiting: bursts concatenate without
    // separators.
    std::vector<std::string> bursts_v3;
    std::vector<std::size_t> burst_counts_v3;
    for (std::size_t off = 0; off < report_frames_v3.size(); off += kDepth) {
      const std::size_t n = std::min(kDepth, report_frames_v3.size() - off);
      std::string burst;
      for (std::size_t i = 0; i < n; ++i) burst += report_frames_v3[off + i];
      bursts_v3.push_back(std::move(burst));
      burst_counts_v3.push_back(n);
    }
    net::line_client c;
    c.connect("127.0.0.1", tcp.port());
    std::vector<double> ratios;
    for (int r = 0; r < kReps; ++r) {
      double t0 = now_s();
      for (std::size_t b = 0; b < bursts.size(); ++b) {
        sink += static_cast<double>(c.pipeline(bursts[b], burst_counts[b]));
      }
      const double text = static_cast<double>(stream.size()) / (now_s() - t0);
      t0 = now_s();
      for (std::size_t b = 0; b < bursts_v3.size(); ++b) {
        sink += static_cast<double>(
            c.pipeline(bursts_v3[b], burst_counts_v3[b]));
      }
      const double binary =
          static_cast<double>(stream.size()) / (now_s() - t0);
      wire_ingest_v3 = std::max(wire_ingest_v3, binary);
      ratios.push_back(binary / text);
    }
    std::sort(ratios.begin(), ratios.end());
    ingest_v3_gain = ratios[ratios.size() / 2];
  }
  std::printf("  REPORTB ingest, TCP binary v3 x%zu: %11.0f records/s  "
              "(%.2fx text streamed, median paired)\n\n",
              kDepth, wire_ingest_v3, ingest_v3_gain);

  // ---- pipelined single-line REPORTs --------------------------------------
  // Bursts of complete REPORT lines land in one read; the session's
  // micro-batch detector hands each run to handle_report_group() and the
  // positional ACKs leave in a single writev. This is the naive
  // line-per-line reporter made cheap -- no REPORTB opt-in required.
  constexpr std::size_t kPipeline = 256;
  std::vector<std::string> report_blocks;
  std::vector<std::size_t> block_counts;
  {
    proto::measurement_report rep;
    std::string block;
    std::size_t in_block = 0;
    for (const auto& rec : stream) {
      rep.client_id = rec.client_id;
      rep.record = rec;
      block += proto::encode(rep);
      block += '\n';
      if (++in_block == kPipeline) {
        report_blocks.push_back(std::move(block));
        block_counts.push_back(in_block);
        block.clear();
        in_block = 0;
      }
    }
    if (in_block > 0) {
      report_blocks.push_back(std::move(block));
      block_counts.push_back(in_block);
    }
  }
  double wire_pipelined = 0.0;
  std::uint64_t pipeline_writevs = 0;
  {
    net::line_client c;
    c.connect("127.0.0.1", tcp.port());
    const std::uint64_t w0 = counter_value(obs::names::kNetWritevCalls);
    for (int r = 0; r < kReps; ++r) {
      const double t0 = now_s();
      for (std::size_t b = 0; b < report_blocks.size(); ++b) {
        sink += static_cast<double>(
            c.pipeline(report_blocks[b], block_counts[b]));
      }
      wire_pipelined = std::max(
          wire_pipelined, static_cast<double>(stream.size()) / (now_s() - t0));
    }
    pipeline_writevs = counter_value(obs::names::kNetWritevCalls) - w0;
  }
  std::printf("  pipelined REPORT, over TCP:        %11.0f records/s  "
              "(%.2fx in-process REPORTB; %llu writevs for %zu replies)\n\n",
              wire_pipelined, wire_pipelined / inproc_ingest,
              static_cast<unsigned long long>(pipeline_writevs),
              static_cast<std::size_t>(kReps) * stream.size());

  // ---- read path: in-process baseline, then the two wire shapes -----------
  std::vector<std::string> single_lines;
  for (const auto& q : queries) single_lines.push_back(proto::encode(q));
  std::vector<std::string> query_frames;
  for (std::size_t off = 0; off < queries.size(); off += kQueryB) {
    const std::size_t n = std::min(kQueryB, queries.size() - off);
    query_frames.push_back(
        proto::encode_query_batch(std::span(queries).subspan(off, n)));
  }

  const std::size_t inproc_ops = std::max<std::size_t>(reports / 2, 50'000);
  double inproc_query = 0.0;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = now_s();
    // Manual wrap instead of `i % size`: the div would be the single most
    // expensive instruction in this loop.
    std::size_t line = 0;
    for (std::size_t i = 0; i < inproc_ops; ++i) {
      sink += bench::reply_of(server, single_lines[line]).size();
      if (++line == single_lines.size()) line = 0;
    }
    inproc_query = std::max(
        inproc_query, static_cast<double>(inproc_ops) / (now_s() - t0));
  }

  net::line_client reader;
  reader.connect("127.0.0.1", tcp.port());

  // Single QUERY per round trip: every item pays the full syscall + epoll
  // wakeup; size the op count off a quick calibration so the leg stays
  // seconds long at any round-trip latency.
  double calib0 = now_s();
  for (int i = 0; i < 200; ++i) {
    sink += reader.request_view(single_lines[0]).size();
  }
  const double rtt = (now_s() - calib0) / 200.0;
  const std::size_t single_ops = std::max<std::size_t>(
      2000, std::min<std::size_t>(100'000,
                                  static_cast<std::size_t>(2.0 / rtt)));
  // Two extra reps here: the round trip is context-switch-bound, and the
  // scheduler's per-run variance (~10%) dominates any code-level delta, so
  // max-of-N needs a few more samples than the CPU-bound legs.
  double tcp_query = 0.0;
  for (int r = 0; r < kReps + 2; ++r) {
    const double t0 = now_s();
    std::size_t line = 0;
    for (std::size_t i = 0; i < single_ops; ++i) {
      sink += reader.request_view(single_lines[line]).size();
      if (++line == single_lines.size()) line = 0;
    }
    tcp_query = std::max(tcp_query,
                         static_cast<double>(single_ops) / (now_s() - t0));
  }

  // The same single round trips through binary v3 query frames: still one
  // syscall pair + wakeup per item, so the framing can only shave the
  // encode/parse share of each trip.
  std::vector<std::string> single_frames_v3;
  for (const auto& q : queries) {
    single_frames_v3.push_back(proto::v3::encode_query_frame(q));
  }
  double tcp_query_v3 = 0.0;
  for (int r = 0; r < kReps + 2; ++r) {
    const double t0 = now_s();
    std::size_t line = 0;
    for (std::size_t i = 0; i < single_ops; ++i) {
      sink += reader.request_frame(single_frames_v3[line]).size();
      if (++line == single_frames_v3.size()) line = 0;
    }
    tcp_query_v3 = std::max(tcp_query_v3,
                            static_cast<double>(single_ops) / (now_s() - t0));
  }

  // Batched QUERYB: the same lookups, kQueryB per frame, over the wire and
  // in-process (the handler ceiling batching converges to). The wire half
  // streams kQDepth frames in flight on the one connection -- the shape a
  // throughput-bound remote reader uses, and the same shape the ingest leg
  // measures -- so the adaptive read-drain dispatches several frames per
  // wake and the ESTB replies coalesce into few writevs. The two passes
  // interleave within each rep and the ceiling-recovery ratio is the
  // median of the per-rep pairs, same discipline as the ingest legs.
  const std::size_t batch_rounds =
      std::max<std::size_t>(1, 200'000 / std::max<std::size_t>(
                                             1, queries.size()));
  constexpr std::size_t kQDepth = 4;  // QUERYB frames in flight
  double inproc_queryb = 0.0, tcp_queryb = 0.0;
  double queryb_recovery = 0.0;
  {
    std::vector<std::string> qbursts;
    std::vector<std::size_t> qburst_counts;
    for (std::size_t off = 0; off < query_frames.size(); off += kQDepth) {
      const std::size_t n = std::min(kQDepth, query_frames.size() - off);
      std::string burst;
      for (std::size_t i = 0; i < n; ++i) {
        burst += query_frames[off + i];
        burst += '\n';
      }
      qbursts.push_back(std::move(burst));
      qburst_counts.push_back(n);
    }
    std::vector<double> ratios;
    for (int r = 0; r < kReps; ++r) {
      double t0 = now_s();
      std::size_t items = 0;
      while (items < inproc_ops) {
        for (const auto& f : query_frames) {
          sink += bench::reply_of(server, f).size();
        }
        items += queries.size();
      }
      const double inproc = static_cast<double>(items) / (now_s() - t0);
      inproc_queryb = std::max(inproc_queryb, inproc);
      t0 = now_s();
      items = 0;
      for (std::size_t round = 0; round < batch_rounds; ++round) {
        for (std::size_t b = 0; b < qbursts.size(); ++b) {
          sink += static_cast<double>(
              reader.pipeline(qbursts[b], qburst_counts[b]));
        }
        items += queries.size();
      }
      const double wire = static_cast<double>(items) / (now_s() - t0);
      tcp_queryb = std::max(tcp_queryb, wire);
      ratios.push_back(wire / inproc);
    }
    std::sort(ratios.begin(), ratios.end());
    queryb_recovery = ratios[ratios.size() / 2];
  }
  reader.close();

  const double batch_speedup = tcp_queryb / tcp_query;
  std::printf("  read-only, in-process QUERY:       %11.0f queries/s  "
              "(committed baseline 491716/s)\n",
              inproc_query);
  std::printf("  read-only, in-process QUERYB:      %11.0f lookups/s  "
              "(handler ceiling)\n",
              inproc_queryb);
  std::printf("  single QUERY over TCP:             %11.0f round trips/s\n",
              tcp_query);
  std::printf("  single binary QUERY over TCP:      %11.0f round trips/s  "
              "(%.2fx text)\n",
              tcp_query_v3, tcp_query_v3 / tcp_query);
  std::printf("  batched QUERYB over TCP (x%zu):      %11.0f lookups/s  "
              "(%.1fx single round trips, %.0f%% of ceiling, median paired "
              "%.2fx)\n",
              kQDepth, tcp_queryb, batch_speedup,
              100.0 * tcp_queryb / inproc_queryb, queryb_recovery);

  // The acceptance bar. With a core for the client on top of the event
  // loops, a single-QUERY client pays genuine wakeup latency per item
  // while QUERYB hides it: the 5x amortisation claim is enforceable
  // directly. Timesharing one core, both legs degenerate to pure CPU cost
  // and the ratio is capped by handler-cost ratios no matter how good the
  // transport is -- there the additional enforceable claim is that
  // batching recovers >= 80% of the in-process handler ceiling over the
  // wire (paired-rep median, the same oversubscription discipline as
  // bench_query_path). 80%, not the 90% this bench shipped with: the
  // zero-allocation reply path (ISSUE 8) made the in-process ceiling
  // ~1.6x faster, while a QUERYB frame still moves ~165 KiB through the
  // kernel (65 KiB of queries in, ~100 KiB of ESTB out) with every byte
  // traversed ~4x (encode, ring, kernel copy, client line scan) on the
  // same timeshared core -- a fixed per-byte tax that is now a larger
  // fraction of the faster ceiling. The 5x amortisation claim is enforced
  // in both regimes.
  const bool dedicated_cores = hw >= loops + 1;
  const double bar = 5.0;
  const bool batch_ok =
      batch_speedup >= bar && (dedicated_cores || queryb_recovery >= 0.80);
  std::printf("  cores: %u for %zu loops + client -> bar %.2fx%s\n\n", hw,
              loops, bar,
              dedicated_cores ? ""
                              : "  (timeshared: plus >= 0.80x ceiling "
                                "recovery, median paired)");

  tcp.stop();

  // ISSUE 8 bar: the zero-allocation reply path plus one-writev-per-wake
  // flushing must recover >= 0.90x of the in-process REPORTB ingest rate
  // over the wire (the seed shipped at 0.82x).
  const bool ingest_ok = ingest_ratio >= 0.90;
  // ISSUE 9 bar: streamed binary REPORTB ingest must reach >= 1.5x the
  // text streamed rate (median paired) -- the claim that justifies the
  // second codec's existence.
  const bool ingest_v3_ok = ingest_v3_gain >= 1.5;

  bench::report("C10k concurrent sessions",
                std::to_string(sessions) + " clean",
                c10k_ok ? "clean" : "VIOLATION");
  bench::report("REPORTB over TCP vs in-process", ">= 0.90x",
                bench::fmt(ingest_ratio) + "x");
  bench::report("binary v3 ingest vs text streamed", ">= 1.50x",
                bench::fmt(ingest_v3_gain) + "x");
  bench::report("batched QUERYB vs single round trips",
                ">= " + bench::fmt(bar) + "x",
                bench::fmt(batch_speedup) + "x");
  bench::report("QUERYB wire recovery of ceiling",
                dedicated_cores ? "-" : ">= 0.80x (timeshared)",
                bench::fmt(queryb_recovery) + "x");
  bench::report("QUERYB over TCP vs in-process QUERY", "-",
                bench::fmt(tcp_queryb / inproc_query) + "x");

  std::ofstream jsonl("bench_net_server.jsonl");
  jsonl_result(jsonl, "c10k_sessions", sessions, connect_rate);
  jsonl_result(jsonl, "ingest_inproc", stream.size(), inproc_ingest);
  jsonl_result(jsonl, "ingest_wire_rr", stream.size(), wire_ingest_rr);
  jsonl_result(jsonl, "ingest_wire", stream.size(), wire_ingest);
  jsonl_result(jsonl, "ingest_wire_v3", stream.size(), wire_ingest_v3);
  jsonl_result(jsonl, "ingest_wire_pipelined", stream.size(), wire_pipelined);
  jsonl_result(jsonl, "query_inproc", inproc_ops, inproc_query);
  jsonl_result(jsonl, "queryb_inproc", inproc_ops, inproc_queryb);
  jsonl_result(jsonl, "query_wire_single", single_ops, tcp_query);
  jsonl_result(jsonl, "query_wire_single_v3", single_ops, tcp_query_v3);
  jsonl_result(jsonl, "query_wire_batched",
               static_cast<std::size_t>(batch_rounds * queries.size()),
               tcp_queryb);
  {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"bench\":\"net_server\",\"mode\":\"acceptance\","
                  "\"batch_speedup\":%.2f,\"bar\":%.2f,\"c10k_clean\":%s,"
                  "\"ingest_ratio\":%.2f,\"ingest_v3_gain\":%.2f,"
                  "\"queryb_recovery\":%.2f,"
                  "\"cores\":%u,\"event_loops\":%zu}\n",
                  batch_speedup, bar, c10k_ok ? "true" : "false",
                  ingest_ratio, ingest_v3_gain, queryb_recovery, hw, loops);
    jsonl << buf;
  }

  std::fprintf(stderr, "# checksum %.1f\n", sink);
  return (c10k_ok && ingest_ok && ingest_v3_ok && batch_ok) ? 0 : 1;
}
