// The benchmark's server process: one WiScape coordinator behind the epoll
// TCP front end, in one of three roles.
//
//   pb_server prepare --workload W --seed N --dir D
//       Writes the workload's warm state to D: a snapshot of every warm
//       stream plus a WAL holding the frozen epochs of a row of streams
//       born after that snapshot. Untimed; the served process recovers it
//       at setup.
//   pb_server serve --workload W --dir D
//                   [--role plain|leader|follower] [--leader-port P]
//       plain:    recovers D, serves; no replication, no WAL appends.
//       leader:   recovers D, tees every rollover into an epoch log and
//                 (with the workload's wal_live) into D's WAL.
//       follower: starts empty, snapshot-catches-up from the leader, then
//                 polls EPOCH every poll_ms on a thread of its own.
//       Event loops, shards and the poll interval are the workload's
//       (common.h). The server never sheds: a full report queue blocks its
//       event loop, so an overloaded run slows down instead of failing
//       requests.
//
// A serving process prints "LOOPS <n>", "SHARDS <n>", its recovery or
// catch-up time, and "PORT <n>" once it accepts connections, then takes
// commands on stdin, one per line, answering on stdout:
//   FP      flush (follower: one last poll) and print the table fingerprint
//   VERIFY  plain: checkpoint D; then recover D into a fresh coordinator
//           and compare its fingerprint with the live one
//   QUIT    stop serving and exit 0
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "core/durable_log.h"
#include "net/client.h"
#include "net/server.h"
#include "proto/server.h"
#include "repl/epoch_log.h"
#include "repl/replica.h"

using namespace wiscape;

namespace {

struct args {
  std::string mode, workload, dir, role = "plain";
  std::uint64_t seed = 1;
  std::uint16_t leader_port = 0;
};

args parse(int argc, char** argv) {
  args a;
  if (argc < 2) throw std::invalid_argument("usage: pb_server prepare|serve ...");
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--dir") a.dir = v;
    else if (k == "--role") a.role = v;
    else if (k == "--leader-port") a.leader_port = static_cast<std::uint16_t>(std::stoul(v));
    else throw std::invalid_argument("unknown flag " + k);
  }
  return a;
}

int prepare(const args& a, const pb::workload& w) {
  const pb::keyspace ks(w, a.seed, 1);
  core::sharded_coordinator coord(ks.grid(), pb::networks(),
                                  pb::coordinator_config(w, 1, true),
                                  pb::kServerSeed);
  trace::measurement_record r;
  for (int e = 0; e < w.warm_epochs; ++e) {
    for (std::uint32_t z = 0; z < ks.zones(); ++z) {
      for (std::uint64_t k = 0; k < pb::kWarmPerZone; ++k) {
        pb::warm_record(ks, a.seed, w, e, ks.zone(z), k, r);
        coord.report(r);
      }
    }
  }
  core::durable_log dl(a.dir);
  dl.checkpoint(coord);
  // Streams born after the checkpoint: their frozen epochs ride the WAL
  // only (their open epochs are lost, as in a crash).
  repl::epoch_log log(repl::default_log_capacity, &dl);
  coord.set_epoch_tap(&log);
  for (int e = 0; e < w.warm_epochs; ++e) {
    for (int ix = 0; ix < ks.side(); ++ix) {
      for (std::uint64_t k = 0; k < pb::kWarmPerZone; ++k) {
        pb::warm_record(ks, a.seed, w, e, pb::wal_zone(ks, ix), k, r);
        coord.report(r);
      }
    }
  }
  coord.set_epoch_tap(nullptr);
  std::printf("prepared %s: %s wal_records=%llu\n", w.name.c_str(),
              pb::fingerprint_text(pb::table_fingerprint(coord)).c_str(),
              static_cast<unsigned long long>(log.last_seq()));
  return 0;
}

/// Connects a line client to the local leader and negotiates v3.
void connect_v3(net::line_client& c, std::uint16_t port) {
  c.connect("127.0.0.1", port);
  c.hello(3);
}

int serve(const args& a, const pb::workload& w) {
  const pb::keyspace ks(w, 0, 1);
  core::sharded_coordinator coord(ks.grid(), pb::networks(),
                                  pb::coordinator_config(w, w.shards, false),
                                  pb::kServerSeed);
  std::printf("LOOPS %zu\nSHARDS %zu\n", w.loops, w.shards);
  core::durable_log dl(a.dir);
  std::unique_ptr<repl::leader> leader;
  std::unique_ptr<repl::follower> follower;
  net::line_client to_leader;
  std::mutex poll_mu;  // orders the poll thread against the FP command
  const repl::transport send = [&](std::string_view frame) {
    return std::string(to_leader.request_frame(frame));
  };

  if (a.role == "follower") {
    follower = std::make_unique<repl::follower>(coord);
    connect_v3(to_leader, a.leader_port);
    const double t0 = pb::now_s();
    follower->catch_up(send);
    std::printf("CATCHUP_S %.9f\n", pb::now_s() - t0);
  } else {
    const double t0 = pb::now_s();
    const std::uint64_t last = dl.recover(coord);
    std::printf("RECOVER_S %.9f\n", pb::now_s() - t0);
    if (a.role == "leader") {
      leader = std::make_unique<repl::leader>(
          coord, repl::default_log_capacity, w.wal_live ? &dl : nullptr);
      leader->log().reset(last + 1);
    }
  }

  proto::coordinator_server server(coord);
  if (leader) server.attach_replication(leader.get());
  if (follower) server.attach_replication(follower.get());
  net::server_config ncfg;
  ncfg.event_loops = w.loops;
  net::tcp_server tcp(server, ncfg);
  tcp.start();

  std::atomic<bool> polling{follower != nullptr};
  std::thread poller;
  if (follower) {
    poller = std::thread([&] {
      while (polling.load()) {
        {
          std::lock_guard<std::mutex> lock(poll_mu);
          try {
            if (!follower->poll(send)) {
              std::fprintf(stderr, "pb_server: follower fell off the log\n");
              polling = false;
            }
          } catch (const std::exception& e) {
            std::fprintf(stderr, "pb_server: follower poll failed: %s\n",
                         e.what());
            polling = false;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(w.poll_ms));
      }
    });
  }

  std::printf("PORT %u\n", tcp.port());
  std::fflush(stdout);

  int rc = 0;
  std::string cmd;
  while (std::getline(std::cin, cmd)) {
    if (cmd == "FP") {
      coord.flush();
      bool behind = false;
      if (follower) {
        std::lock_guard<std::mutex> lock(poll_mu);
        behind = !follower->poll(send);
      }
      // A follower that fell off the leader's log has no comparable table.
      std::printf("FP %s\n",
                  behind ? "fell-off-the-log"
                         : pb::fingerprint_text(pb::table_fingerprint(coord)).c_str());
    } else if (cmd == "VERIFY") {
      coord.flush();
      double checkpoint_s = 0.0;
      if (a.role == "plain") {
        const double t0 = pb::now_s();
        dl.checkpoint(coord);
        checkpoint_s = pb::now_s() - t0;
      }
      core::sharded_coordinator fresh(ks.grid(), pb::networks(),
                                      pb::coordinator_config(w, 1, true),
                                      pb::kServerSeed);
      const double t0 = pb::now_s();
      dl.recover(fresh);
      const double recover_s = pb::now_s() - t0;
      const std::string live = pb::fingerprint_text(pb::table_fingerprint(coord));
      const std::string back = pb::fingerprint_text(pb::table_fingerprint(fresh));
      std::printf("VERIFY %s live=%s recovered=%s checkpoint_s=%.9f "
                  "recover_s=%.9f\n",
                  live == back ? "ok" : "FAIL", live.c_str(), back.c_str(),
                  checkpoint_s, recover_s);
    } else if (cmd == "QUIT") {
      break;
    } else {
      std::printf("ERR unknown command\n");
      rc = 1;
    }
    std::fflush(stdout);
  }
  polling = false;
  if (poller.joinable()) poller.join();
  tcp.stop();
  coord.stop();
  std::fflush(stdout);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const args a = parse(argc, argv);
    const pb::workload w = pb::workload_by_name(a.workload);
    if (w.name.empty()) throw std::invalid_argument("unknown workload");
    if (a.dir.empty()) throw std::invalid_argument("--dir is required");
    if (a.mode == "prepare") return prepare(a, w);
    if (a.mode == "serve") return serve(a, w);
    throw std::invalid_argument("unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_server: %s\n", e.what());
    return 2;
  }
}
