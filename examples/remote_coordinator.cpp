// Remote coordination demo: the Sec 3.4 loop over a wire protocol.
//
// Spins up a coordinator behind the line-protocol server, then drives a
// mixed fleet of remote agents -- laptops and phones, each with a daily
// measurement budget -- through a simulated morning. Shows the message
// traffic, the per-client budget accounting, and the zone estimates the
// coordinator ends up with -- read back over the same wire via the
// protocol-v2 query side: HELLO version negotiation, batched QUERYB
// estimate lookups, and an ALERTS cursor drain. The morning runs on one
// synchronous shard (the sequential configuration); a second pass replays
// its reports through a 4-shard asynchronous pipeline (the production-scale
// ingestion path) and shows the per-shard counters plus that the published
// estimate count, re-queried over the wire, matches the 1-shard count.
//
// The run doubles as the observability demo: an obs::snapshot_writer
// appends periodic JSON-lines metric snapshots to
// bench_out/remote_coordinator_obs.jsonl (created if needed) while the
// morning runs, and the demo closes with an excerpt of the wire-protocol
// STATS dump any operator could issue against a live coordinator.
//
//   ./remote_coordinator [seed]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "cellnet/presets.h"
#include "core/sharded_coordinator.h"
#include "mobility/fleet.h"
#include "mobility/route_gen.h"
#include "obs/snapshot_writer.h"
#include "proto/server.h"

using namespace wiscape;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;

  // Telemetry: snapshot every process-wide metric to a JSON-lines file
  // twice a second for the duration of the demo (final snapshot on exit).
  // The file lands under bench_out/ with the other generated artifacts,
  // not in the repo root.
  std::error_code obs_dir_ec;
  std::filesystem::create_directories("bench_out", obs_dir_ec);
  obs::snapshot_writer obs_writer("bench_out/remote_coordinator_obs.jsonl",
                                  std::chrono::milliseconds(500));

  auto dep = cellnet::make_deployment(cellnet::region_preset::madison, seed);
  probe::probe_engine engine(dep, seed);

  const geo::zone_grid grid(dep.proj(), 250.0);
  core::sharded_config scfg;
  scfg.coordinator.default_samples_per_epoch = 12;
  scfg.coordinator.epochs.default_epoch_s = 600.0;
  // Each device donates at most 6 MB/day.
  scfg.coordinator.client_daily_budget_mb = 6.0;
  scfg.num_shards = 1;
  scfg.synchronous = true;
  core::sharded_coordinator coordinator(grid, dep.names(), scfg, seed);
  proto::coordinator_server server(coordinator);

  // One in-process call through the server's entry point; a socket
  // transport would hand the same bytes over the wire.
  const auto call = [](proto::coordinator_server& s, std::string_view line) {
    proto::reply_buffer out;
    s.handle(proto::request_view::text(line), out);
    return std::string(out.view());
  };

  // Transport: in this demo the "wire" is a function call, with a tap that
  // prints a few exchanges and keeps every REPORT line for the concurrent
  // replay below. Swap in a socket and nothing else changes.
  int shown = 0;
  std::vector<std::string> report_lines;
  auto transport = [&](const std::string& line) {
    std::string reply = call(server, line);
    if (proto::message_type(line) == "REPORT") report_lines.push_back(line);
    if (shown < 6 && proto::message_type(reply) == "TASK") {
      ++shown;
      std::printf("  wire> %.60s...\n  wire< %s\n", line.c_str(),
                  reply.c_str());
    }
    return reply;
  };

  // A fleet of two buses; each carries a laptop (NetB) and a phone (NetC).
  auto routes = mobility::make_city_routes(dep.proj(), 9000.0, 9000.0, 3,
                                           stats::rng_stream(seed));
  mobility::fleet fleet(std::move(routes), 2, mobility::transit_bus_params(),
                        stats::rng_stream(seed + 1));
  std::vector<proto::remote_agent> agents;
  agents.emplace_back(engine, transport, 1001, probe::laptop_device());
  agents.emplace_back(engine, transport, 1002, probe::phone_device());
  agents.emplace_back(engine, transport, 2001, probe::laptop_device());
  agents.emplace_back(engine, transport, 2002, probe::phone_device());

  int probes = 0;
  double last_t = 0.0;
  for (double t = 7.0 * 3600; t < 13.0 * 3600; t += 60.0) {
    last_t = t;
    for (std::size_t bus = 0; bus < fleet.size(); ++bus) {
      const auto fix = fleet.fix_at(bus, t);
      if (!fix) continue;
      const std::size_t base = bus * 2;
      if (agents[base].step(*fix, 1, 2)) ++probes;      // laptop on NetB
      if (agents[base + 1].step(*fix, 2, 2)) ++probes;  // phone on NetC
    }
  }

  std::printf("\nmorning summary:\n");
  std::printf("  tasks issued: %llu, reports: %llu, probes run: %d\n",
              static_cast<unsigned long long>(server.tasks_issued()),
              static_cast<unsigned long long>(server.reports_received()),
              probes);
  for (std::uint64_t id : {1001ull, 1002ull, 2001ull, 2002ull}) {
    std::printf("  client %llu spent %.2f MB of %.1f MB budget\n",
                static_cast<unsigned long long>(id),
                coordinator.client_spend_mb(id, last_t),
                scfg.coordinator.client_daily_budget_mb);
  }

  // Read the product back over the same wire: negotiate a protocol version,
  // then issue one QUERYB per 4096-query chunk -- one query per estimate
  // stream the coordinator materialised, positioned at the zone center.
  proto::remote_query_client query_client(transport);
  const auto hello = query_client.hello();
  std::printf("  negotiated wire protocol v%u (server minimum v%u)\n",
              hello.version, hello.min_version);

  std::vector<proto::query_request> queries;
  for (const auto& key : coordinator.keys()) {
    proto::query_request q;
    q.pos = grid.center(key.zone);
    q.network = key.network;
    q.metric = key.metric;
    q.time_s = last_t;
    queries.push_back(q);
  }
  const auto count_published = [&queries](proto::remote_query_client& client) {
    int published = 0;
    for (std::size_t i = 0; i < queries.size(); i += proto::max_query_batch) {
      const std::span<const proto::query_request> chunk(
          queries.data() + i,
          std::min(proto::max_query_batch, queries.size() - i));
      for (const auto& est : client.query_batch(chunk)) {
        published += est.has_value() ? 1 : 0;
      }
    }
    return published;
  };
  const int published = count_published(query_client);

  // Alerts ride the same cursor API remote watchdogs would poll with.
  const auto alerts = query_client.alerts(0);
  std::printf(
      "  zone estimates published: %d of %zu streams (change alerts served "
      "over the wire: %zu, cursor %llu)\n",
      published, queries.size(), alerts.alerts.size(),
      static_cast<unsigned long long>(alerts.next_seq));

  // Replay the morning's reports through the 4-shard asynchronous
  // pipeline: same line protocol, same estimates, but ingestion spread over
  // shard worker threads (what a production deployment would run).
  core::sharded_config pcfg = scfg;
  pcfg.num_shards = 4;
  pcfg.synchronous = false;
  core::sharded_coordinator sharded(grid, dep.names(), pcfg, seed);
  proto::coordinator_server concurrent_server(sharded);
  for (const auto& line : report_lines) call(concurrent_server, line);
  sharded.flush();

  // Same QUERYB sweep against the concurrent server: these lookups read the
  // shards' lock-free estimate mirrors, so they would not stall ingestion
  // even if the morning were still streaming in.
  proto::remote_query_client sharded_query(
      [&](const std::string& line) { return call(concurrent_server, line); });
  const int sharded_published = count_published(sharded_query);
  std::printf("\nconcurrent replay (%zu shards):\n", sharded.num_shards());
  std::printf(
      "  reports ingested: %llu, estimates published: %d (1-shard "
      "published: %d)\n",
      static_cast<unsigned long long>(sharded.reports_ingested()),
      sharded_published, published);
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    const auto stats = sharded.stats_of(s);
    std::printf(
        "  shard %zu: %llu reports in %llu drain batches (%.1f us/batch)\n",
        s, static_cast<unsigned long long>(stats.reports_ingested),
        static_cast<unsigned long long>(stats.drain_batches),
        stats.drain_batches > 0
            ? 1e6 * stats.drain_latency_s /
                  static_cast<double>(stats.drain_batches)
            : 0.0);
  }

  // The operator's view: the same numbers over the wire. Any client can send
  // a bare "STATS" line; here we show the ingest-path excerpt of the dump.
  std::printf("\nwire> STATS   (excerpt; full dump in "
              "bench_out/remote_coordinator_obs.jsonl)\n");
  std::istringstream stats_reply(call(concurrent_server, "STATS"));
  std::string stats_line;
  while (std::getline(stats_reply, stats_line)) {
    if (stats_line.rfind("core.coordinator.", 0) == 0 ||
        stats_line.rfind("core.sharded.reports", 0) == 0 ||
        stats_line.rfind("core.estimate_view.", 0) == 0 ||
        stats_line.rfind("proto.server.err", 0) == 0 ||
        stats_line.rfind("proto.server.queries", 0) == 0 ||
        stats_line.rfind("proto.server.reports", 0) == 0) {
      std::printf("  %s\n", stats_line.c_str());
    }
  }
  obs_writer.stop();
  return 0;
}
