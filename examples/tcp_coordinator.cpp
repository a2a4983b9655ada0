// A real socket coordinator: the WiScape serving stack behind TCP.
//
// Boots a sharded coordinator pre-seeded with one simulated morning of
// probe traffic, then serves wire protocol v2 on a real port through the
// epoll front end (net::tcp_server). Talk to it with anything that speaks
// lines -- the session transcript in docs/WIRE_PROTOCOL.md was recorded
// against this binary over `nc`:
//
//   ./tcp_coordinator 4710          # serve on port 4710 until Ctrl-C/stdin EOF
//   nc 127.0.0.1 4710               # then: HELLO ver=2, QUERY ..., STATS
//
//   ./tcp_coordinator --selftest    # loopback demo: spin up on an ephemeral
//                                   # port, run a client session, exit 0
//
// Operational knobs (shed thresholds, buffer caps, idle timeout) and what
// the metrics mean: docs/RUNBOOK.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cellnet/presets.h"
#include "core/sharded_coordinator.h"
#include "geo/zone_grid.h"
#include "net/client.h"
#include "net/server.h"
#include "probe/engine.h"
#include "proto/server.h"

using namespace wiscape;

namespace {

/// One synthetic morning of probe records, generated through the real probe
/// engine so estimates have realistic spread.
std::vector<trace::measurement_record> make_morning(
    cellnet::deployment& dep, std::uint64_t seed, std::size_t count) {
  probe::probe_engine engine(dep, seed);
  const geo::zone_grid grid(dep.proj(), 250.0);
  std::vector<trace::measurement_record> recs;
  recs.reserve(count);
  const double x0 = 2000.0, y0 = 2000.0, step = 900.0;
  for (std::size_t i = 0; i < count; ++i) {
    mobility::gps_fix fix;
    fix.pos = dep.proj().to_lat_lon(
        {x0 + static_cast<double>(i % 7) * step,
         y0 + static_cast<double>((i / 7) % 7) * step});
    fix.time_s = 7 * 3600.0 + static_cast<double>(i) * 2.0;
    const std::uint32_t net = 1 + static_cast<std::uint32_t>(i % 2);
    trace::measurement_record rec;
    switch (i % 3) {
      case 0:
        rec = engine.tcp_probe(net, fix, {}, probe::laptop_device());
        break;
      case 1:
        rec = engine.udp_probe(net, fix, {}, probe::phone_device());
        break;
      default:
        rec = engine.ping_probe(net, fix, {}, probe::phone_device());
        break;
    }
    rec.client_id = 1000 + (i % 16);
    recs.push_back(rec);
  }
  return recs;
}

int selftest(proto::coordinator_server& server, const std::string& query) {
  net::server_config cfg;
  cfg.port = 0;  // ephemeral
  cfg.event_loops = 2;
  net::tcp_server tcp(server, cfg);
  tcp.start();
  std::printf("selftest: serving on 127.0.0.1:%u\n", tcp.port());

  net::line_client client;
  client.connect("127.0.0.1", tcp.port());
  const auto hello = client.hello();
  std::printf("wire> HELLO ver=2\nwire< HELLO ver=%u min=%u\n", hello.version,
              hello.min_version);
  for (const std::string& req : {query, std::string("ALERTS since=0 max=3")}) {
    const std::string reply = client.request(req);
    std::printf("wire> %s\nwire< %.120s\n", req.c_str(),
                reply.substr(0, reply.find('\n')).c_str());
  }
  const std::string stats = client.request("STATS");
  int shown = 0;
  std::printf("wire> STATS   (net.server.* excerpt)\n");
  for (std::size_t pos = 0; pos < stats.size() && shown < 8;) {
    std::size_t end = stats.find('\n', pos);
    if (end == std::string::npos) end = stats.size();
    const std::string line = stats.substr(pos, end - pos);
    if (line.rfind("net.server.", 0) == 0 &&
        line.find(".le_") == std::string::npos) {
      std::printf("  %s\n", line.c_str());
      ++shown;
    }
    pos = end + 1;
  }
  client.close();
  tcp.stop();
  std::printf("selftest: ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool self = argc > 1 && std::strcmp(argv[1], "--selftest") == 0;
  const std::uint16_t port =
      !self && argc > 1
          ? static_cast<std::uint16_t>(std::strtoul(argv[1], nullptr, 10))
          : 4710;
  const std::uint64_t seed = 11;

  auto dep = cellnet::make_deployment(cellnet::region_preset::madison, seed);
  const geo::zone_grid grid(dep.proj(), 250.0);
  core::sharded_config scfg;
  scfg.num_shards = 4;
  scfg.coordinator.default_samples_per_epoch = 12;
  scfg.coordinator.epochs.default_epoch_s = 600.0;
  core::sharded_coordinator coord(grid, dep.names(), scfg, seed);
  // Plan each zone the paper's way: epochs at the Allan minimum (Sec
  // 3.2.2), sample targets by NKLD (Sec 3.3).
  coord.start_planning();
  proto::coordinator_server server(coord);

  // Pre-seed estimates so QUERYs answer something out of the box, then
  // plan every seeded zone from them.
  const auto morning = make_morning(dep, seed, 4096);
  std::size_t accepted = 0;
  for (const auto& rec : morning) {
    auto r = rec;
    r.network_id = coord.network_id_of(r.network);
    accepted += coord.report(r) ? 1 : 0;
  }
  coord.flush();
  coord.recompute_epochs();
  for (const auto& key : coord.keys()) {
    coord.refine_sample_target(key.zone, key.network, key.metric);
  }
  std::printf("seeded %zu reports into %zu estimate streams\n", accepted,
              coord.keys().size());

  if (self) {
    // Query a stream that has actually published an epoch estimate.
    std::string query = "STATS";
    for (const auto& key : coord.keys()) {
      if (!coord.latest(key)) continue;
      proto::query_request q;
      q.pos = grid.center(key.zone);
      q.network = key.network;
      q.metric = key.metric;
      query = proto::encode(q);
      break;
    }
    return selftest(server, query);
  }

  net::server_config cfg;
  cfg.port = port;
  cfg.event_loops = 2;
  cfg.ingest_saturation = [&coord] { return coord.ingest_saturation(); };
  net::tcp_server tcp(server, cfg);
  tcp.start();
  std::printf(
      "serving wire protocol v2 on 127.0.0.1:%u (2 event loops)\n"
      "try:  nc 127.0.0.1 %u   then type:  HELLO ver=2\n"
      "press Enter / Ctrl-D to stop\n",
      tcp.port(), tcp.port());
  std::getchar();
  tcp.stop();
  return 0;
}
