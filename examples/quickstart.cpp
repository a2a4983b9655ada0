// Quickstart: the WiScape loop in ~80 lines.
//
// Builds a small synthetic city with two cellular operators, puts one
// instrumented bus on the road, and runs the full client-assisted pipeline:
// clients check in with the coordinator, get measurement tasks, execute
// real packet-level probes, and report back; the coordinator aggregates
// per-zone per-epoch estimates you can query.
//
//   ./quickstart [seed]
#include <cstdio>
#include <cstdlib>

#include "cellnet/presets.h"
#include "core/client_agent.h"
#include "core/estimate_view.h"
#include "core/sharded_coordinator.h"
#include "mobility/fleet.h"
#include "mobility/route_gen.h"
#include "probe/engine.h"

using namespace wiscape;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  // 1. A world: the Madison preset (three operators over ~155 sq km).
  auto dep = cellnet::make_deployment(cellnet::region_preset::madison, seed);
  std::printf("deployment: %zu operators", dep.size());
  for (const auto& name : dep.names()) std::printf(" %s", name.c_str());
  std::printf("\n");

  // 2. A probe engine: every measurement below is a real packet-level
  //    simulation against this deployment.
  probe::probe_engine engine(dep, seed);

  // 3. The WiScape coordinator: 250 m zones, ~100 samples per zone-epoch,
  //    on one synchronous shard (reports apply on the caller's thread).
  geo::zone_grid grid(dep.proj(), 250.0);
  core::sharded_config cfg;
  cfg.coordinator.default_samples_per_epoch = 20;  // small, for a quick demo
  cfg.coordinator.epochs.default_epoch_s = 1800.0;
  cfg.num_shards = 1;
  cfg.synchronous = true;
  core::sharded_coordinator coordinator(grid, dep.names(), cfg, seed);

  // 4. A bus with one client agent per operator interface.
  auto routes = mobility::make_city_routes(dep.proj(), 9000.0, 9000.0, 4,
                                           stats::rng_stream(seed));
  mobility::fleet fleet(std::move(routes), 1, mobility::transit_bus_params(),
                        stats::rng_stream(seed + 1));
  std::vector<core::client_agent> agents;
  for (std::size_t n = 0; n < dep.size(); ++n) {
    agents.emplace_back(coordinator, engine, n);
  }

  // 5. Drive the morning; agents opportunistically measure when tasked.
  int probes = 0;
  for (double t = 7.0 * 3600; t < 12.0 * 3600; t += 45.0) {
    const auto fix = fleet.fix_at(0, t);
    if (!fix) continue;
    for (auto& agent : agents) {
      if (const auto rec = agent.step(*fix, 3)) {
        ++probes;
        if (probes % 50 == 0) {
          std::printf("  [%5.1f h] %s %s probe at %s -> %s\n", t / 3600.0,
                      rec->network.c_str(), to_string(rec->kind).c_str(),
                      geo::to_string(grid.zone_of(rec->pos)).c_str(),
                      rec->success ? "ok" : "failed");
        }
      }
    }
  }
  std::printf("executed %d probes\n", probes);

  // 6. Query the product through the serving layer: core::estimate_view is
  //    the application read API (lookup adds staleness + confidence; the
  //    same facade backs the wire QUERY command).
  const core::estimate_view view(coordinator);
  const double now_s = 12.0 * 3600;
  std::printf("\npublished zone estimates (first 10):\n");
  int shown = 0;
  for (const auto& key : view.keys()) {
    const auto est = view.lookup(key.zone, key.network, key.metric, now_s);
    if (!est || shown >= 10) continue;
    ++shown;
    std::printf(
        "  zone %-8s %-5s %-16s mean=%10.1f stddev=%10.1f (n=%llu, "
        "conf=%.2f, age=%.0fs)\n",
        geo::to_string(key.zone).c_str(), key.network.c_str(),
        to_string(key.metric).c_str(), est->mean, est->stddev,
        static_cast<unsigned long long>(est->count), est->confidence,
        est->staleness_s);
  }
  const auto alerts = view.alerts_since(0, 1 << 20);
  std::printf("\nchange alerts raised: %zu\n",
              alerts.alerts.size() + static_cast<std::size_t>(alerts.dropped));
  return 0;
}
