// The named scenario catalogue.
//
// Each entry is a fully specified scenario_config: tests, the scenario
// runner CLI and the bench all resolve scenarios from here by name, so "run
// flash_crowd at seed 7" means the same run everywhere. The catalogue
// (ISSUE 6's acceptance list plus two extras):
//
//   baseline          -- no stressors; the determinism and accounting floor
//   flash_crowd       -- stadium hotspot_event + a third of the fleet
//                        converging on it mid-run
//   operator_outage   -- a full-outage trouble spot over operator 0's core;
//                        probes there fail and flow through rejection
//   clock_skew        -- per-client clock skew (sigma 90 s) + GPS jitter
//                        (sigma 30 m)
//   hostile_clients   -- replayed frames, NaN/absurd coordinates, malformed
//                        frames, duplicate batches, interner-exhaustion
//                        flood
//   restart_mid_storm -- flash crowd with a coordinator kill + persist
//                        restore at tick 20
//   qoe_churn         -- clients withdraw when served estimates err badly
//                        against ground truth
//   slow_consumer     -- a 16-slot alert ring drained every 8 ticks, 4 at a
//                        time (exercises dropped-alert accounting)
//   fault_storm       -- injected queue_push / server_handle / drain_stall
//                        faults riding a flash crowd
//   connection_churn  -- all traffic over real loopback TCP through the
//                        epoll front end, with proactive reconnects every
//                        4 ticks, an accept_fail storm and read/write
//                        stalls (net/server.h fault seams)
//   wire_v3           -- hot traffic in binary v3 frames over loopback TCP
//                        with injected frame truncations
//   leader_kill       -- a replicated flash crowd whose leader dies at tick
//                        20; the follower is promoted and client replay
//                        rebuilds the lost open epochs
//   wal_restart       -- a flash crowd over a checkpointed WAL, killed
//                        mid-epoch at tick 22 and recovered from snapshot +
//                        WAL plus client replay
//   follower_joins_late -- leader_kill with the follower catching up at
//                        tick 7, while epochs are open
#pragma once

#include <string>
#include <vector>

#include "scenario/engine.h"

namespace wiscape::scenario {

/// Names of every catalogued scenario, in a stable order.
std::vector<std::string> scenario_names();

/// The catalogued config for `name`. Throws std::invalid_argument on an
/// unknown name (listing the known ones).
scenario_config make_scenario(const std::string& name);

}  // namespace wiscape::scenario
