// The client-side user agent (Sec 3.4): checks in with the coordinator,
// executes whatever task it is handed via the probe engine, and reports the
// result back. One instance per (client device, network interface).
#pragma once

#include "core/sharded_coordinator.h"
#include "probe/engine.h"

namespace wiscape::core {

class client_agent {
 public:
  /// Borrows both; they must outlive the agent.
  /// `client_id` feeds the coordinator's per-client budget accounting
  /// (0 = anonymous).
  client_agent(sharded_coordinator& coord, probe::probe_engine& engine,
               std::size_t network_index, std::uint64_t client_id = 0)
      : coord_(&coord),
        engine_(&engine),
        network_index_(network_index),
        client_id_(client_id) {}

  /// One opportunistic cycle: check in from `fix`; if tasked, run the probe
  /// and report. Returns the record when a probe ran.
  std::optional<trace::measurement_record> step(
      const mobility::gps_fix& fix, std::size_t active_clients_in_zone = 4);

  std::size_t network_index() const noexcept { return network_index_; }
  std::uint64_t probes_executed() const noexcept { return executed_; }

 private:
  sharded_coordinator* coord_;
  probe::probe_engine* engine_;
  std::size_t network_index_;
  std::uint64_t client_id_;
  std::uint64_t executed_ = 0;
};

}  // namespace wiscape::core
