#include "scenario/scenarios.h"

#include <stdexcept>

namespace wiscape::scenario {
namespace {

scenario_config base(const std::string& name) {
  scenario_config cfg;
  cfg.name = name;
  cfg.ticks = 40;
  cfg.tick_s = 60.0;
  cfg.clients = 48;
  cfg.shards = 4;
  cfg.epoch_s = 300.0;
  return cfg;
}

}  // namespace

std::vector<std::string> scenario_names() {
  return {"baseline",        "flash_crowd", "operator_outage",
          "clock_skew",      "hostile_clients", "restart_mid_storm",
          "qoe_churn",       "slow_consumer",   "fault_storm",
          "connection_churn", "wire_v3",        "leader_kill",
          "wal_restart",     "follower_joins_late"};
}

scenario_config make_scenario(const std::string& name) {
  scenario_config cfg = base(name);
  if (name == "baseline") {
    return cfg;
  }
  if (name == "flash_crowd") {
    cfg.stress.flash_crowd = true;
    cfg.stress.flash_start_s = 600.0;
    cfg.stress.flash_end_s = 1500.0;
    return cfg;
  }
  if (name == "operator_outage") {
    cfg.stress.outage = true;
    return cfg;
  }
  if (name == "clock_skew") {
    cfg.stress.clock_skew_sigma_s = 90.0;
    cfg.stress.gps_jitter_m = 30.0;
    return cfg;
  }
  if (name == "hostile_clients") {
    cfg.stress.hostile = true;
    return cfg;
  }
  if (name == "restart_mid_storm") {
    cfg.stress.flash_crowd = true;
    cfg.stress.restart_tick = 20;
    // Shard task-rng state is not persisted, so a restarted run only
    // matches an uninterrupted one when check-ins draw no tasks.
    cfg.checkin_driven = false;
    return cfg;
  }
  if (name == "qoe_churn") {
    cfg.stress.qoe_churn = true;
    cfg.stress.qoe_rel_error_threshold = 0.35;
    return cfg;
  }
  if (name == "slow_consumer") {
    cfg.stress.alert_ring_capacity = 16;
    cfg.stress.alert_drain_every = 8;
    cfg.stress.alert_drain_max = 4;
    return cfg;
  }
  if (name == "fault_storm") {
    cfg.stress.flash_crowd = true;
    // A sprinkle of queue refusals, five whole-request refusals, and
    // worker-side stalls: accounting must absorb all of it.
    cfg.stress.faults.push_back(
        {core::fault::site::queue_push, 50, 40, 0.05,
         core::fault::action::fail});
    cfg.stress.faults.push_back(
        {core::fault::site::server_handle, 100, 5, 1.0,
         core::fault::action::fail});
    cfg.stress.faults.push_back(
        {core::fault::site::drain_stall, 0, 20, 0.1,
         core::fault::action::stall});
    return cfg;
  }
  if (name == "connection_churn") {
    // All traffic over real loopback sockets through the epoll front end.
    // The driver drops its connection every 4 ticks, an accept_fail storm
    // kills a third of new connections at the accept edge for a stretch,
    // and read stalls / simulated unwritable sockets delay the loops --
    // accounting and the tick log must come out byte-identical per seed.
    cfg.stress.over_tcp = true;
    cfg.stress.reconnect_every = 3;
    // Each refused accept triggers a driver retry -- another accept ordinal
    // -- so the storm feeds itself until count runs out.
    cfg.stress.faults.push_back(
        {core::fault::site::accept_fail, 2, 30, 0.5,
         core::fault::action::fail});
    // Timing-only faults: stalls and fake EAGAIN perturb the event loops
    // without changing any driver-visible count.
    cfg.stress.faults.push_back(
        {core::fault::site::read_stall, 0, 25, 0.02,
         core::fault::action::stall});
    cfg.stress.faults.push_back(
        {core::fault::site::write_full, 0, 10, 0.02,
         core::fault::action::fail});
    return cfg;
  }
  if (name == "wire_v3") {
    // Hot traffic (REPORT/REPORTB/QUERY) in binary v3 frames over real
    // loopback sockets, control traffic in text on the same sessions --
    // the mixed-framing production shape. Periodic reconnects renegotiate
    // HELLO, and injected frame truncations cut binary frames mid-send:
    // the driver's retry-after-reconnect keeps the ledger exact, so the
    // tick log must still come out byte-identical per seed.
    cfg.stress.over_tcp = true;
    cfg.stress.wire_v3 = true;
    cfg.stress.qoe_churn = true;  // keeps the binary QUERY leg under traffic
    cfg.stress.reconnect_every = 5;
    cfg.stress.faults.push_back(
        {core::fault::site::frame_truncate, 3, 12, 0.02,
         core::fault::action::fail});
    cfg.stress.faults.push_back(
        {core::fault::site::read_stall, 0, 25, 0.02,
         core::fault::action::stall});
    return cfg;
  }
  if (name == "leader_kill") {
    // Replicated coordinator under a flash-crowd ingest storm: the
    // follower snapshot-catches-up at boot, pulls the epoch stream every
    // tick, and answers staleness-probed QUERYs while syncing. At tick 20
    // the leader dies kill -9 style (no flush, no snapshot), the follower
    // is promoted through a wire PROMOTE frame, and client-assisted
    // replay rebuilds the lost open epochs -- the run's final published
    // state must be bit-equal to an uninterrupted run's (the regression
    // compares final_estb). A few injected replica_lag skips stall the
    // pull within the staleness bound.
    cfg.stress.flash_crowd = true;
    cfg.stress.replicate = true;
    cfg.stress.kill_leader_tick = 20;
    // Shard task-rng state is not replicated, so a failed-over run only
    // matches an uninterrupted one when check-ins draw no tasks.
    cfg.checkin_driven = false;
    cfg.stress.faults.push_back(
        {core::fault::site::replica_lag, 3, 4, 0.25,
         core::fault::action::fail});
    return cfg;
  }
  if (name == "wal_restart") {
    // A WAL under a flash-crowd storm, checkpointed every 8 ticks. At tick
    // 22 -- mid-epoch, 6 ticks past the last checkpoint, which saw epoch
    // 900 open before it froze into the WAL -- the coordinator dies kill
    // -9 style and recovers from snapshot + WAL. Client-assisted replay
    // rebuilds the open epochs; the final table must bit-equal an
    // uninterrupted run's (the regression compares final_table).
    cfg.stress.flash_crowd = true;
    cfg.stress.checkpoint_every = 8;
    cfg.stress.restart_tick = 22;
    // Shard task-rng state is not persisted.
    cfg.checkin_driven = false;
    return cfg;
  }
  if (name == "follower_joins_late") {
    // leader_kill with a follower that snapshot-catches-up at tick 7, with
    // epoch 300 open on the leader, and pulls that epoch frozen three
    // ticks later. After the tick-20 failover and client-assisted replay
    // the final table must bit-equal an uninterrupted run's.
    cfg.stress.flash_crowd = true;
    cfg.stress.replicate = true;
    cfg.stress.follower_join_tick = 7;
    cfg.stress.kill_leader_tick = 20;
    cfg.checkin_driven = false;
    return cfg;
  }
  std::string known;
  for (const std::string& n : scenario_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::invalid_argument("unknown scenario '" + name + "' (known: " +
                              known + ")");
}

}  // namespace wiscape::scenario
