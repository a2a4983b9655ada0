// Deterministic fleet-scale scenario engine.
//
// A scenario is a tick-driven simulation of a whole WiScape deployment --
// a two-operator cellular build-out, a fleet of reporting clients, the
// sharded coordinator behind the wire protocol, an alert consumer, and a
// set of named stressors (flash crowds, operator outages, client clock
// skew, hostile clients, coordinator restarts, slow consumers, QoE-driven
// churn) -- with machine-checked invariants evaluated at every tick and at
// teardown (scenario/invariants.h).
//
// Determinism contract: one driver thread owns all wire traffic and all
// randomness fans out of the run seed via stats::rng_stream forks keyed by
// (role, client, tick), so the same (config, seed) produces a byte-identical
// tick log -- including runs with injected faults (scenario/injector.h keys
// fault decisions on deterministic invocation ordinals) and runs that kill
// and recover the coordinator mid-run through core::durable_log. The tick log
// records only driver-deterministic quantities; worker-side timing counters
// (drain batches, queue high-water) are deliberately excluded.
//
// The engine ingests through proto::coordinator_server::handle() -- real
// REPORTB/REPORT/QUERY/ALERTS frames over the v2 wire codec -- so every
// scenario exercises the same seams production traffic crosses. With
// stressors::over_tcp the same frames additionally cross a real loopback
// socket through net::tcp_server's epoll loops (connection_churn): the
// driver stays the single synchronous traffic source, so the determinism
// contract holds transport-independently.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/injector.h"
#include "scenario/invariants.h"

namespace wiscape::scenario {

/// The named stress knobs a scenario composes. All default off.
struct stressors {
  /// Flash crowd: a stadium-style hotspot_event on every operator over
  /// [flash_start_s, flash_end_s), with a third of the fleet converging on
  /// the hotspot for its duration.
  bool flash_crowd = false;
  double flash_start_s = 600.0;
  double flash_end_s = 1500.0;
  /// Operator outage: a persistent full-outage trouble spot covering
  /// operator 0's core (probes there fail; the records flow through the
  /// rejected-report accounting).
  bool outage = false;
  /// Client clock skew: per-client N(0, sigma) offset applied to report
  /// timestamps; 0 disables.
  double clock_skew_sigma_s = 0.0;
  /// GPS jitter: per-report N(0, sigma_m) position noise in meters.
  double gps_jitter_m = 0.0;
  /// Hostile clients: replayed frames, NaN/absurd coordinates, an
  /// interner-exhaustion name flood pinned to one zone, malformed frames
  /// and duplicate REPORTB frames (exercising the PR 4 rejection paths).
  bool hostile = false;
  /// QoE churn: clients whose QUERY answers err by more than the threshold
  /// (relative to the simulated ground truth) withdraw from sampling.
  bool qoe_churn = false;
  double qoe_rel_error_threshold = 0.75;
  /// Alert-consumer pacing: ring capacity, drain cadence (ticks) and batch
  /// cap. A tiny ring with a slow consumer exercises dropped-accounting.
  std::size_t alert_ring_capacity = 1024;
  std::uint64_t alert_drain_every = 1;
  std::uint32_t alert_drain_max = 256;
  /// Restart the coordinator at the start of this tick: checkpoint through
  /// core::durable_log, kill, rebuild, recover, continue. The coordinator's
  /// epoch log tees every rollover into the log's WAL (in a temporary
  /// directory). Use with checkin_driven=false (shard task-rng state is
  /// not persisted).
  std::optional<std::uint64_t> restart_tick;
  /// Checkpoint at the start of every Nth tick instead (0 = only at the
  /// restart). The restart is then a kill -9 between checkpoints -- no
  /// flush, no snapshot -- recovered from the last checkpoint + the WAL,
  /// and client-assisted replay re-submits the ACKed records the
  /// recovered coordinator lacks.
  std::uint64_t checkpoint_every = 0;
  /// Replicated mode (ISSUE 10): run a follower coordinator alongside the
  /// leader, snapshot-catch-up at start, pull the epoch stream (EPOCH ->
  /// EPOCHB frames through the leader's server) after every tick's flush,
  /// and assert the follower serves QUERYs at bounded staleness. The
  /// replica_lag fault site skips poll rounds. Use with
  /// checkin_driven=false when combined with kill_leader_tick (shard
  /// task-rng state is not replicated).
  bool replicate = false;
  /// With replicate: kill -9 the leader at the start of this tick -- no
  /// flush, no snapshot -- promote the follower through a wire PROMOTE
  /// frame, client-assisted-replay the ACKed records whose epochs the
  /// follower has not frozen, and serve the rest of the run from the
  /// promoted coordinator. The run's final published state must be
  /// bit-equal to an uninterrupted run's (the leader_kill regression
  /// compares through final_estb).
  std::optional<std::uint64_t> kill_leader_tick;
  /// With replicate: the follower snapshot-catches-up after this tick's
  /// flush, with epochs open on the leader, instead of at boot (nullopt).
  /// It polls from then on.
  std::optional<std::uint64_t> follower_join_tick;
  /// Deliberately corrupt the driver's ack count at this tick -- proves the
  /// report-accounting invariant catches a real discrepancy.
  std::optional<std::uint64_t> sabotage_tick;
  /// Fault-injection schedule installed for the run (scenario/injector.h).
  std::vector<fault_rule> faults;
  /// Drive every wire exchange over a real loopback TCP connection through
  /// net::tcp_server (epoll front end) instead of calling the line handler
  /// in-process. net::line_client replies are byte-identical to handle(),
  /// so accounting and the tick log are transport-independent; the driver
  /// reconnects (and re-negotiates HELLO) through injected accept_fail
  /// storms, counting reconnects/refusals in the tick log's tcp= field.
  /// Not combined with `hostile` in the catalogue: hostile REPORTB frames
  /// deliberately lie about their line counts, which desynchronises stream
  /// framing on a persistent connection.
  bool over_tcp = false;
  /// With over_tcp: proactively drop and re-establish the driver's
  /// connection at the start of every Nth tick (connection churn through
  /// the full session lifecycle). 0 = never.
  std::uint64_t reconnect_every = 0;
  /// Drive the fleet's hot traffic (the REPORT/REPORTB submits and the QoE
  /// QUERY) through the binary wire v3 framing instead of the text codec;
  /// control traffic (HELLO/CHECKIN/ALERTS) stays text, as a v3 production
  /// client would. Composes with over_tcp, where the frames cross the real
  /// socket through line_client::request_frame -- the seam the
  /// frame_truncate fault fires at.
  bool wire_v3 = false;
};

struct scenario_config {
  std::string name = "unnamed";
  std::uint64_t ticks = 40;
  double tick_s = 60.0;
  std::size_t clients = 48;
  std::size_t shards = 4;
  bool synchronous = false;  ///< sharded_config::synchronous
  /// Issue a wire CHECKIN per client per tick (draws shard task rng).
  bool checkin_driven = true;
  /// Per-zone epoch duration (epoch_config::default_epoch_s).
  double epoch_s = 300.0;
  stressors stress;
};

struct scenario_result {
  std::string name;
  std::uint64_t seed = 0;
  bool passed = false;
  std::vector<violation> violations;
  /// One line per tick, driver-deterministic fields only: byte-identical
  /// across runs of the same (config, seed). Schema: EXPERIMENTS.md.
  std::string tick_log;
  /// Deterministic teardown dump: the final ESTB reply frames over every
  /// configured-operator stream, sorted by (zone, network, metric). Two
  /// runs that end in the same published state compare byte-equal here
  /// (the restart regression compares an interrupted run against an
  /// uninterrupted one through this field).
  std::string final_estb;
  /// Deterministic teardown dump of the whole table: every stream's frozen
  /// history and open epoch in the snapshot's EST/OPEN line format, sorted
  /// by (zone, network, metric). Unlike final_estb it shows an epoch
  /// frozen twice, or an open accumulator that differs.
  std::string final_table;
};

/// Runs one scenario to completion. The obs:: registry is process-global,
/// so scenarios must run one at a time per process (the engine reads
/// counter deltas, which tolerate prior accumulation but not concurrent
/// runs).
scenario_result run_scenario(const scenario_config& cfg, std::uint64_t seed);

}  // namespace wiscape::scenario
