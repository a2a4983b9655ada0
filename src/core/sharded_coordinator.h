// Sharded, thread-parallel coordinator ingestion (ROADMAP north star:
// "serving heavy traffic from millions of users").
//
// WiScape's server aggregates independent per-(zone, network, metric)
// streams (Sec 3.4), which makes ingestion embarrassingly shardable by
// zone: every CHECKIN and REPORT touches exactly one zone, so zones are
// mapped to N shards by zone_id hash and each shard owns a full
// coordinator (zone_table, and after start_planning() a zone_planner)
// behind its own mutex. Check-ins are answered synchronously on the
// caller's thread (clients wait for their task); reports flow through one
// bounded report_queue per shard into a worker-thread pool, and each worker
// drains its shard's queue in batches so one lock acquisition is amortised
// over many reports.
//
// Determinism: a report's effect depends only on its zone's prior samples,
// and each shard has exactly one drain worker, so per-zone arrival order is
// preserved and the published estimates/alerts are bit-for-bit what the
// sequential coordinator produces for the same per-zone report order --
// regardless of shard count (tests/sharded_coordinator_test.cpp holds
// N = 1, 2, 4, 8 to this). With `num_shards = 1, synchronous = true` the
// single shard *is* a sequential coordinator with the same seed, so task
// probabilities and budget accounting reproduce the sequential path
// exactly. With several shards, per-client budgets are tracked by the shard
// of the zone the client checks in from; a client roaming across shards is
// capped per shard, not globally (centralised budgets would serialise the
// check-in path -- an accepted trade documented in DESIGN.md).
//
// Thread safety: every public member is safe to call from any thread;
// checkin()/report() are the concurrent hot paths, the read-side
// aggregators take each shard's lock in turn (flush() first for a
// consistent view).
//
// Observability: the pipeline feeds the `core.sharded.*` metrics plus the
// per-shard `core.sharded.shard<i>.{routed,drained}` family (src/obs/
// names.h; reference table in docs/RUNBOOK.md). To keep report() free of
// registry work, the routed counters are published as deltas of the
// internal enqueue counter at drain and flush boundaries -- mid-run
// snapshots can lag by up to one drain batch, but after flush() they
// account for every report the pipeline accepted.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/coordinator.h"
#include "core/durable_state.h"
#include "core/network_interner.h"
#include "core/report_queue.h"

namespace wiscape::core {

struct sharded_config {
  coordinator_config coordinator{};  ///< applied to every shard
  std::size_t num_shards = 4;
  /// true: reports are applied inline on the caller's thread (no queues, no
  /// workers). With num_shards = 1 this reproduces core::coordinator
  /// exactly. false: reports are enqueued and drained by one worker thread
  /// per shard.
  bool synchronous = false;
  std::size_t queue_capacity = 4096;  ///< per shard
};

/// Read-only per-shard ingestion counters, for benches and tools.
struct shard_stats {
  std::uint64_t reports_ingested = 0;  ///< applied to the shard's tables
  std::uint64_t tasks_issued = 0;
  std::uint64_t drain_batches = 0;     ///< lock-amortised drain rounds
  double drain_latency_s = 0.0;        ///< total time spent applying batches
  std::size_t queue_depth = 0;         ///< reports enqueued, not yet applied
};

class sharded_coordinator : public durable_state {
 public:
  /// Shard 0 seeds its rng with `seed` itself (so num_shards = 1 matches a
  /// sequential coordinator(seed) draw-for-draw); shard i > 0 uses an
  /// independent stream forked from (seed, i).
  sharded_coordinator(geo::zone_grid grid, std::vector<std::string> networks,
                      sharded_config cfg, std::uint64_t seed);
  ~sharded_coordinator();

  sharded_coordinator(const sharded_coordinator&) = delete;
  sharded_coordinator& operator=(const sharded_coordinator&) = delete;

  const geo::zone_grid& grid() const noexcept { return grid_; }
  const sharded_config& config() const noexcept { return cfg_; }
  std::size_t num_shards() const noexcept { return shards_.size(); }

  /// Most reports one drain round applies under a shard's lock.
  static constexpr std::size_t drain_batch = 64;

  /// Which shard owns a zone / position (zone_id hash mod num_shards).
  std::size_t shard_of(const geo::zone_id& zone) const noexcept;
  std::size_t shard_of(const geo::lat_lon& pos) const noexcept;

  /// Client check-in, answered synchronously under the owning shard's lock.
  /// Same contract as coordinator::checkin.
  std::optional<measurement_task> checkin(const geo::lat_lon& pos,
                                          double time_s,
                                          std::size_t network_index,
                                          std::size_t active_clients_in_zone,
                                          std::uint64_t client_id = 0);

  /// Ingests a completed measurement. Synchronous mode applies it inline;
  /// otherwise it is enqueued for the owning shard's worker (blocking while
  /// that shard's queue is full -- backpressure). Returns false only when
  /// the pipeline has been stopped.
  bool report(const trace::measurement_record& rec);

  /// A producer's per-shard routing vectors for report_owned(), one per
  /// shard once used. Keep one per producer (the proto server keeps one in
  /// every reply_buffer): each call refills and hands over the same
  /// vectors, which come back recycled, so steady-state routing allocates
  /// nothing.
  using shard_batches = std::vector<std::vector<trace::measurement_record>>;

  /// Batched ingestion of a batch the caller owns -- the wire-facing path
  /// REPORTB frames and REPORT groups ride on. With one shard the vector
  /// itself is handed to the shard's queue (report_queue::push_owned);
  /// with several, every record is moved once into its owning shard's
  /// vector in `routes` and each vector touched is handed over. Either way
  /// one enqueue (one queue-lock acquisition, one counter delta) per shard
  /// touched, no allocation in steady state, and per-producer FIFO order
  /// preserved within each shard, so determinism guarantees are unchanged.
  /// On return `recs` is empty, with capacity the caller can refill.
  /// Returns the number of records accepted: the batch size normally,
  /// fewer (possibly 0) only when the pipeline has been stopped.
  std::size_t report_owned(std::vector<trace::measurement_record>& recs,
                           shard_batches& routes);

  /// report_owned() over a copy of `recs`, for callers that keep their
  /// records (tests, benches, tools).
  std::size_t report_batch(std::span<const trace::measurement_record> recs);

  /// Blocks until every report enqueued before the call has been applied.
  /// No-op in synchronous mode. Call before reading tables for a consistent
  /// snapshot while producers are quiescent.
  void flush();

  /// Closes the queues, drains what remains and joins the workers. Further
  /// reports are dropped (report() returns false). Idempotent; the
  /// destructor calls it.
  void stop();

  /// Attaches a zone_planner to every shard (under each shard's lock; see
  /// coordinator::start_planning). Call before ingesting.
  void start_planning();

  /// Re-estimates epoch durations on every shard (under each shard's lock).
  void recompute_epochs();

  /// Refines a zone's sample target on its owning shard. Same contract as
  /// coordinator::refine_sample_target.
  std::size_t refine_sample_target(const geo::zone_id& zone,
                                   std::string_view network,
                                   trace::metric metric);

  zone_status status_of(const geo::zone_id& zone) const;

  /// The owning shard's zone_planner::history_for_test(zone), copied under
  /// its lock; empty without a planner. For tests.
  std::vector<stats::sample> history_for_test(const geo::zone_id& zone) const;

  /// Total MB charged against a client today, summed across shards (each
  /// shard accounts the check-ins it answered).
  double client_spend_mb(std::uint64_t client_id, double time_s) const;

  /// Interned id of an operator from the constructor's network list, or
  /// trace::no_network_id (== network_interner::npos) for anything else.
  /// Backed by a frozen interner that is never mutated after construction,
  /// so it is safe to call concurrently without a lock -- the wire boundary
  /// uses it to pre-resolve measurement_record::network_id once per record.
  /// Ids agree with every shard's table for these networks (all interners
  /// are seeded from the same list in the same order).
  std::uint16_t network_id_of(std::string_view network) const noexcept {
    return wire_ids_.try_id(network);
  }

  // ---- serving layer (lock-free; consumed by core::estimate_view) --------

  /// Shard `shard`'s published-estimate mirror. Reads are lock-free and
  /// never contend with that shard's drain worker.
  const estimate_mirror& published_of(std::size_t shard) const noexcept;

  /// The alert ring shared by every shard: one total order of alert
  /// sequence numbers across the whole coordinator, and the only place
  /// the coordinator keeps its change alerts.
  const alert_ring& alert_sink() const noexcept { return ring_; }

  // ---- persistence surface (core::durable_state, implemented only here) --

  /// Installs one stream into the owning shard, under one take of its
  /// lock: snapshot load, WAL replay, a follower applying the leader's
  /// epoch stream, or two coordinators merging feeds from disjoint client
  /// populations (see durable_state::restore_stream).
  std::size_t restore_stream(const estimate_key& key,
                             std::span<const epoch_estimate> frozen,
                             const open_epoch_state* open) override;
  /// Splits the hint evenly over the shards, each share rounded up to a
  /// power of two (the capacity doubling would reach anyway, so the first
  /// stream created after a load does not reallocate at double size).
  void reserve_streams(std::size_t streams) override;
  /// Open-epoch accumulator of a stream, from its owning shard.
  std::optional<open_epoch_state> open_state(
      const estimate_key& key) const override;
  /// The shared alert ring's high-water sequence number.
  std::uint64_t alert_seq() const override { return ring_.pushed(); }
  /// Resumes the shared alert ring's sequence numbering after a restart
  /// (alert_ring::resume_from semantics: pre-restart sequences account as
  /// dropped to lagging cursors, never silently vanish). Call before any
  /// report is ingested.
  void resume_alert_seq(std::uint64_t last_seq) override {
    ring_.resume_from(last_seq);
  }
  /// alert_ring::resume_ahead on the shared ring: a promoted follower's
  /// resume, which leaves numbering of the follower's own alone.
  bool resume_alert_seq_ahead(std::uint64_t last_seq) {
    return ring_.resume_ahead(last_seq);
  }

  // ---- replication surface (src/repl, ISSUE 10) ---------------------------

  /// Attaches one epoch-rollover tap to every shard's table. Rollovers fire
  /// it from drain-worker threads under the owning shard's lock, so the tap
  /// must be thread-safe (repl::epoch_log is). Install before ingesting;
  /// pass nullptr only while the pipeline is quiescent.
  void set_epoch_tap(epoch_tap* tap);

  // ---- read-side aggregation (flush() first for a consistent view) -------

  /// Latest frozen estimate / history for a key, from its owning shard.
  std::optional<epoch_estimate> latest(const estimate_key& key) const;
  std::vector<epoch_estimate> history(const estimate_key& key) const override;

  /// All keys across shards (unspecified order).
  std::vector<estimate_key> keys() const override;

  // ---- counters ----------------------------------------------------------

  std::uint64_t reports_received() const noexcept {
    return reports_received_.load(std::memory_order_relaxed);
  }
  std::uint64_t reports_ingested() const noexcept;
  std::uint64_t tasks_issued() const noexcept {
    return tasks_issued_.load(std::memory_order_relaxed);
  }
  /// Reports enqueued but not yet applied, summed over shards.
  std::size_t queue_depth() const;
  shard_stats stats_of(std::size_t shard) const;

  /// How full the ingest queues are, as the *worst* shard's depth /
  /// capacity in [0, 1]. The max (not the mean) is the backpressure signal:
  /// one saturated shard stalls every producer that routes to it, so a
  /// transport shedding on this value sheds before any producer blocks.
  /// 0.0 in synchronous mode (no queues). Lock-free (it reads each
  /// queue's relaxed depth, never a queue mutex a producer or drain worker
  /// holds); safe from any thread.
  double ingest_saturation() const noexcept;

  /// CPU seconds the drain workers have used so far, summed over their
  /// threads' CPU clocks (0 when synchronous or stopped): the apply side's
  /// cost alone, without the producers' or the hand-off's. Not safe
  /// concurrently with stop().
  double drain_cpu_s() const;

 private:
  struct shard;

  shard& owner_of(const geo::zone_id& zone) noexcept;
  /// Feeds one shard its batch: applied inline when synchronous, else
  /// handed to the shard's queue. Leaves `batch` empty; returns records
  /// accepted.
  std::size_t ingest_group(shard& sh,
                           std::vector<trace::measurement_record>& batch);
  /// Applies records inline (synchronous mode) under the shard's lock.
  void apply_inline(shard& sh,
                    std::span<const trace::measurement_record> recs);
  /// Applies records to the shard's coordinator, counting any record whose
  /// apply threw into core.sharded.apply_errors. Call with the shard's
  /// mutex held.
  void apply_locked(shard& sh,
                    std::span<const trace::measurement_record> recs);
  void drain_loop(shard& sh);
  /// Applies a drained batch to the shard's coordinator under its lock.
  void apply_batch(shard& sh,
                   const std::vector<trace::measurement_record>& batch);

  geo::zone_grid grid_;
  sharded_config cfg_;
  // Frozen copy of the constructor's operator-id assignment, readable from
  // any thread without a lock (see network_id_of).
  network_interner wire_ids_;
  // Shared alert ring every shard's coordinator publishes into (alerts are
  // rollover-rare, so the ring's mutex never pressures drain workers).
  alert_ring ring_;
  std::vector<std::unique_ptr<shard>> shards_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> reports_received_{0};
  std::atomic<std::uint64_t> tasks_issued_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace wiscape::core
