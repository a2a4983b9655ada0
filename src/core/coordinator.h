// The WiScape measurement coordinator (Sec 3.4, "Putting it all together").
//
// Clients periodically report their coarse zone; the coordinator hands back
// measurement tasks with a probability tuned so each zone-epoch accumulates
// just enough samples (the sample_planner's count), no more. Reported
// measurements flow into the zone_table, whose epoch rollovers publish
// estimates and raise >2-sigma change alerts. Epochs are re-estimated per
// zone via the Allan minimum only with a planner (start_planning()); without
// one every zone runs on the configured defaults and no per-zone state.
//
// Thread safety: NOT thread-safe, by design -- a coordinator is a
// deterministic sequential state machine (same seed + same call sequence =>
// bit-for-bit the same estimates, tasks and alerts). Callers serialise
// access; `sharded_coordinator` is the concurrent wrapper that does so at
// scale, one coordinator per shard behind the shard's mutex.
//
// Observability: checkin() and report() count into the process-wide
// `core.coordinator.*` metrics (src/obs/names.h; reference table in
// DESIGN.md §5) -- check-ins, tasks issued, budget denials, reports
// accepted/rejected, and change alerts raised. One relaxed atomic
// fetch-add per event; observation only, never behaviour.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/alert_ring.h"
#include "core/estimate_mirror.h"
#include "core/zone_planner.h"
#include "core/zone_table.h"
#include "trace/record.h"

namespace wiscape::core {

struct coordinator_config {
  /// Samples wanted per zone-epoch before planner-refined counts exist
  /// ("around 100 measurement samples", Sec 1).
  std::size_t default_samples_per_epoch = 100;
  epoch_config epochs{};
  planner_config planner{};
  /// Per-client measurement budget, MB per day (0 = unlimited). The
  /// coordinator stops tasking a client whose day's probes already cost
  /// this much -- the Sec 3.4 bandwidth/energy-cost knob made explicit.
  double client_daily_budget_mb = 0.0;
  /// Change alerts retained for incremental draining via
  /// estimate_view::alerts_since (older ones are evicted and accounted as
  /// dropped): the capacity of the one ring a sharded_coordinator shares
  /// across its shards. A standalone coordinator publishes into the ring
  /// its owner passes in and ignores this field.
  std::size_t alert_ring_capacity = 1024;
};

/// A measurement instruction handed to a client.
struct measurement_task {
  trace::probe_kind kind = trace::probe_kind::udp_burst;
  std::size_t network_index = 0;
};

/// Per-zone coordination state, exposed read-only for tools/benches.
struct zone_status {
  double epoch_duration_s = 0.0;
  std::size_t samples_target = 0;
  std::size_t open_epoch_samples = 0;
};

class coordinator {
 public:
  /// Publishes change alerts into `alerts`, which must outlive the
  /// coordinator (sharded_coordinator passes the ring its shards share).
  coordinator(geo::zone_grid grid, std::vector<std::string> networks,
              coordinator_config cfg, std::uint64_t seed, alert_ring& alerts);

  // The estimate mirror is a member the zone table points into, so a
  // coordinator is pinned to its address once constructed.
  coordinator(const coordinator&) = delete;
  coordinator& operator=(const coordinator&) = delete;

  const geo::zone_grid& grid() const noexcept { return grid_; }
  const coordinator_config& config() const noexcept { return cfg_; }

  /// Raw zone-table access for tests and benches.
  /// Application reads go through core::estimate_view (the sanctioned read
  /// path; see DESIGN.md "Read-side serving") -- this accessor is named to
  /// keep that boundary visible at call sites.
  const zone_table& table_for_test() const noexcept { return table_; }

  /// Attaches a zone_planner: accepted records then feed their zone's plan,
  /// and recompute_epochs() / refine_sample_target() take effect. Call
  /// before ingesting; a second call is a no-op.
  void start_planning();
  const zone_planner* planner() const noexcept { return plan_.get(); }

  /// The serving-layer mirror every epoch rollover publishes into
  /// (consumed by core::estimate_view; lock-free reads).
  const estimate_mirror& published() const noexcept { return mirror_; }

  /// The alert ring this coordinator's change alerts are sequenced into
  /// (the one passed to the constructor).
  const alert_ring& alert_sink() const noexcept { return *alert_sink_; }

  /// Client check-in: "I am at `pos` at time `t`, able to probe network
  /// `network_index`; about `active_clients_in_zone` peers are here too."
  /// Returns a task with probability (remaining samples needed this epoch) /
  /// (active clients), so the fleet collectively lands near the target.
  /// `client_id` identifies the device for per-client budget accounting
  /// (0 = anonymous, never budget-limited).
  std::optional<measurement_task> checkin(const geo::lat_lon& pos,
                                          double time_s,
                                          std::size_t network_index,
                                          std::size_t active_clients_in_zone,
                                          std::uint64_t client_id = 0);

  /// MB charged against a client's budget today (diagnostics / tests).
  double client_spend_mb(std::uint64_t client_id, double time_s) const;

  /// Estimated cost charged per issued task (MB), indexed by
  /// trace::probe_kind: a 1 MB TCP download, a 100x1200 B UDP burst, a ping
  /// train, and a UDP uplink burst priced as the downlink one.
  static constexpr std::array<double, 4> task_mb{1.02, 0.12, 0.002, 0.12};

  /// Ingests one completed measurement: report_batch() over a batch of one.
  void report(const trace::measurement_record& rec) {
    report_batch({&rec, 1});
  }

  /// Ingests completed measurements in order. Each record updates the zone
  /// table (all metrics it carries) and, with a planner, is offered to its
  /// zone's planning history (zone_planner::offer). Never throws: failed
  /// probes, non-finite times, zones outside the store's packed cell range,
  /// and records arriving after the network interner is exhausted are
  /// counted into `core.coordinator.reports_rejected` and dropped, and a
  /// record whose apply throws anyway is dropped alone (the rest of the
  /// batch applies). Returns the number of records dropped by a throw --
  /// zero unless the apply path has a bug; sharded_coordinator counts them
  /// into `core.sharded.apply_errors`.
  ///
  /// The batch is applied in chunks of apply_chunk records, in passes that
  /// overlap the cache misses of a whole chunk: validate every record,
  /// resolve its zone and network id and prefetch its group's directory
  /// slot; probe the directory and prefetch each record's stream
  /// accumulators; then apply in arrival order. The result is exactly that
  /// of applying the records one by one.
  std::size_t report_batch(std::span<const trace::measurement_record> recs);

  /// Records resolved ahead of being applied (see report_batch).
  static constexpr std::size_t apply_chunk = 64;

  /// Re-estimates the epoch duration of every zone with enough history
  /// (Allan minimum). No-op without a planner.
  void recompute_epochs();

  /// Refines a zone's sample target via the NKLD planner from the history
  /// of the planning stream that carries `metric` (the network's series
  /// for trace::kind_for(metric)). No-op (returns current target) without
  /// a planner or when that series is too small.
  std::size_t refine_sample_target(const geo::zone_id& zone,
                                   std::string_view network,
                                   trace::metric metric);

  zone_status status_of(const geo::zone_id& zone) const;

  /// Interned id a record's network would resolve to here, or
  /// trace::no_network_id if never seen. Read-only (does not intern).
  std::uint16_t network_id_of(std::string_view network) const noexcept {
    return table_.interner().try_id(network);
  }

  // ---- enumerate and restore (sharded_coordinator's durable_state) --------
  // sharded_coordinator calls these under the owning shard's lock.

  /// All estimate-stream keys seen so far (stream-creation order).
  std::vector<estimate_key> keys() const { return table_.keys(); }

  /// Full frozen history of one stream, oldest first (copied).
  std::vector<epoch_estimate> history(const estimate_key& key) const {
    return table_.history(key);
  }
  /// Open-epoch accumulator of a stream (nullopt when absent or empty).
  std::optional<open_epoch_state> open_state(const estimate_key& key) const {
    return table_.open_state(key);
  }

  // Restore replays saved state, it does not observe new measurements: no
  // alerts are raised, no reports_accepted counters move.

  /// Installs one stream's frozen epochs and open accumulator (snapshot
  /// load, WAL replay, replication) with the zone's epoch length, the
  /// boundary its samples use; see zone_table::restore_stream.
  std::size_t restore_stream(const estimate_key& key,
                             std::span<const epoch_estimate> frozen,
                             const open_epoch_state* open);
  /// Sizes the table and its mirror for `streams` streams (a hint; see
  /// zone_table::reserve_streams).
  void reserve_streams(std::size_t streams) { table_.reserve_streams(streams); }

  // ---- replication surface (src/repl, ISSUE 10) ---------------------------

  /// Attaches the epoch-rollover tap (see zone_table::set_epoch_tap).
  /// Install before ingesting; the tap must outlive the coordinator.
  void set_epoch_tap(epoch_tap* tap) noexcept { table_.set_epoch_tap(tap); }

 private:
  friend class sharded_coordinator;  // internal table reads under shard lock

  /// The zone's epoch length and sample target: its plan's, or the
  /// defaults. Creates no plan.
  zone_status plan_of(const geo::zone_id& z) const noexcept;
  /// The record's interned network id: the wire-cached id when it checks
  /// out against our interner, else a (possibly interning) name lookup.
  /// Returns network_interner::npos -- never throws -- when the interner
  /// is full and the name is new.
  std::uint16_t resolve_network(const trace::measurement_record& rec);

  geo::zone_grid grid_;
  std::vector<std::string> networks_;
  coordinator_config cfg_;
  // Serving-layer sinks; the mirror is constructed before table_ so
  // set_sinks in the ctor hands the table valid addresses for the
  // coordinator's whole lifetime.
  estimate_mirror mirror_;
  alert_ring* alert_sink_;
  zone_table table_;
  // networks_[i] -> interned id (duplicate names collapse to the first id).
  std::vector<std::uint16_t> net_ids_;
  stats::rng_stream rng_;
  std::unique_ptr<zone_planner> plan_;  // null until start_planning()
  // Round-robin over probe kinds so every metric family gets samples.
  std::uint64_t task_counter_ = 0;

  struct budget_state {
    std::int64_t day = -1;
    double spent_mb = 0.0;
  };
  std::unordered_map<std::uint64_t, budget_state> budgets_;
};

}  // namespace wiscape::core
