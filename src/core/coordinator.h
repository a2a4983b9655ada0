// The WiScape measurement coordinator (Sec 3.4, "Putting it all together").
//
// Clients periodically report their coarse zone; the coordinator hands back
// measurement tasks with a probability tuned so each zone-epoch accumulates
// just enough samples (the sample_planner's count), no more. Reported
// measurements flow into the zone_table, whose epoch rollovers publish
// estimates and raise >2-sigma change alerts. Epoch durations are
// re-estimated per zone via the Allan minimum from a planning history that
// keeps, per zone-epoch, only the samples the plan asked for.
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

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/alert_ring.h"
#include "core/epoch_estimator.h"
#include "core/estimate_mirror.h"
#include "core/sample_planner.h"
#include "core/zone_table.h"
#include "stats/time_series.h"
#include "trace/record.h"

namespace wiscape::core {

struct coordinator_config {
  double zone_radius_m = 250.0;  ///< the paper's chosen zone scale
  /// Samples wanted per zone-epoch before planner-refined counts exist
  /// ("around 100 measurement samples", Sec 1).
  std::size_t default_samples_per_epoch = 100;
  double change_sigma_factor = 2.0;
  epoch_config epochs{};
  planner_config planner{};
  /// Planning-history length (samples) per planning stream -- (zone,
  /// network, probe kind), one unit per series -- kept for epoch
  /// re-estimation and sample planning; past it the oldest half is
  /// dropped. The history takes at most a zone's target per planning
  /// stream and epoch (see report_batch), so a series gains at most
  /// samples_target per epoch, and its window -- history_cap / 2 to
  /// history_cap samples once it has trimmed -- covers at least
  /// history_cap / (2 samples_target) epochs however hard the zone is
  /// flooded, whichever probe kinds the network reports there.
  std::size_t history_cap = 4096;
  /// Per-client measurement budget, MB per day (0 = unlimited). The
  /// coordinator stops tasking a client whose day's probes already cost
  /// this much -- the Sec 3.4 bandwidth/energy-cost knob made explicit.
  double client_daily_budget_mb = 0.0;
  /// Estimated cost charged per issued task, by probe kind (MB). Defaults
  /// price a 1 MB TCP download, a 100x1200 B UDP burst and a ping train.
  double tcp_task_mb = 1.02;
  double udp_task_mb = 0.12;
  double ping_task_mb = 0.002;
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

  /// The zone's planning history that recompute_epochs() scans -- its
  /// longest per-stream series, oldest first; empty for a zone without
  /// one. For tests: valid until the next report.
  std::span<const stats::sample> history_for_test(
      const geo::zone_id& zone) const;
  /// The series refine_sample_target(zone, network, metric) reads: the
  /// planning stream of the probe kind that carries `metric`. Empty when
  /// it has none. For tests: valid until the next report.
  std::span<const stats::sample> history_for_test(const geo::zone_id& zone,
                                                  std::string_view network,
                                                  trace::metric metric) const;

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

  /// Ingests one completed measurement: report_batch() over a batch of one.
  void report(const trace::measurement_record& rec) {
    report_batch({&rec, 1});
  }

  /// Ingests completed measurements in order. Each record updates the zone
  /// table (all metrics it carries) and, while its planning stream's open
  /// epoch holds at most the zone's samples_target (this record included:
  /// the rule checkin() tasks by), its zone's planning history -- the
  /// samples the coordinator would have asked for, and no more. Never
  /// throws: failed probes, non-finite times, zones outside
  /// the store's packed cell range, and records arriving after the network
  /// interner is exhausted are counted into
  /// `core.coordinator.reports_rejected` and dropped, and a record whose
  /// apply throws anyway is dropped alone (the rest of the batch applies).
  /// Returns the number of records dropped by a throw -- zero unless the
  /// apply path has a bug; sharded_coordinator counts them into
  /// `core.sharded.apply_errors`.
  ///
  /// The batch is applied in chunks of apply_chunk records, in passes that
  /// overlap the cache misses of a whole chunk: validate every record,
  /// resolve its zone and network id and prefetch both directory slots;
  /// probe the directories and prefetch each record's stream accumulators
  /// and history entry; prefetch each history tail; then apply in arrival
  /// order. The result is exactly that of applying the records one by one.
  std::size_t report_batch(std::span<const trace::measurement_record> recs);

  /// Records resolved ahead of being applied (see report_batch).
  static constexpr std::size_t apply_chunk = 64;

  /// Re-estimates the epoch duration of every zone with enough history
  /// (Allan minimum). Cheap enough to call periodically.
  void recompute_epochs();

  /// Refines a zone's sample target via the NKLD planner from the history
  /// of the planning stream that carries `metric` (the network's series
  /// for trace::kind_for(metric)). No-op (returns current target) when
  /// that series is too small.
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

  /// Installs a frozen estimate (snapshot load, WAL replay, replication)
  /// with the zone's epoch length, the boundary its samples use; see
  /// zone_table::merge_estimate.
  bool merge_estimate(const estimate_key& key, const epoch_estimate& e);
  /// Restores a stream's open-epoch accumulator (see zone_table).
  void restore_open(const estimate_key& key, const open_epoch_state& st) {
    table_.restore_open(key, st);
  }

  // ---- replication surface (src/repl, ISSUE 10) ---------------------------

  /// Attaches the epoch-rollover tap (see zone_table::set_epoch_tap).
  /// Install before ingesting; the tap must outlive the coordinator.
  void set_epoch_tap(epoch_tap* tap) noexcept { table_.set_epoch_tap(tap); }

 private:
  friend class sharded_coordinator;  // internal table reads under shard lock

  struct zone_state {
    double epoch_s;
    std::size_t samples_target;
    // Planning history used for epoch/NKLD estimation: one series per
    // planning stream, indexed by series_of(interned network id, probe
    // kind) (dense: most zones see every operator).
    std::vector<stats::time_series> history;
  };

  /// Probe kinds: the planning streams per (zone, network).
  static constexpr std::size_t probe_kinds = 4;
  /// zone_state::history index of a planning stream.
  static std::size_t series_of(std::uint16_t nid,
                               trace::probe_kind kind) noexcept {
    return nid * probe_kinds + static_cast<std::size_t>(kind);
  }
  /// The series of one planning stream, or nullptr when it has none.
  const stats::time_series* series_for(const geo::zone_id& zone,
                                       std::string_view network,
                                       trace::metric metric) const;

  /// The zone's longest per-stream history series (ties go to the lowest
  /// series index), or nullptr when it has none.
  static const stats::time_series* longest_history(const zone_state& st);

  /// Internal-only raw table access (sharded_coordinator's read-side
  /// aggregation under the shard lock).
  const zone_table& table() const noexcept { return table_; }

  // Zone directory: open addressing (linear probing, at most half full)
  // from a zone's packed key to its index in zones_ -- the zone_table
  // gslot layout, one 16-byte slot per zone, so a batch can prefetch a
  // record's slot before it probes.
  struct zone_slot {
    std::uint64_t key = 0;    // zone_key()
    std::uint32_t index = 0;  // zones_ index + 1; 0 = empty slot
  };
  static constexpr std::size_t no_zone = static_cast<std::size_t>(-1);

  /// ix:32 | iy:32. Any zone packs (check-ins and reads accept zones the
  /// estimate store's range rejects), so emptiness lives in the index.
  static std::uint64_t zone_key(const geo::zone_id& z) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(z.ix))
            << 32) |
           static_cast<std::uint32_t>(z.iy);
  }
  void prefetch_zone(std::uint64_t key) const noexcept {
    if (zone_mask_ != 0) {
      __builtin_prefetch(
          &zone_slots_[static_cast<std::size_t>(zone_table::mix64(key)) &
                       zone_mask_]);
    }
  }
  /// zones_ index of a zone, or no_zone.
  std::size_t find_zone(std::uint64_t key) const noexcept;
  /// zones_ index of a zone, created with the configured defaults on first
  /// sight (may grow the directory; zones_ indices stay valid).
  std::size_t zone_index(const geo::zone_id& z);
  /// Inserts a directory entry (its key must be absent; room must exist).
  void place_zone(const zone_slot& e) noexcept;
  zone_state& state_of(const geo::zone_id& z) { return zones_[zone_index(z)]; }
  /// The primary metric driving sampling decisions for a probe kind: its
  /// first metric in trace::metrics_of order. checkin() tasks by this
  /// stream's open-epoch count and report_batch() gates the history on it.
  static trace::metric planning_metric(trace::probe_kind k) noexcept {
    return trace::metrics_of(k).front();
  }
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
  epoch_estimator epochs_;
  sample_planner planner_;
  stats::rng_stream rng_;
  std::vector<zone_state> zones_;       // dense, zone-creation order
  std::vector<zone_slot> zone_slots_;  // the directory, pow2 slots
  std::size_t zone_mask_ = 0;          // zone_slots_.size() - 1; 0 = none
  // Round-robin over probe kinds so every metric family gets samples.
  std::uint64_t task_counter_ = 0;

  struct budget_state {
    std::int64_t day = -1;
    double spent_mb = 0.0;
  };
  std::unordered_map<std::uint64_t, budget_state> budgets_;
};

}  // namespace wiscape::core
