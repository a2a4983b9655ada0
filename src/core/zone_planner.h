// Per-zone planning (Sec 3.2.2 epochs at the Allan minimum, Sec 3.3 sample
// targets by NKLD), attached by coordinator::start_planning(): each zone's
// epoch length and sample target, a flat zone directory, and a planning
// history per (zone, network, probe kind) holding, per epoch, only the
// samples the target asked for. In no snapshot, WAL or replication stream
// (DESIGN.md §7). Not thread-safe: the coordinator serialises access.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/epoch_estimator.h"
#include "core/sample_planner.h"
#include "core/zone_table.h"
#include "stats/rng.h"
#include "stats/time_series.h"
#include "trace/record.h"

namespace wiscape::core {

class zone_planner {
 public:
  /// Samples per history series; past it the oldest half is dropped. A
  /// series gains at most samples_target per epoch, so once trimmed it
  /// spans at least history_cap / (2 samples_target) epochs.
  static constexpr std::size_t history_cap = 4096;

  struct zone_state {
    double epoch_s;
    std::size_t samples_target;
    // One series per planning stream, at series_of(network id, kind).
    std::vector<stats::time_series> history;
  };

  zone_planner(const epoch_config& epochs, const planner_config& planner,
               std::size_t default_samples_per_epoch)
      : epochs_(epochs),
        planner_(planner),
        defaults_{epochs.default_epoch_s, default_samples_per_epoch, {}} {}

  /// The zone's plan; the defaults (no history) for an unseen zone.
  const zone_state& plan_of(const geo::zone_id& z) const noexcept;
  /// The zone's plan, created with the defaults on first sight.
  zone_state& state_of(const geo::zone_id& z);
  /// Keeps an applied record's planning-metric sample while its stream's
  /// open epoch, the record folded in, holds at most the zone's target.
  void offer(zone_state& st, std::uint16_t nid, trace::probe_kind kind,
             double time_s, double value, std::size_t open_samples);

  /// Allan-minimum epoch for every zone whose longest series has >= 32
  /// samples (ties: lowest network id, then probe kind).
  void recompute_epochs();
  /// NKLD target from the zone's (nid, kind_for(metric)) series, drawing
  /// from `rng`; the current target when that series is too small.
  std::size_t refine_sample_target(const geo::zone_id& z, std::uint16_t nid,
                                   trace::metric metric,
                                   stats::rng_stream& rng);

  std::size_t zones() const noexcept { return zones_.size(); }
  /// For tests, valid until the next offer(): the series recompute_epochs
  /// scans, and the one refine_sample_target(z, nid, metric) reads.
  std::span<const stats::sample> history_for_test(
      const geo::zone_id& z) const {
    return samples_of(longest(plan_of(z)));
  }
  std::span<const stats::sample> history_for_test(
      const geo::zone_id& z, std::uint16_t nid, trace::metric metric) const {
    return samples_of(series_for(z, nid, metric));
  }

 private:
  static std::size_t series_of(std::uint16_t nid,
                               trace::probe_kind kind) noexcept {
    return nid * 4 + static_cast<std::size_t>(kind);  // 4 probe kinds
  }
  static const stats::time_series* longest(const zone_state& st);
  static std::span<const stats::sample> samples_of(
      const stats::time_series* s) {
    return s ? s->samples() : std::span<const stats::sample>{};
  }
  const stats::time_series* series_for(const geo::zone_id& z,
                                       std::uint16_t nid,
                                       trace::metric metric) const;

  // Directory slot: zone -> zones_ index + 1 (0 = empty); linear
  // probing, at most half full.
  struct slot {
    geo::zone_id zone;
    std::uint32_t index = 0;
  };
  /// The slot holding `z`, or the empty one it would go to (mask_ != 0).
  std::size_t slot_of(const geo::zone_id& z) const noexcept {
    std::size_t i = zone_table::mix64(geo::zone_id_hash{}(z)) & mask_;
    while (slots_[i].index != 0 && slots_[i].zone != z) i = (i + 1) & mask_;
    return i;
  }
  /// zones_ index + 1 of a zone, 0 when absent.
  std::uint32_t find(const geo::zone_id& z) const noexcept {
    return mask_ == 0 ? 0 : slots_[slot_of(z)].index;
  }

  epoch_estimator epochs_;
  sample_planner planner_;
  zone_state defaults_;
  std::vector<zone_state> zones_;  // dense, zone-creation order
  std::vector<slot> slots_;        // the directory, pow2 slots
  std::size_t mask_ = 0;           // slots_.size() - 1; 0 = none
};

}  // namespace wiscape::core
