// Timestamped sample series and fixed-window binning.
//
// The paper constantly re-aggregates the same underlying samples at different
// time granularities (10 s vs 30 min bins in Table 4, variable tau for the
// Allan deviation in Fig 6); time_series provides that re-binning.
//
// Bounded-history callers (core::coordinator's per-zone planning history,
// which appends at most a zone's sample target per planning stream and
// epoch) trim with drop_oldest(), which advances an offset into the
// backing vector instead of copying the surviving half into a fresh
// allocation; the dead prefix is compacted in place (one element move, no
// allocation) only once it outgrows the live window, so steady-state
// add/trim cycles touch the allocator not at all. A caller binning one
// series at many widths (the Allan curve) sorts it once with
// sorted_samples() and bins the copy with bin_sorted_stats().
#pragma once

#include <span>
#include <vector>

#include "stats/running_stats.h"

namespace wiscape::stats {

/// One timestamped scalar observation. Time is seconds since an arbitrary
/// epoch (the simulator's t=0).
struct sample {
  double time_s = 0.0;
  double value = 0.0;
};

/// An append-ordered series of samples (not required to be time-sorted on
/// input; binning sorts internally as needed).
class time_series {
 public:
  time_series() = default;
  explicit time_series(std::vector<sample> samples)
      : samples_(std::move(samples)) {}

  void add(double time_s, double value) { samples_.push_back({time_s, value}); }
  void add(const sample& s) { samples_.push_back(s); }

  /// The live samples, oldest first. The view is invalidated by the next
  /// add() or drop_oldest().
  std::span<const sample> samples() const noexcept {
    return {samples_.data() + begin_, samples_.size() - begin_};
  }
  std::size_t size() const noexcept { return samples_.size() - begin_; }
  bool empty() const noexcept { return size() == 0; }

  /// Drops the `n` oldest live samples (all of them when n >= size()).
  /// Amortized O(1): no allocation, and element moves only when the dead
  /// prefix has outgrown the live window.
  void drop_oldest(std::size_t n);

  /// All values, in insertion order.
  std::vector<double> values() const;

  /// Averages samples into consecutive windows of `bin_s` seconds starting at
  /// the earliest sample time. Windows with no samples are skipped (the field
  /// data also has coverage gaps). Returns per-bin means in time order.
  /// Throws std::invalid_argument if bin_s <= 0.
  std::vector<double> bin_means(double bin_s) const;

  /// Like bin_means but returns full per-bin summary stats.
  std::vector<running_stats> bin_stats(double bin_s) const;

  /// The live samples in time order: the one sorted copy every binning
  /// call makes (std::sort on time, so tied samples land in the same order
  /// on every call over the same series).
  std::vector<sample> sorted_samples() const;

  /// bin_stats over samples already in time order (sorted_samples()), so a
  /// caller binning one series at many widths sorts it once. Throws
  /// std::invalid_argument if bin_s <= 0.
  static std::vector<running_stats> bin_sorted_stats(
      std::span<const sample> sorted, double bin_s);

  /// Restricts to samples with time in [t0, t1).
  time_series between(double t0, double t1) const;

 private:
  std::vector<sample> samples_;
  std::size_t begin_ = 0;  // offset of the live window into samples_
};

}  // namespace wiscape::stats
