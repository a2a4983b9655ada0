#include "stats/time_series.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wiscape::stats {

void time_series::drop_oldest(std::size_t n) {
  begin_ += std::min(n, size());
  if (begin_ >= samples_.size() - begin_) {
    // Dead prefix outgrew the live window: compact in place (keeps
    // capacity, so the steady-state add/trim cycle never reallocates).
    samples_.erase(samples_.begin(),
                   samples_.begin() + static_cast<std::ptrdiff_t>(begin_));
    begin_ = 0;
  }
}

std::vector<double> time_series::values() const {
  std::vector<double> out;
  out.reserve(size());
  for (const auto& s : samples()) out.push_back(s.value);
  return out;
}

std::vector<sample> time_series::sorted_samples() const {
  const auto live = samples();
  std::vector<sample> sorted(live.begin(), live.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const sample& a, const sample& b) { return a.time_s < b.time_s; });
  return sorted;
}

std::vector<running_stats> time_series::bin_stats(double bin_s) const {
  return bin_sorted_stats(sorted_samples(), bin_s);
}

std::vector<running_stats> time_series::bin_sorted_stats(
    std::span<const sample> sorted, double bin_s) {
  if (!(bin_s > 0.0)) throw std::invalid_argument("bin width must be positive");
  if (sorted.empty()) return {};
  const double t0 = sorted.front().time_s;
  std::vector<running_stats> bins;
  std::size_t current_bin = 0;
  bins.emplace_back();
  for (const auto& s : sorted) {
    const auto idx =
        static_cast<std::size_t>(std::floor((s.time_s - t0) / bin_s));
    if (idx != current_bin) {
      if (!bins.back().empty()) bins.emplace_back();
      current_bin = idx;
    }
    bins.back().add(s.value);
  }
  if (bins.back().empty()) bins.pop_back();
  return bins;
}

std::vector<double> time_series::bin_means(double bin_s) const {
  std::vector<double> out;
  for (const auto& b : bin_stats(bin_s)) out.push_back(b.mean());
  return out;
}

time_series time_series::between(double t0, double t1) const {
  time_series out;
  for (const auto& s : samples()) {
    if (s.time_s >= t0 && s.time_s < t1) out.add(s);
  }
  return out;
}

}  // namespace wiscape::stats
