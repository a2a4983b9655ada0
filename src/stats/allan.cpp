#include "stats/allan.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/summary.h"

namespace wiscape::stats {

namespace {

// sigma_y over consecutive window means; 0 for fewer than two windows.
double allan_of_windows(const std::vector<double>& windows) {
  const std::size_t n = windows.size();
  if (n < 2) return 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double d = windows[i + 1] - windows[i];
    sum_sq += d * d;
  }
  return std::sqrt(sum_sq / (2.0 * static_cast<double>(n - 1)));
}

}  // namespace

double allan_deviation(const time_series& series, double tau_s) {
  if (!(tau_s > 0.0)) throw std::invalid_argument("tau must be positive");
  return allan_of_windows(series.bin_means(tau_s));
}

double relative_allan_deviation(const time_series& series, double tau_s) {
  if (series.empty()) return 0.0;
  const double m = mean(series.values());
  if (m == 0.0) return 0.0;
  return allan_deviation(series, tau_s) / std::abs(m);
}

std::vector<allan_point> allan_curve(const time_series& series,
                                     const std::vector<double>& taus_s) {
  // One sort and one mean for the whole curve instead of two sorts and a
  // mean per tau. Each tau bins the sorted copy bin_means() would make, so
  // every point is bit-identical to a per-tau relative_allan_deviation call.
  const std::vector<sample> sorted = series.sorted_samples();
  const double m = series.empty() ? 0.0 : mean(series.values());
  std::vector<allan_point> out;
  std::vector<double> windows;
  for (double tau : taus_s) {
    windows.clear();
    for (const auto& b : time_series::bin_sorted_stats(sorted, tau)) {
      windows.push_back(b.mean());
    }
    if (windows.size() < 2) continue;
    out.push_back(
        {tau, m == 0.0 ? 0.0 : allan_of_windows(windows) / std::abs(m)});
  }
  return out;
}

double allan_minimum_tau(const time_series& series,
                         const std::vector<double>& taus_s) {
  const auto curve = allan_curve(series, taus_s);
  if (curve.empty()) {
    throw std::invalid_argument(
        "allan_minimum_tau: no tau candidate yields two or more windows");
  }
  double best_tau = curve.front().tau_s;
  double best_dev = std::numeric_limits<double>::infinity();
  for (const auto& p : curve) {
    if (p.deviation < best_dev) {
      best_dev = p.deviation;
      best_tau = p.tau_s;
    }
  }
  return best_tau;
}

std::vector<double> log_spaced_taus(double lo_s, double hi_s, int count) {
  if (!(lo_s > 0.0) || !(hi_s > lo_s) || count < 2) {
    throw std::invalid_argument("log_spaced_taus requires 0<lo<hi, count>=2");
  }
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(count));
  const double ratio = std::log(hi_s / lo_s) / (count - 1);
  for (int i = 0; i < count; ++i) {
    out.push_back(lo_s * std::exp(ratio * i));
  }
  return out;
}

}  // namespace wiscape::stats
