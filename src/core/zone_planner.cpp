#include "core/zone_planner.h"

#include <utility>

namespace wiscape::core {

const zone_planner::zone_state& zone_planner::plan_of(
    const geo::zone_id& z) const noexcept {
  const std::uint32_t found = find(z);
  return found != 0 ? zones_[found - 1] : defaults_;
}

zone_planner::zone_state& zone_planner::state_of(const geo::zone_id& z) {
  if (const std::uint32_t found = find(z)) return zones_[found - 1];
  if ((zones_.size() + 1) * 2 > slots_.size()) {  // keep it half empty
    const std::size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
    const std::vector<slot> old = std::exchange(slots_, std::vector<slot>(cap));
    mask_ = cap - 1;
    for (const slot& e : old) {
      if (e.index != 0) slots_[slot_of(e.zone)] = e;
    }
  }
  zones_.push_back(defaults_);
  slots_[slot_of(z)] = slot{z, static_cast<std::uint32_t>(zones_.size())};
  return zones_.back();
}

void zone_planner::offer(zone_state& st, std::uint16_t nid,
                         trace::probe_kind kind, double time_s, double value,
                         std::size_t open_samples) {
  if (open_samples > st.samples_target) return;
  const std::size_t si = series_of(nid, kind);
  if (si >= st.history.size()) st.history.resize(si + 1);
  auto& series = st.history[si];
  series.add(time_s, value);
  if (series.size() > history_cap) series.drop_oldest(series.size() / 2);
}

const stats::time_series* zone_planner::longest(const zone_state& st) {
  const stats::time_series* best = nullptr;
  for (const auto& series : st.history) {
    if (!best || series.size() > best->size()) best = &series;
  }
  return best;
}

void zone_planner::recompute_epochs() {
  for (zone_state& st : zones_) {
    const stats::time_series* best = longest(st);
    if (best && best->size() >= 32) st.epoch_s = epochs_.epoch_for(*best);
  }
}

const stats::time_series* zone_planner::series_for(
    const geo::zone_id& z, std::uint16_t nid, trace::metric metric) const {
  // network_interner::npos indexes past every series.
  const std::size_t si = series_of(nid, trace::kind_for(metric));
  const auto& history = plan_of(z).history;
  return si < history.size() ? &history[si] : nullptr;
}

std::size_t zone_planner::refine_sample_target(const geo::zone_id& z,
                                               std::uint16_t nid,
                                               trace::metric metric,
                                               stats::rng_stream& rng) {
  const std::uint32_t found = find(z);
  if (found == 0) return defaults_.samples_target;
  zone_state& st = zones_[found - 1];
  const stats::time_series* series = series_for(z, nid, metric);
  if (series != nullptr && series->size() >= planner_.config().step * 4) {
    st.samples_target = planner_.samples_needed(series->values(), rng);
  }
  return st.samples_target;
}

}  // namespace wiscape::core
