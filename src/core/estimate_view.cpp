#include "core/estimate_view.h"

#include <algorithm>

#include "obs/names.h"
#include "obs/registry.h"

namespace wiscape::core {

namespace {
// Process-wide serving metrics (all estimate_view instances share them).
struct view_metrics {
  obs::counter& lookups;
  obs::counter& misses;
  obs::counter& alerts_served;
  obs::counter& alerts_dropped;
};

view_metrics& metrics() {
  auto& reg = obs::registry::global();
  static view_metrics m{
      reg.get_counter(obs::names::kEstimateViewLookups),
      reg.get_counter(obs::names::kEstimateViewMisses),
      reg.get_counter(obs::names::kEstimateViewAlertsServed),
      reg.get_counter(obs::names::kEstimateViewAlertsDropped)};
  return m;
}
}  // namespace

served_estimate estimate_view::serve(const published_estimate& p,
                                     double now_s) const noexcept {
  served_estimate out;
  out.count = p.count;
  out.mean = p.mean;
  out.stddev = p.stddev;
  out.epoch_index = p.epoch_index;
  out.epoch_start_s = p.epoch_start_s;
  if (now_s >= 0.0) {
    out.staleness_s = std::max(0.0, now_s - p.epoch_start_s);
  }
  out.confidence =
      std::min(1.0, static_cast<double>(p.count) / target_samples);
  return out;
}

std::optional<served_estimate> estimate_view::lookup(const geo::zone_id& zone,
                                                     std::uint16_t network_id,
                                                     trace::metric metric,
                                                     double now_s) const {
  metrics().lookups.inc();
  published_estimate p;
  if (!mirror_of(zone).read(zone_table::pack_stream(zone, network_id, metric),
                            p)) {
    metrics().misses.inc();
    return std::nullopt;
  }
  return serve(p, now_s);
}

std::size_t estimate_view::lookup_batch(std::span<stream_lookup> batch) const {
  constexpr std::size_t kChunk = estimate_mirror::batch_width;
  std::size_t hits = 0;
  for (std::size_t base = 0; base < batch.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, batch.size() - base);
    stream_lookup* const l = batch.data() + base;
    const estimate_mirror* mirror[kChunk] = {};
    for (std::size_t i = 0; i < n; ++i) mirror[i] = &mirror_of(l[i].zone);
    // One read_batch per mirror the chunk touches (one, unless the view
    // serves several shards), its keys gathered in chunk order.
    bool done[kChunk] = {};
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      std::size_t at[kChunk];
      std::uint64_t keys[kChunk];
      std::size_t g = 0;
      for (std::size_t j = i; j < n; ++j) {
        if (done[j] || mirror[j] != mirror[i]) continue;
        done[j] = true;
        at[g] = j;
        keys[g++] =
            zone_table::pack_stream(l[j].zone, l[j].network_id, l[j].metric);
      }
      published_estimate p[kChunk];
      bool found[kChunk] = {};
      hits += mirror[i]->read_batch({keys, g}, {p, g}, {found, g});
      for (std::size_t k = 0; k < g; ++k) {
        stream_lookup& e = l[at[k]];
        e.found = found[k];
        if (found[k]) e.est = serve(p[k], e.now_s);
      }
    }
  }
  if (!batch.empty()) {
    metrics().lookups.inc(batch.size());
    if (hits < batch.size()) metrics().misses.inc(batch.size() - hits);
  }
  return hits;
}

std::optional<served_estimate> estimate_view::lookup(const geo::zone_id& zone,
                                                     std::string_view network,
                                                     trace::metric metric,
                                                     double now_s) const {
  // An unknown name resolves to npos, which no stream key packs: a miss,
  // counted like any other.
  return lookup(zone, network_id_of(network), metric, now_s);
}

alert_drain estimate_view::alerts_since(std::uint64_t since,
                                        std::size_t max) const {
  alert_drain out = coordinator_->alert_sink().drain_since(since, max);
  if (!out.alerts.empty()) metrics().alerts_served.inc(out.alerts.size());
  if (out.dropped != 0) metrics().alerts_dropped.inc(out.dropped);
  return out;
}

}  // namespace wiscape::core
