#include "core/coordinator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/names.h"
#include "obs/registry.h"

namespace wiscape::core {

namespace {
// Process-wide coordinator metrics (aggregated over all instances -- every
// shard of a sharded_coordinator contributes to the same counters).
struct coord_metrics {
  obs::counter& checkins;
  obs::counter& tasks_issued;
  obs::counter& budget_exhausted;
  obs::counter& reports_accepted;
  obs::counter& reports_rejected;
  obs::counter& alerts_raised;
};

coord_metrics& metrics() {
  auto& reg = obs::registry::global();
  static coord_metrics m{reg.get_counter(obs::names::kCoordCheckins),
                         reg.get_counter(obs::names::kCoordTasksIssued),
                         reg.get_counter(obs::names::kCoordBudgetExhausted),
                         reg.get_counter(obs::names::kCoordReportsAccepted),
                         reg.get_counter(obs::names::kCoordReportsRejected),
                         reg.get_counter(obs::names::kCoordAlertsRaised)};
  return m;
}
}  // namespace

coordinator::coordinator(geo::zone_grid grid, std::vector<std::string> networks,
                         coordinator_config cfg, std::uint64_t seed,
                         alert_ring& alerts)
    : grid_(std::move(grid)),
      networks_(std::move(networks)),
      cfg_(cfg),
      alert_sink_(&alerts),
      table_(cfg.change_sigma_factor, networks_),
      epochs_(cfg.epochs),
      planner_(cfg.planner),
      rng_(seed) {
  // Every rollover publishes into the serving-layer mirror and sequences
  // its alert into the owner's ring.
  table_.set_sinks(&mirror_, alert_sink_);
  // networks_[i] -> interned id; the interner collapses duplicate operator
  // names to the first id, so two indices can legitimately share one.
  net_ids_.reserve(networks_.size());
  for (const auto& n : networks_) net_ids_.push_back(table_.interner().try_id(n));
}

std::size_t coordinator::find_zone(std::uint64_t key) const noexcept {
  if (zone_mask_ == 0) return no_zone;
  std::size_t slot = static_cast<std::size_t>(zone_table::mix64(key)) &
                     zone_mask_;
  while (zone_slots_[slot].index != 0) {
    if (zone_slots_[slot].key == key) return zone_slots_[slot].index - 1;
    slot = (slot + 1) & zone_mask_;
  }
  return no_zone;
}

void coordinator::place_zone(const zone_slot& e) noexcept {
  std::size_t slot =
      static_cast<std::size_t>(zone_table::mix64(e.key)) & zone_mask_;
  while (zone_slots_[slot].index != 0) slot = (slot + 1) & zone_mask_;
  zone_slots_[slot] = e;
}

std::size_t coordinator::zone_index(const geo::zone_id& z) {
  const std::uint64_t key = zone_key(z);
  const std::size_t found = find_zone(key);
  if (found != no_zone) return found;
  // Keep the directory at most half full: linear probing degrades sharply
  // past that.
  if ((zones_.size() + 1) * 2 > zone_slots_.size()) {
    const std::size_t cap = zone_slots_.empty() ? 64 : zone_slots_.size() * 2;
    const std::vector<zone_slot> old =
        std::exchange(zone_slots_, std::vector<zone_slot>(cap));
    zone_mask_ = cap - 1;
    for (const zone_slot& e : old) {
      if (e.index != 0) place_zone(e);
    }
  }
  zones_.push_back(zone_state{cfg_.epochs.default_epoch_s,
                              cfg_.default_samples_per_epoch,
                              {}});
  place_zone(zone_slot{key, static_cast<std::uint32_t>(zones_.size())});
  return zones_.size() - 1;
}

std::optional<measurement_task> coordinator::checkin(
    const geo::lat_lon& pos, double time_s, std::size_t network_index,
    std::size_t active_clients_in_zone, std::uint64_t client_id) {
  metrics().checkins.inc();
  const geo::zone_id z = grid_.zone_of(pos);
  zone_state& st = state_of(z);
  if (network_index >= networks_.size()) return std::nullopt;

  // How many samples has the open epoch of this zone's planning stream
  // accumulated? (Tracked on the probe kind we would issue next.)
  const auto kind = static_cast<trace::probe_kind>(task_counter_ % 3);
  const std::size_t have = table_.open_epoch_samples(
      z, net_ids_[network_index], planning_metric(kind));
  if (have >= st.samples_target) return std::nullopt;

  // Per-client budget guard: a device that already spent its day's
  // allowance is left alone (Sec 3.4's overhead knob).
  double task_mb = 0.0;
  switch (kind) {
    case trace::probe_kind::tcp_download:
      task_mb = cfg_.tcp_task_mb;
      break;
    case trace::probe_kind::udp_burst:
      task_mb = cfg_.udp_task_mb;
      break;
    case trace::probe_kind::ping:
      task_mb = cfg_.ping_task_mb;
      break;
    case trace::probe_kind::udp_uplink:
      task_mb = cfg_.udp_task_mb;
      break;
  }
  budget_state* budget = nullptr;
  if (client_id != 0 && cfg_.client_daily_budget_mb > 0.0) {
    budget = &budgets_[client_id];
    const auto day = static_cast<std::int64_t>(std::floor(time_s / 86400.0));
    if (budget->day != day) {
      budget->day = day;
      budget->spent_mb = 0.0;
    }
    if (budget->spent_mb + task_mb > cfg_.client_daily_budget_mb) {
      metrics().budget_exhausted.inc();
      return std::nullopt;
    }
  }

  const std::size_t remaining = st.samples_target - have;
  // Expected samples this epoch ~= p * active clients * checkins left; the
  // paper's minimal form: select each active client with probability
  // remaining/active (clamped).
  const double p = std::min(
      1.0, static_cast<double>(remaining) /
               static_cast<double>(std::max<std::size_t>(1, active_clients_in_zone)));
  if (!rng_.chance(p)) return std::nullopt;

  ++task_counter_;
  if (budget != nullptr) budget->spent_mb += task_mb;
  metrics().tasks_issued.inc();
  return measurement_task{kind, network_index};
}

double coordinator::client_spend_mb(std::uint64_t client_id,
                                    double time_s) const {
  const auto it = budgets_.find(client_id);
  if (it == budgets_.end()) return 0.0;
  const auto day = static_cast<std::int64_t>(std::floor(time_s / 86400.0));
  return it->second.day == day ? it->second.spent_mb : 0.0;
}

std::uint16_t coordinator::resolve_network(
    const trace::measurement_record& rec) {
  // Trust the wire-cached id only after checking it maps back to the same
  // name here: records can cross process boundaries carrying ids assigned
  // by a different (or stale) interner.
  const auto& in = table_.interner();
  if (rec.network_id != trace::no_network_id && rec.network_id < in.size() &&
      in.name_of(rec.network_id) == rec.network) {
    return rec.network_id;
  }
  // try_intern, not id_of: network names are untrusted wire strings, so a
  // flood of distinct names must saturate to rejection (npos), not throw
  // through the apply path (and terminate an async drain worker).
  return table_.interner().try_intern(rec.network);
}

std::size_t coordinator::report_batch(
    std::span<const trace::measurement_record> recs) {
  // One accepted record of a chunk, resolved ahead of its apply.
  struct resolved {
    const trace::measurement_record* rec;
    geo::zone_id z;
    std::uint16_t nid;
    std::uint64_t gkey;
    std::size_t zone;  // zones_ index; no_zone: new, created at apply
    // The record's planning-stream history series when it exists
    // (prefetch only: pass 4 may grow the vector holding it).
    const stats::time_series* series;
    // Stream index per metric of the record, or zone_table::no_stream.
    std::size_t streams[trace::metric_count];
  };
  std::size_t errors = 0;
  resolved chunk[apply_chunk];
  for (std::size_t base = 0; base < recs.size(); base += apply_chunk) {
    const std::size_t n = std::min(apply_chunk, recs.size() - base);
    // Pass 1: validate and resolve in arrival order (interning a new
    // network name is a mutation, and ids are handed out first come first
    // served), putting both directory slots in flight. Wire-reachable
    // validity checks come before any state mutation: a zone outside the
    // store's packed cell range (absurd coordinates), a NaN/inf timestamp
    // (it would poison a stream's epoch boundary) or an exhausted network
    // interner rejects the record -- add_sample's throws must stay
    // unreachable from attacker-controlled input.
    std::size_t live = 0;
    std::uint64_t rejected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const trace::measurement_record& rec = recs[base + i];
      try {
        if (!rec.success || !std::isfinite(rec.time_s)) {
          ++rejected;
          continue;
        }
        const geo::zone_id z = grid_.zone_of(rec.pos);
        if (!zone_table::zone_in_range(z)) {
          ++rejected;
          continue;
        }
        const std::uint16_t nid = resolve_network(rec);
        if (nid == network_interner::npos) {
          ++rejected;
          continue;
        }
        resolved& r = chunk[live++];
        r.rec = &rec;
        r.z = z;
        r.nid = nid;
        r.gkey = zone_table::group_key(z, nid);
        prefetch_zone(zone_key(z));
        table_.prefetch_group(r.gkey);
      } catch (const std::exception&) {
        ++errors;
      }
    }
    if (rejected > 0) metrics().reports_rejected.inc(rejected);
    if (live > 0) metrics().reports_accepted.inc(live);
    // Pass 2: probe the cached directories; every accumulator and history
    // entry in flight.
    for (std::size_t i = 0; i < live; ++i) {
      resolved& r = chunk[i];
      r.zone = find_zone(zone_key(r.z));
      const std::size_t si = series_of(r.nid, r.rec->kind);
      r.series = r.zone != no_zone && si < zones_[r.zone].history.size()
                     ? &zones_[r.zone].history[si]
                     : nullptr;
      if (r.series != nullptr) __builtin_prefetch(r.series);
      const auto ms = trace::metrics_of(r.rec->kind);
      for (std::size_t j = 0; j < ms.size(); ++j) {
        r.streams[j] = table_.stream_of(r.gkey, ms[j]);
        if (r.streams[j] != zone_table::no_stream) {
          table_.prefetch_stream(r.streams[j]);
        }
      }
    }
    // Pass 3: every history tail in flight.
    for (std::size_t i = 0; i < live; ++i) {
      if (chunk[i].series == nullptr) continue;
      const auto tail = chunk[i].series->samples();
      __builtin_prefetch(tail.data() + tail.size(), 1);
    }
    // Pass 4: apply in arrival order. Streams and zones pass 2 did not find
    // are created here (an earlier record of the chunk may have done so).
    const std::uint64_t alerts_before = table_.alerts_raised();
    for (std::size_t i = 0; i < live; ++i) {
      const resolved& r = chunk[i];
      const trace::measurement_record& rec = *r.rec;
      try {
        zone_state& st =
            zones_[r.zone != no_zone ? r.zone : zone_index(r.z)];
        const auto ms = trace::metrics_of(rec.kind);
        for (std::size_t j = 0; j < ms.size(); ++j) {
          const double v = trace::value_of(rec, ms[j]);
          if (r.streams[j] != zone_table::no_stream) {
            table_.add_to_stream(r.streams[j], rec.time_s, v, st.epoch_s);
          } else {
            table_.add_sample(r.z, r.nid, ms[j], rec.time_s, v, st.epoch_s);
          }
        }
        // The planning stream's series takes the kind's planning metric
        // (ms[0]) and only the samples checkin() would have asked for:
        // while the stream's open epoch holds at most the zone's target,
        // this record included.
        const std::size_t plan = r.streams[0] != zone_table::no_stream
                                     ? r.streams[0]
                                     : table_.stream_of(r.gkey, ms[0]);
        if (table_.open_samples(plan) > st.samples_target) continue;
        const std::size_t si = series_of(r.nid, rec.kind);
        if (si >= st.history.size()) st.history.resize(si + 1);
        auto& series = st.history[si];
        series.add(rec.time_s, trace::value_of(rec, ms[0]));
        if (series.size() > cfg_.history_cap) {
          // Drop the oldest half to bound memory while keeping a long
          // window.
          series.drop_oldest(series.size() / 2);
        }
      } catch (const std::exception&) {
        ++errors;
      }
    }
    const std::uint64_t alerts_after = table_.alerts_raised();
    if (alerts_after > alerts_before) {
      metrics().alerts_raised.inc(alerts_after - alerts_before);
    }
  }
  return errors;
}

bool coordinator::merge_estimate(const estimate_key& key,
                                 const epoch_estimate& e) {
  // A zone this coordinator has not seen yet runs on the default length,
  // as its first sample will.
  const std::size_t zi = find_zone(zone_key(key.zone));
  return table_.merge_estimate(
      key, e, zi == no_zone ? cfg_.epochs.default_epoch_s : zones_[zi].epoch_s);
}

const stats::time_series* coordinator::longest_history(const zone_state& st) {
  // Ties go to the lowest series index (network id, then probe kind).
  const stats::time_series* best = nullptr;
  for (const auto& series : st.history) {
    if (!best || series.size() > best->size()) best = &series;
  }
  return best;
}

void coordinator::recompute_epochs() {
  for (zone_state& st : zones_) {
    const stats::time_series* best = longest_history(st);
    if (!best || best->size() < 32) continue;
    st.epoch_s = epochs_.epoch_for(*best);
  }
}

const stats::time_series* coordinator::series_for(const geo::zone_id& zone,
                                                  std::string_view network,
                                                  trace::metric metric) const {
  const std::size_t zi = find_zone(zone_key(zone));
  // Allocation-free lookup: networks with no history were never interned
  // (or never reported into this zone).
  const std::uint16_t nid = table_.interner().try_id(network);
  if (zi == no_zone || nid == network_interner::npos) return nullptr;
  const std::size_t si = series_of(nid, trace::kind_for(metric));
  const auto& history = zones_[zi].history;
  return si < history.size() ? &history[si] : nullptr;
}

std::size_t coordinator::refine_sample_target(const geo::zone_id& zone,
                                              std::string_view network,
                                              trace::metric metric) {
  const std::size_t zi = find_zone(zone_key(zone));
  if (zi == no_zone) return cfg_.default_samples_per_epoch;
  zone_state& st = zones_[zi];
  const stats::time_series* series = series_for(zone, network, metric);
  if (series == nullptr || series->size() < cfg_.planner.step * 4) {
    return st.samples_target;
  }
  st.samples_target = planner_.samples_needed(series->values(), rng_);
  return st.samples_target;
}

std::span<const stats::sample> coordinator::history_for_test(
    const geo::zone_id& zone) const {
  const std::size_t zi = find_zone(zone_key(zone));
  if (zi == no_zone) return {};
  const stats::time_series* best = longest_history(zones_[zi]);
  return best ? best->samples() : std::span<const stats::sample>{};
}

std::span<const stats::sample> coordinator::history_for_test(
    const geo::zone_id& zone, std::string_view network,
    trace::metric metric) const {
  const stats::time_series* series = series_for(zone, network, metric);
  return series ? series->samples() : std::span<const stats::sample>{};
}

zone_status coordinator::status_of(const geo::zone_id& zone) const {
  zone_status out;
  const std::size_t zi = find_zone(zone_key(zone));
  if (zi == no_zone) {
    out.epoch_duration_s = cfg_.epochs.default_epoch_s;
    out.samples_target = cfg_.default_samples_per_epoch;
    return out;
  }
  out.epoch_duration_s = zones_[zi].epoch_s;
  out.samples_target = zones_[zi].samples_target;
  // Report the fullest open stream across networks/metrics for this zone.
  for (const std::uint16_t nid : net_ids_) {
    for (const trace::metric m :
         {trace::metric::tcp_throughput_bps, trace::metric::udp_throughput_bps,
          trace::metric::rtt_s}) {
      out.open_epoch_samples = std::max(
          out.open_epoch_samples, table_.open_epoch_samples(zone, nid, m));
    }
  }
  return out;
}

}  // namespace wiscape::core
