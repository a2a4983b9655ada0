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
      table_(networks_),
      rng_(seed) {
  // Every rollover publishes into the serving-layer mirror and sequences
  // its alert into the owner's ring.
  table_.set_sinks(&mirror_, alert_sink_);
  // networks_[i] -> interned id; the interner collapses duplicate operator
  // names to the first id, so two indices can legitimately share one.
  net_ids_.reserve(networks_.size());
  for (const auto& n : networks_) net_ids_.push_back(table_.interner().try_id(n));
}

void coordinator::start_planning() {
  if (!plan_) {
    plan_ = std::make_unique<zone_planner>(cfg_.epochs, cfg_.planner,
                                           cfg_.default_samples_per_epoch);
  }
}

zone_status coordinator::plan_of(const geo::zone_id& z) const noexcept {
  if (!plan_) {
    return {cfg_.epochs.default_epoch_s, cfg_.default_samples_per_epoch, 0};
  }
  const auto& st = plan_->plan_of(z);
  return {st.epoch_s, st.samples_target, 0};
}

std::optional<measurement_task> coordinator::checkin(
    const geo::lat_lon& pos, double time_s, std::size_t network_index,
    std::size_t active_clients_in_zone, std::uint64_t client_id) {
  metrics().checkins.inc();
  if (network_index >= networks_.size()) return std::nullopt;
  const geo::zone_id z = grid_.zone_of(pos);
  // Reads the zone's plan without creating it: only accepted records do.
  const std::size_t target = plan_of(z).samples_target;

  // How many samples has the open epoch of this zone's planning stream --
  // the first metric of the probe kind we would issue next -- accumulated?
  const auto kind = static_cast<trace::probe_kind>(task_counter_ % 3);
  const std::size_t have = table_.open_epoch_samples(
      z, net_ids_[network_index], trace::metrics_of(kind).front());
  if (have >= target) return std::nullopt;

  // Per-client budget guard: a device that already spent its day's
  // allowance is left alone (Sec 3.4's overhead knob).
  const double cost_mb = task_mb[static_cast<std::size_t>(kind)];
  budget_state* budget = nullptr;
  if (client_id != 0 && cfg_.client_daily_budget_mb > 0.0) {
    budget = &budgets_[client_id];
    const auto day = static_cast<std::int64_t>(std::floor(time_s / 86400.0));
    if (budget->day != day) {
      budget->day = day;
      budget->spent_mb = 0.0;
    }
    if (budget->spent_mb + cost_mb > cfg_.client_daily_budget_mb) {
      metrics().budget_exhausted.inc();
      return std::nullopt;
    }
  }

  const std::size_t remaining = target - have;
  // Expected samples this epoch ~= p * active clients * checkins left; the
  // paper's minimal form: select each active client with probability
  // remaining/active (clamped).
  const double p = std::min(
      1.0, static_cast<double>(remaining) /
               static_cast<double>(std::max<std::size_t>(1, active_clients_in_zone)));
  if (!rng_.chance(p)) return std::nullopt;

  ++task_counter_;
  if (budget != nullptr) budget->spent_mb += cost_mb;
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
    // Stream index per metric of the record, or zone_table::no_stream.
    std::size_t streams[trace::metric_count];
  };
  std::size_t errors = 0;
  resolved chunk[apply_chunk];
  for (std::size_t base = 0; base < recs.size(); base += apply_chunk) {
    const std::size_t n = std::min(apply_chunk, recs.size() - base);
    // Pass 1: validate and resolve in arrival order (interning a new
    // network name is a mutation, and ids are handed out first come first
    // served), putting each group's directory slot in flight. Wire-reachable
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
        table_.prefetch_group(r.gkey);
      } catch (const std::exception&) {
        ++errors;
      }
    }
    if (rejected > 0) metrics().reports_rejected.inc(rejected);
    if (live > 0) metrics().reports_accepted.inc(live);
    // Pass 2: probe the cached directory; every accumulator in flight.
    for (std::size_t i = 0; i < live; ++i) {
      resolved& r = chunk[i];
      const auto ms = trace::metrics_of(r.rec->kind);
      for (std::size_t j = 0; j < ms.size(); ++j) {
        r.streams[j] = table_.stream_of(r.gkey, ms[j]);
        if (r.streams[j] != zone_table::no_stream) {
          table_.prefetch_stream(r.streams[j]);
        }
      }
    }
    // Pass 3: apply in arrival order. Streams pass 2 did not find are
    // created here (an earlier record of the chunk may have done so), and
    // with a planner so is the record's zone plan.
    const std::uint64_t alerts_before = table_.alerts_raised();
    for (std::size_t i = 0; i < live; ++i) {
      const resolved& r = chunk[i];
      const trace::measurement_record& rec = *r.rec;
      try {
        auto* st = plan_ ? &plan_->state_of(r.z) : nullptr;
        const double epoch_s = st ? st->epoch_s : cfg_.epochs.default_epoch_s;
        const auto ms = trace::metrics_of(rec.kind);
        for (std::size_t j = 0; j < ms.size(); ++j) {
          const double v = trace::value_of(rec, ms[j]);
          if (r.streams[j] != zone_table::no_stream) {
            table_.add_to_stream(r.streams[j], rec.time_s, v, epoch_s);
          } else {
            table_.add_sample(r.z, r.nid, ms[j], rec.time_s, v, epoch_s);
          }
        }
        if (st == nullptr) continue;
        // The planning stream: the kind's first metric.
        const std::size_t plan = r.streams[0] != zone_table::no_stream
                                     ? r.streams[0]
                                     : table_.stream_of(r.gkey, ms[0]);
        plan_->offer(*st, r.nid, rec.kind, rec.time_s,
                     trace::value_of(rec, ms[0]), table_.open_samples(plan));
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

std::size_t coordinator::restore_stream(const estimate_key& key,
                                        std::span<const epoch_estimate> frozen,
                                        const open_epoch_state* open) {
  // A zone without a plan runs on the default length, as its samples do.
  return table_.restore_stream(key, frozen, open,
                               plan_of(key.zone).epoch_duration_s);
}

void coordinator::recompute_epochs() {
  if (plan_) plan_->recompute_epochs();
}

std::size_t coordinator::refine_sample_target(const geo::zone_id& zone,
                                              std::string_view network,
                                              trace::metric metric) {
  if (!plan_) return cfg_.default_samples_per_epoch;
  // Allocation-free lookup: a network never interned has no history.
  return plan_->refine_sample_target(
      zone, table_.interner().try_id(network), metric, rng_);
}

zone_status coordinator::status_of(const geo::zone_id& zone) const {
  zone_status out = plan_of(zone);
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
