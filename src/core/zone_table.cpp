#include "core/zone_table.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/alert_ring.h"
#include "core/estimate_mirror.h"
#include "obs/names.h"
#include "obs/registry.h"

namespace wiscape::core {

namespace {

// Cold-path store metrics (stream creation, epoch rollover, gap jumps);
// the per-sample apply path touches no registry counter.
struct store_metrics {
  obs::counter& streams;
  obs::counter& rollovers;
  obs::counter& gap_fast_forwards;
};

store_metrics& metrics() {
  auto& reg = obs::registry::global();
  static store_metrics m{reg.get_counter(obs::names::kZoneTableStreams),
                         reg.get_counter(obs::names::kZoneTableRollovers),
                         reg.get_counter(obs::names::kZoneTableGapFastForwards)};
  return m;
}

}  // namespace

std::size_t estimate_key_hash::operator()(const estimate_key& k) const noexcept {
  std::size_t h = geo::zone_id_hash{}(k.zone);
  h ^= std::hash<std::string>{}(k.network) + 0x9e3779b9 + (h << 6) + (h >> 2);
  h ^= static_cast<std::size_t>(k.metric) + 0x9e3779b9 + (h << 6) + (h >> 2);
  return h;
}

void zone_table::throw_zone_range(const geo::zone_id& zone) {
  throw std::invalid_argument("zone " + geo::to_string(zone) +
                              " outside the packed +/-2^23 cell range");
}

void zone_table::throw_network_range(std::uint16_t network_id) {
  throw std::invalid_argument("network id " + std::to_string(network_id) +
                              " outside the packed 12-bit interner range");
}

void zone_table::grow_slots() {
  const std::size_t cap = slot_mask_ == 0 ? 64 : (slot_mask_ + 1) * 2;
  std::vector<gslot> old = std::move(slots_);
  slots_.assign(cap, gslot{});
  slot_mask_ = cap - 1;
  memo_key_ = 0;  // memoized slot index is stale after the rehash
  for (const gslot& g : old) {
    if (g.key == 0) continue;
    std::size_t slot = static_cast<std::size_t>(mix64(g.key)) & slot_mask_;
    while (slots_[slot].key != 0) slot = (slot + 1) & slot_mask_;
    slots_[slot] = g;
  }
}

std::size_t zone_table::create_group(std::uint64_t gkey) {
  // Keep the directory under 1/2 load: linear probing degrades sharply past
  // that, and at 32 bytes/slot the headroom costs little memory.
  if (slot_mask_ == 0 || (group_count_ + 1) * 2 > (slot_mask_ + 1)) {
    grow_slots();
  }
  std::size_t slot = static_cast<std::size_t>(mix64(gkey)) & slot_mask_;
  while (slots_[slot].key != 0) slot = (slot + 1) & slot_mask_;
  slots_[slot].key = gkey;
  ++group_count_;
  memo_key_ = gkey;
  memo_slot_ = slot;
  return slot;
}

std::size_t zone_table::materialize_stream(std::size_t slot,
                                           const geo::zone_id& zone,
                                           std::uint16_t network_id,
                                           trace::metric metric) {
  // cold_ first (its string copy can throw), then hot_ with a rollback, so
  // the parallel vectors stay in lockstep on any throw -- a desync would
  // make later rollover()/keys() index out of bounds.
  cold_.push_back(cold_state{
      {},
      estimate_key{zone, std::string(interner_.name_of(network_id)), metric},
      pack_stream(zone, network_id, metric)});
  try {
    hot_.push_back(hot_state{});
  } catch (...) {
    cold_.pop_back();
    throw;
  }
  const auto val = static_cast<std::uint32_t>(hot_.size());
  slots_[slot].streams[static_cast<std::size_t>(metric)] = val;
  metrics().streams.inc();
  return val - 1;
}

std::size_t zone_table::find_stream(const geo::zone_id& zone,
                                    std::uint16_t network_id,
                                    trace::metric metric) const noexcept {
  if (!zone_in_range(zone) ||
      network_id >= network_interner::max_networks) {
    return no_stream;  // out-of-range keys can never have been stored
  }
  return stream_of(pack_group(zone, network_id), metric);
}

void zone_table::cross_epochs(std::size_t index, double time_s,
                              double epoch_duration_s) {
  hot_state& s = hot_[index];
  // One rollover publishes the open epoch (if it collected anything)...
  rollover(index);
  s.open_start_s += epoch_duration_s;
  // ...and every further elapsed epoch is empty and publishes nothing, so
  // the seed's one-iteration-per-epoch walk reduces to repeatedly adding
  // the duration. Jump all but the last two steps in one fused
  // multiply-add -- bit-identical to the iterated walk whenever fp
  // addition of the duration is exact (integral-second durations in
  // particular) -- and let the bounded loop below absorb any fp residue
  // without ever overshooting past time_s.
  const double elapsed = time_s - s.open_start_s;
  if (elapsed >= 2.0 * epoch_duration_s) {
    const double skip = std::floor(elapsed / epoch_duration_s) - 2.0;
    if (skip > 0.0) {
      s.open_start_s += skip * epoch_duration_s;
      metrics().gap_fast_forwards.inc();
    }
  }
  while (time_s >= s.open_start_s + epoch_duration_s) {
    const double next = s.open_start_s + epoch_duration_s;
    // fp saturation guard: past ~2^52 * duration (or at +-inf, where
    // elapsed above is NaN and the fast-forward never ran), adding the
    // duration no longer changes the boundary. Stop instead of spinning
    // forever -- a hostile timestamp must never hang the apply path.
    if (!(next > s.open_start_s)) break;
    s.open_start_s = next;
  }
}

void zone_table::add_sample(const estimate_key& key, double time_s,
                            double value, double epoch_duration_s) {
  add_sample(key.zone, interner_.id_of(key.network), key.metric, time_s,
             value, epoch_duration_s);
}

void zone_table::rollover(std::size_t index) {
  hot_state& s = hot_[index];
  if (s.open.empty()) return;  // nothing collected: publish nothing
  cold_state& c = cold_[index];
  epoch_estimate e;
  e.epoch_start_s = s.open_start_s;
  e.mean = s.open.mean;
  e.stddev = s.open.stddev();
  e.samples = s.open.n;

  std::uint64_t alert_seq = 0;
  if (!c.frozen.empty()) {
    const epoch_estimate& prev = c.frozen.back();
    const double threshold = change_sigma_factor * prev.stddev;
    if (threshold > 0.0 && std::abs(e.mean - prev.mean) > threshold) {
      ++alerts_raised_;
      if (alert_sink_ != nullptr) {
        alert_seq = alert_sink_->push(
            {c.key, e.epoch_start_s, prev.mean, e.mean, prev.stddev});
      }
    }
  }
  c.frozen.push_back(e);
  if (mirror_ != nullptr) {
    mirror_->publish(c.skey, e, c.frozen.size() - 1);
  }
  if (epoch_tap_ != nullptr) epoch_tap_->on_epoch(c.key, e, alert_seq);
  s.open.reset();
  metrics().rollovers.inc();
}

std::optional<epoch_estimate> zone_table::latest(const estimate_key& key) const {
  const auto view = history_view(key);
  if (view.empty()) return std::nullopt;
  return view.back();
}

std::size_t zone_table::open_epoch_samples(const geo::zone_id& zone,
                                           std::uint16_t network_id,
                                           trace::metric metric) const {
  if (network_id == network_interner::npos) return 0;
  const std::size_t idx = find_stream(zone, network_id, metric);
  return idx == no_stream ? 0 : hot_[idx].open.n;
}

std::size_t zone_table::open_epoch_samples(const estimate_key& key) const {
  return open_epoch_samples(key.zone, interner_.try_id(key.network),
                            key.metric);
}

std::span<const epoch_estimate> zone_table::history_view(
    const geo::zone_id& zone, std::uint16_t network_id,
    trace::metric metric) const {
  if (network_id == network_interner::npos) return {};
  const std::size_t idx = find_stream(zone, network_id, metric);
  if (idx == no_stream) return {};
  return cold_[idx].frozen;
}

std::span<const epoch_estimate> zone_table::history_view(
    const estimate_key& key) const {
  return history_view(key.zone, interner_.try_id(key.network), key.metric);
}

std::vector<epoch_estimate> zone_table::history(const estimate_key& key) const {
  const auto view = history_view(key);
  return {view.begin(), view.end()};
}

namespace {

// Chan et al. pairwise Welford combine for two frozen summaries of the
// same epoch. The operands are put in a canonical order first -- by
// (mean, stddev, samples) -- so combine(a, b) and combine(b, a) execute
// the identical fp instruction sequence: the commutativity the
// replication merge advertises is bitwise, not merely mathematical.
epoch_estimate combine_estimates(const epoch_estimate& x,
                                 const epoch_estimate& y) {
  const epoch_estimate* a = &x;
  const epoch_estimate* b = &y;
  const auto before = [](const epoch_estimate& p, const epoch_estimate& q) {
    if (p.mean != q.mean) return p.mean < q.mean;
    if (p.stddev != q.stddev) return p.stddev < q.stddev;
    return p.samples < q.samples;
  };
  if (before(*b, *a)) std::swap(a, b);
  const double n1 = static_cast<double>(a->samples);
  const double n2 = static_cast<double>(b->samples);
  const double n = n1 + n2;
  // Recover each side's M2 from the published stddev (variance uses the
  // n-1 denominator; a single-sample epoch carries M2 = 0).
  const double m2a =
      a->samples > 1 ? a->stddev * a->stddev * (n1 - 1.0) : 0.0;
  const double m2b =
      b->samples > 1 ? b->stddev * b->stddev * (n2 - 1.0) : 0.0;
  const double delta = b->mean - a->mean;
  epoch_estimate out;
  out.epoch_start_s = a->epoch_start_s;
  out.samples = a->samples + b->samples;
  out.mean = a->mean + delta * (n2 / n);
  const double m2 = m2a + m2b + delta * delta * (n1 * n2 / n);
  out.stddev = out.samples > 1 ? std::sqrt(m2 / (n - 1.0)) : 0.0;
  return out;
}

}  // namespace

std::size_t zone_table::restore_stream(const estimate_key& key,
                                       std::span<const epoch_estimate> frozen,
                                       const open_epoch_state* open,
                                       double epoch_duration_s) {
  check_duration(epoch_duration_s);
  if (frozen.empty() && open == nullptr) return 0;
  const std::size_t idx = find_or_create_stream(
      key.zone, interner_.id_of(key.network), key.metric);
  hot_state& s = hot_[idx];
  auto& held = cold_[idx].frozen;
  // One allocation for a snapshot's block; geometric for the one-epoch
  // installs of WAL replay and the follower's apply.
  if (held.capacity() < held.size() + frozen.size()) {
    held.reserve(std::max(held.size() + frozen.size(), 2 * held.size()));
  }
  std::size_t merged = 0;
  bool changed = false;
  for (const epoch_estimate& estimate : frozen) {
    // Close the installed epoch: an open epoch at or before it (a snapshot
    // taken while it was still open, or a stream that never saw a sample)
    // would otherwise freeze it a second time on the next rollover.
    if (s.open_start_s <= estimate.epoch_start_s) {
      s.open.reset();
      s.open_start_s = estimate.epoch_start_s + epoch_duration_s;
    }
    // Scan for the slot from the tail: snapshots, WAL replay and replicated
    // feeds all arrive in epoch order, so the match (or the append point)
    // is almost always last.
    std::size_t pos = held.size();
    while (pos > 0 && held[pos - 1].epoch_start_s > estimate.epoch_start_s) {
      --pos;
    }
    if (pos > 0 && held[pos - 1].epoch_start_s == estimate.epoch_start_s) {
      ++merged;
      epoch_estimate& cur = held[pos - 1];
      // A bitwise-equal re-delivery is a no-op: a record delivered both
      // inside a snapshot and by the WAL or pull that follows it cannot
      // double-count. Genuinely disjoint populations differ in value and
      // still combine.
      if (cur.mean == estimate.mean && cur.stddev == estimate.stddev &&
          cur.samples == estimate.samples) {
        continue;
      }
      cur = combine_estimates(cur, estimate);
    } else {
      held.insert(held.begin() + static_cast<std::ptrdiff_t>(pos), estimate);
    }
    changed = true;
  }
  // Installed estimates serve like published ones (no alert: they replay
  // or replicate state, they do not observe a change). The newest epoch is
  // all the mirror keeps, so one publish covers the whole block.
  if (changed && mirror_ != nullptr) {
    mirror_->publish(cold_[idx].skey, held.back(), held.size() - 1);
  }
  if (open != nullptr) {
    s.open_start_s = open->open_start_s;
    s.open.n = static_cast<std::size_t>(open->n);
    s.open.mean = open->mean;
    s.open.m2 = open->m2;
  }
  return merged;
}

void zone_table::reserve_streams(std::size_t streams) {
  hot_.reserve(streams);
  cold_.reserve(streams);
  if (mirror_ != nullptr) mirror_->reserve(streams);
}

std::optional<open_epoch_state> zone_table::open_state(
    const estimate_key& key) const {
  const std::size_t idx =
      find_stream(key.zone, interner_.try_id(key.network), key.metric);
  if (idx == no_stream) return std::nullopt;
  const hot_state& s = hot_[idx];
  if (s.open.empty()) return std::nullopt;
  return open_epoch_state{s.open_start_s, s.open.n, s.open.mean, s.open.m2};
}

std::vector<estimate_key> zone_table::keys() const {
  std::vector<estimate_key> out;
  out.reserve(cold_.size());
  for (const auto& c : cold_) out.push_back(c.key);
  return out;
}

}  // namespace wiscape::core
