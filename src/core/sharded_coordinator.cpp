#include "core/sharded_coordinator.h"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/fault_injection.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace wiscape::core {

namespace {
// Pipeline-level metrics, aggregated over every sharded_coordinator in the
// process; per-shard detail is registered per shard index below.
struct sharded_metrics {
  obs::counter& routed;
  obs::counter& dropped;
  obs::counter& apply_errors;
  obs::counter& drain_batches;
  obs::histogram& drain_latency;
};

sharded_metrics& metrics() {
  auto& reg = obs::registry::global();
  static sharded_metrics m{
      reg.get_counter(obs::names::kShardedRoutedTotal),
      reg.get_counter(obs::names::kShardedDropped),
      reg.get_counter(obs::names::kShardedApplyErrors),
      reg.get_counter(obs::names::kShardedDrainBatches),
      reg.get_histogram(obs::names::kShardedDrainLatency)};
  return m;
}

std::string shard_metric(std::size_t index, const char* suffix) {
  return std::string(obs::names::kShardPrefix) + std::to_string(index) + "." +
         suffix;
}

}  // namespace

struct sharded_coordinator::shard {
  shard(geo::zone_grid grid, std::vector<std::string> networks,
        const coordinator_config& cfg, std::uint64_t seed, alert_ring& alerts,
        std::size_t queue_capacity, std::size_t index)
      : coord(std::move(grid), std::move(networks), cfg, seed, alerts),
        queue(queue_capacity),
        routed_metric(obs::registry::global().get_counter(
            shard_metric(index, obs::names::kShardRoutedSuffix))),
        drained_metric(obs::registry::global().get_counter(
            shard_metric(index, obs::names::kShardDrainedSuffix))) {}

  mutable std::mutex mu;  // guards coord and the drain stats below
  coordinator coord;
  report_queue queue;
  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> applied{0};
  std::condition_variable drained_cv;  // signalled after each applied batch
  std::uint64_t tasks = 0;
  std::uint64_t drain_batches = 0;
  double drain_latency_s = 0.0;
  obs::counter& routed_metric;   // core.sharded.shard<i>.routed
  obs::counter& drained_metric;  // core.sharded.shard<i>.drained
  // Portion of `enqueued` already published to the routed counters (guarded
  // by mu). Routing is the per-report hot path, so the registry counters are
  // fed deltas of the pre-existing `enqueued` atomic at drain and flush
  // boundaries instead of one fetch-add per report.
  std::uint64_t routed_published = 0;

  /// Publishes any un-counted routed reports (enqueued - routed_published)
  /// into the process-wide and per-shard routed counters. Call with mu held.
  void publish_routed_locked(obs::counter& routed_total) {
    const std::uint64_t enq = enqueued.load(std::memory_order_relaxed);
    if (enq > routed_published) {
      const std::uint64_t delta = enq - routed_published;
      routed_published = enq;
      routed_total.inc(delta);
      routed_metric.inc(delta);
    }
  }
};

sharded_coordinator::sharded_coordinator(geo::zone_grid grid,
                                         std::vector<std::string> networks,
                                         sharded_config cfg,
                                         std::uint64_t seed)
    : grid_(grid),
      cfg_(cfg),
      wire_ids_(networks),
      ring_(cfg.coordinator.alert_ring_capacity) {
  if (cfg.num_shards == 0) {
    throw std::invalid_argument("sharded_coordinator needs >= 1 shard");
  }
  shards_.reserve(cfg.num_shards);
  const stats::rng_stream seeder(seed);
  for (std::size_t i = 0; i < cfg.num_shards; ++i) {
    const std::uint64_t shard_seed = i == 0 ? seed : seeder.fork(i).seed();
    // All shards sequence their alerts through the shared ring -- one total
    // order of alert sequence numbers across the whole coordinator.
    shards_.push_back(std::make_unique<shard>(grid, networks, cfg.coordinator,
                                              shard_seed, ring_,
                                              cfg.queue_capacity, i));
  }
  if (!cfg_.synchronous) {
    workers_.reserve(shards_.size());
    for (auto& sh : shards_) {
      shard* owned = sh.get();
      workers_.emplace_back([this, owned] { drain_loop(*owned); });
    }
  }
}

sharded_coordinator::~sharded_coordinator() { stop(); }

std::size_t sharded_coordinator::shard_of(
    const geo::zone_id& zone) const noexcept {
  return geo::zone_id_hash{}(zone) % shards_.size();
}

std::size_t sharded_coordinator::shard_of(
    const geo::lat_lon& pos) const noexcept {
  return shard_of(grid_.zone_of(pos));
}

sharded_coordinator::shard& sharded_coordinator::owner_of(
    const geo::zone_id& zone) noexcept {
  return *shards_[shard_of(zone)];
}

std::optional<measurement_task> sharded_coordinator::checkin(
    const geo::lat_lon& pos, double time_s, std::size_t network_index,
    std::size_t active_clients_in_zone, std::uint64_t client_id) {
  shard& sh = owner_of(grid_.zone_of(pos));
  std::optional<measurement_task> task;
  {
    std::lock_guard lock(sh.mu);
    task = sh.coord.checkin(pos, time_s, network_index,
                            active_clients_in_zone, client_id);
    if (task) ++sh.tasks;
  }
  if (task) tasks_issued_.fetch_add(1, std::memory_order_relaxed);
  return task;
}

bool sharded_coordinator::report(const trace::measurement_record& rec) {
  if (stopped_.load(std::memory_order_relaxed)) {
    metrics().dropped.inc();
    return false;
  }
  shard& sh = owner_of(grid_.zone_of(rec.pos));
  if (cfg_.synchronous) {
    apply_inline(sh, {&rec, 1});
    reports_received_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (!sh.queue.push(rec)) {
    metrics().dropped.inc();
    return false;
  }
  // Hot path: no registry fetch-adds here. The routed counters are fed from
  // `enqueued` deltas at drain/flush boundaries (publish_routed_locked), so
  // snapshots may lag mid-run but are exact once the pipeline is flushed.
  sh.enqueued.fetch_add(1, std::memory_order_relaxed);
  reports_received_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t sharded_coordinator::report_owned(
    std::vector<trace::measurement_record>& recs, shard_batches& routes) {
  const std::size_t n = recs.size();
  if (n == 0) return 0;
  if (stopped_.load(std::memory_order_relaxed)) {
    recs.clear();
    metrics().dropped.inc(n);
    return 0;
  }
  // Route once, then touch each shard once. With one shard the batch is
  // that shard's already and crosses as it is: skipping the route (a zone
  // lookup and a record move each) saves 7-15% of the handling thread's
  // CPU per REPORTB frame (EXPERIMENTS.md, "Ingest at apply speed").
  std::size_t accepted = 0;
  if (shards_.size() == 1) {
    accepted = ingest_group(*shards_[0], recs);
  } else {
    routes.resize(shards_.size());
    for (auto& rec : recs) {
      routes[shard_of(grid_.zone_of(rec.pos))].push_back(std::move(rec));
    }
    recs.clear();
    for (std::size_t s = 0; s < routes.size(); ++s) {
      if (!routes[s].empty()) accepted += ingest_group(*shards_[s], routes[s]);
    }
  }
  reports_received_.fetch_add(accepted, std::memory_order_relaxed);
  if (accepted < n) metrics().dropped.inc(n - accepted);
  return accepted;
}

std::size_t sharded_coordinator::report_batch(
    std::span<const trace::measurement_record> recs) {
  std::vector<trace::measurement_record> owned(recs.begin(), recs.end());
  shard_batches routes;
  return report_owned(owned, routes);
}

std::size_t sharded_coordinator::ingest_group(
    shard& sh, std::vector<trace::measurement_record>& batch) {
  const std::size_t n = batch.size();
  if (cfg_.synchronous) {
    apply_inline(sh, batch);
    batch.clear();
    return n;
  }
  const std::size_t pushed = sh.queue.push_owned(batch);
  sh.enqueued.fetch_add(pushed, std::memory_order_relaxed);
  return pushed;
}

void sharded_coordinator::apply_inline(
    shard& sh, std::span<const trace::measurement_record> recs) {
  {
    std::lock_guard lock(sh.mu);
    apply_locked(sh, recs);
    sh.enqueued.fetch_add(recs.size(), std::memory_order_relaxed);
    sh.applied.fetch_add(recs.size(), std::memory_order_relaxed);
    sh.publish_routed_locked(metrics().routed);
  }
  sh.drained_metric.inc(recs.size());
}

void sharded_coordinator::apply_locked(
    shard& sh, std::span<const trace::measurement_record> recs) {
  // coordinator::report_batch rejects all wire-reachable bad input itself
  // and drops a record whose apply throws anyway (defense in depth: a throw
  // unwinding a drain worker would std::terminate the whole process).
  if (const std::size_t errors = sh.coord.report_batch(recs)) {
    metrics().apply_errors.inc(errors);
  }
}

void sharded_coordinator::drain_loop(shard& sh) {
  std::vector<trace::measurement_record> batch;
  batch.reserve(drain_batch);
  for (;;) {
    batch.clear();
    if (sh.queue.pop_batch(batch, drain_batch) == 0) return;
    // Scenario seam: a slow-consumer stressor stalls the drain worker here
    // (outside the shard lock), backing the queue up against producers.
    // Timing-only -- the batch is always applied; which records exist and
    // what they compute never changes. Un-hooked cost: one relaxed load.
    if (fault::fire(fault::site::drain_stall) != fault::action::proceed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    apply_batch(sh, batch);
  }
}

void sharded_coordinator::apply_batch(
    shard& sh, const std::vector<trace::measurement_record>& batch) {
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::lock_guard lock(sh.mu);
    {
      // The span times the batched table updates -- the per-batch critical
      // section a drain worker holds the shard lock for.
      obs::span drain_span(metrics().drain_latency);
      apply_locked(sh, batch);
    }
    ++sh.drain_batches;
    sh.drain_latency_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    metrics().drain_batches.inc();
    sh.drained_metric.inc(batch.size());
    sh.publish_routed_locked(metrics().routed);
    // Last write under the lock: flush() waits on `applied` under sh.mu, so
    // every metric update above is visible once a flusher sees this store.
    sh.applied.fetch_add(batch.size(), std::memory_order_relaxed);
  }
  sh.drained_cv.notify_all();
}

void sharded_coordinator::flush() {
  if (cfg_.synchronous) return;
  for (auto& shp : shards_) {
    shard& sh = *shp;
    const std::uint64_t target = sh.enqueued.load(std::memory_order_relaxed);
    std::unique_lock lock(sh.mu);
    sh.drained_cv.wait(lock, [&] {
      return sh.applied.load(std::memory_order_relaxed) >= target;
    });
    // The routed counters are published in enqueued-deltas at drain
    // boundaries; settle any remainder so a post-flush STATS/snapshot
    // accounts for 100% of the reports this pipeline accepted.
    sh.publish_routed_locked(metrics().routed);
  }
}

void sharded_coordinator::stop() {
  stopped_.store(true, std::memory_order_relaxed);
  for (auto& sh : shards_) sh->queue.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void sharded_coordinator::start_planning() {
  for (auto& sh : shards_) {
    std::lock_guard lock(sh->mu);
    sh->coord.start_planning();
  }
}

void sharded_coordinator::recompute_epochs() {
  for (auto& sh : shards_) {
    std::lock_guard lock(sh->mu);
    sh->coord.recompute_epochs();
  }
}

std::size_t sharded_coordinator::refine_sample_target(
    const geo::zone_id& zone, std::string_view network, trace::metric metric) {
  shard& sh = owner_of(zone);
  std::lock_guard lock(sh.mu);
  return sh.coord.refine_sample_target(zone, network, metric);
}

zone_status sharded_coordinator::status_of(const geo::zone_id& zone) const {
  const shard& sh = *shards_[shard_of(zone)];
  std::lock_guard lock(sh.mu);
  return sh.coord.status_of(zone);
}

std::vector<stats::sample> sharded_coordinator::history_for_test(
    const geo::zone_id& zone) const {
  const shard& sh = *shards_[shard_of(zone)];
  std::lock_guard lock(sh.mu);
  if (sh.coord.planner() == nullptr) return {};
  const auto live = sh.coord.planner()->history_for_test(zone);
  return {live.begin(), live.end()};
}

double sharded_coordinator::client_spend_mb(std::uint64_t client_id,
                                            double time_s) const {
  double total = 0.0;
  for (const auto& sh : shards_) {
    std::lock_guard lock(sh->mu);
    total += sh->coord.client_spend_mb(client_id, time_s);
  }
  return total;
}

std::optional<epoch_estimate> sharded_coordinator::latest(
    const estimate_key& key) const {
  const shard& sh = *shards_[shard_of(key.zone)];
  std::lock_guard lock(sh.mu);
  return sh.coord.table_.latest(key);
}

std::vector<epoch_estimate> sharded_coordinator::history(
    const estimate_key& key) const {
  const shard& sh = *shards_[shard_of(key.zone)];
  std::lock_guard lock(sh.mu);
  return sh.coord.history(key);
}

std::vector<estimate_key> sharded_coordinator::keys() const {
  std::vector<estimate_key> out;
  for (const auto& sh : shards_) {
    std::lock_guard lock(sh->mu);
    auto shard_keys = sh->coord.keys();
    out.insert(out.end(), std::make_move_iterator(shard_keys.begin()),
               std::make_move_iterator(shard_keys.end()));
  }
  return out;
}

std::size_t sharded_coordinator::restore_stream(
    const estimate_key& key, std::span<const epoch_estimate> frozen,
    const open_epoch_state* open) {
  shard& sh = owner_of(key.zone);
  std::lock_guard lock(sh.mu);
  return sh.coord.restore_stream(key, frozen, open);
}

void sharded_coordinator::reserve_streams(std::size_t streams) {
  const std::size_t share = std::bit_ceil(
      (streams + shards_.size() - 1) / shards_.size());
  for (auto& sh : shards_) {
    std::lock_guard lock(sh->mu);
    sh->coord.reserve_streams(share);
  }
}

std::optional<open_epoch_state> sharded_coordinator::open_state(
    const estimate_key& key) const {
  const shard& sh = *shards_[shard_of(key.zone)];
  std::lock_guard lock(sh.mu);
  return sh.coord.open_state(key);
}

void sharded_coordinator::set_epoch_tap(epoch_tap* tap) {
  for (auto& sh : shards_) {
    std::lock_guard lock(sh->mu);
    sh->coord.set_epoch_tap(tap);
  }
}

const estimate_mirror& sharded_coordinator::published_of(
    std::size_t shard_index) const noexcept {
  return shards_[shard_index]->coord.published();
}

std::uint64_t sharded_coordinator::reports_ingested() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->applied.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t sharded_coordinator::queue_depth() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->queue.size();
  return total;
}

double sharded_coordinator::ingest_saturation() const noexcept {
  if (cfg_.synchronous) return 0.0;
  std::size_t worst = 0;
  for (const auto& sh : shards_) worst = std::max(worst, sh->queue.size());
  return std::min(1.0, static_cast<double>(worst) /
                           static_cast<double>(cfg_.queue_capacity));
}

double sharded_coordinator::drain_cpu_s() const {
  double total = 0.0;
  for (const auto& w : workers_) {
    // native_handle() is non-const only because it hands out the handle.
    clockid_t clock{};
    timespec ts{};
    if (pthread_getcpuclockid(const_cast<std::thread&>(w).native_handle(),
                              &clock) == 0 &&
        clock_gettime(clock, &ts) == 0) {
      total += static_cast<double>(ts.tv_sec) +
               1e-9 * static_cast<double>(ts.tv_nsec);
    }
  }
  return total;
}

shard_stats sharded_coordinator::stats_of(std::size_t shard_index) const {
  const shard& sh = *shards_.at(shard_index);
  shard_stats out;
  out.queue_depth = sh.queue.size();
  std::lock_guard lock(sh.mu);
  out.reports_ingested = sh.applied.load(std::memory_order_relaxed);
  out.tasks_issued = sh.tasks;
  out.drain_batches = sh.drain_batches;
  out.drain_latency_s = sh.drain_latency_s;
  return out;
}

}  // namespace wiscape::core
