#include "core/report_queue.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/fault_injection.h"
#include "obs/names.h"
#include "obs/registry.h"

namespace wiscape::core {

namespace {

/// Scenario seam at the producer edge (core::fault site queue_push).
/// Returns true when an injected fault should make this push take its
/// natural failure path -- exactly the path a full/closed queue takes, so
/// callers' drop accounting is exercised for real. A stall sleeps briefly
/// (timing-only) and then proceeds. Un-hooked cost: one relaxed load.
bool push_fault_fails() {
  switch (fault::fire(fault::site::queue_push)) {
    case fault::action::fail:
      return true;
    case fault::action::stall:
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return false;
    case fault::action::proceed:
      break;
  }
  return false;
}
// Process-wide queue metrics, shared by every report_queue instance (the
// registry aggregates; per-shard detail lives in sharded_coordinator's
// per-shard counters). Looked up once. The enqueue-side totals are staged
// as plain fields under the queue mutex and published here in batches --
// see publish_metrics_locked() -- so a push performs no atomic RMW beyond
// the lock it already takes.
struct queue_metrics {
  obs::counter& enqueued;
  obs::counter& dequeued;
  obs::counter& rejected;
  obs::counter& blocked;
  obs::gauge& high_water;
};

queue_metrics& metrics() {
  auto& reg = obs::registry::global();
  static queue_metrics m{reg.get_counter(obs::names::kQueueEnqueued),
                         reg.get_counter(obs::names::kQueueDequeued),
                         reg.get_counter(obs::names::kQueueRejected),
                         reg.get_counter(obs::names::kQueueBlockedProducers),
                         reg.get_gauge(obs::names::kQueueHighWater)};
  return m;
}
}  // namespace

report_queue::report_queue(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("report_queue capacity must be > 0");
  }
  (void)metrics();  // force registration before any concurrent use
}

void report_queue::publish_metrics_locked() {
  if (enq_count_ > enq_published_) {
    metrics().enqueued.inc(enq_count_ - enq_published_);
    enq_published_ = enq_count_;
    metrics().high_water.record_max(high_water_);
  }
}

bool report_queue::push(trace::measurement_record rec) {
  if (push_fault_fails()) {
    metrics().rejected.inc();
    return false;
  }
  std::unique_lock lock(mu_);
  if (items_.size() >= capacity_ && !closed_) {
    metrics().blocked.inc();  // backpressure: producer is about to wait
    not_full_.wait(lock,
                   [this] { return items_.size() < capacity_ || closed_; });
  }
  if (closed_) {
    lock.unlock();
    metrics().rejected.inc();
    return false;
  }
  items_.push_back(std::move(rec));
  depth_.store(items_.size(), std::memory_order_relaxed);
  // Hot path: stage the metric updates as plain writes under the lock we
  // already hold; pop_batch/close publish them to the registry in batches.
  ++enq_count_;
  high_water_ = std::max(high_water_, static_cast<std::int64_t>(items_.size()));
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

bool report_queue::try_push(trace::measurement_record rec) {
  if (push_fault_fails()) {
    metrics().rejected.inc();
    return false;
  }
  std::unique_lock lock(mu_);
  if (closed_ || items_.size() >= capacity_) {
    lock.unlock();
    metrics().rejected.inc();
    return false;
  }
  items_.push_back(std::move(rec));
  depth_.store(items_.size(), std::memory_order_relaxed);
  ++enq_count_;
  high_water_ = std::max(high_water_, static_cast<std::int64_t>(items_.size()));
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

std::size_t report_queue::push_batch(
    std::span<const trace::measurement_record> recs) {
  if (recs.empty()) return 0;
  // The fault fires once per batch, before anything is enqueued: a refused
  // batch is all-or-nothing, so wire-level accounting (one ERR covers the
  // whole REPORTB frame) never half-ingests a frame.
  if (push_fault_fails()) {
    metrics().rejected.inc(recs.size());
    return 0;
  }
  std::unique_lock lock(mu_);
  std::size_t i = 0;
  for (;;) {
    while (!closed_ && i < recs.size() && items_.size() < capacity_) {
      items_.push_back(recs[i]);
      ++i;
      ++enq_count_;
    }
    depth_.store(items_.size(), std::memory_order_relaxed);
    high_water_ =
        std::max(high_water_, static_cast<std::int64_t>(items_.size()));
    if (closed_ || i == recs.size()) break;
    // Queue full mid-batch: wake consumers so they can make room, then wait
    // like push() does (backpressure).
    metrics().blocked.inc();
    not_empty_.notify_all();
    not_full_.wait(lock,
                   [this] { return items_.size() < capacity_ || closed_; });
  }
  const std::size_t pushed = i;
  const std::size_t dropped = recs.size() - i;
  lock.unlock();
  if (pushed > 0) not_empty_.notify_all();
  if (dropped > 0) metrics().rejected.inc(dropped);
  return pushed;
}

std::size_t report_queue::pop_batch(std::vector<trace::measurement_record>& out,
                                    std::size_t max_batch) {
  std::unique_lock lock(mu_);
  not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
  std::size_t n = 0;
  while (n < max_batch && !items_.empty()) {
    out.push_back(std::move(items_.front()));
    items_.pop_front();
    ++n;
  }
  depth_.store(items_.size(), std::memory_order_relaxed);
  publish_metrics_locked();
  const bool emptied = items_.empty();
  lock.unlock();
  if (n > 0) {
    not_full_.notify_all();
    metrics().dequeued.inc(n);
  }
  if (emptied) emptied_.notify_all();
  return n;
}

void report_queue::close() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
    publish_metrics_locked();
  }
  not_full_.notify_all();
  not_empty_.notify_all();
  emptied_.notify_all();
}

void report_queue::wait_empty() const {
  std::unique_lock lock(mu_);
  emptied_.wait(lock, [this] { return items_.empty() || closed_; });
}

bool report_queue::closed() const {
  std::lock_guard lock(mu_);
  return closed_;
}

}  // namespace wiscape::core
