#include "core/report_queue.h"

#include <algorithm>
#include <chrono>
#include <iterator>
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

report_queue::report_queue(std::size_t capacity)
    : capacity_(capacity), ring_(16) {
  if (capacity == 0) {
    throw std::invalid_argument("report_queue capacity must be > 0");
  }
  spares_.reserve(max_spares);
  (void)metrics();  // force registration before any concurrent use
}

void report_queue::publish_metrics_locked() {
  if (enq_count_ > enq_published_) {
    metrics().enqueued.inc(enq_count_ - enq_published_);
    enq_published_ = enq_count_;
    metrics().high_water.record_max(high_water_);
  }
}

void report_queue::note_pushed_locked(std::size_t n) {
  items_ += n;
  depth_.store(items_, std::memory_order_relaxed);
  // Hot path: stage the metric updates as plain writes under the lock we
  // already hold; pop_batch/close publish them to the registry in batches.
  enq_count_ += n;
  high_water_ = std::max(high_water_, static_cast<std::int64_t>(items_));
}

report_queue::batch report_queue::take_spare_locked() {
  if (spares_.empty()) return {};
  batch b = std::move(spares_.back());
  spares_.pop_back();
  return b;
}

void report_queue::recycle_locked(batch& b) {
  b.clear();
  if (b.capacity() == 0) return;  // nothing worth keeping
  if (b.capacity() <= max_recycled_capacity && spares_.size() < max_spares) {
    spares_.push_back(std::move(b));
  } else {
    batch().swap(b);  // release: one huge frame must not pin its memory
  }
}

void report_queue::append_locked(batch& b) {
  if (batches_ == ring_.size()) {
    std::vector<batch> bigger(ring_.size() * 2);
    for (std::size_t i = 0; i < batches_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_.swap(bigger);
    head_ = 0;
  }
  // A free slot always holds an empty vector (retire_head_locked recycles
  // its storage), so the swap leaves `b` empty.
  ring_[(head_ + batches_) & (ring_.size() - 1)].swap(b);
  ++batches_;
}

void report_queue::retire_head_locked() {
  recycle_locked(ring_[head_]);
  head_ = (head_ + 1) & (ring_.size() - 1);
  --batches_;
  head_off_ = 0;
}

template <class It>
void report_queue::append_range_locked(It first, std::size_t n) {
  batch b = take_spare_locked();
  b.assign(first, first + static_cast<std::ptrdiff_t>(n));
  append_locked(b);
  note_pushed_locked(n);
}

template <class It>
std::size_t report_queue::feed_locked(std::unique_lock<std::mutex>& lock,
                                      It first, std::size_t n) {
  std::size_t i = 0;
  for (;;) {
    if (!closed_ && items_ < capacity_ && i < n) {
      const std::size_t k = std::min(capacity_ - items_, n - i);
      append_range_locked(first + static_cast<std::ptrdiff_t>(i), k);
      i += k;
    }
    if (closed_ || i == n) break;
    // Queue full mid-batch: wake consumers so they can make room, then wait
    // like push() does (backpressure).
    metrics().blocked.inc();
    not_empty_.notify_all();
    not_full_.wait(lock, [this] { return items_ < capacity_ || closed_; });
  }
  return i;
}

bool report_queue::push(trace::measurement_record rec) {
  if (push_fault_fails()) {
    metrics().rejected.inc();
    return false;
  }
  std::unique_lock lock(mu_);
  if (items_ >= capacity_ && !closed_) {
    metrics().blocked.inc();  // backpressure: producer is about to wait
    not_full_.wait(lock, [this] { return items_ < capacity_ || closed_; });
  }
  if (closed_) {
    lock.unlock();
    metrics().rejected.inc();
    return false;
  }
  append_range_locked(std::make_move_iterator(&rec), 1);
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

std::size_t report_queue::push_owned(batch& recs) {
  const std::size_t n = recs.size();
  if (n == 0) return 0;
  // The fault fires once per batch, before anything is enqueued: a refused
  // batch is all-or-nothing, so wire-level accounting (one ERR covers the
  // whole REPORTB frame) never half-ingests a frame.
  if (push_fault_fails()) {
    recs.clear();
    metrics().rejected.inc(n);
    return 0;
  }
  std::unique_lock lock(mu_);
  std::size_t pushed = 0;
  if (n <= capacity_) {
    // Wait for room for the whole batch, so it crosses by swap, not copy.
    if (items_ + n > capacity_ && !closed_) {
      metrics().blocked.inc();
      not_full_.wait(lock,
                     [&] { return items_ + n <= capacity_ || closed_; });
    }
    if (!closed_) {
      append_locked(recs);
      recs = take_spare_locked();
      note_pushed_locked(n);
      pushed = n;
    }
  } else {
    pushed = feed_locked(lock, std::make_move_iterator(recs.begin()), n);
  }
  lock.unlock();
  recs.clear();
  if (pushed > 0) not_empty_.notify_all();
  if (pushed < n) metrics().rejected.inc(n - pushed);
  return pushed;
}

std::size_t report_queue::pop_batch(batch& out, std::size_t max_batch) {
  std::unique_lock lock(mu_);
  not_empty_.wait(lock, [this] { return batches_ > 0 || closed_; });
  std::size_t n = 0;
  while (n < max_batch && batches_ > 0) {
    batch& head = ring_[head_];
    const std::size_t left = head.size() - head_off_;
    // Swap a whole head batch out when it fits. Its vector must hold a
    // full max_batch too: the records appended after it would otherwise
    // reallocate it.
    if (out.empty() && head_off_ == 0 && left <= max_batch &&
        head.capacity() >= max_batch) {
      out.swap(head);
      n = left;
      retire_head_locked();
      continue;
    }
    const std::size_t k = std::min(left, max_batch - n);
    const auto from = head.begin() + static_cast<std::ptrdiff_t>(head_off_);
    out.insert(out.end(), std::make_move_iterator(from),
               std::make_move_iterator(from + static_cast<std::ptrdiff_t>(k)));
    head_off_ += k;
    n += k;
    if (head_off_ == head.size()) retire_head_locked();
  }
  items_ -= n;
  depth_.store(items_, std::memory_order_relaxed);
  publish_metrics_locked();
  const bool emptied = items_ == 0;
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
  emptied_.wait(lock, [this] { return items_ == 0 || closed_; });
}

bool report_queue::closed() const {
  std::lock_guard lock(mu_);
  return closed_;
}

}  // namespace wiscape::core
