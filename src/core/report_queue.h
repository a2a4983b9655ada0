// A bounded MPMC queue of measurement reports.
//
// The concurrent ingestion pipeline (sharded_coordinator) decouples the
// threads that *receive* reports from the threads that *apply* them to the
// zone tables. This queue is the hand-off point: any number of producers
// block-push completed measurement_records, any number of consumers drain
// them in batches. Bounded capacity gives natural backpressure -- a server
// flooded faster than it can ingest slows its transports down instead of
// growing without limit.
//
// Ordering guarantee: items from one producer thread are dequeued in the
// order that producer pushed them (global FIFO over all successfully
// completed pushes; per-producer order is a corollary). With a single
// consumer per queue this preserves the per-zone sample order the
// zone_table's epoch rollover logic depends on.
//
// Observability: every queue contributes to the process-wide
// `core.report_queue.*` metrics (see src/obs/names.h and DESIGN.md). The
// per-push bookkeeping is plain arithmetic under the queue mutex the push
// already holds; totals are published to the obs registry in batches -- at
// every pop_batch() and at close() -- so the hot path adds no atomic RMW.
// Snapshots taken mid-run may therefore lag by up to one drain batch; they
// are exact whenever the queue is quiescent (drained or closed).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "trace/record.h"

namespace wiscape::core {

class report_queue {
 public:
  /// Throws std::invalid_argument if capacity == 0.
  explicit report_queue(std::size_t capacity);

  report_queue(const report_queue&) = delete;
  report_queue& operator=(const report_queue&) = delete;

  /// Blocks while the queue is full. Returns true once the record is
  /// enqueued, false if the queue was closed (record dropped).
  bool push(trace::measurement_record rec);

  /// Non-blocking push: returns false (record dropped) when the queue is
  /// full or closed.
  bool try_push(trace::measurement_record rec);

  /// Enqueues a whole batch under one lock acquisition (and one metrics
  /// delta), blocking while the queue is full -- batches larger than the
  /// remaining capacity are fed in capacity-sized gulps as consumers make
  /// room. The batch is contiguous in FIFO order (no other producer's
  /// records interleave within one gulp). Returns the number of records
  /// enqueued: recs.size() on success, fewer when the queue is closed
  /// mid-batch (the remainder is dropped), or 0 when an injected fault
  /// fires at the core::fault queue_push site (scenario fault storms; the
  /// fault refuses the batch whole, before anything is enqueued). Callers
  /// must count the shortfall against their drop accounting either way.
  std::size_t push_batch(std::span<const trace::measurement_record> recs);

  /// Pops up to `max_batch` records into `out` (appended), blocking until at
  /// least one record is available or the queue is closed. Returns the
  /// number popped; 0 only after close() with the queue fully drained.
  std::size_t pop_batch(std::vector<trace::measurement_record>& out,
                        std::size_t max_batch);

  /// Closes the queue: pending and future pushes fail, consumers drain the
  /// remaining items and then see 0 from pop_batch. Idempotent.
  void close();

  /// Blocks until the queue is empty (all enqueued items popped) or closed.
  void wait_empty() const;

  std::size_t capacity() const noexcept { return capacity_; }
  bool closed() const;
  /// Records enqueued and not yet popped. Lock-free (a relaxed load of a
  /// depth every push and pop stores under the mutex), so monitors and
  /// shedding checks never contend with producers or the drain worker;
  /// a racing push or pop may or may not be counted yet.
  std::size_t size() const noexcept {
    return depth_.load(std::memory_order_relaxed);
  }

 private:
  /// Pushes any un-published enqueue/high-water totals into the obs
  /// registry. Must be called with mu_ held; cheap when nothing is pending.
  void publish_metrics_locked();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  mutable std::condition_variable not_full_;
  mutable std::condition_variable not_empty_;
  mutable std::condition_variable emptied_;
  std::deque<trace::measurement_record> items_;
  // items_.size(), stored under mu_ after every change, read without it.
  std::atomic<std::size_t> depth_{0};
  bool closed_ = false;
  // Metric staging, guarded by mu_: counted per push with plain arithmetic,
  // flushed to the (atomic) obs registry counters at batch boundaries.
  std::uint64_t enq_count_ = 0;      ///< successful pushes, lifetime total
  std::uint64_t enq_published_ = 0;  ///< portion already in the registry
  std::int64_t high_water_ = 0;      ///< deepest items_.size() seen
};

}  // namespace wiscape::core
