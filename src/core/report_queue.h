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
// Storage is a ring of batches, each a std::vector<measurement_record>.
// A producer that owns its batch (push_owned: a decoded REPORTB frame, a
// REPORT group) hands the vector over by swap and gets a recycled empty
// one back, and a consumer popping a whole batch swaps it out the same
// way, so in steady state a frame crosses the queue without a record copy
// or an allocation. A single copied record (push) fills a recycled vector
// under the lock. Depth and capacity count records, not
// batches: backpressure, size() and the metrics mean what they always
// meant. Recycled vectors are kept only up to max_spares of them, each
// holding at most max_recycled_capacity records, so one huge frame (or a
// burst of tiny ones) cannot pin memory after it drains.
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
#include <mutex>
#include <vector>

#include "trace/record.h"

namespace wiscape::core {

class report_queue {
 public:
  using batch = std::vector<trace::measurement_record>;

  /// Recycled vectors holding more records than this are released instead
  /// of kept for reuse.
  static constexpr std::size_t max_recycled_capacity = 1024;
  /// Recycled vectors kept for reuse at most; further ones are released.
  static constexpr std::size_t max_spares = 64;

  /// Throws std::invalid_argument if capacity == 0.
  explicit report_queue(std::size_t capacity);

  report_queue(const report_queue&) = delete;
  report_queue& operator=(const report_queue&) = delete;

  /// Blocks while the queue is full. Returns true once the record is
  /// enqueued, false if the queue was closed (record dropped).
  bool push(trace::measurement_record rec);

  /// Enqueues a whole batch the caller owns under one lock acquisition
  /// (and one metrics delta), without copying it: a batch that fits the
  /// capacity waits until it fits whole and is then swapped into the ring,
  /// contiguous in FIFO order (no other producer's records interleave); a
  /// larger one is moved in capacity-sized gulps as consumers make room.
  /// Returns the number of records enqueued: the batch size on success,
  /// fewer when the queue is closed first (the remainder is dropped), or 0
  /// when an injected fault fires at the core::fault queue_push site
  /// (scenario fault storms; the fault refuses the batch whole, before
  /// anything is enqueued). Callers must count the shortfall against their
  /// drop accounting either way. On return `recs` is always empty (its
  /// records enqueued or dropped) and, after a swap, holds a recycled
  /// vector whose capacity the caller can refill without allocating.
  std::size_t push_owned(batch& recs);

  /// Pops up to `max_batch` records into `out` (appended), blocking until at
  /// least one record is available or the queue is closed. Returns the
  /// number popped; 0 only after close() with the queue fully drained.
  /// When `out` is empty and the head batch fits whole in `max_batch` (and
  /// its vector can hold `max_batch` records, so later appends never
  /// reallocate), the batch is swapped out instead of copied.
  std::size_t pop_batch(batch& out, std::size_t max_batch);

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
  /// Appends `b` as the ring's tail batch (moved in; `b` is left empty).
  /// Grows the ring when every slot holds a batch. Call with mu_ held.
  void append_locked(batch& b);
  /// Moves records [first, first + n) into a recycled vector appended as
  /// the tail batch. Call with mu_ held and n <= capacity_ - items_.
  template <class It>
  void append_range_locked(It first, std::size_t n);
  /// Feeds n records from `first` in gulps as room appears (push_owned()
  /// past the capacity). Returns the number enqueued.
  template <class It>
  std::size_t feed_locked(std::unique_lock<std::mutex>& lock, It first,
                          std::size_t n);
  /// An empty vector for a new batch: the most recently recycled one.
  batch take_spare_locked();
  /// Clears `b` and keeps it for reuse unless it is too large or enough
  /// spares are kept already.
  void recycle_locked(batch& b);
  /// Drops the (fully popped) head batch from the ring.
  void retire_head_locked();
  /// Records the new depth after a push and stages the metrics.
  void note_pushed_locked(std::size_t n);
  /// Pushes any un-published enqueue/high-water totals into the obs
  /// registry. Must be called with mu_ held; cheap when nothing is pending.
  void publish_metrics_locked();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  mutable std::condition_variable not_full_;
  mutable std::condition_variable not_empty_;
  mutable std::condition_variable emptied_;
  // Ring of batches: ring_[(head_ + i) & (ring_.size() - 1)] for
  // i < batches_, oldest first; ring_.size() is a power of two. The head
  // batch's first head_off_ records are already popped.
  std::vector<batch> ring_;
  std::size_t head_ = 0;
  std::size_t batches_ = 0;
  std::size_t head_off_ = 0;
  std::size_t items_ = 0;       // records enqueued, not yet popped
  std::vector<batch> spares_;   // recycled empty vectors, LIFO
  // items_, stored under mu_ after every change, read without it.
  std::atomic<std::size_t> depth_{0};
  bool closed_ = false;
  // Metric staging, guarded by mu_: counted per push with plain arithmetic,
  // flushed to the (atomic) obs registry counters at batch boundaries.
  std::uint64_t enq_count_ = 0;      ///< successful pushes, lifetime total
  std::uint64_t enq_published_ = 0;  ///< portion already in the registry
  std::int64_t high_water_ = 0;      ///< deepest items_ seen
};

}  // namespace wiscape::core
