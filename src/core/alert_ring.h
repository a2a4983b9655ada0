// Bounded, sequenced ring of change alerts -- the serving-side sink for the
// zone table's >2-sigma detections (paper Sec 3.4: the server flags
// estimates that "changed substantially from [the] previous update").
//
// Every alert pushed gets a process-unique, monotonically increasing
// sequence number (starting at 1), so clients drain incrementally with a
// cursor: `drain_since(seq)` returns alerts with sequence > seq in order,
// plus the cursor to pass next time and an exact count of alerts that were
// evicted unseen (ring wraparound). served + dropped always accounts for
// every alert ever pushed -- a lagging client learns *that* it lost alerts
// and how many, never silently.
//
// Concurrency: a plain mutex. Alerts are born on epoch rollovers (a cold
// path, orders of magnitude rarer than sample ingestion), so contention is
// negligible and cannot stall drain workers; the lock-free machinery is
// reserved for the estimate read path (core/estimate_mirror.h). In sharded
// mode one ring is shared by every shard, giving a single total order of
// alert sequence numbers across the whole coordinator.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/zone_table.h"

namespace wiscape::core {

/// One alert with its ring-assigned sequence number.
struct sequenced_alert {
  std::uint64_t seq = 0;  ///< monotonically increasing, starts at 1
  change_alert alert;
};

/// Result of one incremental drain.
struct alert_drain {
  std::vector<sequenced_alert> alerts;  ///< sequence order, seq > `since`
  std::uint64_t next_seq = 0;  ///< cursor for the next drain_since call
  std::uint64_t dropped = 0;   ///< alerts past `since` evicted before serving
};

class alert_ring {
 public:
  /// `capacity`: alerts retained; older ones are evicted (and accounted as
  /// dropped to any reader whose cursor predates them). Must be >= 1.
  explicit alert_ring(std::size_t capacity = 1024)
      : capacity_(capacity == 0 ? 1 : capacity) {
    ring_.assign(capacity_, sequenced_alert{});
  }

  alert_ring(const alert_ring&) = delete;
  alert_ring& operator=(const alert_ring&) = delete;

  /// Appends one alert, assigning and returning the next sequence number.
  std::uint64_t push(const change_alert& a) {
    std::lock_guard lock(mu_);
    const std::uint64_t seq = next_seq_++;
    ring_[static_cast<std::size_t>((seq - 1) % capacity_)] = {seq, a};
    return seq;
  }

  /// Resumes sequence numbering after a restart: the next push gets
  /// `last_seq + 1`, and every sequence <= last_seq is treated as evicted
  /// (a drain cursor behind it learns those alerts as `dropped` -- alert
  /// payloads do not survive a restart, but their accounting does, so the
  /// served+dropped==pushed ledger stays exact across process lifetimes).
  /// Only valid on a ring nothing has been pushed into since it was built
  /// or last resumed (a follower that catches up by snapshot again
  /// resumes again), and never backwards; throws std::logic_error
  /// otherwise (resuming mid-stream would renumber live alerts, and
  /// rewinding would reissue numbers cursors have passed).
  void resume_from(std::uint64_t last_seq) {
    std::lock_guard lock(mu_);
    if (next_seq_ != base_seq_ + 1 || last_seq < base_seq_) {
      throw std::logic_error("alert_ring::resume_from on a non-fresh ring");
    }
    next_seq_ = last_seq + 1;
    base_seq_ = last_seq;
  }

  /// resume_from for a ring that may have numbered alerts of its own (a
  /// promoted follower): resumes only when resume_from would accept
  /// `last_seq` and it is ahead of pushed(), and returns whether it did.
  /// Otherwise the ring keeps its numbering. Never throws.
  bool resume_ahead(std::uint64_t last_seq) {
    std::lock_guard lock(mu_);
    if (next_seq_ != base_seq_ + 1 || last_seq <= base_seq_) return false;
    next_seq_ = last_seq + 1;
    base_seq_ = last_seq;
    return true;
  }

  /// Alerts with sequence > `since`, oldest first, at most `max` of them.
  /// `next_seq` is the cursor that makes the following call continue where
  /// this one stopped (even when `max` truncated the result); `dropped`
  /// counts alerts past `since` that were already evicted.
  alert_drain drain_since(std::uint64_t since, std::size_t max = 256) const {
    alert_drain out;
    std::lock_guard lock(mu_);
    const std::uint64_t newest = next_seq_ - 1;  // base_seq_ = nothing pushed
    // Oldest sequence still in the ring: capacity eviction, floored at
    // base_seq_ + 1 (sequences at or below base_seq_ predate a restart and
    // were never stored here -- they count as dropped, same as evicted).
    std::uint64_t oldest = next_seq_ > capacity_ ? next_seq_ - capacity_ : 1;
    if (oldest <= base_seq_) oldest = base_seq_ + 1;
    if (newest <= base_seq_ || since >= newest) {
      // Nothing drainable. A cursor behind a resumed-empty ring still
      // advances past the pre-restart sequences, accounting them dropped.
      out.dropped = newest > since ? newest - since : 0;
      out.next_seq = newest;
      return out;
    }
    std::uint64_t first = since + 1;
    if (first < oldest) {
      out.dropped = oldest - first;
      first = oldest;
    }
    const std::uint64_t avail = newest - first + 1;
    const std::uint64_t take =
        std::min<std::uint64_t>(avail, std::max<std::size_t>(max, 1));
    const std::uint64_t last = first + take - 1;
    out.alerts.reserve(static_cast<std::size_t>(take));
    for (std::uint64_t s = first; s <= last; ++s) {
      out.alerts.push_back(ring_[static_cast<std::size_t>((s - 1) % capacity_)]);
    }
    out.next_seq = last;
    return out;
  }

  /// Total alerts ever pushed (served + still ringed + dropped). After
  /// resume_from this includes the pre-restart sequences, so the ledger is
  /// continuous across process lifetimes.
  std::uint64_t pushed() const {
    std::lock_guard lock(mu_);
    return next_seq_ - 1;
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<sequenced_alert> ring_;  // slot of seq s: (s-1) % capacity_
  std::uint64_t next_seq_ = 1;
  std::uint64_t base_seq_ = 0;  // sequences <= base predate a resume_from
};

}  // namespace wiscape::core
