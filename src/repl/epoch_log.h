// The leader-side replication log: a bounded in-memory ring of frozen
// epochs, fed by core::zone_table's epoch tap (ISSUE 10).
//
// Every rollover on the serving coordinator lands here as one
// proto::epoch_update with a monotonically increasing sequence number --
// the unit of replication and the follower's dedup cursor -- and the
// number of the alert its freeze raised. Followers pull
// suffixes of this log (EPOCH -> EPOCHB over wire v3); a follower whose
// cursor has fallen below the ring's retained base is told to snapshot
// catch-up instead (pull() returns false).
//
// Optionally tees every record into a core::durable_log WAL, so the
// replication stream and crash recovery share one record stream: what a
// follower replays over the wire is exactly what recovery replays from
// disk. Thread-safe: the tap fires from sharded drain workers while
// pulls arrive from transport threads.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "core/durable_log.h"
#include "core/zone_table.h"
#include "proto/messages.h"

namespace wiscape::repl {

/// Default retained-record capacity: enough for a follower that polls
/// every scenario tick to never fall off the log under the fleet storms.
inline constexpr std::size_t default_log_capacity = 65536;

class epoch_log : public core::epoch_tap {
 public:
  /// `wal` (borrowed, may be null) receives every logged record as a
  /// durable append; it must outlive the log.
  explicit epoch_log(std::size_t capacity = default_log_capacity,
                     core::durable_log* wal = nullptr);

  /// The tap: assigns the next sequence number, retains the record with
  /// the freeze's alert number (evicting the oldest past capacity, counted
  /// in repl.log_evicted), and tees it into the WAL when one is attached.
  /// A WAL append failure (including the wal_append fault) is counted and
  /// swallowed -- the in-memory log stays authoritative for replication;
  /// durability degrades, ingest does not.
  void on_epoch(const core::estimate_key& key, const core::epoch_estimate& e,
                std::uint64_t alert_seq = 0) override;

  /// Appends up to `max` records with seq > since_seq, in sequence order.
  /// Returns false when since_seq is below the retained base (records the
  /// puller needs were evicted): the puller must snapshot catch-up.
  bool pull(std::uint64_t since_seq, std::uint32_t max,
            std::vector<proto::epoch_update>& out) const;

  /// Restarts sequencing at `next_seq`, dropping retained records. Used
  /// after recovery (continue after the highest WAL seq) and on follower
  /// promotion (continue after the applied cursor, so a peer's pull
  /// cursor stays valid across the failover).
  void reset(std::uint64_t next_seq);

  /// Highest sequence assigned (0 = none yet).
  std::uint64_t last_seq() const;

 private:
  mutable std::mutex mu_;
  std::deque<proto::epoch_update> ring_;
  std::uint64_t next_seq_ = 1;
  std::size_t cap_;
  core::durable_log* wal_;
};

}  // namespace wiscape::repl
