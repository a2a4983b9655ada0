// The narrow persistence surface of a coordinator (ISSUE 10).
//
// Everything a snapshot writer, WAL replayer or replication catch-up needs
// to read or rebuild coordinator estimate state, and nothing else. Its one
// implementer is core::sharded_coordinator (`num_shards = 1, synchronous
// = true` is the sequential configuration). The four verbs:
//
//   * enumerate      -- keys() / history() / open_state()
//   * install frozen -- restore_estimate(), the one way a frozen epoch
//                       enters the state (see below)
//   * replay open    -- restore_open() (Welford accumulator, verbatim)
//   * resume alerts  -- alert_seq() / resume_alert_seq() (sequence
//                       numbering survives a restart; cursors never rewind)
//
// restore_estimate is idempotent and closes the epoch it installs
// (core::zone_table::merge_estimate). Snapshot load, WAL replay, catch-up
// and the follower's apply all call it, so a record two of them deliver
// lands once, and an epoch a snapshot saw open and a later record saw
// frozen is never frozen twice.
//
// Why an interface with one implementer: persist and durable_log speak it
// so they need not include sharded_coordinator.h, and perfbench
// fingerprints a recovered table through it.
//
// Install calls replay saved state: they must not raise alerts or move
// ingestion counters, and resume_alert_seq is only legal before any alert
// is raised (alert_ring::resume_from refuses otherwise).
//
// Thread safety: sharded_coordinator takes the owning shard's lock per
// call. Callers wanting a consistent snapshot quiesce producers (or
// flush()) first.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/zone_table.h"

namespace wiscape::core {

class durable_state {
 public:
  virtual ~durable_state() = default;

  /// All estimate-stream keys seen so far (order unspecified; persistence
  /// sorts deterministically before writing).
  virtual std::vector<estimate_key> keys() const = 0;
  /// Full frozen history of one stream, oldest first.
  virtual std::vector<epoch_estimate> history(const estimate_key& key) const = 0;
  /// Open-epoch Welford accumulator (nullopt when absent or empty).
  virtual std::optional<open_epoch_state> open_state(
      const estimate_key& key) const = 0;

  /// Installs a frozen estimate and closes its epoch (see above), publishing
  /// the stream's newest epoch to the serving mirror. No alert is raised.
  /// Returns true when the estimate met an epoch already held
  /// (repl.epochs_merged counts these).
  virtual bool restore_estimate(const estimate_key& key,
                                const epoch_estimate& e) = 0;
  /// Restores a stream's open-epoch accumulator verbatim.
  virtual void restore_open(const estimate_key& key,
                            const open_epoch_state& st) = 0;

  /// High-water alert sequence number pushed so far.
  virtual std::uint64_t alert_seq() const = 0;
  /// Resumes alert numbering after `last_seq` (call before any ingest).
  virtual void resume_alert_seq(std::uint64_t last_seq) = 0;
};

}  // namespace wiscape::core
