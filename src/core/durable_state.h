// The narrow persistence surface of a coordinator (ISSUE 10).
//
// Everything a snapshot writer, WAL replayer or replication catch-up needs
// to read or rebuild coordinator estimate state, and nothing else. Its one
// implementer is core::sharded_coordinator (`num_shards = 1, synchronous
// = true` is the sequential configuration). Three kinds of call:
//
//   * enumerate      -- keys() / history() / open_state()
//   * install        -- restore_stream(), the one install verb: a stream's
//                       frozen epochs and its open accumulator in one call
//                       (see below); restore_estimate() and restore_open()
//                       are its one-epoch and open-only spellings, and
//                       reserve_streams() sizes the table before a load
//   * resume alerts  -- alert_seq() / resume_alert_seq() (sequence
//                       numbering survives a restart; cursors never rewind)
//
// An install is idempotent and closes each epoch it installs
// (core::zone_table::restore_stream). Snapshot load, WAL replay, catch-up
// and the follower's apply all go through it, so a record two of them
// deliver lands once, and an epoch a snapshot saw open and a later record
// saw frozen is never frozen twice. A snapshot load installs a whole
// stream block with one call: one lock, one directory probe and one
// mirror publish per stream instead of per epoch.
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

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
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

  /// Installs one stream: each of `frozen`, in order, lands and closes its
  /// epoch (see above), then `open` (when not null) replaces the stream's
  /// open-epoch accumulator verbatim. Publishes the stream's newest epoch
  /// to the serving mirror once, when an epoch changed. No alert is raised.
  /// Returns how many of `frozen` met an epoch already held
  /// (repl.epochs_merged counts these).
  virtual std::size_t restore_stream(const estimate_key& key,
                                     std::span<const epoch_estimate> frozen,
                                     const open_epoch_state* open) = 0;
  /// restore_stream() of one frozen estimate: true when it met an epoch
  /// already held.
  bool restore_estimate(const estimate_key& key, const epoch_estimate& e) {
    return restore_stream(key, {&e, 1}, nullptr) != 0;
  }
  /// restore_stream() of an open-epoch accumulator alone.
  void restore_open(const estimate_key& key, const open_epoch_state& st) {
    restore_stream(key, {}, &st);
  }
  /// A load's hint that about `streams` streams are coming (never more
  /// than its bytes can hold), so the state can size itself once instead
  /// of growing through every doubling. Does nothing by default.
  virtual void reserve_streams(std::size_t streams) { (void)streams; }

  /// High-water alert sequence number pushed so far.
  virtual std::uint64_t alert_seq() const = 0;
  /// Resumes alert numbering after `last_seq` (call before any ingest).
  virtual void resume_alert_seq(std::uint64_t last_seq) = 0;
};

}  // namespace wiscape::core
