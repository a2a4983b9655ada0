// Replicated-coordinator roles: the leader that streams epoch rollovers
// and the follower that applies them and can take over (ISSUE 10).
//
// Both roles implement proto::replication_endpoint, so a
// coordinator_server with one attached serves the v3 replication opcodes
// (EPOCH/EPOCHB/SNAPSHOT_REQ/PROMOTE) with no repl-specific wire code --
// the server owns all encode/decode, the roles exchange typed records.
//
//  * leader -- wires an epoch_log into the serving sharded coordinator's
//    epoch tap; every rollover becomes one sequenced epoch_update that
//    followers pull. Serves snapshot catch-up for joiners: offset 0
//    captures "REPLSEQ <seq>\n" + the core::persist state rendering, so
//    the joiner knows exactly which log suffix the snapshot covers.
//  * follower -- applies pulled batches through the coordinator's one
//    frozen-epoch install, durable_state::restore_estimate (no alerts, no
//    ingest counters, the installed epoch closed), deduplicating by
//    sequence cursor, so leader and follower state are bit-equal after
//    catch-up. apply() also accepts feeds from disjoint client
//    populations: per-(zone, network, epoch) estimates merge commutatively
//    (core::zone_table::merge_estimate).
//    promote() flips the role: the follower's own epoch_log takes over
//    the tap, sequencing continues from the applied cursor, and peers'
//    pull cursors stay valid across the failover.
//
// The pull/catch-up client half (poll(), catch_up()) drives any
// request->reply transport that ships complete v3 frames -- the TCP
// line_client, an in-process server, a test lambda.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/durable_log.h"
#include "core/sharded_coordinator.h"
#include "proto/server.h"
#include "repl/epoch_log.h"

namespace wiscape::repl {

/// Delivers one complete v3 request frame and returns the complete reply
/// frame (the shape line_client::request_frame and an in-process
/// coordinator_server::handle both satisfy).
using transport = std::function<std::string(std::string_view)>;

/// The serving side of the replication stream. Borrows the coordinator
/// (and the optional WAL); both must outlive the leader. Construction
/// attaches the epoch tap -- rollovers stream from that point on.
class leader : public proto::replication_endpoint {
 public:
  explicit leader(core::sharded_coordinator& coord,
                  std::size_t log_capacity = default_log_capacity,
                  core::durable_log* wal = nullptr);
  /// Detaches the tap, so rollovers after destruction touch no freed log.
  ~leader() override;

  leader(const leader&) = delete;
  leader& operator=(const leader&) = delete;

  /// The replication log (e.g. to reset() sequencing after WAL recovery).
  epoch_log& log() noexcept { return log_; }

  bool pull(std::uint64_t since_seq, std::uint32_t max_records,
            std::vector<proto::epoch_update>& out) override;
  /// Offset 0 captures a fresh snapshot (quiesced capture is consistent;
  /// under live ingest the seq fence plus idempotent re-apply keeps the
  /// overlap with subsequent pulls harmless); later offsets read the
  /// captured bytes.
  bool snapshot(std::uint64_t offset, std::string& data, std::uint64_t& total,
                bool& last) override;
  /// A leader never applies a replicated batch; answers 0 applied.
  std::uint64_t apply(std::span<const proto::epoch_update> updates) override;
  /// Already the leader: promotion is refused.
  bool promote() override { return false; }

 private:
  core::sharded_coordinator* coord_;
  epoch_log log_;
  std::mutex snap_mu_;      // guards the catch-up snapshot capture
  std::string snap_cache_;  // "REPLSEQ <n>\n" + persist state rendering
};

/// The applying side. Borrows the (initially empty, non-ingesting)
/// coordinator it mirrors the leader's state into; after promote() the
/// same coordinator starts ingesting as the new leader. Thread-safe: the
/// server may dispatch apply()/promote() from many transport threads.
class follower : public proto::replication_endpoint {
 public:
  explicit follower(core::sharded_coordinator& coord,
                    std::size_t log_capacity = default_log_capacity,
                    core::durable_log* wal = nullptr);
  ~follower() override;

  follower(const follower&) = delete;
  follower& operator=(const follower&) = delete;

  /// Serves a peer's pull from this replica's own log -- empty before
  /// promotion (applied records are not re-logged), live after it.
  bool pull(std::uint64_t since_seq, std::uint32_t max_records,
            std::vector<proto::epoch_update>& out) override;
  bool snapshot(std::uint64_t offset, std::string& data, std::uint64_t& total,
                bool& last) override;
  /// Applies one replicated batch in order: records at or below the
  /// cursor are duplicates (counted, skipped); fresh ones install through
  /// durable_state::restore_estimate (repl.epochs_applied; same-epoch
  /// merges of disjoint feeds additionally count repl.epochs_merged).
  /// Returns applied count.
  std::uint64_t apply(std::span<const proto::epoch_update> updates) override;
  /// Takes over: wires this replica's epoch_log into the coordinator's
  /// tap and continues sequencing from the applied cursor. Idempotent
  /// calls after the first are refused (false), matching the leader.
  bool promote() override;

  /// Last applied log sequence (the pull cursor).
  std::uint64_t applied_seq() const noexcept {
    return applied_seq_.load(std::memory_order_acquire);
  }
  bool promoted() const noexcept {
    return promoted_.load(std::memory_order_acquire);
  }

  /// One pull round against the leader: EPOCH frames until a short batch
  /// drains the stream, applying each reply. Returns records applied;
  /// nullopt when the leader's log no longer reaches the cursor (ERR
  /// stopped -- run catch_up()). The replica_lag fault site skips the
  /// round entirely (repl.lag_skips), modelling a stalled replica link.
  /// Throws std::runtime_error on any other ERR or a malformed reply.
  std::optional<std::uint64_t> poll(const transport& send);

  /// Full snapshot catch-up: streams SNAPSHOT_REQ/SNAPSHOT_CHUNK, loads
  /// the state into the coordinator, and advances the cursor to the
  /// snapshot's covering sequence. Valid on a fresh follower and on one
  /// that poll() found fallen off the leader's log: the snapshot's frozen
  /// epochs install idempotently, so epochs already applied land once.
  void catch_up(const transport& send);

 private:
  core::sharded_coordinator* coord_;
  epoch_log log_;
  std::mutex apply_mu_;     // orders apply()/promote() across server threads
  std::string snap_cache_;  // catch-up snapshot capture (post-promotion)
  std::atomic<std::uint64_t> applied_seq_{0};
  std::atomic<bool> promoted_{false};
};

}  // namespace wiscape::repl
