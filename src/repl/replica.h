// One replica of the replicated coordinator. The node that streams epoch
// rollovers and the nodes that mirror them are one type told apart by a
// role, and promotion flips that role in place.
//
// A replica implements proto::replication_endpoint, so a
// coordinator_server with one attached serves the v3 replication opcodes
// (EPOCH/EPOCHB/SNAPSHOT_REQ/PROMOTE) with no repl-specific wire code --
// the server owns all encode/decode, the replica exchanges typed records.
//
//  * leading -- its epoch_log sits in the serving sharded coordinator's
//    epoch tap: every rollover becomes one sequenced epoch_update that
//    followers pull. It applies nothing: a pushed EPOCHB draws ACK 0,
//    whether the replica was built leading or promoted.
//  * following -- applies pulled (or pushed) batches through the
//    coordinator's one frozen-epoch install,
//    durable_state::restore_estimate (no alerts, no ingest counters, the
//    installed epoch closed), deduplicating by sequence cursor, so leader
//    and follower state are bit-equal after catch-up. Feeds from disjoint
//    client populations merge commutatively per (zone, network, epoch)
//    (core::zone_table::merge_estimate). promote() makes it lead: its own
//    epoch_log takes over the tap and sequencing continues from the
//    applied cursor, so peers' pull cursors stay valid across the
//    failover, and alert numbering continues after the highest alert
//    number applied, so a consumer's drain cursor stays valid too.
//
// Every role serves pulls from its own log (empty while following:
// applied records are not re-logged) and snapshot catch-up for joiners:
// offset 0 captures "REPLSEQ <seq>\n" + the core::persist state
// rendering, fenced at max(applied cursor, last logged seq), so the
// joiner knows exactly which log suffix the snapshot covers. The
// pull/catch-up client half (poll(), catch_up()) speaks through a
// proto::client over any transport that ships complete v3 frames -- the
// TCP line_client, an in-process server, a test lambda.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/durable_log.h"
#include "core/sharded_coordinator.h"
#include "proto/client.h"
#include "proto/server.h"
#include "repl/epoch_log.h"

namespace wiscape::repl {

/// The one transport type, proto::transport: delivers one complete v3
/// request frame and returns the complete reply frame (the shape
/// line_client::request_frame and an in-process coordinator_server::handle
/// both satisfy). The repl:: name stays because perfbench spells it.
using transport = proto::transport;

/// Whether a replica serves the epoch stream or mirrors one.
enum class role : std::uint8_t { follower, leader };

/// Borrows the coordinator (and the optional WAL its log tees into); both
/// must outlive the replica. Thread-safe: the server may dispatch
/// apply()/promote()/snapshot() from many transport threads.
class replica : public proto::replication_endpoint {
 public:
  /// A leading replica attaches the epoch tap here, so rollovers stream
  /// from construction on. A following one mirrors into its (initially
  /// empty, non-ingesting) coordinator; after promote() the same
  /// coordinator ingests as the new leader.
  replica(core::sharded_coordinator& coord, role r,
          std::size_t log_capacity = default_log_capacity,
          core::durable_log* wal = nullptr);
  /// Detaches the tap if this replica leads, so rollovers after
  /// destruction touch no freed log.
  ~replica() override;

  replica(const replica&) = delete;
  replica& operator=(const replica&) = delete;

  /// The replication log (e.g. to reset() sequencing after WAL recovery).
  epoch_log& log() noexcept { return log_; }
  /// Last applied log sequence (the pull cursor).
  std::uint64_t applied_seq() const noexcept {
    return applied_seq_.load(std::memory_order_acquire);
  }
  /// True while this replica leads: built leading, or promoted.
  bool promoted() const noexcept {
    return role_.load(std::memory_order_acquire) == role::leader;
  }

  bool pull(std::uint64_t since_seq, std::uint32_t max_records,
            std::vector<proto::epoch_update>& out) override;
  /// Offset 0 captures a fresh snapshot (quiesced capture is consistent;
  /// under live ingest the seq fence plus idempotent re-apply keeps the
  /// overlap with subsequent pulls harmless); later offsets read the
  /// captured bytes.
  bool snapshot(std::uint64_t offset, std::string& data, std::uint64_t& total,
                bool& last) override;
  /// While following, applies one replicated batch in order: records at
  /// or below the cursor are duplicates (counted, skipped); fresh ones
  /// install through durable_state::restore_estimate (repl.epochs_applied;
  /// same-epoch merges of disjoint feeds also count repl.epochs_merged).
  /// A leading replica applies nothing. Returns the applied count.
  std::uint64_t apply(std::span<const proto::epoch_update> updates) override;
  /// Takes over: wires this replica's epoch_log into the coordinator's
  /// tap, continues sequencing from the applied cursor, and resumes alert
  /// numbering after the highest alert_seq applied (not when the
  /// coordinator has raised alerts of its own since its ring was built or
  /// last resumed: it keeps its numbering). Refused (false) by a leading
  /// replica, so promotion is one-shot. Never throws.
  bool promote() override;

  /// One pull round against the leader: EPOCH frames until a short batch
  /// drains the stream, applying each reply. Returns records applied;
  /// nullopt when the leader's log no longer reaches the cursor (ERR
  /// stopped -- run catch_up()). The replica_lag fault site skips the
  /// round entirely (repl.lag_skips), modelling a stalled replica link.
  /// Throws proto::reply_error on any other ERR, std::runtime_error on a
  /// malformed reply.
  std::optional<std::uint64_t> poll(const transport& send);

  /// Full snapshot catch-up: streams SNAPSHOT_REQ/SNAPSHOT_CHUNK, loads
  /// the state into the coordinator, and advances the cursor to the
  /// snapshot's covering sequence. Valid on a fresh follower and on one
  /// that poll() found fallen off the leader's log: the snapshot's frozen
  /// epochs install idempotently, so epochs already applied land once.
  /// A body core::load_state refuses -- torn because another joiner's
  /// offset-0 request re-captured the leader's cache mid-fetch, or
  /// damaged -- installs nothing and is fetched again, up to 4 fetches in
  /// all; the last refusal throws std::invalid_argument with the table as
  /// it was. Throws proto::reply_error on an ERR, std::runtime_error on a
  /// malformed or inconsistent chunk sequence.
  void catch_up(const transport& send);

 private:
  core::sharded_coordinator* coord_;
  epoch_log log_;
  std::mutex mu_;  // orders apply/promote/catch-up; guards snap_cache_
  std::string snap_cache_;  // "REPLSEQ <n>\n" + persist state rendering
  std::atomic<std::uint64_t> applied_seq_{0};
  std::uint64_t alert_mark_ = 0;  // highest alert_seq applied; under mu_
  std::atomic<role> role_;
};

// perfbench/ is held byte-stable so every revision is measured by the same
// driver, and it spells `repl::leader(coord, cap, wal)` and
// `repl::follower(coord)`; these names only fix the constructor's role.
struct leader : replica {
  explicit leader(core::sharded_coordinator& coord,
                  std::size_t log_capacity = default_log_capacity,
                  core::durable_log* wal = nullptr)
      : replica(coord, role::leader, log_capacity, wal) {}
};
struct follower : replica {
  explicit follower(core::sharded_coordinator& coord,
                    std::size_t log_capacity = default_log_capacity,
                    core::durable_log* wal = nullptr)
      : replica(coord, role::follower, log_capacity, wal) {}
};

}  // namespace wiscape::repl
