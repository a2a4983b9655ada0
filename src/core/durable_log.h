// Crash-consistent WAL/snapshot persistence pair.
//
// core::persist's one-shot snapshots lose everything since the last save
// when the process dies; recovery must be O(epochs-since-snapshot), not
// O(lost-work). The pair:
//
//  * Snapshot -- the full durable_state in core::persist's binary format
//    (save_state), written to `<dir>/snapshot.tmp`, fsynced, atomically
//    renamed to `<dir>/snapshot` and the directory fsynced, so a crash
//    mid-checkpoint always leaves the previous snapshot intact (the
//    snapshot_torn fault site models exactly that crash).
//  * WAL -- the ASCII line `WISCAPE-WAL v2\n`, then one record per frozen
//    epoch appended as rollovers happen: a u32 length, the record's bytes
//    (core::epoch_codec's epoch record, byte for byte the EPOCHB element
//    of the same update) and a u64 checksum (epoch_codec::checksum) of
//    the length and the record, all little-endian. Doubles travel as
//    their bits, so replay is bit-exact. A torn tail -- a cut at any
//    byte -- fails its length or checksum, and recovery stops at the last
//    complete record instead of crashing or replaying garbage (counted in
//    core.persist.wal_truncated). A v1 (text) WAL is refused by its
//    version.
//
// Recovery = load snapshot (if any) + replay WAL records after it. A
// checkpoint truncates the WAL only after the snapshot's bytes and its
// rename are synced to disk, so every epoch is always covered by at least
// one of the two files, and a record covered by both installs once
// (durable_state::restore_estimate is idempotent). Each record carries the
// alert number its freeze took (0: none), so recovery resumes alert
// numbering after the larger of the snapshot's mark and the highest
// number replayed: a consumer's drain cursor never sees a number reissued
// to another alert, except one it drained before its freeze's append
// reached the WAL.
//
// Only *frozen* epochs ride the WAL (they are the immutable replication
// unit); open-epoch Welford accumulators are carried by snapshots alone,
// exactly like the replication stream itself -- a follower rebuilds open
// epochs from client-assisted replay, not from the log.
//
// Appends go through one O_APPEND file descriptor the durable_log opens
// on its first append and holds until it is destroyed (checkpoint()
// reopens it with O_TRUNC after the rename); a record is encoded into a
// reused buffer and written with one write(2). A returned append has
// reached the OS -- it survives a process crash, not a power cut (appends
// are not fsynced).
//
// wal_replay is the stream-level reader recovery runs; the durable_log
// class manages the on-disk pair, is the one WAL writer, and is
// thread-safe (appends come from sharded drain workers via the leader's
// epoch tap).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>

#include "core/durable_state.h"
#include "core/epoch_codec.h"

namespace wiscape::core {

/// How much of a WAL stream a replay covered, for the caller that owns the
/// file: where the valid prefix ends, and whether anything follows the
/// damage that ended it.
struct wal_extent {
  /// The header and every whole record replayed (0 when the header is
  /// damaged): the length a damaged tail is cut back to.
  std::uint64_t valid_bytes = 0;
  /// Every byte read from the stream, damaged or not.
  std::uint64_t read_bytes = 0;
  /// Bytes from the first whole record after the damage replay stopped at
  /// (or from the longest record past it, when none follows that closely)
  /// to the end. 0 when nothing is damaged or the damage is the stream's
  /// tail; more means records follow it.
  std::uint64_t after_damage = 0;
};

/// Replays a WAL stream: `apply(record)` per complete, checksum-valid
/// record, in file order. Recovery is tolerant of torn tails -- a cut or
/// corrupt record, a length no record can have, or a NaN field stops
/// replay at the last good record, counts core.persist.wal_truncated once,
/// and returns normally; it never throws on damage and never applies a
/// damaged record. A header of another version is damage here
/// (durable_log::recover refuses it by name first). Returns the highest
/// sequence number applied (0 = none). When `extent` is given it receives
/// what the replay covered (see wal_extent); the stream is then read to
/// its end.
std::uint64_t wal_replay(std::istream& is,
                         const std::function<void(const epoch_update&)>& apply,
                         wal_extent* extent = nullptr);

/// The on-disk pair: `<dir>/snapshot` + `<dir>/wal`. `dir` must exist.
class durable_log {
 public:
  explicit durable_log(std::string dir);
  ~durable_log();

  durable_log(const durable_log&) = delete;
  durable_log& operator=(const durable_log&) = delete;

  /// Loads the snapshot (if present) into `state`, then replays WAL
  /// records through state.restore_estimate(), and resumes alert numbering
  /// after the highest alert_seq replayed when that is past the snapshot's
  /// mark. That install is idempotent
  /// and closes the epoch it installs, so a WAL the snapshot already
  /// covers (a crash between checkpoint()'s rename and its WAL reset)
  /// replays as a no-op, and an epoch the snapshot saw open and the WAL
  /// saw freeze is frozen once. Returns the highest WAL
  /// sequence applied (0 = none). A torn tail -- damage in the file's last
  /// record -- is cut off the file, so the next append follows the last
  /// whole record instead of landing glued to the torn bytes. Damage with
  /// bytes after the damaged record (bit rot, not a crash mid-write), a
  /// WAL of another version (named in the error), or a read that
  /// ends before the file does (an I/O error), throws std::runtime_error
  /// and leaves the file as it was: cutting there would delete records
  /// that are intact. Only a file that does not exist (ENOENT) counts as
  /// absent: one that exists but cannot be opened (a symlink loop, a
  /// permission) throws std::runtime_error naming it before anything is
  /// loaded, and both files are left as they are. A damaged snapshot
  /// throws std::invalid_argument (core::load_state). Call on a freshly
  /// constructed coordinator, before any ingest.
  std::uint64_t recover(durable_state& state);

  /// Appends one frozen epoch to the WAL: one write(2) on the held
  /// O_APPEND descriptor (opened on the first append, with the header
  /// written if the file is empty), so the record has reached the OS when
  /// this returns. Safe from any thread (the leader's epoch tap calls this
  /// from drain workers). Honours the `wal_append` fault site: an injected
  /// fault throws std::runtime_error before any byte is written (counted
  /// in core.persist.wal_append_failures), so the log tail stays exactly
  /// the previous record -- a full-disk model. An I/O error also throws;
  /// a short write is cut back off the file first, so the next append
  /// does not land glued to a partial record.
  /// `alert_seq` is the number of the alert the freeze raised (0: none).
  void append(std::uint64_t seq, const estimate_key& key,
              const epoch_estimate& est, std::uint64_t alert_seq = 0);

  /// Checkpoints `state`: snapshot.tmp -> fsync -> rename -> fsync of the
  /// directory -> WAL reset (the append descriptor is reopened with
  /// O_TRUNC). A failed fsync throws before the WAL is reset, so the
  /// previous pair, or the new snapshot with a WAL it covers, recovers.
  /// Quiesce producers first:
  /// an epoch that freezes during the state walk (the one save_state
  /// does) lands in the WAL the reset empties, and in the snapshot only if
  /// the walk had not passed its stream yet. On
  /// failure -- including an injected snapshot_torn fault, which leaves a
  /// truncated temp file behind -- throws without touching the previous
  /// snapshot or the WAL.
  void checkpoint(const durable_state& state);

  const std::string& snapshot_path() const noexcept { return snapshot_path_; }
  const std::string& wal_path() const noexcept { return wal_path_; }

 private:
  /// (Re)opens wal_fd_ with O_APPEND plus `flags`, writing the header
  /// into an empty file.
  void open_wal(int flags);

  std::string dir_;
  std::string snapshot_path_;
  std::string wal_path_;
  // Lock order: state_mu_, then a shard lock (inside the state walk), then
  // mu_. Drain workers append while holding a shard lock, so mu_ is never
  // held while calling into a durable_state.
  std::mutex state_mu_;  // serialises recover() and checkpoint()
  std::mutex mu_;        // serialises the wal file: append, reset, cut
  int wal_fd_ = -1;    // the append descriptor; -1 until the first append
  std::int64_t wal_size_ = 0;  // file length after the last whole record
  std::string record_;  // reused buffer for one framed WAL record
};

}  // namespace wiscape::core
