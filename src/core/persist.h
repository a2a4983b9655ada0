// Coordinator-state snapshots.
//
// A real WiScape coordinator runs for months; its product -- the frozen
// per-zone-epoch estimates -- must survive restarts, and a follower joining
// late copies it from the leader. Both reload the whole table, so a
// snapshot is binary: no decimal is rendered or parsed on either side.
// One format is written and read, "WISCAPE-COORD v3":
//  * an ASCII first line `WISCAPE-COORD v3\n`, so `head -1` names the
//    file; every field after it is little-endian and fixed-width, doubles
//    as their raw IEEE-754 bits (as in the v3 wire's EPOCHB), so a
//    save/load round trip is bit-exact by construction;
//  * the network-name table: u16 count, then per name a u16 length and
//    its bytes (keys carry names, not interner ids, which are per table);
//  * one block per stream in key order (zone, network, metric), so equal
//    states save to equal bytes: i32 ix, i32 iy, u16 network index, u8
//    metric, u8 flags (bit 0: an open epoch follows), u32 frozen count,
//    each frozen epoch as {f64 start, f64 mean, f64 stddev, u64 samples},
//    then the open epoch's Welford accumulator {f64 start, u64 n, f64
//    mean, f64 m2} when flagged -- a coordinator killed mid-epoch resumes
//    exactly where it stopped. A stream whose open epoch is empty carries
//    no accumulator (an empty epoch re-aligns on its first sample, like a
//    fresh stream), and a stream with neither has no block;
//  * a trailer: u64 block count, u64 alert-ring high-water sequence (a
//    restarted coordinator resumes alert numbering instead of rewinding
//    client cursors), and a u64 checksum of every byte before it, folded
//    a word at a time (h = (h ^ w) * K, h ^= h >> 32 per little-endian
//    word, then the zero-padded tail word and the byte count; each step
//    is a bijection of h, so a change inside one word always shows). The
//    fold is core::epoch_codec's, which the WAL records use too.
//
// Loading refuses, with std::invalid_argument and nothing else, any input
// that is not exactly such a file: a bad or older header (a v2 text
// snapshot is refused by name), a cut at any byte, trailing bytes, a
// checksum or block count that disagrees, an index or metric out of
// range, unknown flag bits, or a NaN field (a NaN estimate carries
// nothing; +-inf round-trips). No count sizes an allocation beyond what
// the bytes hold: names are copied once their bytes are read, a block's
// epochs are collected as they are decoded and the block installs whole,
// through one durable_state::restore_stream call. The trailer's block
// count is a sizing hint only (durable_state::reserve_streams, before the
// first block), capped at one stream per 48 bytes -- every block carries
// at least one 32-byte epoch after its 16-byte head -- and still checked
// against the blocks read. A stream is read through one bounded buffer
// (snapshot_buffer_size), never whole, and installs as it reads, so it
// may have installed the blocks before the damage it refuses; it takes
// its hint by seeking to the trailer and back, and loads without one
// when it cannot seek. The in-memory flavour, which the replication
// catch-up uses, first checks every field and the checksum in a pass
// that installs nothing (and refuses a count its remaining bytes cannot
// hold), so a damaged catch-up body leaves the follower's table as it
// was; the count that pass verified is its hint.
//
// Snapshots are written and read through the narrow core::durable_state
// interface (src/core/durable_state.h), which sharded_coordinator
// implements; the durable_log checkpoint and recovery, the replication
// catch-up and the scenario restart all go through it. The
// crash-consistent WAL/snapshot *pair* built on top of these snapshots
// lives in core/durable_log.h. The one text rendering of a table,
// estimate_table_text, is for people and test diffs, not for reloading.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/durable_state.h"

namespace wiscape::core {

/// The read buffer a stream load goes through: the longest name (0xffff
/// bytes) fits, and nothing larger is ever held.
inline constexpr std::size_t snapshot_buffer_size = 64 * 1024;

/// Writes a coordinator's full estimate state (frozen + open epochs,
/// deterministically sorted) plus the alert sequence high-water mark,
/// through the durable_state interface. Quiesce producers (flush()) first
/// so in-flight reports are applied. Honours the
/// `persist_save` fault-injection site: an injected fault throws
/// std::runtime_error before anything is written, modelling a failed
/// snapshot (callers must treat a throw as "no snapshot taken").
void save_state(std::ostream& os, const durable_state& state);
/// The same bytes appended to `out` (the replication catch-up snapshot
/// renders straight into its cache).
void save_state(std::string& out, const durable_state& state);

/// Restores state saved by save_state into a coordinator with the same
/// grid / networks / config. Each stream block installs through the
/// idempotent durable_state::restore_stream, so the target may already hold some
/// of them (a follower catching up again after falling off the log). Must
/// be called before the target raises an alert: the trailer's sequence
/// resumes the alert ring's numbering, which alert_ring::resume_from only
/// permits on an untouched ring. Throws std::invalid_argument on any
/// input save_state did not write (see the file comment); the stream
/// flavour may have installed the blocks before the damage by then.
void load_state(std::istream& is, durable_state& state);
/// The same from bytes in memory, checked whole first: a refused input
/// installs nothing.
void load_state(std::string_view bytes, durable_state& state);

/// Every stream's frozen history and open epoch as text, in snapshot key
/// order: one `EST <zone> <network> <metric> <epoch_start> <mean>
/// <stddev> <n>` line per frozen epoch and one `OPEN <zone> <network>
/// <metric> <open_start> <n> <mean> <m2>` line per open accumulator
/// (core::epoch_codec's put_est/put_open, doubles as %.17g prints them).
/// Two states that render equal serve the same estimates and resume the
/// same open epochs. No fault site: a scenario may still have
/// persist_save armed when it renders its final table.
std::string estimate_table_text(const durable_state& state);

}  // namespace wiscape::core
