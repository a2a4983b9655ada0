// Coordinator-state snapshots.
//
// A real WiScape coordinator runs for months; its product -- the frozen
// per-zone-epoch estimates -- must survive restarts. The format is
// line-oriented text like the rest of the interchange surfaces, so
// operators can grep their coverage history. One format is written and
// read, headed "WISCAPE-COORD v2":
//  * one `EST <zone> <network> <metric> <epoch_start> <mean> <stddev> <n>`
//    line per frozen estimate, doubles printed as %.17g prints them so a
//    save/load round trip is bit-exact;
//  * one `OPEN <zone> <network> <metric> <open_start> <n> <mean> <m2>`
//    line per stream with a non-empty open (not yet frozen) epoch,
//    carrying its Welford accumulator -- a coordinator killed mid-epoch
//    resumes exactly where it stopped instead of losing the partial epoch.
//    Streams whose open epoch is empty write no OPEN line: an empty epoch
//    re-aligns to floor(t / duration) * duration on the first
//    post-restart sample, identical to a fresh stream;
//  * one final `ALERTSEQ <pushed>` line recording the alert ring's high
//    sequence number, so a restarted coordinator resumes alert numbering
//    instead of restarting at 1 (which would silently rewind client
//    cursors).
//
// Every line is rendered and parsed by core::epoch_codec, the one text
// codec the WAL and the replication catch-up use too: std::to_chars at
// general precision 17 (the same bytes %.17g printed) and in-place
// std::from_chars parsing, one line at a time through a bounded read
// buffer -- a loader never holds the whole file.
//
// Snapshots are written and read through the narrow core::durable_state
// interface (src/core/durable_state.h), which sharded_coordinator
// implements; the durable_log checkpoint and recovery, the replication
// catch-up and the scenario restart all go through it. The
// crash-consistent WAL/snapshot *pair* built on top of these snapshots
// lives in core/durable_log.h.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/durable_state.h"

namespace wiscape::core {

/// Writes a coordinator's full estimate state (frozen + open epochs,
/// deterministically sorted) plus the alert sequence high-water mark,
/// through the durable_state interface. Quiesce producers (flush()) first
/// so in-flight reports are applied. Honours the
/// `persist_save` fault-injection site: an injected fault throws
/// std::runtime_error before anything is written, modelling a failed
/// snapshot (callers must treat a throw as "no snapshot taken").
void save_state(std::ostream& os, const durable_state& state);
/// The same rendering appended to `out` (the replication catch-up
/// snapshot renders straight into its cache).
void save_state(std::string& out, const durable_state& state);

/// Restores state saved by save_state into a coordinator with the same
/// grid / networks / config. Frozen epochs install through the idempotent
/// durable_state::restore_estimate, so the target may already hold some
/// of them (a follower catching up again after falling off the log). Must
/// be called before the target raises an alert: the ALERTSEQ line resumes
/// the alert ring's numbering, which alert_ring::resume_from only permits
/// on an untouched ring. Throws std::invalid_argument on malformed input.
void load_state(std::istream& is, durable_state& state);
/// The same, parsing an in-memory rendering in place.
void load_state(std::string_view text, durable_state& state);

}  // namespace wiscape::core
