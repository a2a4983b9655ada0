#include "repl/replica.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <system_error>

#include "core/fault_injection.h"
#include "core/persist.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "proto/wire_v3.h"

namespace wiscape::repl {

namespace v3 = proto::v3;

namespace {
struct repl_metrics {
  obs::counter& snapshot_chunks;
  obs::counter& promotions;
  obs::counter& applied;
  obs::counter& merged;
  obs::counter& duplicates;
  obs::counter& lag_skips;
};

repl_metrics& metrics() {
  auto& reg = obs::registry::global();
  static repl_metrics m{reg.get_counter(obs::names::kReplSnapshotChunks),
                        reg.get_counter(obs::names::kReplPromotions),
                        reg.get_counter(obs::names::kReplEpochsApplied),
                        reg.get_counter(obs::names::kReplEpochsMerged),
                        reg.get_counter(obs::names::kReplDuplicates),
                        reg.get_counter(obs::names::kReplLagSkips)};
  return m;
}

/// Captures the catch-up snapshot: "REPLSEQ <seq>\n" + the persist state
/// rendering. `seq` is read *before* the state walk -- every record at or
/// below it rolled over before the walk started, so it is covered by the
/// snapshot; records that land mid-walk may appear in both the snapshot
/// and the pull that follows, which the idempotent re-apply absorbs.
void capture_snapshot(const core::sharded_coordinator& coord,
                      std::uint64_t seq, std::string& cache) {
  // Rendered in place: the cache keeps its capacity from capture to
  // capture. A failed render empties it, so a follower mid-fetch gets an
  // out-of-range error rather than a torn body.
  cache.assign("REPLSEQ ");
  cache += std::to_string(seq);
  cache += '\n';
  try {
    core::save_state(cache, coord);
  } catch (...) {
    cache.clear();
    throw;
  }
}

/// Serves one bounded slice of the captured snapshot.
bool serve_chunk(const std::string& cache, std::uint64_t offset,
                 std::string& data, std::uint64_t& total, bool& last) {
  total = cache.size();
  if (offset > total) return false;
  const std::size_t len = std::min<std::uint64_t>(
      v3::max_snapshot_chunk, total - offset);
  data.assign(cache, static_cast<std::size_t>(offset), len);
  last = offset + len == total;
  metrics().snapshot_chunks.inc();
  return true;
}
}  // namespace

leader::leader(core::sharded_coordinator& coord, std::size_t log_capacity,
               core::durable_log* wal)
    : coord_(&coord), log_(log_capacity, wal) {
  coord_->set_epoch_tap(&log_);
}

leader::~leader() { coord_->set_epoch_tap(nullptr); }

bool leader::pull(std::uint64_t since_seq, std::uint32_t max_records,
                  std::vector<proto::epoch_update>& out) {
  return log_.pull(since_seq, max_records, out);
}

bool leader::snapshot(std::uint64_t offset, std::string& data,
                      std::uint64_t& total, bool& last) {
  std::lock_guard lock(snap_mu_);
  if (offset == 0) capture_snapshot(*coord_, log_.last_seq(), snap_cache_);
  return serve_chunk(snap_cache_, offset, data, total, last);
}

std::uint64_t leader::apply(std::span<const proto::epoch_update> updates) {
  (void)updates;
  return 0;
}

follower::follower(core::sharded_coordinator& coord, std::size_t log_capacity,
                   core::durable_log* wal)
    : coord_(&coord), log_(log_capacity, wal) {}

follower::~follower() {
  if (promoted_.load(std::memory_order_acquire)) {
    coord_->set_epoch_tap(nullptr);
  }
}

bool follower::pull(std::uint64_t since_seq, std::uint32_t max_records,
                    std::vector<proto::epoch_update>& out) {
  return log_.pull(since_seq, max_records, out);
}

bool follower::snapshot(std::uint64_t offset, std::string& data,
                        std::uint64_t& total, bool& last) {
  std::lock_guard lock(apply_mu_);
  if (offset == 0) {
    capture_snapshot(
        *coord_,
        std::max(applied_seq_.load(std::memory_order_acquire), log_.last_seq()),
        snap_cache_);
  }
  return serve_chunk(snap_cache_, offset, data, total, last);
}

std::uint64_t follower::apply(std::span<const proto::epoch_update> updates) {
  std::lock_guard lock(apply_mu_);
  auto& m = metrics();
  std::uint64_t applied = 0;
  std::uint64_t cursor = applied_seq_.load(std::memory_order_relaxed);
  for (const auto& u : updates) {
    // The cursor is the dedup key: a retried or replayed batch re-sends
    // records the replica has already applied, and applying a frozen
    // epoch twice would double-count its samples.
    if (u.seq != 0 && u.seq <= cursor) {
      m.duplicates.inc();
      continue;
    }
    core::estimate_key key;
    key.zone = u.zone;
    key.network = u.network;
    key.metric = u.metric;
    core::epoch_estimate est;
    est.epoch_start_s = u.epoch_start_s;
    est.mean = u.mean;
    est.stddev = u.stddev;
    est.samples = static_cast<std::size_t>(u.samples);
    const bool was_merge = coord_->restore_estimate(key, est);
    m.applied.inc();
    if (was_merge) m.merged.inc();
    ++applied;
    if (u.seq > cursor) cursor = u.seq;
  }
  applied_seq_.store(cursor, std::memory_order_release);
  return applied;
}

bool follower::promote() {
  std::lock_guard lock(apply_mu_);
  if (promoted_.load(std::memory_order_relaxed)) return false;
  // Continue the leader's sequencing: a peer whose pull cursor is the old
  // leader's seq N keeps pulling from N here without a gap or an overlap.
  log_.reset(applied_seq_.load(std::memory_order_relaxed) + 1);
  coord_->set_epoch_tap(&log_);
  promoted_.store(true, std::memory_order_release);
  metrics().promotions.inc();
  return true;
}

std::optional<std::uint64_t> follower::poll(const transport& send) {
  // The scenario's stalled-replica-link model: skip this round entirely;
  // the next poll's cursor pulls everything missed (staleness grows,
  // nothing is lost).
  if (core::fault::fire(core::fault::site::replica_lag) ==
      core::fault::action::fail) {
    metrics().lag_skips.inc();
    return 0;
  }
  std::uint64_t applied = 0;
  for (;;) {
    v3::epoch_pull p;
    p.since_seq = applied_seq();
    p.max_records = static_cast<std::uint32_t>(v3::max_epoch_batch);
    const std::string reply = send(v3::encode_epoch_pull_frame(p));
    const auto hdr = v3::peek_header(reply);
    if (!hdr) {
      throw std::runtime_error("replication pull: malformed reply frame");
    }
    if (hdr->op == v3::opcode::err) {
      const auto err = v3::decode_error_frame(reply);
      if (err.code == proto::err_code::stopped) return std::nullopt;
      throw std::runtime_error("replication pull failed: " + err.detail);
    }
    const auto updates = v3::decode_epoch_batch_frame(reply);
    applied += apply(updates);
    // A short batch means the stream is drained through the leader's
    // current tail; a full one may have more behind it.
    if (updates.size() < v3::max_epoch_batch) return applied;
  }
}

void follower::catch_up(const transport& send) {
  std::string snap;
  std::uint64_t offset = 0;
  for (;;) {
    const std::string reply = send(v3::encode_snapshot_req_frame(offset));
    const auto hdr = v3::peek_header(reply);
    if (!hdr) {
      throw std::runtime_error("replication catch-up: malformed reply frame");
    }
    if (hdr->op == v3::opcode::err) {
      const auto err = v3::decode_error_frame(reply);
      throw std::runtime_error("replication catch-up failed: " + err.detail);
    }
    const auto chunk = v3::decode_snapshot_chunk_frame(reply);
    if (chunk.offset != offset) {
      throw std::runtime_error("replication catch-up: offset mismatch");
    }
    snap.append(chunk.data);
    offset += chunk.data.size();
    if (chunk.last) break;
    if (chunk.data.empty()) {
      throw std::runtime_error("replication catch-up: empty non-final chunk");
    }
  }
  const std::size_t nl = snap.find('\n');
  if (nl == std::string::npos || snap.compare(0, 8, "REPLSEQ ") != 0) {
    throw std::runtime_error("replication catch-up: missing REPLSEQ header");
  }
  std::uint64_t seq = 0;
  const char* last = snap.data() + nl;
  const auto parsed = std::from_chars(snap.data() + 8, last, seq);
  if (parsed.ec != std::errc{} || parsed.ptr != last) {
    throw std::runtime_error("replication catch-up: malformed REPLSEQ header");
  }
  std::lock_guard lock(apply_mu_);
  core::load_state(std::string_view(snap).substr(nl + 1), *coord_);
  applied_seq_.store(seq, std::memory_order_release);
}

}  // namespace wiscape::repl
