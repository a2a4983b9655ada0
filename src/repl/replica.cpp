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

/// Fetches of one catch-up body before a refusal is final.
constexpr int kCatchUpAttempts = 4;

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
}  // namespace

replica::replica(core::sharded_coordinator& coord, role r,
                 std::size_t log_capacity, core::durable_log* wal)
    : coord_(&coord), log_(log_capacity, wal), role_(r) {
  if (r == role::leader) coord_->set_epoch_tap(&log_);
}

replica::~replica() {
  if (promoted()) coord_->set_epoch_tap(nullptr);
}

bool replica::pull(std::uint64_t since_seq, std::uint32_t max_records,
                   std::vector<proto::epoch_update>& out) {
  return log_.pull(since_seq, max_records, out);
}

bool replica::snapshot(std::uint64_t offset, std::string& data,
                       std::uint64_t& total, bool& last) {
  std::lock_guard lock(mu_);
  if (offset == 0) {
    // "REPLSEQ <seq>\n" + the persist state rendering, in place (the cache
    // keeps its capacity from capture to capture). The fence is read
    // *before* the state walk: every record at or below it is covered by
    // the snapshot; records that land mid-walk may appear in both the
    // snapshot and the pull that follows, which the idempotent re-apply
    // absorbs. A failed render empties the cache, so a follower mid-fetch
    // gets an out-of-range error rather than a torn body.
    snap_cache_.assign("REPLSEQ ");
    snap_cache_ += std::to_string(std::max(applied_seq(), log_.last_seq()));
    snap_cache_ += '\n';
    try {
      core::save_state(snap_cache_, *coord_);
    } catch (...) {
      snap_cache_.clear();
      throw;
    }
  }
  total = snap_cache_.size();
  if (offset > total) return false;
  const std::size_t len =
      std::min<std::uint64_t>(v3::max_snapshot_chunk, total - offset);
  data.assign(snap_cache_, static_cast<std::size_t>(offset), len);
  last = offset + len == total;
  metrics().snapshot_chunks.inc();
  return true;
}

std::uint64_t replica::apply(std::span<const proto::epoch_update> updates) {
  std::lock_guard lock(mu_);
  if (role_.load(std::memory_order_relaxed) == role::leader) return 0;
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
    const bool was_merge = coord_->restore_estimate(u.key, u.est);
    m.applied.inc();
    if (was_merge) m.merged.inc();
    ++applied;
    if (u.seq > cursor) cursor = u.seq;
    alert_mark_ = std::max(alert_mark_, u.alert_seq);
  }
  applied_seq_.store(cursor, std::memory_order_release);
  return applied;
}

bool replica::promote() {
  std::lock_guard lock(mu_);
  if (role_.load(std::memory_order_relaxed) == role::leader) return false;
  // Continue the leader's sequencing: a peer whose pull cursor is the old
  // leader's seq N keeps pulling from N here without a gap or an overlap.
  log_.reset(applied_seq_.load(std::memory_order_relaxed) + 1);
  // And its alert numbering, after the highest alert applied, unless this
  // coordinator numbered alerts of its own.
  coord_->resume_alert_seq_ahead(alert_mark_);
  coord_->set_epoch_tap(&log_);
  role_.store(role::leader, std::memory_order_release);
  metrics().promotions.inc();
  return true;
}

std::optional<std::uint64_t> replica::poll(const transport& send) {
  // The scenario's stalled-replica-link model: skip this round entirely;
  // the next poll's cursor pulls everything missed (staleness grows,
  // nothing is lost).
  if (core::fault::fire(core::fault::site::replica_lag) ==
      core::fault::action::fail) {
    metrics().lag_skips.inc();
    return 0;
  }
  proto::client leader(send, proto::client::framing::v3);
  std::uint64_t applied = 0;
  for (;;) {
    std::span<const proto::epoch_update> updates;
    try {
      updates = leader.pull(applied_seq(),
                            static_cast<std::uint32_t>(v3::max_epoch_batch));
    } catch (const proto::reply_error& e) {
      if (e.code() == proto::err_code::stopped) return std::nullopt;
      throw;
    }
    applied += apply(updates);
    // A short batch means the stream is drained through the leader's
    // current tail; a full one may have more behind it.
    if (updates.size() < v3::max_epoch_batch) return applied;
  }
}

void replica::catch_up(const transport& send) {
  proto::client leader(send, proto::client::framing::v3);
  for (int attempt = 1;; ++attempt) {
    std::string snap;
    std::uint64_t offset = 0;
    for (;;) {
      // The chunk's bytes alias the client's reply; appending them is the
      // one copy each chunk takes.
      const v3::snapshot_chunk chunk = leader.snapshot(offset);
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
      throw std::runtime_error(
          "replication catch-up: malformed REPLSEQ header");
    }
    std::lock_guard lock(mu_);
    try {
      core::load_state(std::string_view(snap).substr(nl + 1), *coord_);
    } catch (const std::invalid_argument&) {
      // Another joiner's offset-0 request re-captures the leader's cache,
      // so a body fetched across it is torn. load_state refuses it before
      // installing anything; fetch it again.
      if (attempt == kCatchUpAttempts) throw;
      continue;
    }
    applied_seq_.store(seq, std::memory_order_release);
    return;
  }
}

}  // namespace wiscape::repl
