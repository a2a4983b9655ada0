#include "repl/epoch_log.h"

#include <algorithm>
#include <exception>

#include "obs/names.h"
#include "obs/registry.h"

namespace wiscape::repl {

namespace {
struct log_metrics {
  obs::counter& logged;
  obs::counter& evicted;
  obs::counter& pulls;
  obs::counter& pull_records;
};

log_metrics& metrics() {
  auto& reg = obs::registry::global();
  static log_metrics m{reg.get_counter(obs::names::kReplEpochsLogged),
                       reg.get_counter(obs::names::kReplLogEvicted),
                       reg.get_counter(obs::names::kReplPulls),
                       reg.get_counter(obs::names::kReplPullRecords)};
  return m;
}
}  // namespace

epoch_log::epoch_log(std::size_t capacity, core::durable_log* wal)
    : cap_(std::max<std::size_t>(capacity, 1)), wal_(wal) {}

void epoch_log::on_epoch(const core::estimate_key& key,
                         const core::epoch_estimate& e,
                         std::uint64_t alert_seq) {
  std::lock_guard lock(mu_);
  const std::uint64_t seq = next_seq_++;
  if (wal_ != nullptr) {
    // Durability is best-effort from the tap: the failure (including the
    // wal_append fault site) is already counted by the WAL layer, and a
    // rollover must never throw back into the ingest path.
    try {
      wal_->append(seq, key, e, alert_seq);
    } catch (const std::exception&) {
    }
  }
  ring_.push_back({seq, key, e, alert_seq});
  metrics().logged.inc();
  if (ring_.size() > cap_) {
    ring_.pop_front();
    metrics().evicted.inc();
  }
}

bool epoch_log::pull(std::uint64_t since_seq, std::uint32_t max,
                     std::vector<proto::epoch_update>& out) const {
  std::lock_guard lock(mu_);
  metrics().pulls.inc();
  const std::uint64_t base = ring_.empty() ? next_seq_ : ring_.front().seq;
  // Everything the puller needs (seq > since_seq) must still be retained:
  // a cursor below base-1 means evicted records would be skipped silently.
  if (since_seq + 1 < base) return false;
  std::size_t added = 0;
  // The ring is seq-ordered and dense; index straight to the first record
  // past the cursor instead of scanning.
  const std::uint64_t first =
      since_seq + 1 >= base ? since_seq + 1 - base : 0;
  for (std::size_t i = first; i < ring_.size() && added < max; ++i, ++added) {
    out.push_back(ring_[i]);
  }
  metrics().pull_records.inc(added);
  return true;
}

void epoch_log::reset(std::uint64_t next_seq) {
  std::lock_guard lock(mu_);
  ring_.clear();
  next_seq_ = std::max<std::uint64_t>(next_seq, 1);
}

std::uint64_t epoch_log::last_seq() const {
  std::lock_guard lock(mu_);
  return next_seq_ - 1;
}

}  // namespace wiscape::repl
