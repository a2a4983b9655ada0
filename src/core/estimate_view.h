// The application-facing read API of the coordinator (the serving layer).
//
// WiScape's product is the per-(zone, network, metric) estimate: "the
// server aggregates client samples into per-zone per-epoch estimates ...
// and serves the estimates to applications" (paper Sec 3.4, applications in
// Sec 6). estimate_view is the *only* sanctioned way applications read
// those estimates -- src/apps and examples consume it, and the wire QUERY/
// ALERTS commands are a thin codec over it. Raw zone_table access is an
// implementation detail (coordinator::table_for_test for tests/benches).
//
// lookup() answers "what do we currently believe about stream (zone,
// network, metric)?" with the frozen estimate *plus* the serving context an
// application needs to trust it: which epoch it is (epoch_index), how old
// it is (staleness_s), and how close its sample count came to the zone's
// target (confidence, the paper's ~100-samples rule as a [0,1] ratio).
// lookup_batch() gives a whole frame of lookups the same answers in one
// pass whose mirror reads overlap their cache misses (the QUERYB path).
// alerts_since() incrementally drains the coordinator's >2-sigma change
// alerts by sequence-number cursor.
//
// Concurrency: the view serves a sharded_coordinator (a 1-shard synchronous
// one is the sequential configuration). Lookups read the owning shard's
// seqlock'd estimate mirror -- no shard lock, no stalls to drain workers,
// safe from any thread, and the returned triple is never torn (it is
// bit-for-bit an estimate the shard's sequential state machine published).
// keys() is the one cold exception: it enumerates under shard locks and is
// meant for tools, not the query hot path.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/alert_ring.h"
#include "core/sharded_coordinator.h"

namespace wiscape::core {

/// One served estimate: the frozen triple plus serving context.
struct served_estimate {
  std::uint64_t count = 0;        ///< samples in the frozen epoch
  double mean = 0.0;
  double stddev = 0.0;
  std::uint64_t epoch_index = 0;  ///< 0-based index into the stream's history
  double epoch_start_s = 0.0;     ///< when the frozen epoch began
  double staleness_s = -1.0;      ///< query time - epoch_start_s; -1 unknown
  double confidence = 0.0;        ///< min(1, count / target_samples)
};

/// One element of estimate_view::lookup_batch(): the stream and the
/// caller's clock go in, the served estimate comes out.
struct stream_lookup {
  geo::zone_id zone;
  std::uint16_t network_id = trace::no_network_id;
  trace::metric metric = trace::metric::tcp_throughput_bps;
  double now_s = -1.0;  ///< prices staleness_s; negative = unknown
  bool found = false;   ///< out: false where lookup() answers nullopt
  served_estimate est;  ///< out: the served estimate when found
};

class estimate_view {
 public:
  /// Serves a sharded coordinator (borrowed; must outlive the view).
  /// lookup()/alerts_since() are safe from any thread while ingestion runs.
  explicit estimate_view(const sharded_coordinator& coord)
      : coordinator_(&coord) {}

  /// Sample count at which an estimate is considered fully trustworthy
  /// ("around 100 measurement samples", paper Sec 1): confidence =
  /// min(1, count / target_samples).
  static constexpr double target_samples = 100.0;

  /// Latest published estimate of a stream, or nullopt before its first
  /// epoch rollover. `now_s` (the caller's clock) prices staleness_s;
  /// pass a negative value when unknown (staleness_s stays -1).
  std::optional<served_estimate> lookup(const geo::zone_id& zone,
                                        std::uint16_t network_id,
                                        trace::metric metric,
                                        double now_s = -1.0) const;

  /// lookup() over a batch, in place: every element's found/est end up
  /// exactly as lookup(zone, network_id, metric, now_s) would answer, for
  /// any shard count. Groups every 64 elements by the mirror that serves
  /// them, then reads each group through estimate_mirror::read_batch, so
  /// the mirror's cache misses overlap instead of queueing one lookup
  /// behind the next. The lookups/misses
  /// counters move once per call. Returns the number found.
  std::size_t lookup_batch(std::span<stream_lookup> batch) const;

  /// Name-keyed flavour. Only operators from the coordinator's network list
  /// resolve (the frozen wire interner) -- the same restriction the wire
  /// boundary has.
  std::optional<served_estimate> lookup(const geo::zone_id& zone,
                                        std::string_view network,
                                        trace::metric metric,
                                        double now_s = -1.0) const;

  /// Change alerts with sequence number > `since` (cursor semantics: feed
  /// the returned next_seq into the next call; `dropped` counts alerts
  /// evicted unseen by ring wraparound). At most `max` alerts per call.
  alert_drain alerts_since(std::uint64_t since, std::size_t max = 256) const;

  /// Interned id of `network` (trace::no_network_id when unknown). Matches
  /// the id space lookup() expects.
  std::uint16_t network_id_of(std::string_view network) const noexcept {
    return coordinator_->network_id_of(network);
  }

  /// All streams ever materialised. COLD: takes each shard's lock; for
  /// tools and enumeration, never the query hot path.
  std::vector<estimate_key> keys() const { return coordinator_->keys(); }

 private:
  /// The mirror that serves `zone`: its owning shard's.
  const estimate_mirror& mirror_of(const geo::zone_id& zone) const noexcept {
    return coordinator_->published_of(coordinator_->shard_of(zone));
  }
  /// Dresses a mirror read in the serving context (staleness, confidence).
  served_estimate serve(const published_estimate& p,
                        double now_s) const noexcept;

  const sharded_coordinator* coordinator_;
};

}  // namespace wiscape::core
