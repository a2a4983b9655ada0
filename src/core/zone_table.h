// The zone table: WiScape's per-(zone, network, metric) estimate store.
//
// For each key the table accumulates the current epoch's samples, and on
// epoch rollover freezes them into the zone's published estimate. A new
// estimate that moved by more than `change_sigma_factor` standard deviations
// from the previous one raises a change alert ("the server checks if the
// measured statistic has changed substantially from its previous update,
// say by more than twice the standard deviation", Sec 3.4).
//
// Storage is a dense interned layout (ISSUE 4): network names are interned
// to u16 ids (core::network_interner) and each (zone, network) pair packs
// into one u64 group key -- zone ix:24 | zone iy:24 | network id:12 -- that
// indexes an open-addressing directory. One 32-byte directory slot holds
// the group key AND the six per-metric stream indices, so a record's whole
// metric fold (1-3 applies) costs a single integer-hash probe touching one
// cache line; per-stream state lives in insertion-ordered parallel vectors
// split hot (open-epoch accumulator) / cold (frozen history + unpacked
// key). The apply path (the id-based add_sample overload) hashes one
// integer, allocates nothing, and a one-entry last-group memo
// short-circuits the probe for consecutive samples from the same zone and
// operator. The string-keyed API is preserved for readers and persistence;
// its lookups go through the interner's transparent hash, so they are
// allocation-free too.
//
// Epoch fast-forward invariant: when a sample lands k >= 1 epochs past the
// open epoch, exactly one rollover publishes (the open epoch, if it has
// samples) and the k-1 intervening *empty* epochs publish nothing, so the
// boundary is advanced in O(1) with one fused multiply-add instead of one
// loop iteration per elapsed epoch. The jump is bit-identical to the seed's
// iterated `open_start += duration` walk whenever fp addition of the
// duration is exact -- integral-second durations in particular, which is
// every duration this system produces -- and a bounded tail loop absorbs
// any fp residue so the boundary never overshoots the sample's time
// (tests/apply_path_test.cpp pins this against the frozen seed loop).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/network_interner.h"
#include "geo/zone_grid.h"
#include "trace/record.h"

namespace wiscape::core {

class estimate_mirror;
class alert_ring;

/// Key of one estimate stream (the boundary/reader form; the hot path works
/// on the packed form below).
struct estimate_key {
  geo::zone_id zone;
  std::string network;
  trace::metric metric;

  friend bool operator==(const estimate_key&, const estimate_key&) = default;
};

struct estimate_key_hash {
  std::size_t operator()(const estimate_key& k) const noexcept;
};

/// A published (frozen) per-epoch estimate.
struct epoch_estimate {
  double epoch_start_s = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t samples = 0;
};

/// The open (not yet frozen) epoch of one stream, in the exact Welford form
/// the accumulator carries -- persisted verbatim so a restored coordinator's
/// next rollover publishes bit-for-bit what the uninterrupted one would
/// (core::persist round-trips their raw IEEE-754 bits).
struct open_epoch_state {
  double open_start_s = 0.0;
  std::uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;
};

/// Observer of epoch rollovers (the replication tap, ISSUE 10). Fired once
/// per frozen estimate, right after it is appended to the stream's history
/// and published to the mirror -- the exact replication unit the epoch
/// stream ships to followers. restore_stream() does NOT fire it: replayed
/// or replicated state is not a new rollover (a follower must not re-log
/// epochs it merely applied). Invoked inside the table's own
/// mutations -- drain-worker threads in sharded mode -- so an
/// implementation shared across shards must be thread-safe. The table
/// calls the three-argument form; a tap overrides one of the two, and each
/// form's default forwards to the other.
class epoch_tap {
 public:
  virtual ~epoch_tap() = default;
  /// One frozen epoch and the number alert_ring::push gave the change
  /// alert its freeze raised (0: none, or no alert sink).
  virtual void on_epoch(const estimate_key& key, const epoch_estimate& est,
                        std::uint64_t alert_seq) {
    (void)alert_seq;
    on_epoch(key, est);
  }
  /// The same for a tap that keeps no alert numbers.
  virtual void on_epoch(const estimate_key& key, const epoch_estimate& est) {
    on_epoch(key, est, 0);
  }
};

/// Raised when an epoch's estimate moved substantially vs the previous one.
/// The table keeps no copy: it counts the alert and pushes it into its
/// alert sink (core::alert_ring), bounded and sequenced.
struct change_alert {
  estimate_key key;
  double epoch_start_s = 0.0;
  double previous_mean = 0.0;
  double new_mean = 0.0;
  double previous_stddev = 0.0;
};

class zone_table {
 public:
  /// Alert threshold in units of the previous epoch's stddev ("more than
  /// twice the standard deviation", Sec 3.4).
  static constexpr double change_sigma_factor = 2.0;

  /// `networks` pre-interns the coordinator's operator list so ids 0..n-1
  /// match the vector order on every shard; networks first seen in reports
  /// are interned on the cold path.
  explicit zone_table(const std::vector<std::string>& networks = {})
      : interner_(networks) {}

  /// True when `zone` fits the packed +/-2^23 cell range. Callers feeding
  /// wire-derived coordinates must reject out-of-range zones up front:
  /// add_sample throws on them, and a throw escaping an async drain worker
  /// would terminate the process.
  static bool zone_in_range(const geo::zone_id& zone) noexcept {
    return zone.ix >= -kCoordLimit && zone.ix < kCoordLimit &&
           zone.iy >= -kCoordLimit && zone.iy < kCoordLimit;
  }

  /// Packed serving-layer stream key: the directory's group key (tag bit 63
  /// | ix:24 | iy:24 | network id:12) with the metric folded into the free
  /// bits 60..62. Returns 0 (never a valid key -- the tag bit is always
  /// set) when the zone or network id is out of packed range, so read paths
  /// can treat out-of-range lookups as plain not-found instead of throwing.
  static std::uint64_t pack_stream(const geo::zone_id& zone,
                                   std::uint16_t network_id,
                                   trace::metric metric) noexcept {
    if (!zone_in_range(zone) || network_id >= network_interner::max_networks) {
      return 0;
    }
    const auto bx = static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(zone.ix) & 0xFFFFFFu);
    const auto by = static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(zone.iy) & 0xFFFFFFu);
    return (1ull << 63) | (static_cast<std::uint64_t>(metric) << 60) |
           (bx << 36) | (by << 12) | static_cast<std::uint64_t>(network_id);
  }

  /// Attaches the serving-layer sinks: every epoch rollover (and install)
  /// publishes the frozen estimate into `mirror`, and every change alert is
  /// pushed into `alerts` with a sequence number -- the ring is the only
  /// place an alert is kept. Either may be null (not published; an alert
  /// raised without a ring is only counted, see alerts_raised()). The
  /// sinks must outlive the table; writes into them happen inside the
  /// table's own mutations, so they inherit whatever serialisation the
  /// caller provides for those (the shard mutex).
  void set_sinks(estimate_mirror* mirror, alert_ring* alerts) noexcept {
    mirror_ = mirror;
    alert_sink_ = alerts;
  }
  /// Re-points just the alert sink (sharded mode shares one global ring
  /// across shards so alert sequence numbers are totally ordered).
  void set_alert_sink(alert_ring* alerts) noexcept { alert_sink_ = alerts; }

  /// Attaches the epoch-rollover tap (nullptr = none). Same lifetime and
  /// serialisation rules as set_sinks; install before ingesting.
  void set_epoch_tap(epoch_tap* tap) noexcept { epoch_tap_ = tap; }

  /// Adds one sample to the current epoch of `key`. `epoch_duration_s` is
  /// the zone's current epoch length (rollover happens when a sample lands
  /// past the epoch end). Throws std::invalid_argument if
  /// epoch_duration_s <= 0 or the zone exceeds the packed +/-2^23 cell
  /// range. Interns the key's network on first sight (std::length_error
  /// past the interner cap).
  void add_sample(const estimate_key& key, double time_s, double value,
                  double epoch_duration_s);

  /// The allocation-free apply path: same contract, keyed by an interned
  /// network id (see interner()). Defined inline below -- the happy path
  /// (existing stream, open epoch) folds into the caller's loop.
  void add_sample(const geo::zone_id& zone, std::uint16_t network_id,
                  trace::metric metric, double time_s, double value,
                  double epoch_duration_s);

  /// splitmix64 finalizer: full-avalanche mix of a packed key, so linear
  /// probing sees well-scattered slots even for clustered zone coordinates.
  /// Every open-addressed directory over zone keys (this table's, the
  /// zone planner's directory, the estimate mirror's) hashes with it.
  static std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  // ---- batched apply (coordinator::report_batch) ---------------------------
  // A batch resolves every record before it applies any, so the cache
  // misses of many records overlap: prefetch_group() puts a record's
  // directory slot in flight, stream_of() later probes the cached slot and
  // prefetch_stream() puts the stream's accumulator in flight, and
  // add_to_stream() folds the sample into it. Stream indices are stable
  // for the table's lifetime; a stream stream_of() did not find yet goes
  // through add_sample(), which creates it.

  /// Sentinel of stream_of(): the group or the stream does not exist.
  static constexpr std::size_t no_stream = static_cast<std::size_t>(-1);

  /// The directory key of (zone, network id). Same range checks (and
  /// throws) as add_sample.
  static std::uint64_t group_key(const geo::zone_id& zone,
                                 std::uint16_t network_id) {
    return pack_group(zone, network_id);
  }
  /// Starts loading the directory slot a group key probes first.
  void prefetch_group(std::uint64_t gkey) const noexcept {
    if (slot_mask_ != 0) {
      __builtin_prefetch(&slots_[static_cast<std::size_t>(mix64(gkey)) &
                                 slot_mask_]);
    }
  }
  /// Index of the stream (group key, metric), or no_stream.
  std::size_t stream_of(std::uint64_t gkey, trace::metric metric) const
      noexcept {
    const std::size_t slot = find_group(gkey);
    if (slot == npos_index) return no_stream;
    const std::uint32_t val =
        slots_[slot].streams[static_cast<std::size_t>(metric)];
    return val == 0 ? no_stream : val - 1;
  }
  /// Starts loading a stream's accumulator for an add_to_stream().
  void prefetch_stream(std::size_t stream) const noexcept {
    __builtin_prefetch(&hot_[stream], 1);
  }
  /// add_sample() into an existing stream found by stream_of().
  void add_to_stream(std::size_t stream, double time_s, double value,
                     double epoch_duration_s) {
    check_duration(epoch_duration_s);
    fold(stream, time_s, value, epoch_duration_s);
  }
  /// Samples in the open epoch of a stream found by stream_of() (the
  /// coordinator reads it right after a fold, from the line just written).
  std::size_t open_samples(std::size_t stream) const noexcept {
    return hot_[stream].open.n;
  }

  /// Latest frozen estimate for a key (nullopt before the first rollover).
  std::optional<epoch_estimate> latest(const estimate_key& key) const;

  /// Samples accumulated in the currently-open epoch of `key`.
  std::size_t open_epoch_samples(const estimate_key& key) const;
  /// Id-keyed flavour for allocation-free callers (coordinator::checkin).
  std::size_t open_epoch_samples(const geo::zone_id& zone,
                                 std::uint16_t network_id,
                                 trace::metric metric) const;

  /// Full history of frozen estimates for a key (time order), copied.
  /// Prefer history_view() unless the result must outlive the table (or the
  /// lock protecting it).
  std::vector<epoch_estimate> history(const estimate_key& key) const;

  /// Non-copying view of a key's frozen history. Invalidated by the next
  /// mutating call (add_sample/restore_stream) -- use only while the table
  /// is stable (e.g. under the owning shard's lock, or in single-threaded
  /// tools/benches).
  std::span<const epoch_estimate> history_view(const estimate_key& key) const;
  std::span<const epoch_estimate> history_view(const geo::zone_id& zone,
                                               std::uint16_t network_id,
                                               trace::metric metric) const;

  /// Change alerts raised so far, whether or not a sink was attached. The
  /// alerts themselves live only in the alert sink, which is bounded: a
  /// monitor that never stops must not keep every alert it ever raised.
  std::uint64_t alerts_raised() const noexcept { return alerts_raised_; }

  /// All keys ever seen (stream-creation order).
  std::vector<estimate_key> keys() const;

  /// Installs one stream's saved state -- the one way a frozen epoch
  /// enters the table (snapshot load, WAL replay, replication). Each epoch
  /// of `frozen`, in the order given, goes through one rule: it lands in
  /// epoch order; a bitwise-equal re-delivery is a no-op, so overlapping
  /// feeds never double-count; a different estimate for a held epoch comes
  /// from a disjoint client population and the two Welford summaries
  /// combine, with canonically ordered operands so the merge is bitwise
  /// commutative. Installing epoch E closes it: an open epoch starting at
  /// or before E is emptied and the boundary moves to E +
  /// `epoch_duration_s` (the zone's epoch length), so no later sample can
  /// freeze E a second time. Then `open`, when given, replaces the open
  /// epoch's accumulator verbatim (open epochs are unpublished by
  /// definition; the state feeds the stream's next rollover). No alert,
  /// no tap; when an epoch changed, the mirror republishes the stream's
  /// newest epoch once. The stream is created when absent, unless there is
  /// nothing to install. Returns how many epochs met a held epoch. Throws
  /// std::invalid_argument if epoch_duration_s <= 0.
  std::size_t restore_stream(const estimate_key& key,
                             std::span<const epoch_estimate> frozen,
                             const open_epoch_state* open,
                             double epoch_duration_s);

  /// restore_stream() of one frozen epoch: true when it met a held epoch,
  /// false on a fresh insert.
  bool merge_estimate(const estimate_key& key, const epoch_estimate& estimate,
                      double epoch_duration_s) {
    return restore_stream(key, {&estimate, 1}, nullptr, epoch_duration_s) != 0;
  }

  /// Sizes the stream vectors and the mirror's directory for `streams`
  /// streams in all, so a load that creates them reallocates neither. A
  /// hint: it never shrinks anything, and a wrong one costs only memory.
  void reserve_streams(std::size_t streams);

  /// Open-epoch accumulator of a key, or nullopt when the stream is absent
  /// or its open epoch is empty (an empty open epoch carries no state worth
  /// persisting: rollover publishes nothing from it, and the boundary
  /// re-aligns identically from the next sample's timestamp).
  std::optional<open_epoch_state> open_state(const estimate_key& key) const;

  /// The table's network id assignment. Mutating it (id_of) outside the
  /// table's own apply path is allowed -- ids are append-only -- but must
  /// be serialised with every other table call.
  const network_interner& interner() const noexcept { return interner_; }
  network_interner& interner() noexcept { return interner_; }

 private:
  static constexpr std::int32_t kCoordLimit = 1 << 23;  // packed cell range

  // Inline open-epoch accumulator: 24 bytes, replicating
  // stats::running_stats' Welford update bit-for-bit for the three moments
  // an epoch_estimate publishes (count/mean/stddev). min/max are dropped --
  // no published estimate consumes them -- and the add inlines into the
  // apply loop instead of the out-of-line running_stats::add call.
  struct epoch_accum {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;

    void add(double x) noexcept {
      ++n;
      const double delta = x - mean;
      mean += delta / static_cast<double>(n);
      m2 += delta * (x - mean);
    }
    double variance() const noexcept {
      return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
    }
    double stddev() const noexcept { return std::sqrt(variance()); }
    bool empty() const noexcept { return n == 0; }
    void reset() noexcept { *this = epoch_accum{}; }
  };

  // open_start_s of a stream with no epoch yet. Every finite start --
  // negative ones included, for streams whose data time starts before 0 --
  // is a real epoch boundary, and -inf is <= every epoch an install closes.
  static constexpr double kNoEpoch = -std::numeric_limits<double>::infinity();

  // Per-stream state is split hot/cold so the per-sample apply touches as
  // few cache lines as possible: `hot_state` (32 bytes) is everything the
  // happy path reads and writes; the frozen history and the unpacked key
  // live in a parallel cold vector only rollovers and readers visit.
  struct hot_state {
    epoch_accum open;                 // accumulating epoch
    double open_start_s = kNoEpoch;   // start of the open epoch
  };
  static_assert(sizeof(hot_state) == 32);
  struct cold_state {
    std::vector<epoch_estimate> frozen;
    estimate_key key;                 // unpacked, for keys()/alerts
    std::uint64_t skey = 0;           // pack_stream key, for mirror publish
  };
  // One directory slot covers a whole (zone, network) group: the packed
  // group key plus stream index+1 per metric (0 = not materialized). 32
  // bytes -- two per cache line -- so a record's full metric fold resolves
  // every stream it touches with a single probe.
  struct gslot {
    std::uint64_t key = 0;  // 0 = empty slot (group keys always set bit 63)
    std::uint32_t streams[trace::metric_count] = {};
  };
  static_assert(sizeof(gslot) == 32);

  /// Packs (zone, network id) into the directory key: tag bit 63 (so no
  /// valid group packs to 0, the empty-slot marker) | ix:24 | iy:24 | id:12.
  /// Throws std::invalid_argument past the +/-2^23 cell range or when
  /// network_id exceeds the interner cap (masking would silently alias
  /// npos onto id 4095's streams).
  static std::uint64_t pack_group(const geo::zone_id& zone,
                                  std::uint16_t network_id);
  static void check_duration(double epoch_duration_s) {
    if (!(epoch_duration_s > 0.0)) {
      throw std::invalid_argument("epoch duration must be positive");
    }
  }
  /// Folds one sample into stream `index`'s open epoch, rolling it over
  /// first when the sample lands past it.
  void fold(std::size_t index, double time_s, double value,
            double epoch_duration_s);
  [[noreturn]] static void throw_zone_range(const geo::zone_id& zone);
  [[noreturn]] static void throw_network_range(std::uint16_t network_id);

  /// Directory slot of a group key, or npos when absent. Warms the memo.
  std::size_t find_group(std::uint64_t gkey) const noexcept;
  /// Directory slot of a group key, inserted on first sight (cold path;
  /// may grow the directory, invalidating previously returned slots).
  std::size_t create_group(std::uint64_t gkey);
  /// Rare path of add_sample: the sample landed past the open epoch --
  /// publish the open epoch and fast-forward the boundary.
  void cross_epochs(std::size_t index, double time_s, double epoch_duration_s);
  /// Stream index of (zone, network id, metric), creating the group and
  /// the stream on first sight. Same range checks (and throws) as
  /// add_sample.
  std::size_t find_or_create_stream(const geo::zone_id& zone,
                                    std::uint16_t network_id,
                                    trace::metric metric);
  /// Stream index for (group slot, metric), creating hot/cold state on
  /// first sight of this metric within the group.
  std::size_t materialize_stream(std::size_t slot, const geo::zone_id& zone,
                                 std::uint16_t network_id,
                                 trace::metric metric);
  /// Reader-path stream lookup: npos when the group or metric is absent.
  std::size_t find_stream(const geo::zone_id& zone, std::uint16_t network_id,
                          trace::metric metric) const noexcept;
  void grow_slots();
  void rollover(std::size_t index);

  static constexpr std::size_t npos_index = static_cast<std::size_t>(-1);

  network_interner interner_;
  std::vector<hot_state> hot_;         // dense, stream-creation-ordered
  std::vector<cold_state> cold_;       // parallel to hot_
  std::vector<gslot> slots_;           // open-addressing directory, pow2
  std::size_t slot_mask_ = 0;          // capacity-1; 0 = no slots yet
  std::size_t group_count_ = 0;        // occupied directory slots
  // One-entry group memo: consecutive reports overwhelmingly come from the
  // same (zone, network), so the last directory hit short-circuits the probe.
  mutable std::uint64_t memo_key_ = 0;  // 0 = invalid
  mutable std::size_t memo_slot_ = 0;
  std::uint64_t alerts_raised_ = 0;    // change alerts raised, lifetime
  estimate_mirror* mirror_ = nullptr;  // serving-layer estimate sink
  alert_ring* alert_sink_ = nullptr;   // serving-layer alert sink
  epoch_tap* epoch_tap_ = nullptr;     // replication tap (rollovers only)

};

// ---- inline apply path ------------------------------------------------------

inline std::uint64_t zone_table::pack_group(const geo::zone_id& zone,
                                            std::uint16_t network_id) {
  if (!zone_in_range(zone)) throw_zone_range(zone);
  if (network_id >= network_interner::max_networks) {
    throw_network_range(network_id);
  }
  // tag:1 | ix:24 | iy:24 | network:12. The interner caps ids at 4096 (12
  // bits, checked above so npos can never alias a valid id); the tag bit
  // keeps the all-zero group distinct from the empty slot marker.
  const auto bx = static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(zone.ix) & 0xFFFFFFu);
  const auto by = static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(zone.iy) & 0xFFFFFFu);
  return (1ull << 63) | (bx << 36) | (by << 12) |
         static_cast<std::uint64_t>(network_id);
}

inline std::size_t zone_table::find_group(std::uint64_t gkey) const noexcept {
  if (memo_key_ == gkey) return memo_slot_;
  if (slot_mask_ == 0) return npos_index;
  std::size_t slot = static_cast<std::size_t>(mix64(gkey)) & slot_mask_;
  while (slots_[slot].key != 0) {
    if (slots_[slot].key == gkey) {
      memo_key_ = gkey;
      memo_slot_ = slot;
      return slot;
    }
    slot = (slot + 1) & slot_mask_;
  }
  return npos_index;
}

inline std::size_t zone_table::find_or_create_stream(
    const geo::zone_id& zone, std::uint16_t network_id,
    trace::metric metric) {
  const std::uint64_t gkey = pack_group(zone, network_id);
  std::size_t slot = find_group(gkey);
  if (slot == npos_index) slot = create_group(gkey);
  const std::uint32_t val =
      slots_[slot].streams[static_cast<std::size_t>(metric)];
  return val != 0 ? val - 1
                  : materialize_stream(slot, zone, network_id, metric);
}

inline void zone_table::add_sample(const geo::zone_id& zone,
                                   std::uint16_t network_id,
                                   trace::metric metric, double time_s,
                                   double value, double epoch_duration_s) {
  check_duration(epoch_duration_s);
  fold(find_or_create_stream(zone, network_id, metric), time_s, value,
       epoch_duration_s);
}

inline void zone_table::fold(std::size_t index, double time_s, double value,
                             double epoch_duration_s) {
  hot_state& s = hot_[index];
  if (s.open_start_s == kNoEpoch) {
    // Align the first epoch boundary to a multiple of the duration so
    // different clients agree on epoch edges.
    s.open_start_s = std::floor(time_s / epoch_duration_s) * epoch_duration_s;
  }
  if (time_s >= s.open_start_s + epoch_duration_s) {
    cross_epochs(index, time_s, epoch_duration_s);
  }
  s.open.add(value);
}

}  // namespace wiscape::core
