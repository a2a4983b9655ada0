// Lock-free published-estimate mirror: the read side of the serving layer.
//
// The zone table's frozen estimates are the product applications consume
// (paper Sec 3.4 "serves the estimates to applications"), but the table
// itself lives behind its shard's mutex and is mutated by drain workers.
// Taking that mutex on every application read would let a read-heavy
// workload (the ROADMAP's millions of querying clients) stall ingestion.
// Instead, every epoch rollover *publishes* the new frozen estimate into
// this mirror -- a write-once-per-epoch copy, negligible next to the
// per-sample work -- and readers retrieve it with a seqlock, never touching
// a lock the write path contends on.
//
// Concurrency contract:
//  * Exactly one writer at a time (publish/restore run inside zone_table
//    mutations, which the owning shard's mutex already serialises). The
//    writer never blocks on readers.
//  * Any number of readers, any thread, wait-free except for seqlock
//    retries while an epoch is being published (a few relaxed stores wide).
//  * TSan-clean by construction: the payload is relaxed atomics bracketed
//    by the acquire/release seqlock protocol (Boehm, "Can Seqlocks Get
//    Along With Programming Language Memory Models?"), and the directory is
//    an acquire/release-published pointer whose retired generations are
//    kept alive until destruction, so a reader can never touch freed
//    memory. A reader racing the insertion of a brand-new stream may miss
//    it (not-found) -- indistinguishable from querying a moment earlier.
//
// Key scheme: streams are keyed by the zone table's packed group key with
// the metric folded into the free bits -- see zone_table::pack_stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "core/zone_table.h"

namespace wiscape::core {

/// One published estimate as read back from the mirror.
struct published_estimate {
  std::uint64_t count = 0;   ///< samples folded into the frozen epoch
  double mean = 0.0;
  double stddev = 0.0;
  double epoch_start_s = 0.0;
  std::uint64_t epoch_index = 0;  ///< 0-based index into the frozen history
};

class estimate_mirror {
 public:
  estimate_mirror() = default;
  ~estimate_mirror();

  estimate_mirror(const estimate_mirror&) = delete;
  estimate_mirror& operator=(const estimate_mirror&) = delete;

  /// Publishes (or re-publishes) the stream's latest frozen estimate.
  /// Writer side only: callers must hold whatever serialises mutations of
  /// the owning zone_table (the shard mutex). `skey` is
  /// zone_table::pack_stream(...) and must be nonzero.
  void publish(std::uint64_t skey, const epoch_estimate& e,
               std::uint64_t epoch_index);

  /// Sizes the directory for `streams` streams in all, in one generation,
  /// so publishing that many retires no directory on the way. Writer side
  /// only, like publish(); never shrinks.
  void reserve(std::size_t streams);

  /// Reads a stream's latest published estimate. Lock-free; safe from any
  /// thread. Returns false when the stream has never published (or `skey`
  /// is 0, the out-of-range sentinel). Seqlock retries are counted into
  /// core.estimate_view.seqlock_retries.
  bool read(std::uint64_t skey, published_estimate& out) const noexcept;

  /// Keys read_batch() keeps in flight at once: one pass's worth of
  /// directory-entry and slot prefetches.
  static constexpr std::size_t batch_width = 64;

  /// read() over many keys: found[i] and out[i] end up exactly as
  /// read(keys[i], out[i]) would leave them, with the same seqlock
  /// protocol, but the cache misses overlap. Per batch_width keys, one pass
  /// prefetches every key's directory entry, a second probes the (now
  /// cached) directory and prefetches every slot it resolves, and a third
  /// does the seqlock reads; so a table far larger than the cache pays
  /// about two memory latencies per pass instead of two per key. The whole
  /// batch probes the one directory generation loaded at entry (a stream
  /// inserted after that answers not-found, as a read a moment earlier
  /// would). `out` and `found` hold at least keys.size() elements; an
  /// entry whose key is not found leaves out[i] untouched. Returns the
  /// keys found.
  std::size_t read_batch(std::span<const std::uint64_t> keys,
                         std::span<published_estimate> out,
                         std::span<bool> found) const noexcept;

  /// Streams that have published at least one estimate.
  std::size_t size() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

 private:
  // Seqlock'd per-stream snapshot. All fields are atomics so racing relaxed
  // accesses are defined behaviour; the seq protocol makes the 5-field
  // payload read atomic as a unit (no torn count/mean/stddev triples).
  struct alignas(64) slot {
    std::atomic<std::uint32_t> seq{0};  // odd = publish in progress
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> mean{0.0};
    std::atomic<double> stddev{0.0};
    std::atomic<double> epoch_start_s{0.0};
    std::atomic<std::uint64_t> epoch_index{0};
  };

  // Directory entry: the packed stream key plus the slot it resolves to.
  // The key is store-released after the slot pointer and the slot's first
  // payload, so a reader that observes the key (acquire) also observes a
  // valid pointer to a published estimate.
  struct dentry {
    std::atomic<std::uint64_t> key{0};  // 0 = empty
    std::atomic<slot*> s{nullptr};
  };

  struct directory {
    std::size_t mask = 0;  // capacity - 1 (pow2)
    std::unique_ptr<dentry[]> entries;
  };

  /// The slot `skey` (nonzero) resolves to in `d`, probing from its home
  /// entry `at`; nullptr when absent.
  static const slot* probe(const directory& d, std::uint64_t skey,
                           std::size_t at) noexcept;
  /// Seqlock reader protocol over one slot.
  static void read_slot(const slot& s, published_estimate& out) noexcept;

  /// The slot of `skey`. A new stream gets a slot whose directory entry
  /// holds the pointer but not yet the key: `fresh` is set to that entry,
  /// and publish() releases the key once the first payload is written.
  slot* find_or_insert(std::uint64_t skey, dentry*& fresh);
  void grow(std::size_t need);

  std::atomic<directory*> dir_{nullptr};
  std::atomic<std::size_t> count_{0};  // occupied entries (writer-updated)
  std::deque<slot> slots_;             // stable addresses; writer-only access
  // Superseded directories, kept until destruction so in-flight readers of
  // an old generation stay valid. Geometric growth bounds the total retired
  // footprint to ~1x the live directory.
  std::vector<std::unique_ptr<directory>> retired_;
};

}  // namespace wiscape::core
