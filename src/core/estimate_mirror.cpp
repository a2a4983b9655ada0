#include "core/estimate_mirror.h"

#include <algorithm>

#include "obs/names.h"
#include "obs/registry.h"

namespace wiscape::core {

namespace {

obs::counter& seqlock_retries() {
  static obs::counter& c = obs::registry::global().get_counter(
      obs::names::kEstimateViewSeqlockRetries);
  return c;
}

}  // namespace

estimate_mirror::~estimate_mirror() {
  delete dir_.load(std::memory_order_relaxed);
}

void estimate_mirror::grow(std::size_t need) {
  directory* old = dir_.load(std::memory_order_relaxed);
  std::size_t cap = old == nullptr ? 64 : (old->mask + 1);
  // Keep the directory under 1/2 load, same policy as the zone table.
  while (cap < need * 2) cap *= 2;
  auto next = std::make_unique<directory>();
  next->mask = cap - 1;
  next->entries = std::make_unique<dentry[]>(cap);
  if (old != nullptr) {
    for (std::size_t i = 0; i <= old->mask; ++i) {
      const std::uint64_t k = old->entries[i].key.load(std::memory_order_relaxed);
      if (k == 0) continue;
      slot* s = old->entries[i].s.load(std::memory_order_relaxed);
      std::size_t at =
          static_cast<std::size_t>(zone_table::mix64(k)) & next->mask;
      while (next->entries[at].key.load(std::memory_order_relaxed) != 0) {
        at = (at + 1) & next->mask;
      }
      // Pre-publication stores: the new directory is private until the
      // release store of dir_ below makes it (and these writes) visible.
      next->entries[at].s.store(s, std::memory_order_relaxed);
      next->entries[at].key.store(k, std::memory_order_relaxed);
    }
  }
  directory* fresh = next.release();
  dir_.store(fresh, std::memory_order_release);
  // Readers may still be probing `old`; retire it instead of freeing.
  if (old != nullptr) retired_.emplace_back(old);
}

void estimate_mirror::reserve(std::size_t streams) {
  const directory* d = dir_.load(std::memory_order_relaxed);
  const std::size_t cap = d == nullptr ? 0 : d->mask + 1;
  if (streams * 2 > cap) grow(streams);
}

estimate_mirror::slot* estimate_mirror::find_or_insert(std::uint64_t skey,
                                                        dentry*& fresh) {
  directory* d = dir_.load(std::memory_order_relaxed);
  const std::size_t occupied = count_.load(std::memory_order_relaxed);
  if (d == nullptr || (occupied + 1) * 2 > d->mask + 1) {
    grow(occupied + 1);
    d = dir_.load(std::memory_order_relaxed);
  }
  std::size_t at = static_cast<std::size_t>(zone_table::mix64(skey)) & d->mask;
  for (;;) {
    const std::uint64_t k = d->entries[at].key.load(std::memory_order_relaxed);
    if (k == skey) return d->entries[at].s.load(std::memory_order_relaxed);
    if (k == 0) break;
    at = (at + 1) & d->mask;
  }
  slots_.emplace_back();
  slot* s = &slots_.back();
  d->entries[at].s.store(s, std::memory_order_relaxed);
  fresh = &d->entries[at];
  return s;
}

void estimate_mirror::publish(std::uint64_t skey, const epoch_estimate& e,
                              std::uint64_t epoch_index) {
  if (skey == 0) return;  // out-of-range sentinel: nothing to serve
  dentry* fresh = nullptr;
  slot* s = find_or_insert(skey, fresh);
  // Seqlock writer protocol: mark the slot in flux (odd), fence, store the
  // payload, then release-publish the even sequence.
  const std::uint32_t seq = s->seq.load(std::memory_order_relaxed);
  s->seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s->count.store(static_cast<std::uint64_t>(e.samples),
                 std::memory_order_relaxed);
  s->mean.store(e.mean, std::memory_order_relaxed);
  s->stddev.store(e.stddev, std::memory_order_relaxed);
  s->epoch_start_s.store(e.epoch_start_s, std::memory_order_relaxed);
  s->epoch_index.store(epoch_index, std::memory_order_relaxed);
  s->seq.store(seq + 2, std::memory_order_release);
  if (fresh != nullptr) {
    // A new stream's key is released only now, after the pointer and the
    // first payload: a reader that acquires the key finds a published
    // estimate, never the slot's all-zero initial state.
    fresh->key.store(skey, std::memory_order_release);
    count_.store(count_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
  }
}

const estimate_mirror::slot* estimate_mirror::probe(const directory& d,
                                                    std::uint64_t skey,
                                                    std::size_t at) noexcept {
  for (;;) {
    const std::uint64_t k = d.entries[at].key.load(std::memory_order_acquire);
    if (k == skey) return d.entries[at].s.load(std::memory_order_relaxed);
    if (k == 0) return nullptr;  // possibly racing an insert: not-found
    at = (at + 1) & d.mask;
  }
}

void estimate_mirror::read_slot(const slot& s,
                                published_estimate& out) noexcept {
  // Valid only when the sequence was even and unchanged across the
  // payload reads.
  for (;;) {
    const std::uint32_t s1 = s.seq.load(std::memory_order_acquire);
    if ((s1 & 1u) == 0u) {
      out.count = s.count.load(std::memory_order_relaxed);
      out.mean = s.mean.load(std::memory_order_relaxed);
      out.stddev = s.stddev.load(std::memory_order_relaxed);
      out.epoch_start_s = s.epoch_start_s.load(std::memory_order_relaxed);
      out.epoch_index = s.epoch_index.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) == s1) return;
    }
    seqlock_retries().inc();
  }
}

bool estimate_mirror::read(std::uint64_t skey,
                           published_estimate& out) const noexcept {
  if (skey == 0) return false;
  const directory* d = dir_.load(std::memory_order_acquire);
  if (d == nullptr) return false;
  const slot* s =
      probe(*d, skey,
            static_cast<std::size_t>(zone_table::mix64(skey)) & d->mask);
  if (s == nullptr) return false;
  read_slot(*s, out);
  return true;
}

std::size_t estimate_mirror::read_batch(std::span<const std::uint64_t> keys,
                                        std::span<published_estimate> out,
                                        std::span<bool> found) const noexcept {
  const directory* d = dir_.load(std::memory_order_acquire);
  if (d == nullptr) {
    std::fill_n(found.begin(), keys.size(), false);
    return 0;
  }
  std::size_t hits = 0;
  for (std::size_t base = 0; base < keys.size(); base += batch_width) {
    const std::size_t n = std::min(batch_width, keys.size() - base);
    const std::uint64_t* k = keys.data() + base;
    std::size_t at[batch_width] = {};
    const slot* s[batch_width] = {};
    // Pass 1: every key's home directory entry in flight at once.
    for (std::size_t i = 0; i < n; ++i) {
      at[i] = static_cast<std::size_t>(zone_table::mix64(k[i])) & d->mask;
      __builtin_prefetch(&d->entries[at[i]]);
    }
    // Pass 2: probe the cached entries; every resolved slot in flight.
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = k[i] == 0 ? nullptr : probe(*d, k[i], at[i]);
      if (s[i] != nullptr) __builtin_prefetch(s[i]);
    }
    // Pass 3: the seqlock reads, over cached slots.
    for (std::size_t i = 0; i < n; ++i) {
      found[base + i] = s[i] != nullptr;
      if (s[i] == nullptr) continue;
      read_slot(*s[i], out[base + i]);
      ++hits;
    }
  }
  return hits;
}

}  // namespace wiscape::core
