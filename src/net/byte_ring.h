// Growable, bounded byte ring buffer for per-session socket I/O.
//
// Every TCP session owns two of these (read side and write side), so their
// footprint decides whether C10k is cheap: a ring starts at a small
// power-of-two capacity (4 KiB) and doubles lazily up to a hard cap, so ten
// thousand mostly-idle sessions cost megabytes, not the gigabytes that
// eagerly cap-sized buffers would. The cap is the backpressure line --
// append() refuses to grow past it, and the session layer converts that
// refusal into a counted disconnect (oversized request on the read side,
// slow reader on the write side) instead of unbounded memory growth.
//
// The storage is circular (head index + size over a power-of-two vector),
// which makes consume() O(1): bytes drained from the front never trigger a
// memmove of what remains, the common case when a socket drains replies in
// kernel-buffer-sized slices. Access is span-based so the session layer can
// recv()/send() straight into/out of the storage:
//   * write_spans() / commit(n)  -- up to two raw slots for readv-style fill
//   * read_spans()  / consume(n) -- up to two readable slices for writev
//   * linearize()                -- rotates the readable region contiguous
//     (in place, no allocation) so a complete request can be handed to the
//     zero-copy line decoder as one std::string_view
// A request that does not wrap (the common case -- requests start at the
// head right after the previous consume) linearizes for free.
//
// Not thread-safe: a ring belongs to exactly one event-loop thread, like
// the session that owns it.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

namespace wiscape::net {

class byte_ring {
 public:
  /// A ring that may grow from `initial` (rounded up to a power of two,
  /// minimum 64) up to `max_bytes`. `max_bytes` below `initial` clamps the
  /// ring to its initial capacity.
  explicit byte_ring(std::size_t max_bytes, std::size_t initial = 4096)
      : max_(std::max<std::size_t>(max_bytes, 64)) {
    // Storage is always a power of two (the index mask depends on it); the
    // cap bounds *size*, so a non-power-of-two cap rounds storage up at most
    // once at full growth.
    buf_.resize(round_up(std::min(initial, max_)));
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return buf_.size(); }
  std::size_t max_bytes() const noexcept { return max_; }
  /// Bytes that can still be appended before the cap refuses more.
  std::size_t headroom() const noexcept { return max_ - size_; }
  /// True when the ring holds its cap and cannot accept another byte.
  bool full() const noexcept { return size_ == max_; }

  /// Appends `data`, growing (doubling) as needed. Returns false -- and
  /// appends nothing -- when the result would exceed the cap.
  bool append(std::string_view data) {
    if (data.size() > headroom()) return false;
    reserve(size_ + data.size());
    const std::size_t w = mask(head_ + size_);
    const std::size_t first = std::min(data.size(), buf_.size() - w);
    std::memcpy(buf_.data() + w, data.data(), first);
    if (first < data.size()) {
      std::memcpy(buf_.data(), data.data() + first, data.size() - first);
    }
    size_ += data.size();
    return true;
  }
  bool append(char c) { return append(std::string_view(&c, 1)); }

  /// Grows towards `want` bytes of total size (clamped to the cap) and
  /// returns up to two writable slots covering all free storage. Fill them
  /// in order, then commit() what was actually written.
  std::array<std::span<char>, 2> write_spans(std::size_t want) {
    reserve(std::min(max_, std::max(size_ + want, std::size_t{1})));
    const std::size_t free_bytes = std::min(buf_.size() - size_, headroom());
    if (free_bytes == 0) return {};
    const std::size_t w = mask(head_ + size_);
    const std::size_t first = std::min(free_bytes, buf_.size() - w);
    std::array<std::span<char>, 2> out{};
    out[0] = {buf_.data() + w, first};
    if (first < free_bytes) out[1] = {buf_.data(), free_bytes - first};
    return out;
  }

  /// Declares `n` bytes of the write_spans() storage filled (n must not
  /// exceed what the spans covered).
  void commit(std::size_t n) noexcept { size_ += n; }

  /// Up to two readable slices, front of the ring first.
  std::array<std::span<const char>, 2> read_spans() const noexcept {
    if (size_ == 0) return {};
    const std::size_t first = std::min(size_, buf_.size() - head_);
    std::array<std::span<const char>, 2> out{};
    out[0] = {buf_.data() + head_, first};
    if (first < size_) out[1] = {buf_.data(), size_ - first};
    return out;
  }

  /// Drops `n` bytes from the front (n <= size()).
  void consume(std::size_t n) noexcept {
    head_ = mask(head_ + n);
    size_ -= n;
    if (size_ == 0) head_ = 0;  // free realignment: next request starts flat
  }

  /// Byte at offset `i` from the front (i < size()).
  char at(std::size_t i) const noexcept { return buf_[mask(head_ + i)]; }

  /// Finds the first `c` at offset >= `from`, or npos. Scans the (at most
  /// two) contiguous slices with memchr.
  std::size_t find(char c, std::size_t from = 0) const noexcept {
    if (from >= size_) return npos;
    const auto spans = read_spans();
    if (from < spans[0].size()) {
      const auto* p = static_cast<const char*>(std::memchr(
          spans[0].data() + from, c, spans[0].size() - from));
      if (p != nullptr) return static_cast<std::size_t>(p - spans[0].data());
      from = spans[0].size();
    }
    if (!spans[1].empty() && from < size_) {
      const auto* p = static_cast<const char*>(std::memchr(
          spans[1].data() + (from - spans[0].size()), c, size_ - from));
      if (p != nullptr) {
        return spans[0].size() + static_cast<std::size_t>(p - spans[1].data());
      }
    }
    return npos;
  }

  /// Makes the readable region contiguous (rotating in place if it wraps)
  /// and returns it as one view. O(size) only when wrapped; a request that
  /// begins at the front of a flat ring costs nothing.
  std::string_view linearize() {
    if (size_ > 0 && head_ + size_ > buf_.size()) {
      std::rotate(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_),
                  buf_.end());
      head_ = 0;
    }
    return {buf_.data() + head_, size_};
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  static std::size_t round_up(std::size_t n) noexcept {
    std::size_t p = 64;
    while (p < n) p <<= 1;
    return p;
  }

  std::size_t mask(std::size_t i) const noexcept { return i & (buf_.size() - 1); }

  /// Grows storage to hold `need` bytes (power-of-two, <= cap), keeping the
  /// readable bytes at the front of the new storage.
  void reserve(std::size_t need) {
    if (need <= buf_.size()) return;
    const std::size_t want = std::min(max_, round_up(need));
    if (want <= buf_.size()) return;
    std::vector<char> next(want);
    const auto spans = read_spans();
    if (!spans[0].empty()) {  // an empty ring may have no storage yet
      std::memcpy(next.data(), spans[0].data(), spans[0].size());
    }
    if (!spans[1].empty()) {
      std::memcpy(next.data() + spans[0].size(), spans[1].data(),
                  spans[1].size());
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<char> buf_;
  std::size_t max_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace wiscape::net
