// The one encoding of a frozen epoch, and the text renderers of the table
// dump.
//
//  * The epoch record: core::epoch_update, written by put_record and read
//    by get_record. It is the element a v3 EPOCHB frame carries
//    (proto::v3) and the body of every WAL record (core::durable_log):
//    one encoder and one decoder serve both, so a record replays from disk
//    exactly as it arrives over the wire. Little-endian, fixed width,
//    doubles as their raw IEEE-754 bits:
//      u64 seq, i32 zone.ix, i32 zone.iy, u8 metric, f64 epoch_start,
//      f64 mean, f64 stddev, u64 samples, u64 alert_seq, u16 network
//      length, network bytes.
//    `alert_seq` is the number alert_ring::push gave the change alert the
//    freeze raised, 0 when it raised none: replay and a promoted follower
//    resume alert numbering after the highest one they saw.
//  * What both binary files (the snapshot, the WAL) are read and summed
//    with: little-endian loads and stores, one bounded read buffer
//    (byte_source), and the checksum -- one lane folding every
//    little-endian 8-byte word w as h = (h ^ w) * K, h ^= h >> 32, then
//    the zero-padded tail word and the byte count. Each step is a
//    bijection of h, so a change inside one word always changes the sum.
//  * Text: the EST / OPEN lines of core::estimate_table_text, and the
//    doubles of the text replies, rendered with std::to_chars at general
//    precision 17, which the standard specifies to match printf("%.17g")
//    character for character.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/zone_table.h"

namespace wiscape::core {

/// One frozen epoch of the replication stream and the WAL: the leader's
/// log sequence (the follower's dedup cursor), the stream and its
/// estimate, and the alert number the freeze took (0: none).
struct epoch_update {
  std::uint64_t seq = 0;
  estimate_key key;
  epoch_estimate est;
  std::uint64_t alert_seq = 0;
};

namespace epoch_codec {

/// A record's bytes before its network name.
inline constexpr std::size_t record_fixed_bytes = 57;
/// The shortest record: an empty network name.
inline constexpr std::size_t min_record_bytes = record_fixed_bytes + 2;
/// The longest record: a name is clipped to 65535 bytes.
inline constexpr std::size_t max_record_bytes = min_record_bytes + 0xffff;

/// Appends one record. A network name over 65535 bytes is clipped.
void put_record(std::string& out, std::uint64_t seq, const estimate_key& key,
                const epoch_estimate& est, std::uint64_t alert_seq);

/// Decodes the record at the front of `bytes` into `u` and returns the
/// bytes it took. Throws std::invalid_argument naming the field when
/// `bytes` ends inside the record or its metric byte is out of range. Any
/// double decodes as its bits, NaN included: the WAL replay refuses NaN.
std::size_t get_record(std::string_view bytes, epoch_update& u);

/// Stores `v` little-endian at `p` (a double as its raw bits); returns the
/// byte past it.
template <typename T>
char* store(char* p, T v) noexcept {
  if constexpr (std::is_floating_point_v<T>) {
    return store(p, std::bit_cast<std::uint64_t>(v));
  } else {
    using U = std::make_unsigned_t<T>;
    auto u = static_cast<U>(v);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, &u, sizeof(U));
    } else {
      for (std::size_t i = 0; i < sizeof(U); ++i) {
        p[i] = static_cast<char>((u >> (8 * i)) & 0xffu);
      }
    }
    return p + sizeof(U);
  }
}

/// Loads a little-endian `T` at `p` and advances `p` past it.
template <typename T>
T load(const char*& p) noexcept {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<double>(load<std::uint64_t>(p));
  } else {
    using U = std::make_unsigned_t<T>;
    U u = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&u, p, sizeof(U));
    } else {
      for (std::size_t i = 0; i < sizeof(U); ++i) {
        u = static_cast<U>(u | static_cast<U>(static_cast<unsigned char>(p[i]))
                                   << (8 * i));
      }
    }
    p += sizeof(U);
    return static_cast<T>(u);
  }
}

/// The running checksum (see the file comment), fed in pieces of any
/// length.
class folder {
 public:
  void feed(const char* p, std::size_t n) noexcept {
    bytes_ += n;
    if (tail_n_ > 0) {
      const std::size_t k = std::min(n, sizeof(tail_) - tail_n_);
      std::memcpy(tail_ + tail_n_, p, k);
      tail_n_ += k;
      p += k;
      n -= k;
      if (tail_n_ < sizeof(tail_)) return;
      const char* t = tail_;
      h_ = step(h_, load<std::uint64_t>(t));
      tail_n_ = 0;
    }
    std::uint64_t h = h_;
    for (; n >= 8; n -= 8) h = step(h, load<std::uint64_t>(p));
    h_ = h;
    std::memcpy(tail_, p, n);
    tail_n_ = n;
  }

  std::uint64_t value() const noexcept {
    char last[8] = {};
    std::memcpy(last, tail_, tail_n_);
    const char* t = last;
    return step(step(h_, load<std::uint64_t>(t)), bytes_);
  }

 private:
  static constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;  // odd
  static constexpr std::uint64_t kSeed = 0x5749534341504533ull;

  static std::uint64_t step(std::uint64_t h, std::uint64_t w) noexcept {
    h = (h ^ w) * kMul;
    return h ^ (h >> 32);
  }

  std::uint64_t h_ = kSeed;
  std::uint64_t bytes_ = 0;
  char tail_[8] = {};
  std::size_t tail_n_ = 0;
};

/// The checksum of `bytes`.
inline std::uint64_t checksum(std::string_view bytes) noexcept {
  folder f;
  f.feed(bytes.data(), bytes.size());
  return f.value();
}

/// The bytes of a binary file (a snapshot, a WAL), from a stream through
/// one bounded read buffer or in place from memory, checksummed as they
/// are consumed.
class byte_source {
 public:
  byte_source(std::istream& is, std::size_t buffer_bytes)
      : is_(&is), buf_(buffer_bytes, '\0'), data_(buf_.data()) {}
  explicit byte_source(std::string_view bytes) noexcept
      : data_(bytes.data()), end_(bytes.size()), eof_(true) {}
  byte_source(const byte_source&) = delete;  // data_ may point into buf_
  byte_source& operator=(const byte_source&) = delete;

  /// Up to `n` (<= the buffer's size) of the next bytes, unconsumed;
  /// fewer only at the end of the input.
  std::string_view peek(std::size_t n) {
    while (end_ - pos_ < n && !eof_) refill();
    return {data_ + pos_, std::min(n, end_ - pos_)};
  }
  /// The next `n` bytes, consumed; nullptr, consuming nothing, when the
  /// input ends first.
  const char* take(std::size_t n) {
    if (peek(n).size() < n) return nullptr;
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  /// True when exactly `n` bytes are left.
  bool left_exactly(std::size_t n) {
    return peek(n + 1).size() == n && eof_;
  }
  /// False only when `n` bytes are known not to remain (in memory).
  bool may_hold(std::uint64_t n) const noexcept {
    return is_ != nullptr || n <= end_ - pos_;
  }
  /// The checksum of every byte consumed so far.
  std::uint64_t consumed_sum() noexcept {
    sum_.feed(data_ + fed_, pos_ - fed_);
    fed_ = pos_;
    return sum_.value();
  }
  /// Consumes the rest of the input; returns how many bytes that was.
  std::uint64_t drain() {
    std::uint64_t n = 0;
    for (;;) {
      n += end_ - pos_;
      pos_ = end_;
      if (eof_) return n;
      refill();
    }
  }

 private:
  void refill() {
    // Checksum the consumed bytes, move the unread ones to the front and
    // top the buffer up.
    sum_.feed(data_ + fed_, pos_ - fed_);
    const std::size_t keep = end_ - pos_;
    std::memmove(buf_.data(), buf_.data() + pos_, keep);
    pos_ = fed_ = 0;
    end_ = keep;
    const std::streamsize got = is_->rdbuf()->sgetn(
        buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_));
    eof_ = got <= 0;
    if (!eof_) end_ += static_cast<std::size_t>(got);
  }

  std::istream* is_ = nullptr;
  std::string buf_;             // stream mode: the bounded read buffer
  const char* data_ = nullptr;  // buf_.data() or the bytes in memory
  std::size_t pos_ = 0;         // first unconsumed byte
  std::size_t end_ = 0;         // end of the valid bytes
  std::size_t fed_ = 0;         // first byte not yet checksummed
  bool eof_ = false;
  folder sum_;
};

/// Appends `v` exactly as printf("%.17g", v) renders it.
void put_double(std::string& out, double v);
/// `EST <zone> <network> <metric> <epoch_start> <mean> <stddev> <n>\n`
void put_est(std::string& out, const estimate_key& key,
             const epoch_estimate& est);
/// `OPEN <zone> <network> <metric> <open_start> <n> <mean> <m2>\n`
void put_open(std::string& out, const estimate_key& key,
              const open_epoch_state& st);

}  // namespace epoch_codec
}  // namespace wiscape::core
