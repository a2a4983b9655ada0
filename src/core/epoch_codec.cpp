#include "core/epoch_codec.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <stdexcept>
#include <system_error>
#include <type_traits>

namespace wiscape::core::epoch_codec {

namespace {

// The byte classes of the field scan: true for the five separators ' ',
// '\t', '\r', '\v' and '\f'. Every other byte -- '\n', NUL, and any byte
// >= 0x80 -- belongs to a field.
constexpr std::array<bool, 256> kSeparator = [] {
  std::array<bool, 256> t{};
  for (const unsigned char c : {' ', '\t', '\r', '\v', '\f'}) t[c] = true;
  return t;
}();

bool is_separator(char c) noexcept {
  return kSeparator[static_cast<unsigned char>(c)];
}

// FNV-1a over the WAL record body: cheap, dependency-free, and plenty to
// tell "record the writer finished" from "record the crash cut" -- the
// torn-tail corpus in tests/wal_test.cpp cuts at every byte offset.
std::uint32_t fnv1a32(std::string_view s) noexcept {
  std::uint32_t h = 2166136261u;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h;
}

void put_num(std::string& out, double v) { put_double(out, v); }

template <typename Int>
void put_num(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// `<zone> <network> <metric>` then ` <v>` for each of `vs`.
template <typename... Nums>
void put_key_fields(std::string& out, const estimate_key& key, Nums... vs) {
  put_num(out, key.zone.ix);
  out += ':';
  put_num(out, key.zone.iy);
  out += ' ';
  out += key.network;
  out += ' ';
  out += trace::metric_name(key.metric);
  ((out += ' ', put_num(out, vs)), ...);
}

/// Pops the next separator-delimited field off `rest` (empty: none left):
/// one byte-class scan over the separators, then one over the field.
std::string_view pop(std::string_view& rest) noexcept {
  const char* p = rest.data();
  const char* const end = p + rest.size();
  while (p != end && is_separator(*p)) ++p;
  const char* const field = p;
  while (p != end && !is_separator(*p)) ++p;
  rest = std::string_view(p, static_cast<std::size_t>(end - p));
  return std::string_view(field, static_cast<std::size_t>(p - field));
}

/// Parses all of `s` as one number; a trailing byte or a NaN rejects it.
template <typename Num>
bool parse_whole(std::string_view s, Num& v, int base = 10) noexcept {
  const char* last = s.data() + s.size();
  std::from_chars_result r;
  if constexpr (std::is_floating_point_v<Num>) {
    r = std::from_chars(s.data(), last, v);
    if (std::isnan(v)) return false;
  } else {
    r = std::from_chars(s.data(), last, v, base);
  }
  return r.ec == std::errc{} && r.ptr == last;
}

/// Parses `<zone> <network> <metric>` then one number into each of `vs`,
/// with nothing after them.
template <typename... Nums>
bool parse_key_fields(std::string_view rest, estimate_key& key, Nums&... vs) {
  const std::string_view zone = pop(rest);
  const std::size_t colon = zone.find(':');
  if (colon == std::string_view::npos ||
      !parse_whole(zone.substr(0, colon), key.zone.ix) ||
      !parse_whole(zone.substr(colon + 1), key.zone.iy)) {
    return false;
  }
  const std::string_view net = pop(rest);
  try {
    key.metric = trace::metric_from_string(pop(rest));
  } catch (const std::invalid_argument&) {
    return false;
  }
  key.network.assign(net);
  return (parse_whole(pop(rest), vs) && ...) && pop(rest).empty();
}

}  // namespace

void put_double(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                std::chars_format::general, 17)
                      .ptr);
}

void put_est(std::string& out, const estimate_key& key,
             const epoch_estimate& est) {
  out += "EST ";
  put_key_fields(out, key, est.epoch_start_s, est.mean, est.stddev,
                 est.samples);
  out += '\n';
}

void put_open(std::string& out, const estimate_key& key,
              const open_epoch_state& st) {
  out += "OPEN ";
  put_key_fields(out, key, st.open_start_s, st.n, st.mean, st.m2);
  out += '\n';
}

void put_wal(std::string& out, std::uint64_t seq, const estimate_key& key,
             const epoch_estimate& est) {
  const std::size_t start = out.size();
  out += "W ";
  put_num(out, seq);
  out += ' ';
  put_key_fields(out, key, est.epoch_start_s, est.mean, est.stddev,
                 est.samples);
  const std::uint32_t sum = fnv1a32(std::string_view(out).substr(start));
  char crc[] = " C00000000\n";
  for (int i = 0; i < 8; ++i) {
    crc[9 - i] = "0123456789abcdef"[(sum >> (4 * i)) & 0xfu];
  }
  out.append(crc, sizeof(crc) - 1);
}

bool parse_wal(std::string_view line, std::uint64_t& seq, estimate_key& key,
               epoch_estimate& est) {
  // Verify the checksum first: any mismatch (cut mid-record, bit rot, a
  // record the writer never finished) rejects the record.
  const std::size_t cpos = line.rfind(" C");
  std::uint32_t expect = 0;
  if (cpos == std::string_view::npos || line.size() - cpos != 10 ||
      !parse_whole(line.substr(cpos + 2), expect, 16) ||
      fnv1a32(line.substr(0, cpos)) != expect) {
    return false;
  }
  std::string_view body = line.substr(0, cpos);
  return pop(body) == "W" && parse_whole(pop(body), seq) &&
         parse_key_fields(body, key, est.epoch_start_s, est.mean, est.stddev,
                          est.samples);
}

line_reader::line_reader(std::istream& is)
    : is_(&is), buf_(buffer_size, '\0'), data_(buf_.data()) {}

line_reader::line_reader(std::string_view text) noexcept
    : data_(text.data()), end_(text.size()), eof_(true) {}

bool line_reader::next(std::string_view& line) {
  for (;;) {
    const char* start = data_ + pos_;
    const std::size_t avail = end_ - pos_;
    const void* nl = avail == 0 ? nullptr : std::memchr(start, '\n', avail);
    if (nl != nullptr) {
      const auto len = static_cast<std::size_t>(static_cast<const char*>(nl) -
                                                start);
      line = {start, len};
      pos_ += len + 1;
      cut_ = false;
      return true;
    }
    if (eof_) {
      if (avail == 0) return false;
      line = {start, avail};
      pos_ = end_;
      cut_ = true;
      return true;
    }
    refill();
  }
}

void line_reader::refill() {
  // Move the partial line to the front, grow only if it already fills the
  // buffer (a line longer than the buffer), and top the rest up.
  const std::size_t keep = end_ - pos_;
  std::memmove(buf_.data(), buf_.data() + pos_, keep);
  if (keep == buf_.size()) buf_.resize(buf_.size() * 2);
  data_ = buf_.data();
  pos_ = 0;
  end_ = keep;
  const std::streamsize got = is_->rdbuf()->sgetn(
      buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_));
  eof_ = got <= 0;
  if (!eof_) end_ += static_cast<std::size_t>(got);
}

}  // namespace wiscape::core::epoch_codec
