// The one text codec for frozen-epoch records: WAL records
// (core::durable_log: `W <seq> ... C<fnv1a32>`) render and parse here, and
// the EST / OPEN lines of the text table dump (core::estimate_table_text)
// render here. Snapshots are binary (core::persist) and never pass
// through this codec.
//
//  * Rendering appends to a std::string with std::to_chars. Doubles use
//    the general format at precision 17, which the standard specifies to
//    match printf("%.17g") character for character: the bytes are the
//    ones the old snprintf renderers wrote, and every double parses back
//    bit-exactly.
//  * Parsing reads a WAL line's fields in place from a std::string_view
//    with std::from_chars. Fields are separated, and a line may be padded,
//    by runs of exactly five bytes: ' ', '\t', '\r', '\v' and '\f'; every
//    other byte belongs to a field. Each field must parse whole, and a
//    line must carry exactly its fields and end with its fixed
//    ` C<8 hex digits>` suffix. A `nan` field is malformed (WAL replay
//    stops there as at a torn tail): a NaN estimate carries nothing and
//    cannot round-trip its payload.
//  * line_reader hands out lines from a stream through one bounded buffer
//    (grown only for a line longer than it), or from in-memory text
//    without copying it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/zone_table.h"

namespace wiscape::core::epoch_codec {

/// Appends `v` exactly as printf("%.17g", v) renders it.
void put_double(std::string& out, double v);
/// `EST <zone> <network> <metric> <epoch_start> <mean> <stddev> <n>\n`
void put_est(std::string& out, const estimate_key& key,
             const epoch_estimate& est);
/// `OPEN <zone> <network> <metric> <open_start> <n> <mean> <m2>\n`
void put_open(std::string& out, const estimate_key& key,
              const open_epoch_state& st);
/// `W <seq> <zone> <network> <metric> <epoch_start> <mean> <stddev> <n>
/// C<fnv1a32 of everything before " C", %08x>\n`
void put_wal(std::string& out, std::uint64_t seq, const estimate_key& key,
             const epoch_estimate& est);

/// Parses one WAL line (no newline); false if cut, corrupt or malformed.
bool parse_wal(std::string_view line, std::uint64_t& seq, estimate_key& key,
               epoch_estimate& est);

/// Hands out the lines of a stream or of in-memory text, one at a time.
class line_reader {
 public:
  /// The read buffer a stream goes through (grown only for a longer line).
  static constexpr std::size_t buffer_size = 64 * 1024;

  /// Reads `is` through a buffer_size read buffer.
  explicit line_reader(std::istream& is);
  /// Walks `text` in place; it must outlive the reader.
  explicit line_reader(std::string_view text) noexcept;

  /// The next line without its '\n', valid until the next call; false
  /// once the input is exhausted.
  bool next(std::string_view& line);
  /// True when the line last returned ended the input without a '\n'.
  bool cut() const noexcept { return cut_; }

 private:
  void refill();

  std::istream* is_ = nullptr;
  std::string buf_;             // stream mode: the bounded read buffer
  const char* data_ = nullptr;  // buf_.data() or the in-memory text
  std::size_t pos_ = 0;         // first unread byte
  std::size_t end_ = 0;         // end of the valid bytes
  bool eof_ = false;
  bool cut_ = false;
};

}  // namespace wiscape::core::epoch_codec
