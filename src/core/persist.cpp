#include "core/persist.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/epoch_codec.h"
#include "core/fault_injection.h"

namespace wiscape::core {

namespace {

constexpr std::string_view kMagic = "WISCAPE-COORD ";
constexpr std::string_view kHeader = "WISCAPE-COORD v3\n";
constexpr std::size_t kSpillBytes = 64 * 1024;
/// ix, iy, network index, metric, flags and the frozen count.
constexpr std::size_t kBlockBytes = 16;
/// One frozen epoch, or the open accumulator: four 8-byte fields.
constexpr std::size_t kEpochBytes = 32;
/// Block count, alert sequence and checksum.
constexpr std::size_t kTrailerBytes = 24;
constexpr std::uint8_t kHasOpen = 1;

using epoch_codec::byte_source;
using epoch_codec::folder;
using epoch_codec::load;
using epoch_codec::store;

/// Appends `fields` back to back.
template <typename... Fields>
void put(std::string& out, Fields... fields) {
  char buf[(sizeof(Fields) + ...)];
  char* p = buf;
  ((p = store(p, fields)), ...);
  out.append(buf, sizeof(buf));
}

/// A double field; NaN is refused.
double load_not_nan(const char*& p) {
  const double v = load<double>(p);
  if (std::isnan(v)) {
    throw std::invalid_argument("coordinator-state file holds a NaN field");
  }
  return v;
}

void sort_keys(std::vector<estimate_key>& keys) {
  // Deterministic file order: by zone, then network, then metric.
  std::sort(keys.begin(), keys.end(),
            [](const estimate_key& a, const estimate_key& b) {
              if (a.zone != b.zone) return a.zone < b.zone;
              if (a.network != b.network) return a.network < b.network;
              return static_cast<int>(a.metric) < static_cast<int>(b.metric);
            });
}

/// Renders the header, the name table, one block per stream in key order
/// and the trailer, checksumming every byte; a stream save writes out
/// about one spill at a time.
void render_state(const durable_state& state, std::string& out,
                  std::ostream* os) {
  if (fault::fire(fault::site::persist_save) == fault::action::fail) {
    throw std::runtime_error("injected fault: coordinator snapshot refused");
  }
  auto keys = state.keys();
  sort_keys(keys);
  // The distinct networks, sorted: a handful, however many streams.
  std::vector<std::string_view> names;
  for (const auto& key : keys) {
    const auto at = std::lower_bound(names.begin(), names.end(), key.network);
    if (at == names.end() || *at != key.network) {
      names.insert(at, key.network);
    }
  }
  if (names.size() > 0xffff) {
    throw std::runtime_error("coordinator snapshot: more than 65535 networks");
  }

  folder sum;
  std::size_t fed = out.size();  // `out` may hold a prefix of its own
  const auto spill = [&](std::size_t at_least) {
    if (out.size() - fed < at_least) return;
    sum.feed(out.data() + fed, out.size() - fed);
    fed = out.size();
    if (os == nullptr) return;
    os->write(out.data(), static_cast<std::streamsize>(out.size()));
    out.clear();
    fed = 0;
  };

  out += kHeader;
  put(out, static_cast<std::uint16_t>(names.size()));
  for (const std::string_view name : names) {
    if (name.size() > 0xffff) {
      throw std::runtime_error("coordinator snapshot: network name over "
                               "65535 bytes");
    }
    put(out, static_cast<std::uint16_t>(name.size()));
    out += name;
  }
  std::uint64_t blocks = 0;
  for (const auto& key : keys) {
    const auto history = state.history(key);
    const auto open = state.open_state(key);
    if (history.empty() && !open) continue;
    const auto net = static_cast<std::uint16_t>(
        std::lower_bound(names.begin(), names.end(), key.network) -
        names.begin());
    put(out, static_cast<std::int32_t>(key.zone.ix),
        static_cast<std::int32_t>(key.zone.iy), net,
        static_cast<std::uint8_t>(key.metric),
        static_cast<std::uint8_t>(open ? kHasOpen : 0),
        static_cast<std::uint32_t>(history.size()));
    for (const auto& est : history) {
      put(out, est.epoch_start_s, est.mean, est.stddev,
          static_cast<std::uint64_t>(est.samples));
    }
    if (open) put(out, open->open_start_s, open->n, open->mean, open->m2);
    ++blocks;
    spill(kSpillBytes);
  }
  put(out, blocks, state.alert_seq());
  spill(0);
  put(out, sum.value());
  spill(0);
}

/// The next `n` bytes of `in`, consumed; throws naming `what` when the
/// input ends first.
const char* take(byte_source& in, std::size_t n, const char* what) {
  const char* p = in.take(n);
  if (p == nullptr) {
    throw std::invalid_argument(
        std::string("coordinator-state file cut inside its ") + what);
  }
  return p;
}

/// Refuses anything but the v3 header line, naming another version.
void check_header(std::string_view head) {
  if (head == kHeader) return;
  if (head.size() < kHeader.size() && kHeader.starts_with(head)) {
    throw std::invalid_argument("coordinator-state file cut inside its header");
  }
  if (head.starts_with(kMagic)) {
    std::string_view version = head.substr(kMagic.size());
    version = version.substr(0, version.find('\n'));
    throw std::invalid_argument("coordinator-state file version '" +
                                std::string(version) +
                                "' is not supported; this build reads v3");
  }
  throw std::invalid_argument("not a coordinator-state file (bad header)");
}

/// Reads a whole snapshot from `in` into `state`, installing each stream
/// block as it is decoded, and returns the blocks read. A nonzero
/// `streams_hint` is passed to reserve_streams before the first block.
/// Without `verify_checksum` the trailer's checksum is taken as read (a
/// pass over the same bytes verified it).
std::uint64_t read_state(byte_source& in, durable_state& state,
                         bool verify_checksum, std::uint64_t streams_hint) {
  check_header(in.peek(kHeader.size()));
  take(in, kHeader.size(), "header");

  const char* p = take(in, 2, "network table");
  const std::size_t networks = load<std::uint16_t>(p);
  if (!in.may_hold(2 * networks)) {
    throw std::invalid_argument("coordinator-state file: network count "
                                "larger than the file");
  }
  std::vector<std::string> names;
  for (std::size_t i = 0; i < networks; ++i) {
    p = take(in, 2, "network table");
    const std::size_t len = load<std::uint16_t>(p);
    names.emplace_back(take(in, len, "network table"), len);
  }

  if (streams_hint > 0) state.reserve_streams(streams_hint);
  std::uint64_t blocks = 0;
  estimate_key key;
  std::size_t key_net = names.size();  // the name `key` holds, if any
  // One block's frozen epochs, decoded whole before they install; grows
  // only as epochs are read, so no count sizes it.
  std::vector<epoch_estimate> frozen_epochs;
  while (!in.left_exactly(kTrailerBytes)) {
    p = take(in, kBlockBytes, "stream block");
    key.zone.ix = load<std::int32_t>(p);
    key.zone.iy = load<std::int32_t>(p);
    const std::size_t net = load<std::uint16_t>(p);
    const std::uint8_t metric = load<std::uint8_t>(p);
    const std::uint8_t flags = load<std::uint8_t>(p);
    const std::uint32_t frozen = load<std::uint32_t>(p);
    if (net >= names.size() || metric >= trace::metric_count ||
        (flags & ~kHasOpen) != 0 || !zone_table::zone_in_range(key.zone)) {
      throw std::invalid_argument("coordinator-state file: malformed stream "
                                  "block " + std::to_string(blocks));
    }
    if (!in.may_hold(std::uint64_t{frozen} * kEpochBytes)) {
      throw std::invalid_argument("coordinator-state file: frozen count "
                                  "larger than the file");
    }
    if (net != key_net) {
      key.network = names[net];
      key_net = net;
    }
    key.metric = static_cast<trace::metric>(metric);
    frozen_epochs.clear();
    for (std::uint32_t i = 0; i < frozen; ++i) {
      p = take(in, kEpochBytes, "stream block");
      epoch_estimate& est = frozen_epochs.emplace_back();
      est.epoch_start_s = load_not_nan(p);
      est.mean = load_not_nan(p);
      est.stddev = load_not_nan(p);
      est.samples = static_cast<std::size_t>(load<std::uint64_t>(p));
    }
    open_epoch_state open;
    const bool has_open = (flags & kHasOpen) != 0;
    if (has_open) {
      p = take(in, kEpochBytes, "stream block");
      open.open_start_s = load_not_nan(p);
      open.n = load<std::uint64_t>(p);
      open.mean = load_not_nan(p);
      open.m2 = load_not_nan(p);
    }
    state.restore_stream(key, frozen_epochs, has_open ? &open : nullptr);
    ++blocks;
  }

  p = take(in, kTrailerBytes - 8, "trailer");
  const std::uint64_t count = load<std::uint64_t>(p);
  const std::uint64_t alert_seq = load<std::uint64_t>(p);
  const std::uint64_t computed = verify_checksum ? in.consumed_sum() : 0;
  p = take(in, 8, "trailer");
  const std::uint64_t stored = load<std::uint64_t>(p);
  if (verify_checksum && computed != stored) {
    throw std::invalid_argument("coordinator-state file checksum mismatch");
  }
  if (count != blocks) {
    throw std::invalid_argument("coordinator-state file: trailer counts " +
                                std::to_string(count) + " streams, read " +
                                std::to_string(blocks));
  }
  if (alert_seq > 0) state.resume_alert_seq(alert_seq);
  return blocks;
}

/// The trailer's block count of the snapshot `is` reads from here on,
/// bounded by what its bytes can hold (every block carries at least one
/// epoch), read by seeking to the trailer and back; 0 when the stream
/// cannot seek or is shorter than a trailer. Only a hint: the load checks
/// the count against the blocks it reads.
std::uint64_t trailer_stream_count(std::istream& is) {
  using pos = std::streambuf::pos_type;
  using off = std::streambuf::off_type;
  std::streambuf* buf = is.rdbuf();
  if (buf == nullptr) return 0;
  const pos failed(off(-1));
  const pos start = buf->pubseekoff(0, std::ios::cur, std::ios::in);
  if (start == failed) return 0;
  const pos end = buf->pubseekoff(0, std::ios::end, std::ios::in);
  std::uint64_t count = 0;
  if (end != failed && end - start >= off(kTrailerBytes) &&
      buf->pubseekoff(-off(kTrailerBytes), std::ios::end, std::ios::in) !=
          failed) {
    char word[8];
    if (buf->sgetn(word, 8) == 8) {
      const char* p = word;
      const auto bytes = static_cast<std::uint64_t>(end - start);
      count = std::min(load<std::uint64_t>(p),
                       bytes / (kBlockBytes + kEpochBytes));
    }
  }
  if (buf->pubseekpos(start, std::ios::in) != start) {
    throw std::invalid_argument("coordinator-state stream cannot seek back "
                                "from its trailer");
  }
  return count;
}

/// A durable_state that holds nothing: the in-memory load's checking pass
/// reads into it.
class discard_state final : public durable_state {
 public:
  std::vector<estimate_key> keys() const override { return {}; }
  std::vector<epoch_estimate> history(const estimate_key&) const override {
    return {};
  }
  std::optional<open_epoch_state> open_state(
      const estimate_key&) const override {
    return std::nullopt;
  }
  std::size_t restore_stream(const estimate_key&,
                             std::span<const epoch_estimate>,
                             const open_epoch_state*) override {
    return 0;
  }
  std::uint64_t alert_seq() const override { return 0; }
  void resume_alert_seq(std::uint64_t) override {}
};

}  // namespace

void save_state(std::ostream& os, const durable_state& state) {
  std::string buf;
  render_state(state, buf, &os);
}

void save_state(std::string& out, const durable_state& state) {
  render_state(state, out, nullptr);
}

void load_state(std::istream& is, durable_state& state) {
  const std::uint64_t hint = trailer_stream_count(is);
  byte_source in(is, snapshot_buffer_size);
  read_state(in, state, true, hint);
}

void load_state(std::string_view bytes, durable_state& state) {
  // Refuse a damaged input before the first install: a first pass checks
  // every field and the checksum and installs nothing.
  byte_source check(bytes);
  discard_state nothing;
  const std::uint64_t blocks = read_state(check, nothing, true, 0);
  byte_source in(bytes);
  read_state(in, state, false, blocks);
}

std::string estimate_table_text(const durable_state& state) {
  auto keys = state.keys();
  sort_keys(keys);
  std::string out;
  for (const auto& key : keys) {
    for (const auto& est : state.history(key)) {
      epoch_codec::put_est(out, key, est);
    }
    if (const auto open = state.open_state(key)) {
      epoch_codec::put_open(out, key, *open);
    }
  }
  return out;
}

}  // namespace wiscape::core
