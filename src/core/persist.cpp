#include "core/persist.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/epoch_codec.h"
#include "core/fault_injection.h"

namespace wiscape::core {

namespace {

constexpr std::size_t kSpillBytes = 64 * 1024;
constexpr std::string_view kHeader = "WISCAPE-COORD v2";

void sort_keys(std::vector<estimate_key>& keys) {
  // Deterministic file order: by zone, then network, then metric.
  std::sort(keys.begin(), keys.end(),
            [](const estimate_key& a, const estimate_key& b) {
              if (a.zone != b.zone) return a.zone < b.zone;
              if (a.network != b.network) return a.network < b.network;
              return static_cast<int>(a.metric) < static_cast<int>(b.metric);
            });
}

/// Writes `buf` into `os` (when there is one) once it holds `at_least`
/// bytes, so a stream save never holds more than about one spill of text.
void spill(std::ostream* os, std::string& buf, std::size_t at_least) {
  if (os == nullptr || buf.size() < at_least) return;
  os->write(buf.data(), static_cast<std::streamsize>(buf.size()));
  buf.clear();
}

/// Renders the header, every stream in deterministic key order (its
/// frozen history, then its open epoch if it has one) and the alert
/// sequence high-water mark.
void render_state(const durable_state& state, std::string& out,
                  std::ostream* os) {
  if (fault::fire(fault::site::persist_save) == fault::action::fail) {
    throw std::runtime_error("injected fault: coordinator snapshot refused");
  }
  out += kHeader;
  out += '\n';
  auto keys = state.keys();
  sort_keys(keys);
  for (const auto& key : keys) {
    for (const auto& est : state.history(key)) {
      epoch_codec::put_est(out, key, est);
    }
    if (const auto open = state.open_state(key)) {
      epoch_codec::put_open(out, key, *open);
    }
    spill(os, out, kSpillBytes);
  }
  epoch_codec::put_alert_seq(out, state.alert_seq());
  spill(os, out, 0);
}

/// Checks the header line, then restores every body line into `state`; a
/// line that does not parse throws.
void load_state_lines(epoch_codec::line_reader& in, durable_state& state) {
  using kind = epoch_codec::state_line::kind;
  std::string_view line;
  if (!in.next(line) || line != kHeader) {
    throw std::invalid_argument("not a coordinator-state file (bad header)");
  }
  epoch_codec::state_line r;
  while (in.next(line)) {
    if (line.empty()) continue;
    if (!epoch_codec::parse_state_line(line, r)) {
      throw std::invalid_argument("malformed coordinator-state line: '" +
                                  std::string(line) + "'");
    }
    if (r.tag == kind::est) {
      state.restore_estimate(r.key, r.est);
    } else if (r.tag == kind::open) {
      state.restore_open(r.key, r.open);
    } else if (r.alert_seq > 0) {
      state.resume_alert_seq(r.alert_seq);
    }
  }
}

}  // namespace

void save_state(std::ostream& os, const durable_state& state) {
  std::string buf;
  render_state(state, buf, &os);
}

void save_state(std::string& out, const durable_state& state) {
  render_state(state, out, nullptr);
}

void load_state(std::istream& is, durable_state& state) {
  epoch_codec::line_reader in(is);
  load_state_lines(in, state);
}

void load_state(std::string_view text, durable_state& state) {
  epoch_codec::line_reader in(text);
  load_state_lines(in, state);
}

}  // namespace wiscape::core
