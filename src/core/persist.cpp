#include "core/persist.h"

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "core/epoch_codec.h"
#include "core/fault_injection.h"

namespace wiscape::core {

namespace {

constexpr std::size_t kSpillBytes = 64 * 1024;

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

/// Renders every stream of `src` in deterministic key order: its frozen
/// history, then its open epoch if it has one.
template <typename Source>
void render_streams(const Source& src, std::string& out, std::ostream* os) {
  auto keys = src.keys();
  sort_keys(keys);
  for (const auto& key : keys) {
    for (const auto& est : src.history(key)) {
      epoch_codec::put_est(out, key, est);
    }
    if (const auto open = src.open_state(key)) {
      epoch_codec::put_open(out, key, *open);
    }
    spill(os, out, kSpillBytes);
  }
}

void render_state(const durable_state& state, std::string& out,
                  std::ostream* os) {
  if (fault::fire(fault::site::persist_save) == fault::action::fail) {
    throw std::runtime_error("injected fault: coordinator snapshot refused");
  }
  out += "WISCAPE-COORD v2\n";
  render_streams(state, out, os);
  epoch_codec::put_alert_seq(out, state.alert_seq());
  spill(os, out, 0);
}

/// Checks the header line against `headers`, then hands every body line
/// to `apply`; a line that does not parse, or that `apply` refuses, throws.
template <typename Apply>
void load_lines(epoch_codec::line_reader& in, const std::string& what,
                std::initializer_list<std::string_view> headers,
                Apply&& apply) {
  std::string_view line;
  if (!in.next(line) ||
      std::find(headers.begin(), headers.end(), line) == headers.end()) {
    throw std::invalid_argument("not a " + what + " file (bad header)");
  }
  epoch_codec::state_line rec;
  while (in.next(line)) {
    if (line.empty()) continue;
    if (!epoch_codec::parse_state_line(line, rec) || !apply(rec)) {
      throw std::invalid_argument("malformed " + what + " line: '" +
                                  std::string(line) + "'");
    }
  }
}

void load_state_lines(epoch_codec::line_reader& in, durable_state& state) {
  using kind = epoch_codec::state_line::kind;
  load_lines(in, "coordinator-state", {"WISCAPE-COORD v2"},
             [&](const epoch_codec::state_line& r) {
               if (r.tag == kind::est) {
                 state.restore_estimate(r.key, r.est);
               } else if (r.tag == kind::open) {
                 state.restore_open(r.key, r.open);
               } else if (r.alert_seq > 0) {
                 state.resume_alert_seq(r.alert_seq);
               }
               return true;
             });
}

}  // namespace

void save_zone_table(std::ostream& os, const zone_table& table) {
  std::string buf = "WISCAPE-ZONETABLE v2\n";
  render_streams(table, buf, &os);
  spill(&os, buf, 0);
}

void save_zone_table_file(const std::string& path, const zone_table& table) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  save_zone_table(os, table);
}

zone_table load_zone_table(std::istream& is, double change_sigma_factor) {
  using kind = epoch_codec::state_line::kind;
  zone_table table(change_sigma_factor);
  epoch_codec::line_reader in(is);
  load_lines(in, "zone-table", {"WISCAPE-ZONETABLE v1", "WISCAPE-ZONETABLE v2"},
             [&](const epoch_codec::state_line& r) {
               if (r.tag == kind::est) table.restore(r.key, r.est);
               if (r.tag == kind::open) table.restore_open(r.key, r.open);
               return r.tag != kind::alert_seq;
             });
  return table;
}

zone_table load_zone_table_file(const std::string& path,
                                double change_sigma_factor) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  return load_zone_table(is, change_sigma_factor);
}

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
