// Wire-parse throughput - decoded reports/sec for the zero-allocation
// codec fast path vs the seed parser, single-line and batched (ISSUE 3
// tentpole; no paper figure -- this bench prices the coordinator's
// wire-facing decode layer, the hot path in front of the sharded pipeline).
//
// Four measurements over the same synthetic report stream:
//  * seed parser: the PR-2-era decoder (preserved below: substr copies, a
//    vector<string> per CSV split, locale-aware std::stod per field), one
//    REPORT line at a time.
//  * fast parser: the current std::string_view + std::from_chars decoder,
//    one REPORT line at a time. Acceptance: >= 5x the seed parser.
//  * batched parser: REPORTB frames of `batch` records decoded with
//    decode_report_batch_into (one reused vector, as the server decodes).
//  * end-to-end: REPORT lines vs REPORTB frames through a 4-shard
//    coordinator_server, with the raw in-memory drain rate (no wire layer
//    at all) printed as the ceiling. Acceptance: batched frames beat
//    per-line ingestion (> 1x).
//  * recovery: a seeded warm state of `streams` streams (two frozen epochs
//    and one open epoch each, like perfbench's) saved with save_state,
//    plus a short WAL. Times the binary snapshot decode alone (load_state
//    into a sink that keeps no table), the installs alone (pre-decoded
//    stream blocks, one restore_stream each after the stream-count hint,
//    into a fresh coordinator), load_state into a fresh
//    coordinator, the save_state render a checkpoint writes, and
//    durable_log::recover of the on-disk pair, and prints the decode share
//    of a load. A table rebuilt from the snapshot must render back to its
//    exact bytes.
//
// Machine-readable results go to bench_wire_parse.jsonl in the working
// directory (one JSON object per line; schema in EXPERIMENTS.md).
//
//   ./bench_wire_parse [reports] [batch] [streams]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "core/durable_log.h"
#include "core/persist.h"
#include "core/sharded_coordinator.h"
#include "geo/projection.h"
#include "proto/messages.h"
#include "proto/server.h"

using namespace wiscape;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- the seed decoder, frozen for comparison ------------------------------
namespace seed_parser {

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

double to_double(const std::string& s) {
  std::size_t used = 0;
  const double v = std::stod(s, &used);
  if (used != s.size()) throw std::invalid_argument(s);
  return v;
}

trace::measurement_record from_csv(const std::string& line) {
  const auto f = split(line, ',');
  if (f.size() != 16) throw std::invalid_argument("CSV needs 16 fields");
  trace::measurement_record r;
  r.time_s = to_double(f[0]);
  r.network = f[1];
  r.pos = {to_double(f[2]), to_double(f[3])};
  r.speed_mps = to_double(f[4]);
  r.kind = trace::probe_kind_from_string(f[5]);
  r.success = static_cast<int>(to_double(f[6])) != 0;
  r.throughput_bps = to_double(f[7]);
  r.loss_rate = to_double(f[8]);
  r.jitter_s = to_double(f[9]);
  r.rtt_s = to_double(f[10]);
  r.ping_sent = static_cast<int>(to_double(f[11]));
  r.ping_failures = static_cast<int>(to_double(f[12]));
  r.rssi_dbm = to_double(f[13]);
  r.device = f[14];
  r.client_id = static_cast<std::uint64_t>(to_double(f[15]));
  return r;
}

proto::measurement_report decode_report(const std::string& line) {
  const std::string prefix = "REPORT client=";
  if (line.rfind(prefix, 0) != 0) {
    throw std::invalid_argument("expected REPORT message");
  }
  const auto csv_pos = line.find(" csv=");
  if (csv_pos == std::string::npos) {
    throw std::invalid_argument("REPORT missing csv field");
  }
  proto::measurement_report m;
  m.client_id =
      std::stoull(line.substr(prefix.size(), csv_pos - prefix.size()));
  m.record = from_csv(line.substr(csv_pos + 5));
  return m;
}

}  // namespace seed_parser

// Same stream recipe as bench_ingest_scaling: all probe kinds, two
// operators, a 5x5 zone neighbourhood.
std::vector<trace::measurement_record> make_stream(const geo::projection& proj,
                                                   std::size_t count) {
  stats::rng_stream rng(bench::bench_seed);
  std::vector<trace::measurement_record> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    trace::measurement_record r;
    r.time_s = 1000.0 + static_cast<double>(i) * 0.5;
    r.network = rng.chance(0.5) ? "NetB" : "NetC";
    r.pos = proj.to_lat_lon(
        {443.0 * static_cast<double>(rng.uniform_int(-2, 2)),
         443.0 * static_cast<double>(rng.uniform_int(-2, 2))});
    r.client_id = 1 + (i % 64);
    r.kind = static_cast<trace::probe_kind>(rng.uniform_int(0, 3));
    r.success = true;
    if (r.kind == trace::probe_kind::ping) {
      r.rtt_s = 0.1 + 0.02 * rng.uniform();
      r.ping_sent = 5;
    } else {
      r.throughput_bps = 1e6 * (1.0 + rng.uniform());
    }
    out.push_back(r);
  }
  return out;
}

/// Wall-clock throughput of one `fn` pass over `count` reports.
template <class Fn>
double one_rate(std::size_t count, Fn&& fn) {
  const double t0 = now_s();
  fn();
  return static_cast<double>(count) / (now_s() - t0);
}

/// Best-of-`reps` wall-clock throughput of `fn` over `count` reports.
template <class Fn>
double best_rate(std::size_t count, int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) best = std::max(best, one_rate(count, fn));
  return best;
}

core::sharded_config pipeline_config() {
  core::sharded_config cfg;
  cfg.coordinator.epochs.default_epoch_s = 120.0;
  cfg.num_shards = 4;
  cfg.synchronous = false;
  cfg.queue_capacity = 4096;
  return cfg;
}

void jsonl_result(std::ofstream& out, const char* mode, std::size_t batch,
                  std::size_t reports, double rps) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", rps);
  out << "{\"bench\":\"wire_parse\",\"mode\":\"" << mode
      << "\",\"batch\":" << batch << ",\"reports\":" << reports
      << ",\"reports_per_s\":" << buf << "}\n";
}

// ---- recovery leg -----------------------------------------------------------

constexpr int kRecoverReps = 5;
constexpr double kRecoverEpochS = 300.0;
constexpr int kFrozenEpochs = 2;  // per stream, snapshot and WAL alike

core::sharded_config recovery_config() {
  core::sharded_config cfg;
  cfg.coordinator.epochs.default_epoch_s = kRecoverEpochS;
  cfg.num_shards = 1;
  cfg.synchronous = true;
  return cfg;
}

/// Every (network, metric) stream of zone (ix, iy), in a fixed order.
template <class Fn>
void for_each_stream(int ix, int iy, Fn&& fn) {
  for (const char* net : {"NetB", "NetC"}) {
    for (std::size_t m = 0; m < trace::metric_count; ++m) {
      fn(core::estimate_key{{ix, iy}, net, static_cast<trace::metric>(m)});
    }
  }
}

/// A seeded estimate for epoch `e`: throughput-scale doubles that render
/// with all 17 significant digits, as a live table's do.
core::epoch_estimate warm_estimate(stats::rng_stream& rng, int e) {
  return {kRecoverEpochS * e, rng.uniform(1e5, 3e6), rng.uniform(0.0, 1e5),
          static_cast<std::size_t>(rng.uniform_int(2, 16))};
}

/// The warm state: `side` x `side` zones whose every stream holds
/// kFrozenEpochs frozen epochs and one open epoch.
void fill_warm_state(core::durable_state& state, int side) {
  stats::rng_stream rng(bench::bench_seed);
  for (int ix = 0; ix < side; ++ix) {
    for (int iy = 0; iy < side; ++iy) {
      for_each_stream(ix, iy, [&](const core::estimate_key& key) {
        for (int e = 0; e < kFrozenEpochs; ++e) {
          state.restore_estimate(key, warm_estimate(rng, e));
        }
        state.restore_open(key, {kFrozenEpochs * kRecoverEpochS, 2,
                                 rng.uniform(1e5, 3e6), rng.uniform(0.0, 1e9)});
      });
    }
  }
}

/// Appends the short WAL: kFrozenEpochs frozen epochs for each stream of a
/// row of zones outside the snapshot's grid. Returns the records written.
std::size_t append_wal(core::durable_log& dl, int side) {
  stats::rng_stream rng(bench::bench_seed + 1);
  std::uint64_t seq = 0;
  for (int ix = 0; ix < side; ++ix) {
    for_each_stream(ix, side + 1, [&](const core::estimate_key& key) {
      for (int e = 0; e < kFrozenEpochs; ++e) {
        dl.append(++seq, key, warm_estimate(rng, e));
      }
    });
  }
  return seq;
}

/// One install a snapshot load makes: a stream's frozen epochs and its
/// open accumulator, if any.
struct install_record {
  core::estimate_key key;
  std::vector<core::epoch_estimate> frozen;
  std::optional<core::open_epoch_state> open;
};

/// A durable_state that keeps no table: load_state into it times the
/// decode alone, and it can keep what it was handed for replay.
class install_sink final : public core::durable_state {
 public:
  explicit install_sink(std::vector<install_record>* keep) : keep_(keep) {}

  std::vector<core::estimate_key> keys() const override { return {}; }
  std::vector<core::epoch_estimate> history(
      const core::estimate_key&) const override {
    return {};
  }
  std::optional<core::open_epoch_state> open_state(
      const core::estimate_key&) const override {
    return std::nullopt;
  }
  std::size_t restore_stream(const core::estimate_key& key,
                             std::span<const core::epoch_estimate> frozen,
                             const core::open_epoch_state* open) override {
    records_ += frozen.size() + (open != nullptr ? 1 : 0);
    if (keep_ != nullptr) {
      keep_->push_back({key, {frozen.begin(), frozen.end()},
                        open != nullptr
                            ? std::optional<core::open_epoch_state>(*open)
                            : std::nullopt});
    }
    return 0;
  }
  void reserve_streams(std::size_t streams) override { hint_ = streams; }
  std::uint64_t alert_seq() const override { return alert_seq_; }
  void resume_alert_seq(std::uint64_t last_seq) override {
    alert_seq_ = last_seq;
  }

  /// Frozen epochs and open accumulators handed over so far.
  std::size_t records() const noexcept { return records_; }
  /// The last reserve_streams hint.
  std::size_t hint() const noexcept { return hint_; }

 private:
  std::vector<install_record>* keep_;
  std::size_t records_ = 0;
  std::size_t hint_ = 0;
  std::uint64_t alert_seq_ = 0;
};

/// Replays pre-decoded installs the way load_state makes them: the
/// stream-count hint, then one install per stream block.
void install(const std::vector<install_record>& records,
             std::uint64_t alert_seq, core::durable_state& state) {
  state.reserve_streams(records.size());
  for (const auto& r : records) {
    state.restore_stream(r.key, r.frozen, r.open ? &*r.open : nullptr);
  }
  if (alert_seq > 0) state.resume_alert_seq(alert_seq);
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void jsonl_recover(std::ofstream& out, const char* mode, std::size_t streams,
                   std::size_t records, double seconds) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"seconds\":%.6f,\"records_per_s\":%.0f",
                seconds, static_cast<double>(records) / seconds);
  out << "{\"bench\":\"wire_parse\",\"mode\":\"" << mode
      << "\",\"streams\":" << streams << ",\"records\":" << records << ","
      << buf << "}\n";
}

/// The recovery leg; returns false when a table rebuilt from the snapshot
/// does not render back to it, or a recovery misses a stream or a WAL
/// record.
bool recovery_leg(const geo::zone_grid& grid, std::size_t target_streams,
                  std::ofstream& jsonl) {
  // Two networks x every metric per zone, side x side zones.
  const double zones =
      static_cast<double>(target_streams) / (2 * trace::metric_count);
  const int side =
      std::max(1, static_cast<int>(std::lround(std::sqrt(zones))));
  const auto fresh = [&] {
    return std::make_unique<core::sharded_coordinator>(
        grid, std::vector<std::string>{"NetB", "NetC"}, recovery_config(),
        bench::bench_seed);
  };
  auto warm = fresh();
  fill_warm_state(*warm, side);
  const std::size_t streams = warm->keys().size();
  std::string bytes;
  core::save_state(bytes, *warm);

  std::string dir = (std::filesystem::temp_directory_path() /
                     "wiscape_bench_recover_XXXXXX")
                        .string();
  if (mkdtemp(dir.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed");
  }
  std::size_t wal_records = 0;
  {
    core::durable_log dl(dir);
    dl.checkpoint(*warm);
    wal_records = append_wal(dl, side);
  }

  std::vector<install_record> decoded;
  install_sink keeper(&decoded);
  core::load_state(std::string_view(bytes), keeper);
  const std::uint64_t alert_seq = keeper.alert_seq();
  const std::size_t records = keeper.records();
  const std::size_t wal_streams = wal_records / kFrozenEpochs;

  // The five measurements are interleaved within each rep, so drift on a
  // shared host hits every column alike; each column is a median. Tables
  // are built, checked and torn down outside the timed regions.
  const auto renders_back = [&](const core::durable_state& state) {
    std::string again;
    core::save_state(again, state);
    return again == bytes;
  };
  std::vector<double> decode_s, install_s, load_s, render_s, recover_s;
  std::string rendered;
  rendered.reserve(bytes.size());
  bool ok = true;
  for (int r = 0; r < kRecoverReps; ++r) {
    install_sink sink(nullptr);
    double t0 = now_s();
    core::load_state(std::string_view(bytes), sink);
    decode_s.push_back(now_s() - t0);
    ok = ok && sink.records() == records && sink.hint() == decoded.size();

    auto a = fresh();
    t0 = now_s();
    install(decoded, alert_seq, *a);
    install_s.push_back(now_s() - t0);
    ok = ok && (r > 0 || renders_back(*a));
    a.reset();

    auto b = fresh();
    t0 = now_s();
    core::load_state(std::string_view(bytes), *b);
    load_s.push_back(now_s() - t0);
    ok = ok && (r > 0 || renders_back(*b));
    b.reset();

    rendered.clear();
    t0 = now_s();
    core::save_state(rendered, *warm);
    render_s.push_back(now_s() - t0);
    ok = ok && rendered == bytes;

    auto c = fresh();
    t0 = now_s();
    core::durable_log dl(dir);
    const std::uint64_t last = dl.recover(*c);
    recover_s.push_back(now_s() - t0);
    ok = ok && last == wal_records && c->keys().size() == streams + wal_streams;
  }
  warm.reset();
  std::filesystem::remove_all(dir);

  const double decode = median_of(decode_s);
  const double inst = median_of(install_s);
  const double load = median_of(load_s);
  const double render = median_of(render_s);
  const double rec = median_of(recover_s);
  const auto rate = [](std::size_t n, double s) {
    return static_cast<double>(n) / s;
  };
  std::printf("  recovery of a warm state: %zu streams, %zu snapshot records "
              "(%.1f MB binary), %zu WAL records; median of %d runs:\n",
              streams, records, static_cast<double>(bytes.size()) / 1e6,
              wal_records, kRecoverReps);
  std::printf("    snapshot decode only:                %8.3f s  "
              "%11.0f records/s\n",
              decode, rate(records, decode));
  std::printf("    installs only (pre-decoded blocks):  %8.3f s  "
              "%11.0f records/s\n",
              inst, rate(records, inst));
  std::printf("    load_state (decode + install):       %8.3f s  "
              "%11.0f records/s  (decode share %.0f%%)\n",
              load, rate(records, load), 100.0 * decode / load);
  std::printf("    save_state render (checkpoint):      %8.3f s  "
              "%11.0f records/s\n",
              render, rate(records, render));
  std::printf("    durable_log::recover (snapshot+WAL): %8.3f s  "
              "%11.0f records/s\n\n",
              rec, rate(records + wal_records, rec));
  bench::report("recovery decode share of a snapshot load", "-",
                bench::fmt_pct(decode / load, 0));

  jsonl_recover(jsonl, "snapshot_decode", streams, records, decode);
  jsonl_recover(jsonl, "snapshot_install", streams, records, inst);
  jsonl_recover(jsonl, "snapshot_load", streams, records, load);
  jsonl_recover(jsonl, "snapshot_render", streams, records, render);
  jsonl_recover(jsonl, "durable_recover", streams + wal_streams,
                records + wal_records, rec);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t reports =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200'000;
  const std::size_t batch =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 64;
  const std::size_t recover_streams =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 110'000;
  constexpr int kReps = 5;

  bench::banner("Wire parse - zero-allocation decode fast path + REPORTB",
                "no paper figure; ROADMAP north star (cheap per-sample "
                "ingestion at the coordinator)");
  std::printf("  reports: %zu, REPORTB batch: %zu, best of %d runs\n\n",
              reports, batch, kReps);

  const geo::projection proj(cellnet::anchors::madison);
  const geo::zone_grid grid(proj, 250.0);
  const auto stream = make_stream(proj, reports);

  // Encode once, outside every timed region (the client pays that cost).
  std::vector<std::string> lines;
  lines.reserve(stream.size());
  for (const auto& rec : stream) {
    proto::measurement_report rep;
    rep.client_id = rec.client_id;
    rep.record = rec;
    lines.push_back(proto::encode(rep));
  }
  std::vector<std::string> frames;
  frames.reserve(stream.size() / batch + 1);
  for (std::size_t i = 0; i < stream.size(); i += batch) {
    const std::size_t n = std::min(batch, stream.size() - i);
    frames.push_back(proto::encode_report_batch(
        std::span<const trace::measurement_record>(stream.data() + i, n)));
  }

  // Checksum accumulator: keeps every decode loop observable.
  double sink = 0.0;

  const auto seed_pass = [&] {
    for (const auto& line : lines) {
      sink += seed_parser::decode_report(line).record.time_s;
    }
  };
  const auto fast_pass = [&] {
    for (const auto& line : lines) {
      sink += proto::decode_report(line).record.time_s;
    }
  };
  std::vector<trace::measurement_record> decoded;
  const auto batch_pass = [&] {
    for (const auto& frame : frames) {
      proto::decode_report_batch_into(frame, decoded);
      for (const auto& rec : decoded) sink += rec.time_s;
    }
  };

  // The three parsers are interleaved within each rep (after an untimed
  // warm-up) so scheduler/frequency drift on a shared host hits every
  // column equally, and each speedup is the median of per-rep paired
  // ratios -- the same discipline bench_ingest_scaling applies to the obs
  // overhead measurement.
  seed_pass();
  fast_pass();
  double seed_rps = 0.0, fast_rps = 0.0, batch_rps = 0.0;
  std::vector<double> fast_ratios, batch_ratios;
  for (int r = 0; r < kReps; ++r) {
    const double seed_r = one_rate(stream.size(), seed_pass);
    const double fast_r = one_rate(stream.size(), fast_pass);
    const double batch_r = one_rate(stream.size(), batch_pass);
    seed_rps = std::max(seed_rps, seed_r);
    fast_rps = std::max(fast_rps, fast_r);
    batch_rps = std::max(batch_rps, batch_r);
    fast_ratios.push_back(fast_r / seed_r);
    batch_ratios.push_back(batch_r / seed_r);
  }
  std::sort(fast_ratios.begin(), fast_ratios.end());
  std::sort(batch_ratios.begin(), batch_ratios.end());
  const double fast_speedup = fast_ratios[fast_ratios.size() / 2];
  const double batch_speedup = batch_ratios[batch_ratios.size() / 2];

  std::printf("  seed parser (substr+split+stod):       %11.0f reports/s\n",
              seed_rps);
  std::printf("  fast parser (string_view+from_chars):  %11.0f reports/s  "
              "(%.2fx paired median)\n",
              fast_rps, fast_speedup);
  std::printf("  batched parser (REPORTB %zu):           %11.0f reports/s  "
              "(%.2fx paired median)\n\n",
              batch, batch_rps, batch_speedup);

  // End-to-end: the wire layer in front of the 4-shard pipeline, against
  // the raw in-memory drain rate as the ceiling.
  const auto e2e = [&](auto&& submit) {
    double best = 0.0;
    for (int r = 0; r < kReps; ++r) {
      core::sharded_coordinator sc(grid, {"NetB", "NetC"}, pipeline_config(),
                                   bench::bench_seed);
      proto::coordinator_server server(sc);
      const double t0 = now_s();
      submit(sc, server);
      sc.flush();
      const double dt = now_s() - t0;
      best = std::max(best, static_cast<double>(stream.size()) / dt);
      sc.stop();
    }
    return best;
  };

  const double raw_rps =
      e2e([&](core::sharded_coordinator& sc, proto::coordinator_server&) {
        for (const auto& rec : stream) sc.report(rec);
      });
  const double wire_single_rps =
      e2e([&](core::sharded_coordinator&, proto::coordinator_server& server) {
        for (const auto& line : lines) bench::reply_of(server, line);
      });
  const double wire_batch_rps =
      e2e([&](core::sharded_coordinator&, proto::coordinator_server& server) {
        for (const auto& frame : frames) bench::reply_of(server, frame);
      });

  std::printf("  end-to-end into the 4-shard pipeline (1 producer thread):\n");
  std::printf("    raw in-memory drain (no wire):       %11.0f reports/s\n",
              raw_rps);
  std::printf("    REPORT per line:                     %11.0f reports/s  "
              "(%.2fx of raw)\n",
              wire_single_rps, wire_single_rps / raw_rps);
  std::printf("    REPORTB batched:                     %11.0f reports/s  "
              "(%.2fx of raw)\n\n",
              wire_batch_rps, wire_batch_rps / raw_rps);

  bench::report("single-line decode speedup vs seed parser", ">= 5x",
                bench::fmt(fast_speedup) + "x");
  bench::report("batched REPORTB decode vs seed parser", "-",
                bench::fmt(batch_speedup) + "x");
  bench::report("e2e REPORTB frames vs per-line REPORT", "> 1x",
                bench::fmt(wire_batch_rps / wire_single_rps) + "x");

  std::ofstream jsonl("bench_wire_parse.jsonl");
  jsonl_result(jsonl, "seed_single", 1, stream.size(), seed_rps);
  jsonl_result(jsonl, "fast_single", 1, stream.size(), fast_rps);
  jsonl_result(jsonl, "fast_batched", batch, stream.size(), batch_rps);
  jsonl_result(jsonl, "e2e_raw_drain", 1, stream.size(), raw_rps);
  jsonl_result(jsonl, "e2e_report", 1, stream.size(), wire_single_rps);
  jsonl_result(jsonl, "e2e_reportb", batch, stream.size(), wire_batch_rps);

  std::printf("\n");
  const bool recovered = recovery_leg(grid, recover_streams, jsonl);
  if (!recovered) {
    std::fprintf(stderr, "recovered table differs from the saved one\n");
  }

  // The checksum keeps the compiler honest; print it so it is truly live.
  std::fprintf(stderr, "# checksum %.1f\n", sink);
  return recovered ? 0 : 1;
}
