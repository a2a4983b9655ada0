// Ingestion scaling - reports/sec through the sharded coordinator pipeline
// at 1/2/4/8 threads (ISSUE 1 tentpole; no paper figure -- this bench sizes
// the ROADMAP's "serving heavy traffic from millions of users" claim).
//
// Two measurements over the same synthetic fleet replay:
//  * raw drain: producers enqueue pre-built reports as fast as possible and
//    the per-shard workers apply them. CPU-bound; scales with physical
//    cores (flat on a single-core host).
//  * fleet replay: each producer thread emulates one client transport whose
//    REPORT lines arrive with a per-line service latency (parse + a modelled
//    wire delay), the way a real coordinator receives traffic. Extra
//    threads overlap that latency, so throughput scales with thread count
//    even on one core -- the reason monitoring backends thread their
//    ingestion front-end.
//
// A third measurement prices the observability layer (ISSUE 2): every raw
// drain is run twice, with obs:: instrumentation enabled and disabled, and
// the regression is reported (acceptance: <= 5%). A fourth prices the
// REPORTB ingest path on a table far past the caches, in CPU per record:
// server total, the handling thread alone, and the apply alone.
// Machine-readable results go to bench_ingest_scaling.jsonl in the working
// directory (one JSON object per line; schema in EXPERIMENTS.md), followed
// by a full obs metrics snapshot line for the instrumented runs.
//
//   ./bench_ingest_scaling [reports] [wire_us]
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/sharded_coordinator.h"
#include "geo/projection.h"
#include "obs/registry.h"
#include "obs/snapshot_writer.h"
#include "proto/messages.h"
#include "proto/server.h"
#include "proto/wire_v3.h"

using namespace wiscape;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Synthetic fleet stream: all probe kinds, two operators, a 5x5 zone
// neighbourhood (same recipe as tests/sharded_coordinator_test.cpp).
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

core::sharded_config pipeline_config(std::size_t threads) {
  core::sharded_config cfg;
  cfg.coordinator.epochs.default_epoch_s = 120.0;
  cfg.num_shards = threads;
  cfg.synchronous = false;
  cfg.queue_capacity = 4096;
  cfg.drain_batch = 64;
  return cfg;
}

/// Raw drain: `threads` producers enqueue slices of the stream into a
/// `threads`-shard pipeline; returns reports/sec from first push to flush.
double run_raw(const geo::zone_grid& grid,
               const std::vector<trace::measurement_record>& stream,
               std::size_t threads) {
  core::sharded_coordinator sc(grid, {"NetB", "NetC"},
                               pipeline_config(threads), bench::bench_seed);
  const double t0 = now_s();
  std::vector<std::thread> producers;
  producers.reserve(threads);
  for (std::size_t p = 0; p < threads; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = p; i < stream.size(); i += threads) {
        sc.report(stream[i]);
      }
    });
  }
  for (auto& th : producers) th.join();
  sc.flush();
  const double dt = now_s() - t0;
  return static_cast<double>(stream.size()) / dt;
}

/// Fleet replay: each producer is one client transport delivering encoded
/// REPORT lines to the concurrent server, `wire_us` of modelled wire/service
/// latency apart. Returns reports/sec.
double run_replay(const geo::zone_grid& grid,
                  const std::vector<trace::measurement_record>& stream,
                  std::size_t threads, unsigned wire_us) {
  core::sharded_coordinator sc(grid, {"NetB", "NetC"},
                               pipeline_config(threads), bench::bench_seed);
  proto::coordinator_server server(sc);

  // Encode outside the timed region: the client paid that cost.
  std::vector<std::string> lines;
  lines.reserve(stream.size());
  for (const auto& rec : stream) {
    proto::measurement_report rep;
    rep.client_id = rec.client_id;
    rep.record = rec;
    lines.push_back(proto::encode(rep));
  }

  const double t0 = now_s();
  std::vector<std::thread> producers;
  producers.reserve(threads);
  for (std::size_t p = 0; p < threads; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = p; i < lines.size(); i += threads) {
        std::this_thread::sleep_for(std::chrono::microseconds(wire_us));
        bench::reply_of(server, lines[i]);
      }
    });
  }
  for (auto& th : producers) th.join();
  sc.flush();
  const double dt = now_s() - t0;
  if (server.reports_received() != stream.size()) {
    std::fprintf(stderr, "LOST REPORTS: %llu of %zu\n",
                 static_cast<unsigned long long>(server.reports_received()),
                 stream.size());
    std::exit(1);
  }
  return static_cast<double>(stream.size()) / dt;
}

/// Batched fleet replay: like run_replay, but each producer packs
/// `batch` records into one REPORTB frame and pays the modelled wire
/// latency once per frame instead of once per record -- the client-side
/// batching the wire fast path exists to exploit. Returns reports/sec.
double run_replay_batched(const geo::zone_grid& grid,
                          const std::vector<trace::measurement_record>& stream,
                          std::size_t threads, unsigned wire_us,
                          std::size_t batch) {
  core::sharded_coordinator sc(grid, {"NetB", "NetC"},
                               pipeline_config(threads), bench::bench_seed);
  proto::coordinator_server server(sc);

  // Frame outside the timed region: the client paid that cost. Frames are
  // dealt round-robin so every producer thread carries an equal share.
  std::vector<std::string> frames;
  for (std::size_t i = 0; i < stream.size(); i += batch) {
    const std::size_t n = std::min(batch, stream.size() - i);
    frames.push_back(proto::encode_report_batch(
        std::span<const trace::measurement_record>(stream.data() + i, n)));
  }

  const double t0 = now_s();
  std::vector<std::thread> producers;
  producers.reserve(threads);
  for (std::size_t p = 0; p < threads; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = p; i < frames.size(); i += threads) {
        std::this_thread::sleep_for(std::chrono::microseconds(wire_us));
        bench::reply_of(server, frames[i]);
      }
    });
  }
  for (auto& th : producers) th.join();
  sc.flush();
  const double dt = now_s() - t0;
  if (server.reports_received() != stream.size()) {
    std::fprintf(stderr, "LOST REPORTS: %llu of %zu\n",
                 static_cast<unsigned long long>(server.reports_received()),
                 stream.size());
    std::exit(1);
  }
  return static_cast<double>(stream.size()) / dt;
}

/// The obs overhead acceptance bar, percent.
constexpr double kOverheadBarPct = 5.0;

/// Paired best-of-`reps` raw-drain throughput with obs instrumentation on
/// and off. The two variants are interleaved within each rep (after one
/// untimed warm-up) so scheduler drift on a shared host hits both columns
/// equally, and best-of damps one-off noise -- we are measuring the code,
/// not the machine's worst moment.
struct raw_pair {
  double on = 0.0;        ///< best instrumented reports/s
  double off = 0.0;       ///< best uninstrumented reports/s
  double overhead = 0.0;  ///< median of per-rep paired overhead, percent
  double overhead_min = 0.0;  ///< spread of the per-rep paired overheads
  double overhead_max = 0.0;
  /// False when the spread straddles the bar: the reps disagree on which
  /// side of it the code is, so the median alone decides nothing.
  bool resolved() const noexcept {
    return !(overhead_min <= kOverheadBarPct && overhead_max > kOverheadBarPct);
  }
};

raw_pair best_raw_pair(const geo::zone_grid& grid,
                       const std::vector<trace::measurement_record>& stream,
                       std::size_t threads, int reps) {
  raw_pair best;
  std::vector<double> overheads;
  (void)run_raw(grid, stream, threads);  // warm-up (page faults, allocator)
  for (int r = 0; r < reps; ++r) {
    const double on = run_raw(grid, stream, threads);
    obs::set_enabled(false);
    const double off = run_raw(grid, stream, threads);
    obs::set_enabled(true);
    best.on = std::max(best.on, on);
    best.off = std::max(best.off, off);
    // Each rep's on/off runs are back-to-back, so their ratio cancels the
    // slow scheduler/thermal drift a shared host superimposes on the raw
    // numbers; the median across reps discards one-off outliers.
    if (off > 0) overheads.push_back(100.0 * (off - on) / off);
  }
  std::sort(overheads.begin(), overheads.end());
  if (!overheads.empty()) {
    best.overhead = overheads[overheads.size() / 2];
    best.overhead_min = overheads.front();
    best.overhead_max = overheads.back();
  }
  return best;
}

double cpu_s(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU per record of the ingest path the servers run, best of `reps`.
struct handoff_cost {
  double server_ns = 0.0;    ///< process CPU: decode + hand-off + apply
  double producer_ns = 0.0;  ///< the handling thread alone (decode + hand-off)
  double apply_ns = 0.0;     ///< coordinator::report_batch alone, one thread
  double gated_share = 0.0;  ///< measured records the history gate skips
};

/// v3 REPORTB frames of 64 records, drawn uniformly over a warm 96x96-zone
/// table (~110k streams, the perfbench ingest shape): through
/// coordinator_server into an asynchronous 1-shard coordinator, and the
/// same decoded batches straight into a coordinator. Every other zone (a
/// checkerboard) is warmed to its samples_target on each planning stream,
/// so the measured records landing there take the planning-history gate
/// (coordinator::report_batch appends a record to the history only while
/// its planning stream's open epoch holds at most the target); the other
/// zones hold 8 samples per stream and append.
handoff_cost reportb_handoff(const geo::projection& proj, std::size_t frames,
                             int reps) {
  constexpr int kSide = 96;
  constexpr std::size_t kFrame = 64;
  constexpr std::size_t kKinds = 4;
  const geo::zone_grid grid(proj, 250.0);
  const std::vector<std::string> nets{"NetB", "NetC"};
  std::vector<geo::lat_lon> centers;
  for (int iy = 0; iy < kSide; ++iy) {
    for (int ix = 0; ix < kSide; ++ix) {
      centers.push_back(grid.center({ix, iy}));
    }
  }
  core::sharded_config cfg;
  cfg.num_shards = 1;
  cfg.queue_capacity = 65536;
  cfg.coordinator.epochs.default_epoch_s = 1800.0;
  const std::size_t target = cfg.coordinator.default_samples_per_epoch;
  const auto record = [](stats::rng_stream& g, double t,
                         const geo::lat_lon& pos, const std::string& net,
                         std::size_t kind) {
    trace::measurement_record r;
    r.time_s = t;
    r.network = net;
    r.pos = pos;
    r.kind = static_cast<trace::probe_kind>(kind);
    r.success = true;
    r.throughput_bps = 1e6 * (1.0 + g.uniform());
    r.loss_rate = 0.01;
    r.jitter_s = 0.001;
    r.rtt_s = 0.1;
    return r;
  };
  // Each probe kind has its own planning stream per (zone, operator): the
  // kinds' metric sets are disjoint. open[] counts their open-epoch samples.
  const auto stream = [&](std::size_t zone, std::size_t net,
                          std::size_t kind) {
    return (zone * nets.size() + net) * kKinds + kind;
  };
  std::vector<std::size_t> open(centers.size() * nets.size() * kKinds);
  for (std::size_t z = 0; z < centers.size(); ++z) {
    const bool flooded = (z % kSide + z / kSide) % 2 == 0;
    for (std::size_t net = 0; net < nets.size(); ++net) {
      for (std::size_t k = 0; k < kKinds; ++k) {
        open[stream(z, net, k)] = flooded ? target : 8;
      }
    }
  }
  // Warm, inside one 30-min epoch, in bounded chunks (the flooded zones
  // alone take ~3.7M records).
  const auto warm_up = [&](auto& coord) {
    stats::rng_stream g(bench::bench_seed + 1);
    std::vector<trace::measurement_record> chunk;
    for (std::size_t z = 0; z < centers.size(); ++z) {
      for (std::size_t net = 0; net < nets.size(); ++net) {
        for (std::size_t k = 0; k < kKinds; ++k) {
          for (std::size_t j = 0; j < open[stream(z, net, k)]; ++j) {
            chunk.push_back(record(g, 18001.0, centers[z], nets[net], k));
            if (chunk.size() == 4096) {
              coord.report_batch(chunk);
              chunk.clear();
            }
          }
        }
      }
    }
    coord.report_batch(chunk);
  };
  stats::rng_stream rng(bench::bench_seed);
  std::size_t gated = 0;
  std::vector<std::string> wire;
  std::vector<std::vector<trace::measurement_record>> batches;
  for (std::size_t f = 0; f < frames; ++f) {
    std::vector<trace::measurement_record> b;
    for (std::size_t i = 0; i < kFrame; ++i) {
      const auto z = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(centers.size()) - 1));
      const auto net = static_cast<std::size_t>(rng.uniform_int(0, 1));
      const auto k = static_cast<std::size_t>(rng.uniform_int(0, 3));
      // Past the target once this record is folded: the gate skips it.
      if (++open[stream(z, net, k)] > target) ++gated;
      b.push_back(record(rng, 18100.0 + 0.01 * static_cast<double>(f),
                         centers[z], nets[net], k));
    }
    wire.push_back(proto::v3::encode_report_batch_frame(b));
    batches.push_back(std::move(b));
  }
  const double n = static_cast<double>(frames * kFrame);
  handoff_cost best{1e300, 1e300, 1e300, static_cast<double>(gated) / n};
  for (int r = 0; r < reps; ++r) {
    {
      core::sharded_coordinator sc(grid, nets, cfg, bench::bench_seed);
      proto::coordinator_server server(sc);
      warm_up(sc);
      sc.flush();
      proto::reply_buffer out;
      const double c0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
      const double p0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
      for (const auto& f : wire) {
        out.clear();
        server.handle(proto::request_view::binary(f), out);
      }
      const double p1 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
      sc.flush();
      const double c1 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
      best.server_ns = std::min(best.server_ns, 1e9 * (c1 - c0) / n);
      best.producer_ns = std::min(best.producer_ns, 1e9 * (p1 - p0) / n);
    }
    {
      core::alert_ring alerts(cfg.coordinator.alert_ring_capacity);
      core::coordinator co(grid, nets, cfg.coordinator, bench::bench_seed,
                           alerts);
      warm_up(co);
      const double a0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
      for (const auto& b : batches) co.report_batch(b);
      const double a1 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
      best.apply_ns = std::min(best.apply_ns, 1e9 * (a1 - a0) / n);
    }
  }
  return best;
}

/// One machine-readable result line (schema documented in EXPERIMENTS.md).
void jsonl_result(std::ofstream& out, const char* mode, std::size_t threads,
                  bool obs_enabled, std::size_t reports, double rps) {
  out << "{\"bench\":\"ingest_scaling\",\"mode\":\"" << mode
      << "\",\"threads\":" << threads
      << ",\"obs\":" << (obs_enabled ? "true" : "false")
      << ",\"reports\":" << reports << ",\"reports_per_s\":";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", rps);
  out << buf << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const double t_start = now_s();
  const std::size_t reports =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 150'000;
  const unsigned wire_us =
      argc > 2 ? static_cast<unsigned>(std::strtoul(argv[2], nullptr, 10))
               : 100;

  bench::banner("Ingestion scaling - sharded coordinator pipeline",
                "no paper figure; ROADMAP north star (production-scale "
                "ingestion)");
  std::printf("  host cores: %u, reports: %zu, modelled wire latency: %u us\n\n",
              std::thread::hardware_concurrency(), reports, wire_us);

  std::ofstream jsonl("bench_ingest_scaling.jsonl");

  const geo::projection proj(cellnet::anchors::madison);
  const geo::zone_grid grid(proj, 250.0);
  const auto stream = make_stream(proj, reports);

  // Sequential reference: the pre-sharding code path.
  {
    core::alert_ring alerts;
    core::coordinator seq(grid, {"NetB", "NetC"}, {}, bench::bench_seed,
                          alerts);
    const double t0 = now_s();
    for (const auto& rec : stream) seq.report(rec);
    const double rps = static_cast<double>(stream.size()) / (now_s() - t0);
    std::printf("  sequential coordinator (reference): %11.0f reports/s\n\n",
                rps);
    jsonl_result(jsonl, "sequential", 1, true, stream.size(), rps);
  }

  // Raw drain, instrumented vs uninstrumented: the telemetry hot path is
  // one relaxed fetch-add per event, so the two columns should be within
  // noise of each other (acceptance: <= 5% regression).
  constexpr int kReps = 5;
  std::printf(
      "  raw drain (CPU-bound; scales with cores), interleaved best of %d "
      "runs;\n"
      "  overhead: median [min, max] of the per-run paired overheads, "
      "\"unresolved\" when\n"
      "  that spread straddles the %.0f%% bar:\n"
      "                   obs enabled   obs disabled   overhead\n",
      kReps, kOverheadBarPct);
  double raw1 = 0.0, raw4 = 0.0, raw4_off = 0.0;
  raw_pair pair4;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const raw_pair pair = best_raw_pair(grid, stream, threads, kReps);
    const double rps = pair.on, rps_off = pair.off;
    if (threads == 1) raw1 = rps;
    if (threads == 4) {
      raw4 = rps;
      raw4_off = rps_off;
      pair4 = pair;
    }
    std::printf(
        "    %zu thread(s): %11.0f %14.0f reports/s  %+5.1f%% [%+5.1f, "
        "%+5.1f]%s  (%.2fx vs 1 thread)\n",
        threads, rps, rps_off, pair.overhead, pair.overhead_min,
        pair.overhead_max, pair.resolved() ? "" : " unresolved",
        raw1 > 0 ? rps / raw1 : 1.0);
    jsonl_result(jsonl, "raw", threads, true, stream.size(), rps);
    jsonl_result(jsonl, "raw", threads, false, stream.size(), rps_off);
    jsonl << "{\"bench\":\"ingest_scaling\",\"mode\":\"obs_pair\","
             "\"threads\":"
          << threads << ",\"overhead_pct\":" << bench::fmt(pair.overhead, 2)
          << ",\"overhead_min_pct\":" << bench::fmt(pair.overhead_min, 2)
          << ",\"overhead_max_pct\":" << bench::fmt(pair.overhead_max, 2)
          << ",\"resolved\":" << (pair.resolved() ? "true" : "false")
          << "}\n";
  }

  // Replay uses a lighter stream: each line also pays the wire latency.
  const std::size_t replay_n = std::min<std::size_t>(reports / 4, 16'000);
  const std::vector<trace::measurement_record> replay_stream(
      stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(replay_n));
  std::printf("\n  fleet replay (latency-bound; scales with threads):\n");
  double rep1 = 0.0, rep4 = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const double rps = run_replay(grid, replay_stream, threads, wire_us);
    if (threads == 1) rep1 = rps;
    if (threads == 4) rep4 = rps;
    std::printf("    %zu thread(s): %11.0f reports/s  (%.2fx vs 1 thread)\n",
                threads, rps, rep1 > 0 ? rps / rep1 : 1.0);
    jsonl_result(jsonl, "replay", threads, true, replay_stream.size(), rps);
  }

  // Batched replay: same fleet, REPORTB frames of 32, one wire latency per
  // frame. The wire-cost amortisation should dwarf the thread scaling.
  constexpr std::size_t kFrame = 32;
  std::printf("\n  fleet replay, batched (REPORTB frames of %zu):\n", kFrame);
  double repb4 = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const double rps =
        run_replay_batched(grid, replay_stream, threads, wire_us, kFrame);
    if (threads == 4) repb4 = rps;
    std::printf("    %zu thread(s): %11.0f reports/s\n", threads, rps);
    jsonl_result(jsonl, "replay_batched", threads, true, replay_stream.size(),
                 rps);
  }

  // The REPORTB ingest path on a table far past the caches: what one
  // record costs from wire frame to applied, and its two halves.
  constexpr std::size_t kHandoffFrames = 10000;
  const handoff_cost handoff = reportb_handoff(proj, kHandoffFrames, 3);
  std::printf(
      "\n  REPORTB ingest, v3 frames of 64 on a warm ~110k-stream table "
      "(best of 3, CPU ns/record):\n"
      "    server (decode + hand-off + apply): %7.1f\n"
      "    handling thread (decode + hand-off): %6.1f\n"
      "    apply alone (coordinator::report_batch): %6.1f\n"
      "    records past their planning stream's target (history gate): "
      "%.1f%%\n",
      handoff.server_ns, handoff.producer_ns, handoff.apply_ns,
      100.0 * handoff.gated_share);
  {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"bench\":\"ingest_scaling\","
                  "\"mode\":\"reportb_handoff\","
                  "\"frames\":%zu,\"records_per_frame\":64,"
                  "\"server_cpu_ns_per_rec\":%.1f,"
                  "\"producer_cpu_ns_per_rec\":%.1f,"
                  "\"apply_cpu_ns_per_rec\":%.1f,"
                  "\"gated_share\":%.4f}\n",
                  kHandoffFrames, handoff.server_ns, handoff.producer_ns,
                  handoff.apply_ns, handoff.gated_share);
    jsonl << buf;
  }

  const double overhead_pct = pair4.overhead;
  std::printf("\n");
  bench::report("fleet replay speedup, 4 threads vs 1", "> 1x",
                bench::fmt(rep1 > 0 ? rep4 / rep1 : 0.0) + "x");
  bench::report("batched replay vs per-line replay, 4 threads", "> 1x",
                bench::fmt(rep4 > 0 ? repb4 / rep4 : 0.0) + "x");
  bench::report("raw drain speedup, 4 threads vs 1 (1 core => ~1x)", "-",
                bench::fmt(raw1 > 0 ? raw4 / raw1 : 0.0) + "x");
  bench::report("obs instrumentation overhead, raw drain 4 threads",
                "<= 5%", bench::fmt(overhead_pct, 1) + "%");

  // Machine-readable coda: the overhead pair and a full metrics snapshot of
  // everything this process counted (the ingest-scaling metrics columns).
  jsonl << "{\"bench\":\"ingest_scaling\",\"mode\":\"obs_overhead\","
           "\"threads\":4,\"obs_on_reports_per_s\":"
        << static_cast<long long>(raw4)
        << ",\"obs_off_reports_per_s\":" << static_cast<long long>(raw4_off)
        << ",\"overhead_pct\":" << bench::fmt(overhead_pct, 2)
        << ",\"overhead_min_pct\":" << bench::fmt(pair4.overhead_min, 2)
        << ",\"overhead_max_pct\":" << bench::fmt(pair4.overhead_max, 2)
        << "}\n";
  obs::write_snapshot_json(jsonl, obs::registry::global(), 0,
                           now_s() - t_start);
  return 0;
}
