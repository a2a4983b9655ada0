// Query path - the read-side serving layer (ISSUE 5 tentpole; no paper
// figure -- this bench prices what an application pays to *consume*
// WiScape's estimates, and proves the central concurrency claim of the
// estimate_view design: reads never take a shard lock, so a query storm
// does not slow ingestion).
//
// Four measurements over one synthetic city (5x5 zones, two operators,
// all probe kinds -- the tests/sharded_coordinator_test.cpp recipe):
//  * read-only, view:  estimate_view::lookup() on a warm 4-shard
//    coordinator (the in-process application path, e.g. multihoming).
//  * read-only, wire:  the same lookups as full "QUERY ..." -> "EST ..."
//    round trips through coordinator_server::handle() (decode + lookup +
//    encode; what a remote console pays).
//  * write-only: one producer streaming the corpus into a fresh 4-shard
//    pipeline (first push to flush) -- the baseline ingestion rate.
//  * cold QUERYB frames: 256-lookup frames drawn uniformly from a table of
//    262,144 streams (far past the L2, and the mirror alone ~24 MB), each
//    answered per key (one estimate_view::lookup after another) and
//    batched (one estimate_view::lookup_batch per frame, whose mirror
//    passes overlap the cache misses), paired per rep and reported per
//    lookup; plus the whole v3 QUERYB -> ESTB handle() per lookup. The
//    legs above query 192 cache-resident streams, so only this one can
//    show what the batched pass buys.
//  * mixed 90/10: the same write workload with 3 reader threads pacing
//    themselves to 9 lookups per ingested report (90% reads / 10% writes
//    by op count). Acceptance: the paired-median mixed write rate stays
//    within 10% of write-only -- reads ride the seqlock'd mirrors and
//    leave the shard locks alone. On a host with fewer cores than
//    threads the readers necessarily eat CPU the writer and drain
//    workers needed, lock-free or not, so there the bar is 10% of the
//    CPU-timeshare prediction (write_cost / (write_cost + 9 read_cost)):
//    reads may cost their fair CPU share, but nothing beyond it --
//    which is exactly the no-lock-contention claim.
//
// Machine-readable results go to bench_query_path.jsonl in the working
// directory (one JSON object per line; schema in EXPERIMENTS.md).
//
//   ./bench_query_path [reports] [cold_streams]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/estimate_view.h"
#include "core/sharded_coordinator.h"
#include "geo/projection.h"
#include "proto/server.h"
#include "proto/wire_v3.h"
#include "stats/rng.h"
#include "trace/record.h"

using namespace wiscape;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Synthetic fleet stream: all probe kinds, two operators, a 5x5 zone
// neighbourhood (same recipe as bench_ingest_scaling).
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

core::sharded_config pipeline_config() {
  core::sharded_config cfg;
  cfg.coordinator.epochs.default_epoch_s = 120.0;
  cfg.num_shards = 4;
  cfg.synchronous = false;
  cfg.queue_capacity = 4096;
  return cfg;
}

/// One pre-resolved lookup: everything estimate_view::lookup(id) needs,
/// resolved outside the timed region.
struct probe_query {
  geo::zone_id zone;
  std::uint16_t network_id;
  trace::metric metric;
};

void jsonl_result(std::ofstream& out, const char* mode, std::size_t ops,
                  double ops_per_s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", ops_per_s);
  out << "{\"bench\":\"query_path\",\"mode\":\"" << mode << "\",\"ops\":" << ops
      << ",\"ops_per_s\":" << buf << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t reports =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 400'000;
  constexpr int kReps = 5;
  constexpr std::size_t kReaders = 3;
  constexpr std::size_t kReadsPerWrite = 3;  // per reader: 3 readers x 3 = 9

  bench::banner("Query path - read-side serving layer",
                "no paper figure; ISSUE 5 acceptance (mixed 90/10 write "
                "rate within 10% of write-only)");
  std::printf("  reports: %zu, shards: 4, readers: %zu, best of %d runs\n\n",
              reports, kReaders, kReps);

  const geo::projection proj(cellnet::anchors::madison);
  const geo::zone_grid grid(proj, 250.0);
  const auto stream = make_stream(proj, reports);
  double sink = 0.0;

  // ---- warm coordinator for the read-only legs ----------------------------
  core::sharded_coordinator warm(grid, {"NetB", "NetC"}, pipeline_config(),
                                 bench::bench_seed);
  for (const auto& rec : stream) warm.report(rec);
  warm.flush();
  const core::estimate_view view(warm);

  // Every materialised stream, pre-resolved to the id-keyed hot path; the
  // wire leg queries the same streams by zone-center position.
  std::vector<probe_query> queries;
  std::vector<std::string> wire_lines;
  for (const auto& key : warm.keys()) {
    queries.push_back({key.zone, view.network_id_of(key.network), key.metric});
    proto::query_request q;
    q.pos = grid.center(key.zone);
    q.network = key.network;
    q.metric = key.metric;
    q.time_s = stream.back().time_s;
    wire_lines.push_back(proto::encode(q));
  }
  std::printf("  streams materialised: %zu\n\n", queries.size());

  // ---- read-only: the in-process view -------------------------------------
  const std::size_t view_ops = reports * 4;
  double view_qps = 0.0;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < view_ops; ++i) {
      const probe_query& q = queries[i % queries.size()];
      if (const auto est = view.lookup(q.zone, q.network_id, q.metric)) {
        sink += est->mean;
      }
    }
    view_qps = std::max(view_qps,
                        static_cast<double>(view_ops) / (now_s() - t0));
  }
  std::printf("  read-only, estimate_view::lookup:  %11.0f lookups/s\n",
              view_qps);

  // ---- read-only: the wire round trip -------------------------------------
  proto::coordinator_server server(warm);
  const std::size_t wire_ops = reports / 2;
  double wire_qps = 0.0;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < wire_ops; ++i) {
      sink += static_cast<double>(
          bench::reply_of(server, wire_lines[i % wire_lines.size()]).size());
    }
    wire_qps = std::max(wire_qps,
                        static_cast<double>(wire_ops) / (now_s() - t0));
  }
  std::printf("  read-only, wire QUERY round trip:  %11.0f queries/s\n",
              wire_qps);

  // ---- read-only: the zero-allocation wire round trip ---------------------
  // Same decode + lookup + encode, but with a reused reply_buffer -- the
  // shape net::session runs per request. The delta against the round trip
  // above is the price of one reply_buffer and one std::string per reply.
  double wire_into_qps = 0.0;
  {
    proto::reply_buffer out;
    for (int r = 0; r < kReps; ++r) {
      const double t0 = now_s();
      for (std::size_t i = 0; i < wire_ops; ++i) {
        out.clear();
        server.handle(
            proto::request_view::text(wire_lines[i % wire_lines.size()]), out);
        sink += static_cast<double>(out.view().size());
      }
      wire_into_qps = std::max(wire_into_qps,
                               static_cast<double>(wire_ops) / (now_s() - t0));
    }
  }
  std::printf("  read-only, wire QUERY reused buf:  %11.0f queries/s  "
              "(%.2fx round trip)\n\n",
              wire_into_qps, wire_into_qps / wire_qps);

  // ---- cold QUERYB frames: per-key vs batched ----------------------------
  // A synchronous single-shard coordinator (the serving shape of the
  // end-to-end serve workload) restored with one frozen epoch per stream:
  // 8 streams (2 operators x 4 metrics) per zone over a square of zones.
  const std::size_t cold_streams =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 262'144;
  constexpr std::size_t kFrame = 256;
  constexpr std::size_t kColdFrames = 2048;
  constexpr int kColdReps = 9;
  double perkey_ns = 0.0, batched_ns = 0.0, cold_speedup = 0.0,
         queryb_ns = 0.0;
  {
    core::sharded_config cold_cfg;
    cold_cfg.num_shards = 1;
    cold_cfg.synchronous = true;
    core::sharded_coordinator cold(grid, {"NetB", "NetC"}, cold_cfg,
                                   bench::bench_seed);
    const std::vector<std::string> nets{"NetB", "NetC"};
    const int side = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(cold_streams) / 8.0)));
    std::vector<core::estimate_key> keys;
    keys.reserve(cold_streams);
    for (int z = 0; keys.size() < cold_streams; ++z) {
      const geo::zone_id zone{z % side - side / 2, z / side - side / 2};
      for (int k = 0; k < 8 && keys.size() < cold_streams; ++k) {
        core::estimate_key key{zone, nets[static_cast<std::size_t>(k % 2)],
                               static_cast<trace::metric>(k / 2)};
        core::epoch_estimate e;
        e.epoch_start_s = 1000.0 + static_cast<double>(keys.size());
        e.mean = 1.0e6 + static_cast<double>(keys.size());
        e.stddev = 1.0e4;
        e.samples = 1 + keys.size() % 150;
        cold.restore_estimate(key, e);
        keys.push_back(std::move(key));
      }
    }
    const core::estimate_view cold_view(cold);
    stats::rng_stream rng(bench::bench_seed + 7);
    std::vector<core::stream_lookup> lookups(kColdFrames * kFrame);
    std::vector<proto::query_request> wire_qs(kFrame);
    std::vector<std::string> wire_frames;
    for (std::size_t i = 0; i < lookups.size(); ++i) {
      const core::estimate_key& key = keys[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(keys.size()) - 1))];
      core::stream_lookup& l = lookups[i];
      l.zone = key.zone;
      l.network_id = cold_view.network_id_of(key.network);
      l.metric = key.metric;
      l.now_s = 5.0e5;
      if (wire_frames.size() < kColdFrames / 8) {
        proto::query_request& q = wire_qs[i % kFrame];
        q.pos = grid.center(key.zone);
        q.network = key.network;
        q.metric = key.metric;
        q.time_s = l.now_s;
        if (i % kFrame == kFrame - 1) {
          wire_frames.push_back(proto::v3::encode_query_batch_frame(wire_qs));
        }
      }
    }
    const auto per_key = [&] {
      const double t0 = now_s();
      for (const core::stream_lookup& l : lookups) {
        if (const auto est =
                cold_view.lookup(l.zone, l.network_id, l.metric, l.now_s)) {
          sink += est->staleness_s;
        }
      }
      return 1e9 * (now_s() - t0) / static_cast<double>(lookups.size());
    };
    const auto batched = [&] {
      const double t0 = now_s();
      for (std::size_t f = 0; f < kColdFrames; ++f) {
        const std::span<core::stream_lookup> frame(
            lookups.data() + f * kFrame, kFrame);
        cold_view.lookup_batch(frame);
        sink += frame.back().est.staleness_s;
      }
      return 1e9 * (now_s() - t0) / static_cast<double>(lookups.size());
    };
    proto::coordinator_server cold_server(cold);
    proto::reply_buffer out;
    const auto wire = [&] {
      const double t0 = now_s();
      for (const std::string& frame : wire_frames) {
        out.clear();
        cold_server.handle(proto::request_view::binary(frame), out);
        sink += static_cast<double>(out.size());
      }
      return 1e9 * (now_s() - t0) /
             static_cast<double>(wire_frames.size() * kFrame);
    };
    per_key();  // warm-up (untimed)
    batched();
    wire();
    std::vector<double> pk, bt, sp, wr;
    for (int r = 0; r < kColdReps; ++r) {
      // Alternate the order so drift within a rep hits both columns alike.
      double a = 0.0, b = 0.0;
      if (r % 2 == 0) {
        a = per_key();
        b = batched();
      } else {
        b = batched();
        a = per_key();
      }
      pk.push_back(a);
      bt.push_back(b);
      sp.push_back(a / b);
      wr.push_back(wire());
    }
    const auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    perkey_ns = median(pk);
    batched_ns = median(bt);
    cold_speedup = median(sp);
    queryb_ns = median(wr);
  }
  std::printf("  cold QUERYB frames (%zu streams, %zu lookups/frame, "
              "median of %d paired reps):\n",
              cold_streams, kFrame, kColdReps);
  std::printf("    per-key estimate_view::lookup:   %8.1f ns/lookup\n",
              perkey_ns);
  std::printf("    batched lookup_batch:            %8.1f ns/lookup  "
              "(%.2fx paired median)\n",
              batched_ns, cold_speedup);
  std::printf("    v3 QUERYB handle():              %8.1f ns/lookup\n\n",
              queryb_ns);

  // ---- write-only vs mixed 90/10 ------------------------------------------
  // One producer streams the corpus into a fresh pipeline; the mixed leg
  // adds reader threads pacing themselves off the producer's progress
  // counter (kReadsPerWrite lookups each per ingested report). Interleaved
  // within each rep, paired-median ratio -- the bench_apply_path
  // discipline, so host drift hits both columns equally.
  const auto ingest_pass = [&](bool with_readers, double* read_qps_out) {
    core::sharded_coordinator sc(grid, {"NetB", "NetC"}, pipeline_config(),
                                 bench::bench_seed);
    const core::estimate_view live(sc);
    std::atomic<std::size_t> written{0};
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> reads{0};
    std::vector<std::thread> readers;
    if (with_readers) {
      for (std::size_t t = 0; t < kReaders; ++t) {
        readers.emplace_back([&, t] {
          stats::rng_stream rng(bench::bench_seed + 100 + t);
          double local = 0.0;
          std::uint64_t my_reads = 0;
          while (!done.load(std::memory_order_acquire)) {
            const std::size_t target =
                kReadsPerWrite * written.load(std::memory_order_relaxed);
            if (my_reads >= target) {
              std::this_thread::yield();
              continue;
            }
            const probe_query& q =
                queries[rng.uniform_int(
                    0, static_cast<int>(queries.size()) - 1)];
            if (const auto est = live.lookup(q.zone, q.network_id, q.metric)) {
              local += est->mean;
            }
            ++my_reads;
          }
          reads.fetch_add(my_reads);
          if (local < 0.0) std::abort();  // keep `local` live
        });
      }
    }
    const double t0 = now_s();
    for (const auto& rec : stream) {
      sc.report(rec);
      written.fetch_add(1, std::memory_order_relaxed);
    }
    sc.flush();
    const double dt = now_s() - t0;
    done.store(true, std::memory_order_release);
    for (auto& th : readers) th.join();
    if (read_qps_out != nullptr) {
      *read_qps_out = static_cast<double>(reads.load()) / dt;
    }
    sink += static_cast<double>(sc.reports_ingested());
    return static_cast<double>(stream.size()) / dt;
  };

  ingest_pass(false, nullptr);  // warm-up (untimed)
  double write_rps = 0.0, mixed_rps = 0.0, mixed_read_qps = 0.0;
  std::vector<double> ratios;
  for (int r = 0; r < kReps; ++r) {
    const double w = ingest_pass(false, nullptr);
    double rq = 0.0;
    const double m = ingest_pass(true, &rq);
    write_rps = std::max(write_rps, w);
    if (m > mixed_rps) {
      mixed_rps = m;
      mixed_read_qps = rq;
    }
    ratios.push_back(m / w);
  }
  std::sort(ratios.begin(), ratios.end());
  const double ratio = ratios[ratios.size() / 2];
  const double read_share =
      mixed_read_qps / (mixed_read_qps + mixed_rps) * 100.0;

  // The acceptance bar. With enough cores for every thread (1 producer +
  // 4 drain workers + kReaders), concurrent reads should cost the writer
  // nothing: bar = 0.9x write-only. Oversubscribed, the readers' op mix
  // costs CPU the write path needed no matter how lock-free the reads
  // are; the fair bar is 90% of the timeshare prediction, which charges
  // the reads their serialized CPU cost and nothing else.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const bool dedicated_cores = hw >= 1 + 4 + kReaders;
  const double write_cost = 1.0 / write_rps;
  const double read_cost = 1.0 / view_qps;
  const double timeshare_ratio =
      write_cost /
      (write_cost +
       static_cast<double>(kReaders * kReadsPerWrite) * read_cost);
  const double bar = dedicated_cores ? 0.9 : 0.9 * timeshare_ratio;

  std::printf("  write-only ingest:                 %11.0f reports/s\n",
              write_rps);
  std::printf("  mixed 90/10 ingest:                %11.0f reports/s  "
              "(%.2fx paired median)\n",
              mixed_rps, ratio);
  std::printf("  mixed 90/10 concurrent reads:      %11.0f lookups/s  "
              "(%.0f%% of ops were reads)\n",
              mixed_read_qps, read_share);
  std::printf("  cores: %u for %zu threads -> bar %.2fx%s\n\n", hw,
              static_cast<std::size_t>(1 + 4 + kReaders), bar,
              dedicated_cores ? ""
                              : "  (oversubscribed: 0.9x the CPU-timeshare "
                                "prediction)");

  bench::report("mixed 90/10 write rate vs write-only",
                ">= " + bench::fmt(bar) + "x", bench::fmt(ratio) + "x");
  bench::report("read-only view lookups", "-",
                bench::fmt(view_qps / 1e6) + " M/s");
  bench::report("read-only wire QUERY round trips", "-",
                bench::fmt(wire_qps / 1e6) + " M/s");
  bench::report("cold QUERYB batched vs per-key lookups", "-",
                bench::fmt(cold_speedup) + "x");

  std::ofstream jsonl("bench_query_path.jsonl");
  jsonl_result(jsonl, "read_view", view_ops, view_qps);
  jsonl_result(jsonl, "read_wire", wire_ops, wire_qps);
  jsonl_result(jsonl, "read_wire_into", wire_ops, wire_into_qps);
  jsonl_result(jsonl, "write_only", stream.size(), write_rps);
  jsonl_result(jsonl, "mixed_write", stream.size(), mixed_rps);
  jsonl_result(jsonl, "mixed_read",
               static_cast<std::size_t>(mixed_read_qps), mixed_read_qps);
  {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"bench\":\"query_path\",\"mode\":\"mixed_ratio\","
                  "\"write_only_rps\":%.0f,\"mixed_write_rps\":%.0f,"
                  "\"ratio\":%.3f,\"bar\":%.3f,\"cores\":%u,"
                  "\"read_share_pct\":%.1f}\n",
                  write_rps, mixed_rps, ratio, bar, hw, read_share);
    jsonl << buf;
    std::snprintf(buf, sizeof buf,
                  "{\"bench\":\"query_path\",\"mode\":\"cold_queryb\","
                  "\"streams\":%zu,\"frame\":%zu,"
                  "\"perkey_ns_per_lookup\":%.1f,"
                  "\"batched_ns_per_lookup\":%.1f,\"speedup\":%.3f,"
                  "\"queryb_v3_ns_per_lookup\":%.1f,\"cores\":%u}\n",
                  cold_streams, kFrame, perkey_ns, batched_ns, cold_speedup,
                  queryb_ns, hw);
    jsonl << buf;
  }

  // The checksum keeps the compiler honest; print it so it is truly live.
  std::fprintf(stderr, "# checksum %.1f\n", sink);
  return ratio >= bar ? 0 : 1;
}
