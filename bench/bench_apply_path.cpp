// Coordinator apply-path throughput - the dense interned estimate store vs
// the seed's string-keyed unordered_map (ISSUE 4 tentpole; no paper figure
// -- this bench prices the per-sample fold behind every REPORT/REPORTB).
//
// Four measurements over the same synthetic report stream:
//  * seed store: the PR-0-era zone_table (preserved below: estimate_key
//    string copy + string hash per sample, per-epoch boundary walk).
//    Acceptance: the dense store reaches >= 2x its paired-median rate.
//  * dense store: interned u16 network ids, one u64 packed key, open
//    addressing with a last-key memo.
//  * steady-state allocation audit: a global operator new/delete counting
//    hook proves the dense apply path performs ZERO heap allocations per
//    report once streams exist (the seed store hashes a string per sample
//    and copies the key into a temporary -- a heap allocation whenever the
//    operator name outgrows the small-string buffer).
//  * gap micro: one sample landing 10^6 (both stores) and 10^12 (dense
//    only; the seed loop would take hours) epochs late -- the O(1)
//    fast-forward vs the seed's per-epoch walk.
//
// Machine-readable results go to bench_apply_path.jsonl in the working
// directory (one JSON object per line; schema in EXPERIMENTS.md).
//
//   ./bench_apply_path [reports]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "core/zone_table.h"
#include "geo/projection.h"
#include "geo/zone_grid.h"
#include "stats/rng.h"
#include "trace/record.h"

// ---- allocation-counting hook ---------------------------------------------
// Counts every global operator new while `g_count_allocs` is set. Kept
// trivially cheap otherwise; the bench is single-threaded but the counters
// are atomic so the hook stays correct if a library thread allocates.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t) { return counted_alloc(n); }
void* operator new[](std::size_t n, std::align_val_t) {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

using namespace wiscape;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- the seed zone_table, frozen for comparison ---------------------------
namespace seed_store {

class zone_table {
 public:
  explicit zone_table(double change_sigma_factor = 2.0)
      : sigma_factor_(change_sigma_factor) {}

  void add_sample(const core::estimate_key& key, double time_s, double value,
                  double epoch_duration_s) {
    if (!(epoch_duration_s > 0.0)) {
      throw std::invalid_argument("epoch duration must be positive");
    }
    stream& s = streams_[key];
    if (s.open_start_s < 0.0) {
      s.open_start_s =
          std::floor(time_s / epoch_duration_s) * epoch_duration_s;
    }
    while (time_s >= s.open_start_s + epoch_duration_s) {
      rollover(key, s);
      s.open_start_s += epoch_duration_s;
    }
    s.open.add(value);
  }

  const std::vector<core::change_alert>& alerts() const noexcept {
    return alerts_;
  }
  std::size_t num_streams() const noexcept { return streams_.size(); }

 private:
  struct stream {
    stats::running_stats open;
    double open_start_s = -1.0;
    std::vector<core::epoch_estimate> frozen;
  };

  void rollover(const core::estimate_key& key, stream& s) {
    if (s.open.empty()) return;
    core::epoch_estimate e;
    e.epoch_start_s = s.open_start_s;
    e.mean = s.open.mean();
    e.stddev = s.open.stddev();
    e.samples = s.open.count();
    if (!s.frozen.empty()) {
      const core::epoch_estimate& prev = s.frozen.back();
      const double threshold = sigma_factor_ * prev.stddev;
      if (threshold > 0.0 && std::abs(e.mean - prev.mean) > threshold) {
        alerts_.push_back(
            {key, e.epoch_start_s, prev.mean, e.mean, prev.stddev});
      }
    }
    s.frozen.push_back(e);
    s.open.reset();
  }

  double sigma_factor_;
  std::unordered_map<core::estimate_key, stream, core::estimate_key_hash>
      streams_;
  std::vector<core::change_alert> alerts_;
};

}  // namespace seed_store

// One pre-routed fold item: what coordinator::report hands the store per
// record, with the zone and wire-cached network id resolved outside the
// timed region (both stores pay the same upstream costs).
struct fold_item {
  geo::zone_id zone;
  const char* network;          // interned-string lookup key (seed store)
  std::uint16_t network_id;     // pre-resolved id (dense store)
  trace::probe_kind kind;
  double time_s;
  double value;
};

std::vector<fold_item> make_stream(const geo::zone_grid& grid,
                                   std::size_t count) {
  stats::rng_stream rng(bench::bench_seed);
  std::vector<fold_item> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    fold_item it;
    // ~500 reports/s city-wide: the corpus spans a handful of epochs, so a
    // stream collects several samples per epoch and rollovers are the rare
    // case -- the paper's regime (many samples aggregated per zone-epoch),
    // not a degenerate one-sample-per-epoch walk.
    it.time_s = 1000.0 + static_cast<double>(i) * 0.002;
    const bool b = rng.chance(0.5);
    it.network = b ? "NetB" : "NetC";
    it.network_id = b ? 0 : 1;
    // The paper's deployment footprint: WiScape's Madison measurements
    // cover a ~2 km x 7 km section of the city at r=250 m zones (Sec 3),
    // a few hundred live zones x two operators x the per-kind metrics.
    it.zone = grid.zone_of(grid.proj().to_lat_lon(
        {rng.uniform(-1000.0, 1000.0), rng.uniform(-3500.0, 3500.0)}));
    it.kind = static_cast<trace::probe_kind>(rng.uniform_int(0, 3));
    it.value = it.kind == trace::probe_kind::ping
                   ? 0.1 + 0.02 * rng.uniform()
                   : 1e6 * (1.0 + rng.uniform());
    out.push_back(it);
  }
  return out;
}

template <class Fn>
double one_rate(std::size_t count, Fn&& fn) {
  const double t0 = now_s();
  fn();
  return static_cast<double>(count) / (now_s() - t0);
}

void jsonl_result(std::ofstream& out, const char* mode, std::size_t reports,
                  double rps) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", rps);
  out << "{\"bench\":\"apply_path\",\"mode\":\"" << mode
      << "\",\"reports\":" << reports << ",\"reports_per_s\":" << buf
      << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t reports =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 300'000;
  constexpr int kReps = 7;
  constexpr double kEpochS = 120.0;

  bench::banner("Apply path - dense interned estimate store",
                "no paper figure; ROADMAP north star (cheap per-sample "
                "ingestion at the coordinator)");
  std::printf("  reports: %zu, epoch %.0fs, best of %d runs\n\n", reports,
              kEpochS, kReps);

  const geo::projection proj(cellnet::anchors::madison);
  const geo::zone_grid grid(proj, 250.0);
  const auto stream = make_stream(grid, reports);
  const std::vector<std::string> networks = {"NetB", "NetC"};

  // One full fold pass per store flavour. Fresh tables per call so reps are
  // independent; stream-creation cost amortises to noise over the corpus.
  double sink = 0.0;
  const auto seed_pass = [&] {
    seed_store::zone_table t(2.0);
    for (const auto& it : stream) {
      for (const trace::metric m : trace::metrics_of(it.kind)) {
        t.add_sample({it.zone, it.network, m}, it.time_s, it.value, kEpochS);
      }
    }
    sink += static_cast<double>(t.num_streams() + t.alerts().size());
  };
  const auto dense_pass = [&] {
    core::zone_table t(networks);
    // One sample after another, pricing the store alone: the production
    // apply (coordinator::report_batch) also overlaps the misses of a
    // 64-record chunk, which bench_ingest_scaling's REPORTB leg prices.
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const fold_item& it = stream[i];
      for (const trace::metric m : trace::metrics_of(it.kind)) {
        t.add_sample(it.zone, it.network_id, m, it.time_s, it.value, kEpochS);
      }
    }
    sink += static_cast<double>(t.keys().size() + t.alerts_raised());
  };

  // Interleave the two stores within each rep (after an untimed warm-up)
  // and take the median of per-rep paired ratios, so host drift hits both
  // columns equally -- the bench_wire_parse discipline. Each rep's rate is
  // the best of two back-to-back passes: a scheduler/steal spike can only
  // ever slow a pass down, so best-of-2 rejects one-sided noise without
  // biasing the comparison (both stores get the same treatment).
  seed_pass();
  dense_pass();
  double seed_rps = 0.0, dense_rps = 0.0;
  std::vector<double> ratios;
  for (int r = 0; r < kReps; ++r) {
    const double s = std::max(one_rate(stream.size(), seed_pass),
                              one_rate(stream.size(), seed_pass));
    const double d = std::max(one_rate(stream.size(), dense_pass),
                              one_rate(stream.size(), dense_pass));
    seed_rps = std::max(seed_rps, s);
    dense_rps = std::max(dense_rps, d);
    ratios.push_back(d / s);
  }
  std::sort(ratios.begin(), ratios.end());
  const double speedup = ratios[ratios.size() / 2];

  std::printf("  seed store (string key + map):   %11.0f reports/s\n",
              seed_rps);
  std::printf("  dense store (interned + packed): %11.0f reports/s  "
              "(%.2fx paired median)\n\n",
              dense_rps, speedup);

  // ---- steady-state allocation audit --------------------------------------
  // Warm a dense table over the whole stream (creates every stream, settles
  // every capacity), then replay the stream pinned inside one epoch beyond
  // the warm-up times: every apply hits an existing stream's open epoch --
  // the happy path -- and must not allocate at all.
  std::uint64_t dense_allocs = 0, dense_bytes = 0, seed_allocs = 0;
  {
    core::zone_table t(networks);
    seed_store::zone_table st(2.0);
    const double last_t = stream.back().time_s;
    const double pinned =
        (std::floor(last_t / kEpochS) + 2.0) * kEpochS + 1.0;
    const auto replay_dense = [&] {
      for (const auto& it : stream) {
        for (const trace::metric m : trace::metrics_of(it.kind)) {
          t.add_sample(it.zone, it.network_id, m, pinned, it.value, kEpochS);
        }
      }
    };
    const auto replay_seed = [&] {
      for (const auto& it : stream) {
        for (const trace::metric m : trace::metrics_of(it.kind)) {
          st.add_sample({it.zone, it.network, m}, pinned, it.value, kEpochS);
        }
      }
    };
    replay_dense();  // absorb stream creation + the one rollover per stream
    replay_seed();
    g_allocs.store(0);
    g_alloc_bytes.store(0);
    g_count_allocs.store(true);
    replay_dense();
    g_count_allocs.store(false);
    dense_allocs = g_allocs.load();
    dense_bytes = g_alloc_bytes.load();
    g_allocs.store(0);
    g_count_allocs.store(true);
    replay_seed();
    g_count_allocs.store(false);
    seed_allocs = g_allocs.load();
  }
  const double seed_allocs_per_report =
      static_cast<double>(seed_allocs) / static_cast<double>(stream.size());
  std::printf("  steady-state heap allocations per report:\n");
  std::printf("    seed store:  %8.2f allocs/report\n", seed_allocs_per_report);
  std::printf("    dense store: %8llu allocs total (%llu bytes) over %zu "
              "reports\n\n",
              static_cast<unsigned long long>(dense_allocs),
              static_cast<unsigned long long>(dense_bytes), stream.size());

  // ---- gap micro ----------------------------------------------------------
  // A sample landing k empty epochs late: the seed walks k boundaries, the
  // dense store jumps them in O(1).
  const auto gap_seed_s = [&](double k) {
    seed_store::zone_table t(2.0);
    const core::estimate_key key{{0, 0}, "NetB",
                                 trace::metric::tcp_throughput_bps};
    t.add_sample(key, 30.0, 1.0, kEpochS);
    const double t0 = now_s();
    t.add_sample(key, 30.0 + k * kEpochS, 2.0, kEpochS);
    return now_s() - t0;
  };
  const auto gap_dense_s = [&](double k) {
    core::zone_table t(networks);
    t.add_sample({0, 0}, 0, trace::metric::tcp_throughput_bps, 30.0, 1.0,
                 kEpochS);
    const double t0 = now_s();
    t.add_sample({0, 0}, 0, trace::metric::tcp_throughput_bps,
                 30.0 + k * kEpochS, 2.0, kEpochS);
    const double dt = now_s() - t0;
    // The jump published exactly the one pre-gap epoch (read through the
    // non-copying view -- single-threaded, table stable).
    sink += static_cast<double>(
        t.history_view({0, 0}, 0, trace::metric::tcp_throughput_bps).size());
    return dt;
  };
  const double seed_1e6 = gap_seed_s(1e6);
  const double dense_1e6 = gap_dense_s(1e6);
  const double dense_1e12 = gap_dense_s(1e12);
  std::printf("  gap apply (one sample landing k epochs late):\n");
  std::printf("    k=10^6  seed walk:   %10.3f ms\n", seed_1e6 * 1e3);
  std::printf("    k=10^6  dense jump:  %10.3f ms\n", dense_1e6 * 1e3);
  std::printf("    k=10^12 dense jump:  %10.3f ms  (seed would take ~%.0f "
              "hours)\n\n",
              dense_1e12 * 1e3, seed_1e6 * 1e6 / 3600.0);

  bench::report("dense-store apply throughput vs seed store", ">= 2x",
                bench::fmt(speedup) + "x");
  bench::report("steady-state allocations per report (dense)", "0",
                bench::fmt(static_cast<double>(dense_allocs), 0));
  bench::report("10^12-epoch gap apply", "O(1), < 1 ms",
                bench::fmt(dense_1e12 * 1e3, 3) + " ms");

  std::ofstream jsonl("bench_apply_path.jsonl");
  jsonl_result(jsonl, "seed_store", stream.size(), seed_rps);
  jsonl_result(jsonl, "dense_store", stream.size(), dense_rps);
  {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"bench\":\"apply_path\",\"mode\":\"steady_alloc\","
                  "\"reports\":%zu,\"dense_allocs\":%llu,"
                  "\"seed_allocs_per_report\":%.2f}\n",
                  stream.size(),
                  static_cast<unsigned long long>(dense_allocs),
                  seed_allocs_per_report);
    jsonl << buf;
    std::snprintf(buf, sizeof buf,
                  "{\"bench\":\"apply_path\",\"mode\":\"gap\","
                  "\"seed_1e6_ms\":%.3f,\"dense_1e6_ms\":%.3f,"
                  "\"dense_1e12_ms\":%.3f}\n",
                  seed_1e6 * 1e3, dense_1e6 * 1e3, dense_1e12 * 1e3);
    jsonl << buf;
  }

  // The checksum keeps the compiler honest; print it so it is truly live.
  std::fprintf(stderr, "# checksum %.1f\n", sink);
  return dense_allocs == 0 ? 0 : 1;
}
