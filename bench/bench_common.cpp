#include "bench_common.h"

#include <cstdio>
#include <filesystem>
#include <functional>

#include "proto/server.h"
#include "trace/csv.h"

namespace wiscape::bench {

namespace {

/// Build-or-load with a CSV cache keyed by a recipe tag.
trace::dataset cached(const std::string& tag,
                      const std::function<trace::dataset()>& build) {
  const std::string path = "wiscape_bench_cache_" + tag + ".csv";
  if (std::filesystem::exists(path)) {
    try {
      auto ds = trace::read_csv_file(path);
      std::printf("[cache] loaded %zu records from %s\n", ds.size(),
                  path.c_str());
      return ds;
    } catch (const std::exception& e) {
      std::printf("[cache] %s unreadable (%s); rebuilding\n", path.c_str(),
                  e.what());
    }
  }
  std::printf("[build] generating dataset '%s' (first bench run only)...\n",
              tag.c_str());
  std::fflush(stdout);
  auto ds = build();
  trace::write_csv_file(path, ds);
  std::printf("[build] %zu records cached to %s\n", ds.size(), path.c_str());
  return ds;
}

}  // namespace

trace::dataset standalone_dataset() {
  return cached("standalone", [] {
    auto dep = cellnet::make_deployment(cellnet::region_preset::madison,
                                        bench_seed);
    // Trouble spots feed Fig 9's failed-ping triage: a handful of zones with
    // chronic outages and churn.
    auto& netb = dep.network("NetB");
    stats::rng_stream trouble(bench_seed ^ 0x7b0b13ULL);
    for (int i = 0; i < 8; ++i) {
      netb.add_trouble_spot({{trouble.uniform(-5000.0, 5000.0),
                              trouble.uniform(-5000.0, 5000.0)},
                             450.0,
                             0.25,
                             0.30});
    }
    probe::probe_engine engine(dep, bench_seed);
    probe::standalone_params params;
    params.days = 4;
    params.buses = 5;
    params.routes = 12;
    params.probe_interval_s = 75.0;
    params.tcp_bytes = 500'000;
    params.network_index = 1;  // NetB
    return probe::collect_standalone(engine, params);
  });
}

trace::dataset wirover_dataset() {
  return cached("wirover", [] {
    auto dep = cellnet::make_deployment(cellnet::region_preset::corridor,
                                        bench_seed);
    probe::probe_engine engine(dep, bench_seed + 1);
    probe::wirover_params params;
    params.days = 10;
    params.buses = 4;
    return probe::collect_wirover(engine, params);
  });
}

region_data spot_region(cellnet::region_preset preset) {
  const bool wi = preset == cellnet::region_preset::madison;
  const std::string tag = wi ? "wi" : "nj";

  region_data out;
  out.preset = preset;
  auto dep = cellnet::make_deployment(preset, bench_seed);
  out.networks = dep.names();
  const auto locs = probe::default_spot_locations(dep, 1, bench_seed + 7);
  out.location = locs.empty() ? dep.proj().to_lat_lon({500.0, 500.0})
                              : locs.front();

  out.spot = cached("spot_" + tag, [&] {
    probe::probe_engine engine(dep, bench_seed + 2);
    probe::spot_params params;
    params.days = 3;
    params.udp_interval_s = 20.0;
    params.tcp_interval_s = 120.0;
    params.udp_packets = 50;
    params.tcp_bytes = 250'000;
    return probe::collect_spot(engine, {out.location}, params);
  });
  out.proximate = cached("proximate_" + tag, [&] {
    probe::probe_engine engine(dep, bench_seed + 3);
    probe::proximate_params params;
    params.days = 3;
    params.probe_interval_s = 30.0;
    params.udp_packets = 100;
    params.tcp_bytes = 250'000;
    return probe::collect_proximate(engine, out.location, params);
  });
  return out;
}

trace::dataset segment_dataset() {
  return cached("segment", [] {
    auto dep = cellnet::make_deployment(cellnet::region_preset::segment,
                                        bench_seed);
    probe::probe_engine engine(dep, bench_seed + 4);
    probe::segment_params params;
    params.days = 6;
    params.probe_interval_s = 40.0;
    params.tcp_bytes = 250'000;
    return probe::collect_segment(engine, params);
  });
}

void banner(const std::string& experiment, const std::string& paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("================================================================\n");
}

void report(const std::string& what, const std::string& paper,
            const std::string& measured) {
  std::printf("  %-44s paper: %-18s measured: %s\n", what.c_str(),
              paper.c_str(), measured.c_str());
}

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string fmt_kbps(double bps) { return fmt(bps / 1e3, 0) + " Kbps"; }

std::string fmt_ms(double seconds) { return fmt(seconds * 1e3, 1) + " ms"; }

std::string fmt_pct(double fraction, int decimals) {
  return fmt(fraction * 100.0, decimals) + "%";
}

void print_series(const std::string& x_label, const std::string& y_label,
                  const std::vector<std::pair<double, double>>& points,
                  int max_rows) {
  std::printf("  %14s  %14s\n", x_label.c_str(), y_label.c_str());
  const std::size_t n = points.size();
  const std::size_t step =
      n > static_cast<std::size_t>(max_rows) ? n / max_rows : 1;
  for (std::size_t i = 0; i < n; i += step) {
    std::printf("  %14.3f  %14.4f\n", points[i].first, points[i].second);
  }
}

std::string reply_of(proto::coordinator_server& server,
                     std::string_view bytes) {
  proto::reply_buffer out;
  server.handle(proto::request_view::detect(bytes), out);
  return std::string(out.view());
}

}  // namespace wiscape::bench
