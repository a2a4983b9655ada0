// Shared plumbing for the experiment-reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper. They
// share standard dataset recipes (sized so a full bench run finishes in
// minutes) and a CSV cache so the expensive city-wide campaigns are built
// once per build directory and reused by later benches.
#pragma once

#include <time.h>

#include <string>
#include <string_view>
#include <vector>

#include "cellnet/presets.h"
#include "probe/collect.h"
#include "trace/dataset.h"

namespace wiscape::proto {
class coordinator_server;
}  // namespace wiscape::proto

namespace wiscape::bench {

/// Master seed for every bench (reproducible across runs and binaries).
inline constexpr std::uint64_t bench_seed = 20111102;  // IMC'11 day one

/// Standard Standalone campaign (Madison, NetB, TCP + pings). Heavier than
/// any other recipe; cached as CSV in the working directory.
trace::dataset standalone_dataset();

/// Standard WiRover campaign on the corridor preset (NetB+NetC pings).
trace::dataset wirover_dataset();

/// Spot + Proximate campaigns for one region; locations are the region's
/// default spot picks.
struct region_data {
  cellnet::region_preset preset;
  std::vector<std::string> networks;
  trace::dataset spot;
  trace::dataset proximate;
  geo::lat_lon location;  ///< the representative zone center
};
region_data spot_region(cellnet::region_preset preset);

/// Standard Short-segment campaign (three operators).
trace::dataset segment_dataset();

/// One in-process request through coordinator_server::handle: detects the
/// framing from the leading byte, renders into a fresh reply_buffer and
/// returns the reply as a new string -- the allocating call shape the
/// in-process baselines time.
std::string reply_of(proto::coordinator_server& server, std::string_view bytes);

/// CPU seconds consumed so far on `clock`: CLOCK_PROCESS_CPUTIME_ID for
/// every thread of the process, CLOCK_THREAD_CPUTIME_ID for the caller.
/// Unlike a wall-clock rate, a difference of two readings does not count
/// time the host gave to other processes.
inline double cpu_s(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------- output ----

/// Prints the bench banner: which figure/table, what the paper reports.
void banner(const std::string& experiment, const std::string& paper_claim);

/// Prints one paper-vs-measured row.
void report(const std::string& what, const std::string& paper,
            const std::string& measured);

/// Formats helpers.
std::string fmt(double v, int decimals = 2);
std::string fmt_kbps(double bps);
std::string fmt_ms(double seconds);
std::string fmt_pct(double fraction, int decimals = 1);

/// Prints an x/y series as aligned columns (a printable "figure").
void print_series(const std::string& x_label, const std::string& y_label,
                  const std::vector<std::pair<double, double>>& points,
                  int max_rows = 24);

}  // namespace wiscape::bench
