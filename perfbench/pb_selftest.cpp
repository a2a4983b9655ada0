// The benchmark's own tests: seeded streams, zone ownership, the latency
// rule and the rate-ladder verdict. Plain checks that stay on in every
// build; exits non-zero on the first failed check.
//
//   python3 perfbench/run.py --selftest     (builds, then runs this)
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "streams.h"

using namespace wiscape;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

/// FNV-1a over the first frames/lines of every request kind a workload
/// sends for `seed`: report frames, query frames, fleet cycles, probes.
std::uint64_t stream_hash(const pb::workload& w, std::uint64_t seed) {
  const pb::keyspace ks(w, seed, w.name == "serve" ? 1 : w.report_conns);
  pb::fingerprint h;
  std::vector<trace::measurement_record> rs;
  std::vector<proto::query_request> qs;
  proto::reply_buffer buf;
  for (std::size_t c = 0; c < w.report_conns; ++c) {
    for (std::uint64_t f = 0; f < 32; ++f) {
      buf.clear();
      if (w.name == "fleet") {
        std::string ci, reps;
        pb::fleet_cycle(ks, w, seed, c, f, ci, reps);
        h.add(ci.data(), ci.size());
        h.add(reps.data(), reps.size());
      } else {
        pb::report_frame(ks, w, seed, c, f, rs, buf);
        h.add(buf.view().data(), buf.view().size());
      }
    }
  }
  for (std::uint64_t f = 0; f < 8; ++f) {
    buf.clear();
    pb::query_frame(ks, seed, 0, f, qs, buf);
    h.add(buf.view().data(), buf.view().size());
  }
  for (std::uint64_t k = 0; k < 16; ++k) {
    const auto r = pb::probe_record(ks, w, seed, k, k % pb::kProbeZones);
    const std::string line = proto::encode(proto::measurement_report{r.client_id, r});
    h.add(line.data(), line.size());
  }
  return h.hash;
}

void test_streams() {
  for (const char* name : {"ingest", "serve", "fleet"}) {
    const pb::workload w = pb::workload_by_name(name);
    const std::string a = std::string(name) + ": same seed -> identical bytes";
    const std::string b = std::string(name) + ": different seed -> different bytes";
    check(stream_hash(w, 7) == stream_hash(w, 7), a.c_str());
    check(stream_hash(w, 7) != stream_hash(w, 8), b.c_str());
  }
}

void test_zone_ownership() {
  for (const char* name : {"ingest", "fleet"}) {
    const pb::workload w = pb::workload_by_name(name);
    const pb::keyspace ks(w, 3, w.report_conns);
    std::set<std::uint32_t> seen;
    bool disjoint = true;
    for (std::size_t o = 0; o < ks.owners(); ++o) {
      for (const std::uint32_t z : ks.owned(o)) disjoint &= seen.insert(z).second;
    }
    const std::string d = std::string(name) + ": connection zone sets are disjoint";
    check(disjoint && seen.size() == ks.zones(), d.c_str());

    // Every generated record of a connection lands in that connection's
    // zones, and probe zones belong to nobody.
    bool owned = true;
    trace::measurement_record r;
    for (std::size_t c = 0; c < w.report_conns; ++c) {
      const std::set<std::uint32_t> mine(ks.owned(c).begin(), ks.owned(c).end());
      for (std::uint64_t i = 0; i < 2000; ++i) {
        pb::load_record(ks, w, 3, c, i, r);
        const geo::zone_id z = ks.grid().zone_of(r.pos);
        owned &= mine.count(static_cast<std::uint32_t>(z.iy * ks.side() + z.ix)) == 1;
      }
    }
    for (std::size_t k = 0; k < pb::kProbeZones; ++k) {
      owned &= ks.probe_zone(k).iy >= ks.side();
    }
    const std::string o = std::string(name) + ": records stay in their connection's zones";
    check(owned, o.c_str());
  }
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

void test_percentile() {
  pb::tail_summary t = pb::summarize(iota(1000));
  check(t.tail_pct == 99 && t.tail == 990 && t.beyond == 10 && t.n == 1000 &&
            t.p50 == 500,
        "1000 samples: p99 = 990 with 10 beyond, p50 = 500");
  t = pb::summarize(iota(999));
  check(t.tail_pct == 90 && t.tail == 900 && t.beyond == 99,
        "999 samples: p99 has 9 beyond, so p90 = 900 is reported");
  t = pb::summarize(iota(20));
  check(t.tail_pct == 50 && t.tail == 10 && t.beyond == 10,
        "20 samples: only p50 has 10 beyond");
  t = pb::summarize(iota(15));
  check(t.tail_pct == 0 && t.beyond == 0 && t.n == 15,
        "15 samples: no percentile has 10 beyond");
}

void test_ladder() {
  const pb::ladder_rules rules{};
  auto rung = [](double offered, double p99, double late, double slope) {
    pb::rung_result r;
    r.offered = offered;
    r.achieved = offered;
    r.ack_p99_us = p99;
    r.late_p99_us = late;
    r.backlog_slope = slope;
    return r;
  };
  std::vector<pb::rung_result> all_pass{rung(1e5, 300, 50, 0), rung(2e5, 400, 60, 10),
                                        rung(4e5, 900, 80, -20)};
  check(pb::ladder_top(all_pass, rules) == 2, "every rung passes: the top rung");
  std::vector<pb::rung_result> slow{rung(1e5, 300, 50, 0), rung(2e5, 20000, 60, 0),
                                    rung(4e5, 400, 80, 0)};
  check(pb::ladder_top(slow, rules) == 0,
        "p99 over the limit stops the ladder, even if a higher rung passes");
  std::vector<pb::rung_result> backlog{rung(1e5, 300, 50, 0), rung(2e5, 400, 60, 0),
                                       rung(4e5, 400, 80, 0.15 * 4e5)};
  check(pb::ladder_top(backlog, rules) == 1, "a growing backlog fails the rung");
  std::vector<pb::rung_result> late{rung(1e5, 300, 50, 0), rung(2e5, 400, 5000, 0),
                                    rung(4e5, 400, 80, 0)};
  check(pb::judge(late[1], rules) == pb::rung_verdict::invalid &&
            pb::ladder_top(late, rules) == 2,
        "a late generator marks the rung invalid, not slow");
  std::vector<pb::rung_result> none{rung(1e5, 20000, 50, 0)};
  check(pb::ladder_top(none, rules) == -1, "no passing rung: -1");
  std::vector<double> x{0, 1, 2, 3}, y{1, 3, 5, 7};
  check(pb::slope(x, y) == 2.0, "backlog slope is the least-squares slope");
}

void test_window_rates() {
  // 10 ms bins over 1 s: 3 events in each of the first 50 bins, 1 after.
  pb::time_bins b(10.0, 11.0, 0.01);
  for (int i = 0; i < 100; ++i) b.add(10.0 + 0.01 * i + 0.005, i < 50 ? 3.0 : 1.0);
  b.add(9.0);   // before the bins: dropped
  b.add(11.5);  // after them: dropped
  const std::vector<double> r = pb::window_rates(b, 10.0, 11.0, 0.25);
  check(r.size() == 4 && std::abs(r[0] - 300.0) < 1e-9 &&
            std::abs(r[1] - 300.0) < 1e-9 && std::abs(r[3] - 100.0) < 1e-9,
        "window rates: events per second in each whole window");
  check(pb::window_rates(b, 10.1, 11.0, 0.25).size() == 3,
        "window rates: a partial window at the start is dropped");
  check(pb::quantile(r, 0.75) == 300.0 && pb::quantile(r, 0.25) == 100.0,
        "quantile interpolates between sorted values");
}

}  // namespace

int main() {
  test_streams();
  test_zone_ownership();
  test_percentile();
  test_ladder();
  test_window_rates();
  std::printf("%s (%d failed)\n", failures ? "FAILED" : "all passed", failures);
  return failures ? 1 : 0;
}
