// Allocation regression gate for the zero-allocation reply path (ISSUE 8).
//
// Asserts that coordinator_server::handle() performs ZERO heap allocations
// per request in steady state -- a reused reply_buffer, warmed scratch
// vectors, short (SSO) operator names -- across the hot request types on a
// 1-shard synchronous coordinator: QUERY (EST reply), QUERYB, REPORT (ACK),
// REPORTB (ACK <n>), the ERR unsupported path, (since wire protocol v3) the
// binary twins of every hot frame, QUERY/QUERYB in both framings against a
// 2-shard coordinator, whose frames split into one mirror batch per shard,
// and the queued ingest path the servers run -- REPORTB (text and v3) and a
// REPORT group handed to an asynchronous 1-shard coordinator's drain
// worker, and a v3 REPORTB routed across an asynchronous 2-shard one, each
// counted up to flush(). Same counting-operator-new technique as
// bench_apply_path, but kept in its own tiny executable: a global
// operator new override must not ride along inside the gtest binary (it
// would fight the sanitizer builds' interceptors).
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/sharded_coordinator.h"
#include "geo/projection.h"
#include "geo/zone_grid.h"
#include "proto/messages.h"
#include "proto/server.h"
#include "proto/wire_v3.h"
#include "repl/replica.h"
#include "test_util.h"
#include "trace/record.h"

// ---- allocation-counting hook ---------------------------------------------
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
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

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__,     \
                   __LINE__, #cond);                                    \
      return 1;                                                         \
    }                                                                   \
  } while (0)

using namespace wiscape;

int main() {
  const auto dep = testing::tiny_deployment();
  const geo::zone_grid grid(dep.proj(), 250.0);
  auto coord = testing::sync_coordinator(grid, dep.names(), {}, 5);
  proto::coordinator_server server(coord);
  const geo::lat_lon here = cellnet::anchors::madison;

  proto::reply_buffer out;

  // Publish estimates: stream reports across several epochs so QUERY at
  // the stream's tail answers EST, not NONE. One report a second puts
  // 1,800 into each 30-min epoch, far past the zone's 100-sample target,
  // so the coordinator's planning history takes only each epoch's first
  // 100. The counted reports below all land at t=19999, in an open epoch
  // already past its target: they never append to the history. The
  // append path is counted on hserver below.
  for (int i = 0; i < 20000; ++i) {
    proto::measurement_report rep;
    rep.client_id = 7;
    rep.record = testing::make_record(static_cast<double>(i), "NetB", here,
                                      trace::probe_kind::udp_burst, 1.0e6);
    out.clear();
    server.handle(proto::request_view::detect(proto::encode(rep)), out);
    CHECK(out.view() == "ACK");
  }

  // The planning history's append path: a coordinator whose sample target
  // never binds appends every report, and a 64-sample history_cap puts the
  // series through a trim (and, once its dead prefix outgrows the live
  // window, an in-place compaction) every few dozen reports. Warmed past
  // several such cycles in one open epoch, the counted reports append,
  // trim and compact at the series' steady-state capacity.
  core::coordinator_config hist_cfg;
  hist_cfg.default_samples_per_epoch = SIZE_MAX;
  hist_cfg.history_cap = 64;
  auto hcoord = testing::sync_coordinator(grid, dep.names(), hist_cfg, 14);
  proto::coordinator_server hserver(hcoord);
  for (int i = 19000; i < 20000; ++i) {  // all in the epoch t=19999 is in
    proto::measurement_report hrep;
    hrep.client_id = 15;
    hrep.record = testing::make_record(static_cast<double>(i), "NetB", here,
                                       trace::probe_kind::udp_burst, 1.0e6);
    out.clear();
    hserver.handle(proto::request_view::detect(proto::encode(hrep)), out);
    CHECK(out.view() == "ACK");
  }

  // The request corpus, one per hot reply shape.
  proto::query_request q;
  q.pos = here;
  q.network = "NetB";
  q.metric = trace::metric::udp_throughput_bps;
  q.time_s = 19999.0;
  const std::string query_line = proto::encode(q);
  const std::vector<proto::query_request> qs = {q, q};
  const std::string queryb_frame = proto::encode_query_batch(qs);

  proto::measurement_report rep;
  rep.client_id = 7;
  rep.record = testing::make_record(19999.0, "NetB", here,
                                    trace::probe_kind::udp_burst, 1.0e6);
  const std::string report_line = proto::encode(rep);
  std::vector<trace::measurement_record> recs;
  for (int i = 0; i < 16; ++i) recs.push_back(rep.record);
  const std::string reportb_frame = proto::encode_report_batch(recs);

  const std::string bogus_line = "BOGUS totally unsupported request";

  // Replication opcodes (ISSUE 10): a leader serving EPOCH pulls and a
  // follower absorbing EPOCHB applies must hold the same steady state --
  // pull serves out of the reply_buffer's warmed epoch scratch, and a
  // re-applied batch is all cursor duplicates (skip path, no table
  // mutation). Short network names ride SSO, like everywhere else.
  core::sharded_config repl_cfg;
  repl_cfg.num_shards = 1;
  repl_cfg.synchronous = true;  // no worker threads to muddy the counts
  repl_cfg.coordinator.epochs.default_epoch_s = 100.0;
  core::sharded_coordinator lcoord(grid, dep.names(), repl_cfg, 6);
  proto::coordinator_server lserver(lcoord);
  repl::replica lead(lcoord, repl::role::leader);
  lserver.attach_replication(&lead);
  core::sharded_coordinator fcoord(grid, dep.names(), repl_cfg, 6);
  proto::coordinator_server fserver(fcoord);
  repl::replica fol(fcoord, repl::role::follower);
  fserver.attach_replication(&fol);
  for (int i = 0; i < 2000; ++i) {  // ~19 rollovers into the leader's log
    proto::measurement_report rrep;
    rrep.client_id = 9;
    rrep.record = testing::make_record(static_cast<double>(i), "NetB", here,
                                       trace::probe_kind::udp_burst, 1.0e6);
    out.clear();
    lserver.handle(proto::request_view::detect(proto::encode(rrep)), out);
    CHECK(out.view() == "ACK");
  }
  const std::string epoch_pull_v3 = proto::v3::encode_epoch_pull_frame({0, 16});
  out.clear();
  lserver.handle(proto::request_view::detect(epoch_pull_v3), out);
  CHECK(proto::v3::peek_header(out.view())->op == proto::v3::opcode::epochb);
  const std::string epochb_apply_v3(out.view());
  out.clear();
  // First apply: real inserts.
  fserver.handle(proto::request_view::detect(epochb_apply_v3), out);
  CHECK(proto::v3::peek_header(out.view())->op == proto::v3::opcode::ack);

  // The batched lookup path over more than one shard: a 2-shard
  // synchronous coordinator with estimates published in zones owned by
  // both shards, so one QUERYB frame splits into a mirror batch per shard.
  core::sharded_config two_cfg = repl_cfg;
  two_cfg.num_shards = 2;
  core::sharded_coordinator qcoord(grid, dep.names(), two_cfg, 8);
  proto::coordinator_server qserver(qcoord);
  const geo::projection qproj(here);
  std::vector<proto::query_request> qs2;
  bool shard_seen[2] = {false, false};
  for (int z = 0; z < 6; ++z) {
    const geo::lat_lon pos = qproj.to_lat_lon({300.0 * z, -200.0 * z});
    shard_seen[qcoord.shard_of(pos)] = true;
    for (int i = 0; i < 400; ++i) {
      proto::measurement_report zrep;
      zrep.client_id = 11;
      zrep.record = testing::make_record(static_cast<double>(i), "NetB", pos,
                                         trace::probe_kind::udp_burst, 1.0e6);
      out.clear();
      qserver.handle(proto::request_view::detect(proto::encode(zrep)), out);
      CHECK(out.view() == "ACK");
    }
    proto::query_request zq = q;
    zq.pos = pos;
    zq.time_s = 399.0;
    qs2.push_back(zq);
  }
  CHECK(shard_seen[0] && shard_seen[1]);
  qs2.push_back(qs2.front());
  qs2.back().network = "NoSuchNet";  // a miss rides along
  const std::string query_line_2s = proto::encode(qs2.front());
  const std::string queryb_frame_2s = proto::encode_query_batch(qs2);
  const std::string query_frame_v3_2s = proto::v3::encode_query_frame(qs2.front());
  const std::string queryb_frame_v3_2s =
      proto::v3::encode_query_batch_frame(qs2);
  out.clear();
  qserver.handle(proto::request_view::detect(queryb_frame_2s), out);
  CHECK(out.view().substr(0, 6) == "ESTB 7");
  CHECK(out.view().find("\nEST zone=") != std::string_view::npos);
  out.clear();
  qserver.handle(proto::request_view::detect(query_line_2s), out);
  CHECK(out.view().substr(0, 4) == "EST ");

  // The queued ingest path the servers run: an asynchronous sharded
  // coordinator whose drain worker applies what the server hands over.
  // These cases call flush() after every request, so the count covers the
  // drain worker's apply and the batch vectors' trip back to the producer,
  // and one frame is in flight at a time (a producer running k frames ahead
  // of the drain mints up to k batch vectors once, then reuses them).
  core::sharded_config async_cfg;
  async_cfg.num_shards = 1;
  async_cfg.synchronous = false;
  core::sharded_coordinator acoord(grid, dep.names(), async_cfg, 10);
  proto::coordinator_server aserver(acoord);
  core::sharded_config async2_cfg = async_cfg;
  async2_cfg.num_shards = 2;
  core::sharded_coordinator acoord2(grid, dep.names(), async2_cfg, 12);
  proto::coordinator_server aserver2(acoord2);
  // Two zones, one per shard of acoord2; both servers warm every stream the
  // counted frames touch past its epoch's target, as above.
  geo::lat_lon owned_by[2] = {here, here};
  bool owned_seen[2] = {false, false};
  for (int z = 0; !(owned_seen[0] && owned_seen[1]); ++z) {
    const geo::lat_lon pos = qproj.to_lat_lon({300.0 * z, -200.0 * z});
    const std::size_t s = acoord2.shard_of(pos);
    if (!owned_seen[s]) owned_by[s] = pos;
    owned_seen[s] = true;
  }
  for (int i = 0; i < 20000; ++i) {
    for (const geo::lat_lon& pos : {here, owned_by[0], owned_by[1]}) {
      proto::measurement_report wrep;
      wrep.client_id = 13;
      wrep.record = testing::make_record(static_cast<double>(i), "NetB", pos,
                                         trace::probe_kind::udp_burst, 1.0e6);
      const std::string line = proto::encode(wrep);
      out.clear();
      aserver.handle(proto::request_view::detect(line), out);
      CHECK(out.view() == "ACK");
      out.clear();
      aserver2.handle(proto::request_view::detect(line), out);
      CHECK(out.view() == "ACK");
    }
  }
  acoord.flush();
  acoord2.flush();
  std::string report_group;
  for (int i = 0; i < 8; ++i) report_group += report_line + "\n";
  std::vector<trace::measurement_record> split_recs;
  for (int i = 0; i < 16; ++i) {
    split_recs.push_back(rep.record);
    split_recs.back().pos = owned_by[i % 2];
  }
  const std::string reportb_frame_v3_2s =
      proto::v3::encode_report_batch_frame(split_recs);

  // The binary v3 twins of every hot frame, plus a malformed binary frame
  // (undefined opcode) that draws the typed binary ERR reply.
  const std::string report_frame_v3 =
      testing::frame_of(proto::v3::encode_report_frame, rep);
  const std::string reportb_frame_v3 = proto::v3::encode_report_batch_frame(recs);
  const std::string query_frame_v3 = proto::v3::encode_query_frame(q);
  const std::string queryb_frame_v3 = proto::v3::encode_query_batch_frame(qs);
  const std::string bad_frame_v3("\xB3\x1f\x00\x00\x00\x00", 6);

  // Sanity: the query really serves an estimate (a NONE corpus would pass
  // the allocation gate while proving nothing about EST encoding).
  out.clear();
  server.handle(proto::request_view::detect(query_line), out);
  CHECK(out.view().substr(0, 4) == "EST ");
  out.clear();
  server.handle(proto::request_view::detect(bogus_line), out);
  CHECK(out.view().substr(0, 15) == "ERR unsupported");
  out.clear();
  server.handle(proto::request_view::detect(query_frame_v3), out);
  CHECK(proto::v3::peek_header(out.view()).has_value());
  CHECK(proto::v3::peek_header(out.view())->op == proto::v3::opcode::est);
  out.clear();
  server.handle(proto::request_view::detect(bad_frame_v3), out);
  CHECK(proto::v3::peek_header(out.view())->op == proto::v3::opcode::err);
  // ... and hserver's reports really reach the history (every append
  // grows the series by one or trims it to half).
  const std::size_t hist_before =
      hcoord.history_for_test(grid.zone_of(here)).size();
  CHECK(hist_before > 0);
  out.clear();
  hserver.handle(proto::request_view::detect(report_line), out);
  CHECK(out.view() == "ACK");
  CHECK(hcoord.history_for_test(grid.zone_of(here)).size() != hist_before);

  struct test_case {
    const char* name;
    const std::string* line;
    proto::coordinator_server* srv;
    core::sharded_coordinator* queued = nullptr;  // flushed per request
    std::size_t group = 0;  // > 0: a REPORT group of this many lines
  };
  const test_case cases[] = {
      {"QUERY->EST", &query_line, &server},
      {"QUERYB->ESTB", &queryb_frame, &server},
      {"REPORT->ACK", &report_line, &server},
      {"REPORTB->ACK n", &reportb_frame, &server},
      {"unknown->ERR", &bogus_line, &server},
      {"v3 QUERY->EST", &query_frame_v3, &server},
      {"v3 QUERYB->ESTB", &queryb_frame_v3, &server},
      {"v3 REPORT->ACK", &report_frame_v3, &server},
      {"v3 REPORTB->ACK", &reportb_frame_v3, &server},
      {"v3 bad op->ERR", &bad_frame_v3, &server},
      {"REPORT->ACK, appends", &report_line, &hserver},
      {"v3 REPORTB->ACK, appends", &reportb_frame_v3, &hserver},
      {"2-shard QUERY", &query_line_2s, &qserver},
      {"2-shard QUERYB", &queryb_frame_2s, &qserver},
      {"2-shard v3 QUERY", &query_frame_v3_2s, &qserver},
      {"2-shard v3 QUERYB", &queryb_frame_v3_2s, &qserver},
      {"v3 EPOCH->EPOCHB", &epoch_pull_v3, &lserver},
      {"v3 EPOCHB->ACK", &epochb_apply_v3, &fserver},
      {"queued REPORTB", &reportb_frame, &aserver, &acoord},
      {"queued v3 REPORTB", &reportb_frame_v3, &aserver, &acoord},
      {"queued REPORT x8", &report_group, &aserver, &acoord, 8},
      {"2-shard queued v3 REPORTB", &reportb_frame_v3_2s, &aserver2, &acoord2},
  };
  const auto run = [&](const test_case& tc) {
    out.clear();
    if (tc.group > 0) {
      tc.srv->handle_report_group(*tc.line, tc.group, out);
    } else {
      tc.srv->handle(proto::request_view::detect(*tc.line), out);
    }
    if (tc.queued != nullptr) tc.queued->flush();
  };

  constexpr int kIters = 200;
  int failures = 0;
  for (const auto& tc : cases) {
    // Warm: reply_buffer capacity, scratch vectors, interner entries.
    for (int i = 0; i < 3; ++i) run(tc);
    g_allocs.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < kIters; ++i) run(tc);
    g_count_allocs.store(false);
    const std::uint64_t allocs = g_allocs.load();
    std::printf("  %-26s %3d requests, %llu heap allocations\n", tc.name,
                kIters, static_cast<unsigned long long>(allocs));
    if (allocs != 0) ++failures;
  }
  CHECK(failures == 0);
  std::printf("reply_alloc_test: all request types allocation-free\n");
  return 0;
}
