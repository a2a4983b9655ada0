#include "scenario/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "apps/estimate_knowledge.h"
#include "cellnet/deployment.h"
#include "cellnet/presets.h"
#include "core/durable_log.h"
#include "core/epoch_codec.h"
#include "core/estimate_view.h"
#include "core/sharded_coordinator.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "proto/client.h"
#include "proto/messages.h"
#include "proto/server.h"
#include "proto/wire_v3.h"
#include "repl/replica.h"
#include "stats/rng.h"
#include "trace/record.h"

namespace wiscape::scenario {
namespace {

// Sort order shared with core::persist: scenarios and snapshots enumerate
// streams identically, so final_estb dumps compare byte-for-byte.
struct key_less {
  bool operator()(const core::estimate_key& a,
                  const core::estimate_key& b) const noexcept {
    if (a.zone.ix != b.zone.ix) return a.zone.ix < b.zone.ix;
    if (a.zone.iy != b.zone.iy) return a.zone.iy < b.zone.iy;
    if (a.network != b.network) return a.network < b.network;
    return static_cast<int>(a.metric) < static_cast<int>(b.metric);
  }
};

// The wire CSV renders lat/lon at %.6f, so the driver snaps every position
// to integer microdegrees up front: the zone the driver computes locally is
// the zone the decoded record lands in.
double snap_deg(double deg) { return std::round(deg * 1e6) / 1e6; }
geo::lat_lon snap(const geo::lat_lon& p) {
  return {snap_deg(p.lat_deg), snap_deg(p.lon_deg)};
}

struct client_state {
  geo::lat_lon home;  ///< microdegree-snapped home fix
  geo::xy home_xy;
  std::size_t op = 0;
  double skew_s = 0.0;
  bool active = true;
  std::uint64_t id = 0;
};

// Continuity window of one tracked stream, for the staleness invariant.
// Gap fast-forward legitimately publishes old epochs right after a feeding
// gap (outage, churn), so staleness is only asserted for streams that have
// been fed on every consecutive tick for >= 2 epochs.
struct feed_state {
  double window_start_s = 0.0;  ///< first sample time of the current window
  double last_s = 0.0;          ///< newest sample time seen
  std::uint64_t last_tick = 0;
};

}  // namespace

scenario_result run_scenario(const scenario_config& cfg, std::uint64_t seed) {
  scenario_result out;
  out.name = cfg.name;
  out.seed = seed;

  stats::rng_stream root(seed);

  // ---- world: two-operator build-out around the Madison anchor ----------
  geo::projection proj(cellnet::anchors::madison);
  const cellnet::extent area{4000.0, 4000.0};
  const std::vector<std::string> names = {"NetB", "NetC"};
  std::vector<cellnet::operator_config> ops;
  {
    stats::rng_stream drng = root.fork("deployment");
    double scale = 0.9;
    for (const std::string& n : names) {
      cellnet::operator_config oc;
      oc.name = n;
      oc.tech = radio::technology::evdo_rev_a;
      oc.seed = drng.fork(n).seed();
      oc.tower_spacing_m = 1500.0;
      oc.capacity_scale = scale;
      scale += 0.2;
      ops.push_back(std::move(oc));
    }
  }
  cellnet::deployment dep(proj, area, std::move(ops));
  if (cfg.stress.flash_crowd) {
    for (std::size_t i = 0; i < dep.size(); ++i) {
      dep.network(i).add_event({geo::xy{0.0, 0.0}, 1200.0,
                                cfg.stress.flash_start_s, cfg.stress.flash_end_s,
                                0.55});
    }
  }
  if (cfg.stress.outage) {
    dep.network(0).add_trouble_spot({geo::xy{0.0, 0.0}, 3000.0, 1.0, 0.25});
  }

  geo::zone_grid grid(proj, 250.0);

  core::coordinator_config ccfg;
  ccfg.epochs.default_epoch_s = cfg.epoch_s;
  ccfg.alert_ring_capacity = cfg.stress.alert_ring_capacity;
  core::sharded_config scfg;
  scfg.coordinator = ccfg;
  scfg.num_shards = cfg.shards;
  scfg.synchronous = cfg.synchronous;

  auto coord = std::make_unique<core::sharded_coordinator>(grid, names, scfg,
                                                           seed);
  auto server = std::make_unique<proto::coordinator_server>(*coord);

  // ---- durability: a snapshot + WAL pair for restarts ---------------------
  // It lives in a private temporary directory, removed at teardown.
  // Declared before the replication roles, so the leader that tees into the
  // WAL is destroyed first.
  struct temp_dir {
    std::string path;
    ~temp_dir() {
      std::error_code ec;
      if (!path.empty()) std::filesystem::remove_all(path, ec);
    }
  } wal_dir;
  std::unique_ptr<core::durable_log> wal;

  // ---- replicated mode (ISSUE 10) ---------------------------------------
  // A follower coordinator rides along: the leader's server gains the
  // replication endpoint, the follower catches up by snapshot at boot and
  // pulls the epoch stream after every tick's flush. Declared after
  // coord/server so the roles are destroyed first (the epoch tap detaches
  // while its coordinator is still alive).
  std::unique_ptr<core::sharded_coordinator> fcoord;
  std::unique_ptr<proto::coordinator_server> fserver;
  std::unique_ptr<repl::replica> repl_leader;
  std::unique_ptr<repl::replica> repl_follower;
  // Client-assisted replay buffer: every record the leader ACKed, in ACK
  // order, kept until the kill so the promoted follower can rebuild the
  // open-epoch accumulators the dead leader never streamed.
  std::vector<trace::measurement_record> acked_log;
  bool keep_acked = false;
  if (cfg.stress.replicate) {
    if (cfg.stress.restart_tick || cfg.stress.checkpoint_every > 0) {
      // The restart stressor rebuilds `coord` under the leader's attached
      // epoch tap; failover already covers the kill-and-continue story.
      throw std::invalid_argument(
          "scenario: replicate cannot combine with restart_tick or "
          "checkpoint_every");
    }
    keep_acked = cfg.stress.kill_leader_tick.has_value();
    repl_leader = std::make_unique<repl::replica>(*coord, repl::role::leader);
    server->attach_replication(repl_leader.get());
    fcoord = std::make_unique<core::sharded_coordinator>(grid, names, scfg,
                                                         seed);
    fserver = std::make_unique<proto::coordinator_server>(*fcoord);
    repl_follower =
        std::make_unique<repl::replica>(*fcoord, repl::role::follower);
    fserver->attach_replication(repl_follower.get());
  }
  // The production leader's durability path: its epoch log tees every
  // rollover into the WAL.
  auto lead_into_wal = [&] {
    repl_leader = std::make_unique<repl::replica>(
        *coord, repl::role::leader, repl::default_log_capacity, wal.get());
  };
  if (cfg.stress.restart_tick || cfg.stress.checkpoint_every > 0) {
    std::string dir =
        (std::filesystem::temp_directory_path() / "wiscape-wal-XXXXXX")
            .string();
    if (::mkdtemp(dir.data()) == nullptr) {
      throw std::runtime_error("scenario: cannot create a WAL directory");
    }
    wal_dir.path = dir;
    wal = std::make_unique<core::durable_log>(dir);
    keep_acked = cfg.stress.checkpoint_every > 0;
    lead_into_wal();
  }

  // ---- transport ---------------------------------------------------------
  // With over_tcp every exchange crosses a real loopback socket through the
  // epoll front end; otherwise it calls the line handler in-process. The
  // driver stays the single synchronous traffic source either way, and
  // line_client replies are byte-identical to handle(), so all accounting
  // below is transport-independent. Declared tcp before wire_client so the
  // client's socket closes before the server's loops join at scope exit.
  std::unique_ptr<net::tcp_server> tcp;
  net::line_client wire_client;
  std::uint64_t tcp_reconnects = 0;  // successful re-establishes after boot
  std::uint64_t tcp_refused = 0;     // refused connects + rejected HELLOs

  auto tcp_start = [&] {
    net::server_config ncfg;
    ncfg.event_loops = cfg.synchronous ? 1 : 2;
    ncfg.idle_timeout_s = 3600.0;  // driver ticks never pause that long
    // No ingest_saturation source: queue depth depends on worker timing, so
    // shedding would break the byte-identical tick-log contract. Shedding
    // determinism is covered in tests/net_test.cpp with a fixed source.
    tcp = std::make_unique<net::tcp_server>(*server, ncfg);
    tcp->start();
  };
  // Connect + HELLO, riding out an injected accept_fail storm: the kernel
  // completes the handshake from the backlog, the server closes the socket
  // after accept4(), and the client sees EOF on its first read -- a refused
  // HELLO. Each such round is one deterministic accept ordinal, so the
  // fired-fault count in the tick log stays reproducible.
  auto tcp_connect = [&](bool initial) {
    for (int attempt = 0;; ++attempt) {
      if (attempt >= 200) {
        throw std::runtime_error(
            "scenario: TCP reconnect never converged (fault schedule kills "
            "every accept?)");
      }
      if (!wire_client.try_connect("127.0.0.1", tcp->port())) {
        ++tcp_refused;
        continue;
      }
      try {
        (void)wire_client.hello();
      } catch (const std::exception&) {
        ++tcp_refused;
        wire_client.close();
        continue;
      }
      if (!initial) ++tcp_reconnects;
      return;
    }
  };
  if (cfg.stress.over_tcp) {
    tcp_start();
    tcp_connect(true);
  }
  // In-process dispatch through the one entry point, the framing detected
  // from the leading byte; one reply_buffer serves the whole run.
  proto::reply_buffer local_reply;
  auto local = [&](proto::coordinator_server& s,
                   std::string_view req) -> std::string {
    local_reply.clear();
    s.handle(proto::request_view::detect(req), local_reply);
    return std::string(local_reply.view());
  };
  // One exchange with the leader: in process, or over the socket, where the
  // request's leading byte picks a text line or a self-delimiting v3 frame.
  // The reconnect loop rides out a dropped connection and injected
  // frame_truncate faults (the client throws mid-send, the server discards
  // the cut frame at EOF, the retry resends the whole request -- so the
  // acked/erred ledger stays exact).
  auto wire = [&](std::string_view req) -> std::string {
    if (!tcp) return local(*server, req);
    const bool frame = proto::v3::is_frame_start(req);
    for (int attempt = 0;; ++attempt) {
      if (!wire_client.connected()) tcp_connect(false);
      try {
        return frame ? std::string(wire_client.request_frame(req))
                     : wire_client.request(req);
      } catch (const std::runtime_error&) {
        wire_client.close();
        if (attempt >= 200) throw;
      }
    }
  };

  // Replication traffic rides the same transport as client traffic: the
  // follower's EPOCH/SNAPSHOT_REQ frames cross the leader's server (and
  // the real socket with over_tcp). Boot-time catch-up mirrors a joiner:
  // snapshot transfer, then the log suffix the snapshot fenced. A late
  // joiner catches up after a tick's flush instead (below).
  const repl::transport repl_transport = wire;
  // Every other exchange the driver makes goes through a proto::client:
  // control commands and the hostile replays over text, the fleet's
  // reports and queries over the hot-path client (v3 frames with
  // wire_v3), and the follower's own QUERY and PROMOTE in process.
  proto::client text_client(wire);
  proto::client hot_client(wire, cfg.stress.wire_v3
                                     ? proto::client::framing::v3
                                     : proto::client::framing::text);
  proto::client follower_client(
      [&](std::string_view req) { return local(*fserver, req); });
  bool joined = false;
  auto join = [&] {
    repl_follower->catch_up(repl_transport);
    joined = true;
    // The snapshot covers every report ACKed so far, open epochs included.
    acked_log.clear();
  };
  if (repl_follower && !cfg.stress.follower_join_tick) join();

  // ---- fleet -------------------------------------------------------------
  std::vector<client_state> fleet;
  {
    stats::rng_stream pos_rng = root.fork("clients");
    stats::rng_stream skew_rng = root.fork("skew");
    for (std::size_t i = 0; i < cfg.clients; ++i) {
      stats::rng_stream cr = pos_rng.fork(i);
      const geo::xy raw{cr.uniform(-1600.0, 1600.0),
                        cr.uniform(-1600.0, 1600.0)};
      client_state c;
      c.home = snap(proj.to_lat_lon(raw));
      c.home_xy = proj.to_xy(c.home);
      c.op = i % dep.size();
      if (cfg.stress.clock_skew_sigma_s > 0.0) {
        c.skew_s = skew_rng.fork(i).normal(0.0, cfg.stress.clock_skew_sigma_s);
      }
      c.id = 1000 + i;
      fleet.push_back(c);
    }
  }

  // ---- fault schedule ----------------------------------------------------
  injector inj(root.fork("faults").seed());
  for (const fault_rule& r : cfg.stress.faults) inj.add_rule(r);
  arm_scope armed(inj);

  // Declared after `armed`, so it unwinds first on every exit path: the
  // event-loop threads poll the fault hook and must be joined before the
  // injector they read is unhooked and destroyed.
  struct tcp_teardown {
    std::unique_ptr<net::tcp_server>& tcp;
    net::line_client& client;
    ~tcp_teardown() {
      if (!tcp) return;
      client.close();
      tcp->stop();
      tcp.reset();
    }
  } tcp_guard{tcp, wire_client};

  obs::registry& reg = obs::registry::global();
  obs::counter& accepted_ctr = reg.get_counter(obs::names::kCoordReportsAccepted);
  obs::counter& rejected_ctr = reg.get_counter(obs::names::kCoordReportsRejected);
  obs::counter& apply_err_ctr = reg.get_counter(obs::names::kShardedApplyErrors);
  obs::counter& dropped_ctr = reg.get_counter(obs::names::kShardedDropped);

  std::map<core::estimate_key, feed_state, key_less> tracked;
  std::uint64_t served_total = 0, dropped_total = 0, cursor = 0;
  std::vector<obs::metric_sample> prev_snapshot;
  std::ostringstream log;
  // The previous tick's first fleet REPORTB frame, replayed verbatim.
  std::vector<trace::measurement_record> replay_recs;

  auto note = [&](const char* inv, std::uint64_t tick, std::string detail) {
    out.violations.push_back(violation{inv, tick, seed, std::move(detail)});
  };

  // The tick's report ledger. Every report the driver sends is counted
  // here by account(): `send` delivers `recs` as one REPORT or REPORTB
  // through a client, and the server ACKs a frame all-or-nothing, so a
  // frame's records land wholly in acked or erred. An ERR stopped reached
  // the coordinator and accounts through accepted/rejected/dropped; every
  // other ERR (an injected server_handle fault, parse, unsupported,
  // overload) refused the records before dispatch. ACKed records join the
  // replay log when `log_acked`.
  struct tick_tally {
    std::uint64_t submitted = 0, acked = 0, erred = 0, refused = 0;
  } tally;
  auto account = [&](std::span<const trace::measurement_record> recs,
                     bool log_acked, const auto& send) {
    tally.submitted += recs.size();
    try {
      send();
    } catch (const proto::reply_error& e) {
      tally.erred += recs.size();
      if (e.code() != proto::err_code::stopped) tally.refused += recs.size();
      return;
    }
    tally.acked += recs.size();
    if (log_acked && keep_acked) {
      acked_log.insert(acked_log.end(), recs.begin(), recs.end());
    }
  };
  // Sends records in REPORTB frames of at most 32 through `via`.
  auto submit = [&](proto::client& via,
                    std::span<const trace::measurement_record> recs,
                    bool log_acked = true) {
    for (std::size_t off = 0; off < recs.size(); off += 32) {
      const auto chunk =
          recs.subspan(off, std::min<std::size_t>(32, recs.size() - off));
      account(chunk, log_acked, [&] { (void)via.report_batch(chunk); });
    }
  };

  // Checkpoints after a flush, so the snapshot is a function of the tick
  // and covers every report ACKed so far. False on an injected
  // persist_save fault (the previous snapshot and the WAL stand).
  auto checkpoint = [&] {
    coord->flush();
    try {
      wal->checkpoint(*coord);
    } catch (const std::exception&) {
      return false;
    }
    acked_log.clear();
    return true;
  };
  // kill -9 semantics: no flush, no snapshot -- the coordinator dies with
  // its ingest queues and open-epoch accumulators. The TCP front end holds
  // a pointer into *server, so it goes first; resume_serving() restarts it
  // over the next server.
  bool was_tcp = false;
  auto kill_coordinator = [&] {
    was_tcp = tcp != nullptr;
    if (was_tcp) {
      wire_client.close();
      tcp->stop();
      tcp.reset();
    }
    server.reset();
    repl_leader.reset();  // detach the tap while the coordinator is alive
    coord->stop();
    coord.reset();
  };
  auto resume_serving = [&] {
    if (was_tcp) {
      tcp_start();
      tcp_connect(false);
    }
  };

  // Clock slack for the staleness bound: tick quantisation plus (nearly all
  // of) the skew distribution when clocks are skewed.
  const double slack_s = cfg.tick_s + 1.0 + 6.0 * cfg.stress.clock_skew_sigma_s;

  for (std::uint64_t t = 0; t < cfg.ticks; ++t) {
    const double T0 = static_cast<double>(t) * cfg.tick_s;
    bool restarted = false;

    // ---- WAL checkpoint ----------------------------------------------------
    if (cfg.stress.checkpoint_every > 0 && t > 0 &&
        t % cfg.stress.checkpoint_every == 0) {
      (void)checkpoint();
    }

    // ---- coordinator kill + recovery mid-run -----------------------------
    // Recovery from the last checkpoint + the WAL. Without periodic
    // checkpoints the restart is a clean shutdown that checkpoints first
    // (an injected persist_save fault skips it). With them it is a kill -9
    // -- no flush, no snapshot -- and client-assisted replay below rebuilds
    // the open epochs the dead coordinator lost.
    bool recovered = false;
    if (cfg.stress.restart_tick && *cfg.stress.restart_tick == t &&
        (cfg.stress.checkpoint_every > 0 || checkpoint())) {
      kill_coordinator();
      coord = std::make_unique<core::sharded_coordinator>(grid, names, scfg,
                                                          seed);
      const std::uint64_t last = wal->recover(*coord);
      lead_into_wal();
      repl_leader->log().reset(last + 1);
      server = std::make_unique<proto::coordinator_server>(*coord);
      resume_serving();
      restarted = true;
      recovered = cfg.stress.checkpoint_every > 0;
    }

    // ---- leader kill + follower promotion --------------------------------
    // Every epoch frozen through the previous tick already reached the
    // follower via that tick's post-flush poll, so only open state is lost;
    // client-assisted replay below rebuilds it bit-identically from the
    // driver's ACK log.
    if (repl_follower && cfg.stress.kill_leader_tick &&
        *cfg.stress.kill_leader_tick == t && !repl_follower->promoted()) {
      kill_coordinator();
      // Promote through the unified wire path -- the same PROMOTE frame an
      // operator's failover tooling would send.
      try {
        follower_client.promote();
      } catch (const proto::reply_error&) {
        note("leader_failover", t, "wire PROMOTE was refused");
      }
      coord = std::move(fcoord);
      server = std::move(fserver);
      resume_serving();
      recovered = true;
    }

    // ---- proactive connection churn --------------------------------------
    if (tcp && cfg.stress.reconnect_every > 0 && t > 0 &&
        t % cfg.stress.reconnect_every == 0) {
      wire_client.close();
      tcp_connect(false);
    }

    const std::uint64_t accepted0 = accepted_ctr.value();
    const std::uint64_t rejected0 = rejected_ctr.value();
    const std::uint64_t apply_err0 = apply_err_ctr.value();
    const std::uint64_t dropped0 = dropped_ctr.value();
    tally = {};

    // ---- client-assisted replay (paper's core mechanism, post-recovery) --
    // Clients hold their ACKed reports until the epoch containing them is
    // published; after a failover or a kill -9 each re-submits the suffix
    // the recovered coordinator has not frozen. The driver plays all
    // clients here, from the reports ACKed since the state the recovered
    // coordinator loaded was captured (the follower's catch-up, the last
    // checkpoint): earlier ones are in that state, frozen or open. A
    // record is replayed iff its aligned epoch is at or past the stream's
    // frozen high-water mark. Metric sets are disjoint per probe kind, so
    // every metric of a record shares one stream history and the first
    // metric decides for all. Replay preserves ACK order, which is
    // per-stream ingest order, so the rebuilt open accumulators (and
    // every later rollover) are bit-equal to an uninterrupted run's.
    if (recovered) {
      // The recovered alert ring starts over (fresh after a failover, at
      // the last checkpoint's mark after a kill -9): so does the ledger.
      served_total = 0;
      dropped_total = 0;
      cursor = 0;
      keep_acked = false;
      std::vector<trace::measurement_record> replay;
      for (const trace::measurement_record& rec : acked_log) {
        if (!rec.success) continue;  // never fed a stream; nothing to rebuild
        const auto ms = trace::metrics_of(rec.kind);
        if (ms.empty()) continue;
        const geo::zone_id z = grid.zone_of(rec.pos);
        const std::optional<core::epoch_estimate> latest =
            coord->latest(core::estimate_key{z, rec.network, ms.front()});
        const double hw = latest
                              ? latest->epoch_start_s + cfg.epoch_s
                              : -std::numeric_limits<double>::infinity();
        if (std::floor(rec.time_s / cfg.epoch_s) * cfg.epoch_s >= hw) {
          replay.push_back(rec);
        }
      }
      submit(hot_client, replay);
      acked_log.clear();
      acked_log.shrink_to_fit();
    }

    // ---- fleet traffic ---------------------------------------------------
    stats::rng_stream tick_rng = root.fork("traffic").fork(t);
    std::vector<trace::measurement_record> batch;
    const bool flash_now = cfg.stress.flash_crowd &&
                           T0 >= cfg.stress.flash_start_s &&
                           T0 < cfg.stress.flash_end_s;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      client_state& c = fleet[i];
      if (!c.active) continue;
      // Fresh substream per (tick, client): a withdrawn client never shifts
      // anyone else's draws.
      stats::rng_stream cr = tick_rng.fork(i);
      if (cfg.checkin_driven) {
        proto::checkin_request chk;
        chk.client_id = c.id;
        chk.pos = c.home;
        chk.time_s = T0 + c.skew_s;
        chk.network_index = static_cast<std::uint32_t>(c.op);
        chk.active_in_zone = 4;
        try {
          (void)text_client.checkin(chk);
        } catch (const proto::reply_error&) {
          // An injected fault refused the check-in; the client reports anyway.
        }
      }
      for (int r = 0; r < 2; ++r) {
        const double tt = T0 + 7.0 + 23.0 * r;
        geo::xy at = c.home_xy;
        if (flash_now && i % 3 == 0) {
          // A third of the fleet converges on the stadium for the event.
          at = {at.x_m * 0.2, at.y_m * 0.2};
        }
        if (cfg.stress.gps_jitter_m > 0.0) {
          at.x_m += cr.normal(0.0, cfg.stress.gps_jitter_m);
          at.y_m += cr.normal(0.0, cfg.stress.gps_jitter_m);
        }
        const geo::lat_lon pos = snap(proj.to_lat_lon(at));
        const geo::xy pxy = proj.to_xy(pos);
        const cellnet::link_conditions cond = dep.conditions_at(c.op, pos, tt);
        const bool ok =
            cond.in_coverage && !dep.network(c.op).in_outage(pxy, tt);
        const double u1 = cr.uniform();
        const double u2 = cr.uniform();

        trace::measurement_record rec;
        rec.time_s = tt + c.skew_s;
        rec.network = names[c.op];
        rec.pos = pos;
        rec.client_id = c.id;
        rec.rssi_dbm = cond.rx_dbm;
        rec.success = ok;
        const double free_bps = cond.capacity_bps * (1.0 - cond.utilization);
        switch ((t + i + static_cast<std::uint64_t>(r)) % 3) {
          case 0:
            rec.kind = trace::probe_kind::udp_burst;
            rec.throughput_bps = free_bps * (0.85 + 0.3 * u1);
            rec.loss_rate = cond.loss_prob;
            rec.jitter_s = 0.002 + 0.004 * u2;
            break;
          case 1:
            rec.kind = trace::probe_kind::ping;
            rec.rtt_s = cond.rtt_s * (0.95 + 0.1 * u1);
            rec.ping_sent = 10;
            rec.ping_failures = ok ? 0 : 10;
            break;
          default:
            rec.kind = trace::probe_kind::tcp_download;
            rec.throughput_bps = 0.9 * free_bps * (0.85 + 0.3 * u1);
            break;
        }
        if (ok) {
          const geo::zone_id z = grid.zone_of(pos);
          for (trace::metric m : trace::metrics_of(rec.kind)) {
            auto [it, inserted] =
                tracked.try_emplace(core::estimate_key{z, rec.network, m});
            feed_state& fs = it->second;
            if (inserted || fs.last_tick + 1 < t) {
              fs.window_start_s = rec.time_s;  // gap: restart the window
              fs.last_s = rec.time_s;
            } else {
              fs.last_s = std::max(fs.last_s, rec.time_s);
            }
            fs.last_tick = t;
          }
        }
        batch.push_back(std::move(rec));
      }
    }
    if (!batch.empty()) {
      // First record rides the single-REPORT path; the rest batch.
      account(std::span(batch).first(1), true, [&] {
        hot_client.report({batch.front().client_id, batch.front()});
      });
      submit(hot_client, std::span(batch).subspan(1));
    }

    // ---- hostile clients -------------------------------------------------
    if (cfg.stress.hostile) {
      // Replay of a previously ACKed frame: duplicates flow through the
      // normal accounting (the coordinator has no replay window by design).
      submit(text_client, replay_recs, false);
      // Absurd coordinates: NaN and +-1e308 saturate the zone grid and must
      // land in the rejected counter, never throw.
      std::vector<trace::measurement_record> bad;
      for (int k = 0; k < 3; ++k) {
        trace::measurement_record rec;
        rec.time_s = T0 + 11.0;
        rec.network = "MalCoord";
        rec.client_id = 660000 + static_cast<std::uint64_t>(k);
        rec.kind = trace::probe_kind::udp_burst;
        rec.success = true;
        rec.throughput_bps = 1.0e6;
        if (k == 0) {
          rec.pos = {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::quiet_NaN()};
        } else if (k == 1) {
          rec.pos = {1.0e308, 1.0e308};
        } else {
          rec.pos = {-1.0e308, 50.0};
        }
        bad.push_back(std::move(rec));
      }
      submit(hot_client, bad);
      // Malformed frames: must draw a typed ERR, carry no records.
      for (const std::string_view junk :
           {std::string_view("REPORTB 3\ngarbage"),
            std::string_view("REPORT client=1 csv=notcsv"),
            std::string_view("REPORTB two\nx")}) {
        const std::string reply = wire(junk);
        if (proto::message_type(reply) != "ERR") {
          note("hostile_reply", t,
               "malformed frame was not refused: " + std::string(junk));
        }
      }
      // Duplicate REPORTB: the identical frame sent twice in one tick.
      {
        std::vector<trace::measurement_record> dup;
        for (int k = 0; k < 3; ++k) {
          trace::measurement_record rec;
          rec.time_s = T0 + 13.0 + k;
          rec.network = "MalDup";
          rec.pos = snap(proj.to_lat_lon(geo::xy{200.0, 200.0}));
          rec.client_id = 661000;
          rec.kind = trace::probe_kind::ping;
          rec.success = true;
          rec.rtt_s = 0.2;
          rec.ping_sent = 10;
          dup.push_back(std::move(rec));
        }
        for (int rep = 0; rep < 2; ++rep) submit(text_client, dup, false);
      }
      // Interner-exhaustion flood: thousands of one-off operator names
      // pinned to a single zone. The owning shard's interner caps out and
      // the tail flows through the rejected counter (the PR 4 path).
      if (t == 5) {
        const geo::lat_lon flood_pos = snap(proj.to_lat_lon(geo::xy{120.0, 80.0}));
        std::vector<trace::measurement_record> flood;
        flood.reserve(4200);
        for (int k = 0; k < 4200; ++k) {
          trace::measurement_record rec;
          rec.time_s = T0 + 17.0;
          rec.network = "Mal" + std::to_string(k);
          rec.pos = flood_pos;
          rec.client_id = 662000;
          rec.kind = trace::probe_kind::udp_burst;
          rec.success = true;
          rec.throughput_bps = 5.0e5;
          flood.push_back(std::move(rec));
        }
        submit(hot_client, flood);
      }
    }
    // Stash this tick's first frame for next tick's replay.
    if (cfg.stress.hostile && batch.size() > 1) {
      const auto first_frame = std::span(batch).subspan(
          1, std::min<std::size_t>(32, batch.size() - 1));
      replay_recs.assign(first_frame.begin(), first_frame.end());
    }

    // ---- QoE-driven churn ------------------------------------------------
    std::size_t withdrawn = 0;
    if (cfg.stress.qoe_churn && t >= 8 && t % 4 == 0) {
      coord->flush();
      core::estimate_view view(*coord);
      apps::estimate_knowledge know(view, grid, names, 10);
      const double now = T0 + 40.0;
      for (client_state& c : fleet) {
        if (!c.active) continue;
        const cellnet::link_conditions cond =
            dep.conditions_at(c.op, c.home, now);
        const double truth =
            0.9 * cond.capacity_bps * (1.0 - cond.utilization);
        const double expect = know.expected_bps(c.op, c.home);
        if (expect > 0.0 && truth > 0.0) {
          const double rel = std::abs(expect - truth) / truth;
          if (rel > cfg.stress.qoe_rel_error_threshold) c.active = false;
        }
      }
      // One wire QUERY per churn round keeps the read path under traffic.
      proto::query_request q;
      q.pos = fleet.front().home;
      q.network = names[fleet.front().op];
      q.metric = trace::metric::tcp_throughput_bps;
      q.time_s = now;
      try {
        (void)hot_client.query(q);  // EST or NONE
      } catch (const proto::reply_error& e) {
        note("query_reply", t,
             std::string(cfg.stress.wire_v3 ? "binary " : "") +
                 "QUERY drew ERR " + std::string(proto::to_string(e.code())) +
                 " instead of EST/NONE");
      }
    }
    for (const client_state& c : fleet) {
      if (!c.active) ++withdrawn;
    }

    // ---- deliberate sabotage (proves the checker catches a real lie) -----
    if (cfg.stress.sabotage_tick && *cfg.stress.sabotage_tick == t) {
      ++tally.acked;
    }

    // ---- invariants ------------------------------------------------------
    coord->flush();  // make the counter deltas exact for this tick

    // ---- alert consumer (after flush: the set of alerts visible at the
    // drain is a function of the tick, not of worker timing) --------------
    if ((t + 1) % cfg.stress.alert_drain_every == 0) {
      // An injected server_handle fault answers ERR: the consumer simply
      // makes no progress this tick (the ledger stays consistent).
      try {
        const proto::alerts_reply drained =
            text_client.alerts(cursor, cfg.stress.alert_drain_max);
        served_total += drained.alerts.size();
        dropped_total += drained.dropped;
        cursor = drained.next_seq;
      } catch (const proto::reply_error&) {
      }
    }

    // ---- replication: post-flush pull + bounded-staleness probe ----------
    // The poll runs after flush, so the epochs it pulls are a function of
    // the tick, not of worker timing -- the repl= tick-log field stays
    // byte-identical across runs. An injected replica_lag fault skips the
    // round (a stalled replica link); the staleness bound below tolerates
    // a few consecutive skips.
    std::uint64_t repl_applied = 0;
    if (repl_follower && !joined && cfg.stress.follower_join_tick == t) {
      join();
    }
    if (joined && !repl_follower->promoted()) {
      const std::optional<std::uint64_t> applied =
          repl_follower->poll(repl_transport);
      if (!applied) {
        note("replication", t, "leader log truncated below follower cursor");
      } else {
        repl_applied = *applied;
      }
      const double stale_tol = 2.0 * cfg.epoch_s + 3.0 * cfg.tick_s;
      for (const auto& [key, fs] : tracked) {
        if (fs.last_tick != t) continue;  // not fed this tick
        const std::optional<core::epoch_estimate> lead = coord->latest(key);
        if (!lead) continue;
        const std::optional<core::epoch_estimate> fol = fcoord->latest(key);
        if (!fol) {
          if (lead->epoch_start_s + stale_tol < T0) {
            note("replica_staleness", t,
                 "follower missing stream " + key.network +
                     " published on the leader since " +
                     std::to_string(lead->epoch_start_s));
          }
        } else if (lead->epoch_start_s - fol->epoch_start_s > stale_tol) {
          note("replica_staleness", t,
               "follower behind by " +
                   std::to_string(lead->epoch_start_s - fol->epoch_start_s) +
                   "s on stream " + key.network);
        } else {
          // One QUERY through the follower's own server keeps the replica
          // read path under traffic -- a standby must answer while syncing.
          proto::query_request q;
          q.pos = grid.center(key.zone);
          q.network = key.network;
          q.metric = key.metric;
          q.time_s = T0 + cfg.tick_s;
          std::string_view drew;
          try {
            if (!follower_client.query(q)) drew = "NONE";
          } catch (const proto::reply_error&) {
            drew = "ERR";
          }
          if (!drew.empty()) {
            note("replica_query", t,
                 "follower QUERY drew '" + std::string(drew) +
                     "' instead of EST");
          }
        }
        break;  // one probe per tick keeps the log schema fixed-width
      }
    }

    tick_accounting acct;
    acct.submitted = tally.submitted;
    acct.acked = tally.acked;
    acct.erred = tally.erred;
    acct.refused = tally.refused;
    acct.accepted_delta = accepted_ctr.value() - accepted0;
    acct.rejected_delta = rejected_ctr.value() - rejected0;
    acct.dropped_delta = dropped_ctr.value() - dropped0;
    acct.apply_errors_delta = apply_err_ctr.value() - apply_err0;
    if (auto d = check_report_accounting(acct)) {
      note("report_accounting", t, *d);
    }

    alert_ledger ledger;
    ledger.served_total = served_total;
    ledger.dropped_total = dropped_total;
    ledger.cursor = cursor;
    ledger.pushed = coord->alert_sink().pushed();
    ledger.fully_drained = false;
    if (auto d = check_alert_accounting(ledger)) {
      note("alert_accounting", t, *d);
    }

    {
      core::estimate_view view(*coord);
      for (const auto& [key, fs] : tracked) {
        if (fs.last_tick != t) continue;  // not fed this tick
        const std::optional<core::epoch_estimate> latest = coord->latest(key);
        // Staleness only for streams continuously fed >= 2 epochs + slack.
        if (fs.last_s - fs.window_start_s >= 2.0 * cfg.epoch_s + slack_s) {
          if (!latest) {
            note("estimate_staleness", t,
                 "stream " + key.network + " fed continuously for " +
                     std::to_string(fs.last_s - fs.window_start_s) +
                     "s has no published epoch");
          } else if (auto d = check_staleness({latest->epoch_start_s,
                                               fs.last_s, cfg.epoch_s,
                                               slack_s})) {
            note("estimate_staleness", t, *d);
          }
        }
        // The serving mirror must agree bit-for-bit with the shard tables.
        if (latest) {
          const auto served = view.lookup(key.zone, key.network, key.metric);
          if (!served) {
            note("view_consistency", t,
                 "published stream missing from the serving mirror");
          } else if (served->mean != latest->mean ||
                     served->stddev != latest->stddev ||
                     served->count != latest->samples) {
            note("view_consistency", t,
                 "mirror and shard disagree on the latest epoch");
          }
        }
      }
    }

    std::vector<obs::metric_sample> snap_now = reg.snapshot();
    if (!prev_snapshot.empty()) {
      if (auto d = check_counter_monotone(prev_snapshot, snap_now)) {
        note("counter_monotone", t, *d);
      }
    }
    prev_snapshot = std::move(snap_now);

    // ---- tick log (driver-deterministic fields only) ---------------------
    log << "tick=" << t << " submitted=" << tally.submitted
        << " acked=" << tally.acked << " erred=" << tally.erred
        << " accepted=" << acct.accepted_delta
        << " rejected=" << acct.rejected_delta
        << " streams=" << coord->keys().size()
        << " alerts=" << coord->alert_sink().pushed()
        << " served=" << served_total << " dropped=" << dropped_total
        << " cursor=" << cursor << " withdrawn=" << withdrawn
        << " restart=" << (restarted ? 1 : 0) << " faults=q"
        << inj.fired(core::fault::site::queue_push) << "/h"
        << inj.fired(core::fault::site::server_handle) << "/p"
        << inj.fired(core::fault::site::persist_save) << "/a"
        << inj.fired(core::fault::site::accept_fail);
    if (cfg.stress.over_tcp) {
      // Driver-side connection ledger: accept_fail ordinals are driven by
      // the driver's sequential connects, so both counts are deterministic.
      log << " tcp=" << tcp_reconnects << "/" << tcp_refused;
    }
    if (cfg.stress.replicate) {
      // applied-this-tick / replica_lag faults fired / promoted flag --
      // all driver-deterministic (the poll runs post-flush).
      log << " repl=" << repl_applied << "/"
          << inj.fired(core::fault::site::replica_lag) << "/"
          << (repl_follower->promoted() ? 1 : 0);
    }
    log << "\n";
  }

  // ---- teardown ----------------------------------------------------------
  coord->flush();
  const std::uint64_t pushed = coord->alert_sink().pushed();
  for (int spin = 0; cursor < pushed && spin < 10000; ++spin) {
    const std::uint64_t before = cursor;
    try {
      const proto::alerts_reply drained = text_client.alerts(cursor, 256);
      served_total += drained.alerts.size();
      dropped_total += drained.dropped;
      cursor = drained.next_seq;
    } catch (const proto::reply_error&) {
      continue;  // injected fault
    }
    if (cursor == before) break;  // no progress: let the checker report it
  }
  if (auto d = check_alert_accounting(
          {served_total, dropped_total, cursor, pushed, true})) {
    note("alert_accounting", cfg.ticks, *d);
  }

  // Final ESTB dump over every configured-operator stream, sorted: two runs
  // ending in the same published state compare byte-equal here.
  {
    std::vector<core::estimate_key> keys = coord->keys();
    std::erase_if(keys, [&](const core::estimate_key& k) {
      return std::find(names.begin(), names.end(), k.network) == names.end();
    });
    std::sort(keys.begin(), keys.end(), key_less{});
    const double now = static_cast<double>(cfg.ticks) * cfg.tick_s;
    std::vector<proto::query_request> qs;
    qs.reserve(keys.size());
    for (const core::estimate_key& k : keys) {
      proto::query_request q;
      q.pos = grid.center(k.zone);
      q.network = k.network;
      q.metric = k.metric;
      q.time_s = now;
      qs.push_back(std::move(q));
    }
    std::ostringstream estb;
    for (std::size_t off = 0; off < qs.size(); off += 512) {
      const std::size_t n = std::min<std::size_t>(512, qs.size() - off);
      estb << wire(proto::encode_query_batch(std::span(qs).subspan(off, n)))
           << "\n";
    }
    out.final_estb = estb.str();
  }
  // Final table: every stream's frozen history and open epoch, sorted --
  // rendered here rather than by save_state, whose persist_save fault
  // site a scenario's schedule may still arm.
  {
    std::vector<core::estimate_key> keys = coord->keys();
    std::sort(keys.begin(), keys.end(), key_less{});
    for (const core::estimate_key& k : keys) {
      for (const core::epoch_estimate& e : coord->history(k)) {
        core::epoch_codec::put_est(out.final_table, k, e);
      }
      if (const auto open = coord->open_state(k)) {
        core::epoch_codec::put_open(out.final_table, k, *open);
      }
    }
  }

  out.tick_log = log.str();
  out.passed = out.violations.empty();
  return out;
}

}  // namespace wiscape::scenario
