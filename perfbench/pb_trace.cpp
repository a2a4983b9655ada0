// The traced replay: the same seeded request stream a workload's timed run
// sends, fed in-process through each layer's public functions, outermost
// first, each pass on a fresh coordinator recovered from the prepared warm
// state:
//
//   net    net::session::pump, socket-free (bytes in, replies out)
//   proto  proto::coordinator_server::handle (handle_report_group for the
//          fleet's pipelined REPORTs)
//   codec  the decoders (v3 REPORTB/QUERYB/QUERY, text REPORT/CHECKIN/
//          QUERY, EPOCH pull) and the EST/ESTB encoders
//   core   sharded_coordinator::report_batch / checkin / flush,
//          estimate_view::lookup, repl::leader::pull
//   apply  the same reports through a synchronous single-shard
//          sharded_coordinator (apply alone)
//   repl   epoch_log::on_epoch (every rollover of the core pass), pull, and
//          follower::apply of the pulled records
//   wal    durable_log::append of those rollovers, checkpoint, recover
//
//   pb_trace --workload W --seed N --base D --dir T
//
// Every call (or batch of calls) becomes a span {name, start, end, parent,
// request id}; spans stay in memory and are written to
// T/spans-<workload>-<seed>.csv at the end. A layer's self time is its
// inclusive time minus the next inner layer's on the same requests; the
// runner combines these with the client-observed times of the timed run.
// The proto pass runs twice, spans on and off, to price the tracing itself.
// Prints a stage table, then one JSON object on the last line.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "core/durable_log.h"
#include "core/estimate_view.h"
#include "net/session.h"
#include "proto/server.h"
#include "repl/epoch_log.h"
#include "repl/replica.h"
#include "streams.h"

using namespace wiscape;
namespace fs = std::filesystem;

namespace {

enum rtype { reportb, queryb, query, checkin, report, report_group, epoch, kTypes };
const char* const kTypeNames[kTypes] = {"reportb", "queryb",       "query", "checkin",
                                        "report",  "report_group", "epoch"};

/// One replayed request: its wire bytes (text lines '\n'-terminated) and
/// what it decodes to, for the inner passes.
struct request {
  rtype type = report;
  bool binary = false;
  std::string bytes;
  std::vector<trace::measurement_record> records;
  std::vector<proto::query_request> queries;
  proto::checkin_request checkin;
  proto::v3::epoch_pull pull;
};

// ---- spans -------------------------------------------------------------------

struct span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;  ///< index + 1 of the parent span (0 = root)
  std::uint64_t request = 0;
  std::int64_t start_ns = 0, end_ns = 0;
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class tracer {
 public:
  bool on = true;

  std::uint32_t name_id(const std::string& n) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == n) return static_cast<std::uint32_t>(i);
    }
    names_.push_back(n);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }
  /// Opens a span; returns its handle (0 when tracing is off).
  std::uint32_t open(std::uint32_t name, std::uint32_t parent, std::uint64_t req) {
    if (!on) return 0;
    spans_.push_back({name, parent, req, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t handle) {
    if (handle) spans_[handle - 1].end_ns = now_ns();
  }
  std::size_t size() const { return spans_.size(); }
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "id,name,parent,request,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      out << i + 1 << ',' << names_[s.name] << ',' << s.parent << ','
          << s.request << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }

 private:
  std::vector<std::string> names_;
  std::vector<span> spans_;
};

/// Per-type accumulated inclusive time of one layer pass.
struct layer_times {
  double total_s[kTypes] = {};
  std::uint64_t count[kTypes] = {};
  void add(rtype t, double s) {
    total_s[t] += s;
    ++count[t];
  }
  double mean_us(rtype t) const {
    return count[t] ? 1e6 * total_s[t] / static_cast<double>(count[t]) : 0.0;
  }
};

// ---- the replayed stream --------------------------------------------------------

struct counts {
  std::size_t report_frames, query_frames, single_queries, cycles, probes;
};

counts replay_counts(const pb::workload& w) {
  // Roughly in the timed runs' proportions: REPORTB frames, QUERYB frames
  // (serve's reader streams), single QUERYs (8 per probe), phone cycles.
  if (w.name == "ingest") return {4000, 0, 4800, 0, 600};
  if (w.name == "serve") return {300, 1500, 4800, 0, 600};
  return {0, 0, 4800, 12000, 600};
}

void add_text(std::vector<request>& out, rtype t, std::string line) {
  request r;
  r.type = t;
  r.bytes = std::move(line);
  if (r.bytes.empty() || r.bytes.back() != '\n') r.bytes += '\n';
  out.push_back(std::move(r));
}

void add_probe(std::vector<request>& out, const pb::keyspace& ks,
               const pb::workload& w, std::uint64_t seed, std::uint64_t k,
               bool with_checkin) {
  const std::size_t z = k % pb::kProbeZones;
  const std::uint64_t round = k / pb::kProbeZones;
  if (with_checkin) {
    proto::checkin_request c;
    c.client_id = 9000 + z;
    c.pos = ks.probe_center(z);
    c.time_s = (100.0 + static_cast<double>(round)) * w.epoch_s;
    c.device = "phone";
    add_text(out, checkin, proto::encode(c));
  }
  proto::measurement_report rep;
  rep.record = pb::probe_record(ks, w, seed, round, z);
  rep.client_id = rep.record.client_id;
  add_text(out, report, proto::encode(rep));
  const proto::query_request q = pb::probe_query(ks, z);
  if (w.text_probe) {
    add_text(out, query, proto::encode(q));
  } else {
    request r;
    r.type = query;
    r.binary = true;
    r.bytes = proto::v3::encode_query_frame(q);
    out.push_back(std::move(r));
  }
}

request binary_request(rtype t, std::string_view bytes) {
  request r;
  r.type = t;
  r.binary = true;
  r.bytes = std::string(bytes);
  return r;
}

/// The workload's request mix, each kind spread evenly over the replay:
/// request j of a kind with n requests sits at (j + 0.5) / n, and the
/// kinds merge on that position (a stable sort, so it is deterministic).
std::vector<request> build_stream(const pb::workload& w, const pb::keyspace& ks,
                                  std::uint64_t seed) {
  const counts n = replay_counts(w);
  std::vector<std::pair<double, std::vector<request>>> slots;
  auto at = [](std::size_t j, std::size_t total) {
    return (static_cast<double>(j) + 0.5) / static_cast<double>(total);
  };
  std::vector<trace::measurement_record> rs;
  std::vector<proto::query_request> qs;
  proto::reply_buffer buf;
  for (std::size_t j = 0; j < n.report_frames; ++j) {
    buf.clear();
    const bool serve = w.name == "serve";
    pb::report_frame(ks, w, seed, serve ? 0 : j % w.report_conns,
                     serve ? j : j / w.report_conns, rs, buf);
    slots.push_back({at(j, n.report_frames), {binary_request(reportb, buf.view())}});
  }
  for (std::size_t j = 0; j < n.query_frames; ++j) {
    buf.clear();
    pb::query_frame(ks, seed, j % w.query_conns, j / w.query_conns, qs, buf);
    slots.push_back({at(j, n.query_frames), {binary_request(queryb, buf.view())}});
  }
  for (std::size_t j = 0; j < n.single_queries; ++j) {
    const proto::query_request q = pb::single_query(ks, seed, j);
    std::vector<request> single;
    if (w.text_probe) {
      add_text(single, query, proto::encode(q));
    } else {
      single.push_back(binary_request(query, proto::v3::encode_query_frame(q)));
    }
    slots.push_back({at(j, n.single_queries), std::move(single)});
  }
  for (std::size_t j = 0; j < n.cycles; ++j) {
    std::string ci, reps;
    pb::fleet_cycle(ks, w, seed, j % w.report_conns, j / w.report_conns, ci, reps);
    std::vector<request> cycle;
    add_text(cycle, checkin, ci);
    request g;
    g.type = report_group;
    g.bytes = reps;
    cycle.push_back(std::move(g));
    slots.push_back({at(j, n.cycles), std::move(cycle)});
  }
  for (std::size_t j = 0; j < n.probes; ++j) {
    std::vector<request> probe;
    add_probe(probe, ks, w, seed, 2 * pb::kProbeZones + j, true);
    slots.push_back({at(j, n.probes), std::move(probe)});
  }
  std::stable_sort(slots.begin(), slots.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<request> out;
  // Probe streams are primed first (rounds 0 and 1), as in the timed run.
  for (std::uint64_t k = 0; k < 2 * pb::kProbeZones; ++k) {
    add_probe(out, ks, w, seed, k, false);
  }
  for (auto& [pos, reqs] : slots) {
    for (auto& r : reqs) out.push_back(std::move(r));
  }
  if (w.follower) {
    // The follower's EPOCH pulls, replayed against the leader at the end.
    for (std::uint64_t since = 0; since < 60000; since += 256) {
      request r = binary_request(
          epoch, proto::v3::encode_epoch_pull_frame({since, 256}));
      r.pull = {since, 256};
      out.push_back(std::move(r));
    }
  }
  return out;
}

/// Decodes every request once (untimed), for the inner passes.
void predecode(std::vector<request>& reqs, const core::sharded_coordinator& c) {
  for (request& r : reqs) {
    const std::string_view line(r.bytes.data(), r.bytes.size() - (r.binary ? 0 : 1));
    switch (r.type) {
      case reportb:
        proto::v3::decode_report_batch_frame_into(r.bytes, r.records);
        break;
      case queryb:
        proto::v3::decode_query_batch_frame_into(r.bytes, r.queries);
        break;
      case query:
        r.queries.push_back(r.binary ? proto::v3::decode_query_frame(r.bytes)
                                     : proto::decode_query(line));
        break;
      case checkin:
        r.checkin = proto::decode_checkin(line);
        break;
      case report:
        r.records.push_back(proto::decode_report(line).record);
        break;
      case report_group: {
        std::size_t pos = 0;
        while (pos < r.bytes.size()) {
          const std::size_t nl = r.bytes.find('\n', pos);
          r.records.push_back(
              proto::decode_report(std::string_view(r.bytes).substr(pos, nl - pos))
                  .record);
          pos = nl + 1;
        }
        break;
      }
      default:
        break;
    }
    for (auto& rec : r.records) rec.network_id = c.network_id_of(rec.network);
  }
}

std::size_t lines_of(const request& r) {
  return r.type == report_group ? pb::kReportsPerTask : 1;
}

// ---- one recovered stack per pass --------------------------------------------------

/// A coordinator recovered from the prepared warm state, the server over
/// it, and (fleet) the leader endpoint with a WAL in a scratch copy.
struct stack {
  stack(const pb::workload& w, const pb::keyspace& ks, const std::string& base,
        const std::string& scratch, std::size_t shards, bool synchronous,
        core::epoch_tap* extra_tap = nullptr)
      : coord(ks.grid(), pb::networks(),
              pb::coordinator_config(w, synchronous ? 1 : shards, synchronous),
              pb::kServerSeed),
        server(coord),
        view(coord) {
    fs::remove_all(scratch);
    fs::copy(base, scratch);
    log = std::make_unique<core::durable_log>(scratch);
    const std::uint64_t last = log->recover(coord);
    if (w.follower && !synchronous) {
      leader = std::make_unique<repl::leader>(
          coord, repl::default_log_capacity, w.wal_live ? log.get() : nullptr);
      leader->log().reset(last + 1);
      server.attach_replication(leader.get());
    }
    if (extra_tap) coord.set_epoch_tap(extra_tap);
  }

  core::sharded_coordinator coord;
  proto::coordinator_server server;
  core::estimate_view view;
  std::unique_ptr<core::durable_log> log;
  std::unique_ptr<repl::leader> leader;
};

/// Wraps the leader's epoch log: times every on_epoch and keeps the
/// records for the repl and WAL passes.
class timed_tap : public core::epoch_tap {
 public:
  explicit timed_tap(core::epoch_tap* inner) : inner_(inner) {}
  void on_epoch(const core::estimate_key& key,
                const core::epoch_estimate& e) override {
    const double t0 = pb::now_s();
    if (inner_) inner_->on_epoch(key, e);
    const double dt = pb::now_s() - t0;
    std::lock_guard<std::mutex> lock(mu_);
    total_s_ += dt;
    epochs_.push_back({key, e});
  }
  double mean_us() const {
    return epochs_.empty() ? 0.0 : 1e6 * total_s_ / static_cast<double>(epochs_.size());
  }
  const std::vector<std::pair<core::estimate_key, core::epoch_estimate>>& epochs()
      const {
    return epochs_;
  }

 private:
  core::epoch_tap* inner_;
  std::mutex mu_;
  double total_s_ = 0.0;
  std::vector<std::pair<core::estimate_key, core::epoch_estimate>> epochs_;
};

// ---- the passes ---------------------------------------------------------------------

layer_times pass_pump(stack& s, const std::vector<request>& reqs, tracer& tr) {
  layer_times lt;
  net::session_limits limits;
  limits.require_hello = false;
  net::session sess(limits, s.server);
  const net::shed_state shed{};
  net::pump_stats ps;
  const std::uint32_t name = tr.name_id("net.session.pump");
  const std::uint32_t root = tr.open(tr.name_id("pass.net"), 0, 0);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const request& r = reqs[i];
    const std::uint32_t h = tr.open(name, root, i);
    const double t0 = pb::now_s();
    sess.in().append(r.bytes);
    if (!sess.pump(shed, ps)) throw std::runtime_error("session closed");
    sess.out().consume(sess.out().size());
    lt.add(r.type, pb::now_s() - t0);
    tr.close(h);
  }
  tr.close(root);
  return lt;
}

layer_times pass_handle(stack& s, const std::vector<request>& reqs, tracer& tr) {
  layer_times lt;
  proto::reply_buffer rb;
  const std::uint32_t name = tr.name_id("proto.coordinator_server.handle");
  const std::uint32_t root = tr.open(tr.name_id("pass.proto"), 0, 0);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const request& r = reqs[i];
    const std::uint32_t h = tr.open(name, root, i);
    const double t0 = pb::now_s();
    rb.clear();
    if (r.type == report_group) {
      s.server.handle_report_group(r.bytes, lines_of(r), rb);
    } else if (r.binary) {
      s.server.handle(proto::request_view::binary(r.bytes), rb);
    } else {
      s.server.handle(proto::request_view::text(
                          std::string_view(r.bytes).substr(0, r.bytes.size() - 1)),
                      rb);
    }
    lt.add(r.type, pb::now_s() - t0);
    tr.close(h);
  }
  tr.close(root);
  return lt;
}

struct codec_result {
  layer_times lt;
  double decode_ns[4] = {};  ///< reportb_v3, report_text, checkin, query
  double encode_ns_est = 0.0;
};

codec_result pass_codec(const std::vector<request>& reqs, tracer& tr) {
  codec_result out;
  std::vector<trace::measurement_record> recs;
  std::vector<proto::query_request> qs;
  proto::reply_buffer rb;
  double dec_s[4] = {}, enc_s = 0.0;
  std::uint64_t dec_n[4] = {}, enc_n = 0;
  proto::estimate_reply sample;
  sample.network = "NetB";
  sample.count = 12;
  sample.mean = 1.5e6;
  sample.stddev = 2.5e5;
  const std::uint32_t dname = tr.name_id("proto.decode");
  const std::uint32_t ename = tr.name_id("proto.encode_est");
  const std::uint32_t root = tr.open(tr.name_id("pass.codec"), 0, 0);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const request& r = reqs[i];
    const std::string_view line(r.bytes.data(), r.bytes.size() - (r.binary ? 0 : 1));
    const std::uint32_t h = tr.open(dname, root, i);
    const double t0 = pb::now_s();
    int which = -1;
    switch (r.type) {
      case reportb:
        proto::v3::decode_report_batch_frame_into(r.bytes, recs);
        which = 0;
        break;
      case queryb:
        proto::v3::decode_query_batch_frame_into(r.bytes, qs);
        break;
      case query:
        if (r.binary) (void)proto::v3::decode_query_frame(r.bytes);
        else (void)proto::decode_query(line);
        which = 3;
        break;
      case checkin:
        (void)proto::decode_checkin(line);
        which = 2;
        break;
      case report:
        (void)proto::decode_report(line);
        which = 1;
        break;
      case report_group: {
        std::size_t pos = 0;
        while (pos < r.bytes.size()) {
          const std::size_t nl = r.bytes.find('\n', pos);
          (void)proto::decode_report(std::string_view(r.bytes).substr(pos, nl - pos));
          pos = nl + 1;
        }
        break;
      }
      case epoch:
        (void)proto::v3::decode_epoch_pull_frame(r.bytes);
        break;
      default:
        break;
    }
    const double t1 = pb::now_s();
    tr.close(h);
    if (which >= 0) {
      dec_s[which] += t1 - t0;
      dec_n[which] += 1;
    }
    // The reply encoders of the read path.
    double t2 = t1;
    if (r.type == queryb || r.type == query) {
      const std::uint32_t he = tr.open(ename, root, i);
      rb.clear();
      const std::size_t n = r.type == queryb ? pb::kQueryFrame : 1;
      if (r.type == queryb) {
        proto::v3::estimate_batch_builder b(static_cast<std::uint32_t>(n), rb);
        for (std::size_t k = 0; k < n; ++k) b.add(sample);
        b.finish();
      } else if (r.binary) {
        proto::v3::encode_estimate_frame(sample, rb);
      } else {
        proto::encode_into(sample, rb);
      }
      t2 = pb::now_s();
      tr.close(he);
      enc_s += t2 - t1;
      enc_n += n;
    }
    out.lt.add(r.type, t2 - t0);
  }
  tr.close(root);
  for (int k = 0; k < 4; ++k) {
    out.decode_ns[k] = dec_n[k] ? 1e9 * dec_s[k] / static_cast<double>(dec_n[k]) : 0.0;
  }
  out.encode_ns_est = enc_n ? 1e9 * enc_s / static_cast<double>(enc_n) : 0.0;
  return out;
}

struct core_result {
  layer_times lt;
  double enqueue_us = 0.0, flush_ms = 0.0, checkin_us = 0.0, lookup_ns = 0.0;
};

core_result pass_core(stack& s, const std::vector<request>& reqs, tracer& tr) {
  core_result out;
  double enq_s = 0.0, chk_s = 0.0, look_s = 0.0;
  std::uint64_t enq_n = 0, chk_n = 0, look_n = 0;
  std::vector<proto::epoch_update> pulled;
  const std::uint32_t rname = tr.name_id("core.sharded.report_batch");
  const std::uint32_t cname = tr.name_id("core.sharded.checkin");
  const std::uint32_t lname = tr.name_id("core.estimate_view.lookup");
  const std::uint32_t pname = tr.name_id("repl.leader.pull");
  const std::uint32_t root = tr.open(tr.name_id("pass.core"), 0, 0);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const request& r = reqs[i];
    const double t0 = pb::now_s();
    if (!r.records.empty()) {
      const std::uint32_t h = tr.open(rname, root, i);
      s.coord.report_batch(r.records);
      tr.close(h);
      enq_s += pb::now_s() - t0;
      ++enq_n;
    } else if (r.type == checkin) {
      const std::uint32_t h = tr.open(cname, root, i);
      (void)s.coord.checkin(r.checkin.pos, r.checkin.time_s, r.checkin.network_index,
                            r.checkin.active_in_zone, r.checkin.client_id);
      tr.close(h);
      chk_s += pb::now_s() - t0;
      ++chk_n;
    } else if (!r.queries.empty()) {
      const std::uint32_t h = tr.open(lname, root, i);
      for (const auto& q : r.queries) {
        (void)s.view.lookup(s.coord.grid().zone_of(q.pos), s.view.network_id_of(q.network),
                            q.metric);
      }
      tr.close(h);
      look_s += pb::now_s() - t0;
      look_n += r.queries.size();
    } else if (r.type == epoch && s.leader) {
      const std::uint32_t h = tr.open(pname, root, i);
      pulled.clear();
      s.leader->pull(r.pull.since_seq, r.pull.max_records, pulled);
      tr.close(h);
    }
    out.lt.add(r.type, pb::now_s() - t0);
  }
  const double t0 = pb::now_s();
  const std::uint32_t h = tr.open(tr.name_id("core.sharded.flush"), root, 0);
  s.coord.flush();
  tr.close(h);
  out.flush_ms = 1e3 * (pb::now_s() - t0);
  tr.close(root);
  out.enqueue_us = enq_n ? 1e6 * enq_s / static_cast<double>(enq_n) : 0.0;
  out.checkin_us = chk_n ? 1e6 * chk_s / static_cast<double>(chk_n) : 0.0;
  out.lookup_ns = look_n ? 1e9 * look_s / static_cast<double>(look_n) : 0.0;
  return out;
}

layer_times pass_apply(stack& s, const std::vector<request>& reqs, tracer& tr,
                       double& ns_per_rec) {
  layer_times lt;
  double total = 0.0;
  std::uint64_t recs = 0;
  const std::uint32_t name = tr.name_id("core.apply");
  const std::uint32_t root = tr.open(tr.name_id("pass.apply"), 0, 0);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const request& r = reqs[i];
    if (r.records.empty()) continue;
    const std::uint32_t h = tr.open(name, root, i);
    const double t0 = pb::now_s();
    s.coord.report_batch(r.records);
    const double dt = pb::now_s() - t0;
    tr.close(h);
    lt.add(r.type, dt);
    total += dt;
    recs += r.records.size();
  }
  tr.close(root);
  ns_per_rec = recs ? 1e9 * total / static_cast<double>(recs) : 0.0;
  return lt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string wl, base, dir;
    std::uint64_t seed = 1;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string k = argv[i], v = argv[i + 1];
      if (k == "--workload") wl = v;
      else if (k == "--seed") seed = std::stoull(v);
      else if (k == "--base") base = v;
      else if (k == "--dir") dir = v;
      else throw std::invalid_argument("unknown flag " + k);
    }
    const pb::workload w = pb::workload_by_name(wl);
    if (w.name.empty() || base.empty() || dir.empty()) {
      throw std::invalid_argument(
          "usage: pb_trace --workload W --seed N --base D --dir T");
    }
    const std::size_t shards = w.shards;
    fs::create_directories(dir);
    const pb::keyspace ks(w, seed, w.name == "serve" ? 1 : w.report_conns);
    std::vector<request> reqs = build_stream(w, ks, seed);
    tracer tr;
    const std::string scratch = dir + "/state";

    layer_times pump, handle, handle_off;
    {
      stack s(w, ks, base, scratch, shards, false);
      predecode(reqs, s.coord);
      pump = pass_pump(s, reqs, tr);
    }
    {
      stack s(w, ks, base, scratch, shards, false);
      handle = pass_handle(s, reqs, tr);
    }
    {
      // The same pass with spans off: the tracing overhead.
      stack s(w, ks, base, scratch, shards, false);
      tr.on = false;
      handle_off = pass_handle(s, reqs, tr);
      tr.on = true;
    }
    const codec_result codec = pass_codec(reqs, tr);

    // Core pass, with the leader's epoch log (and WAL) timed per rollover.
    core_result core;
    std::vector<std::pair<core::estimate_key, core::epoch_estimate>> epochs;
    double on_epoch_us = 0.0, checkpoint_s = 0.0;
    {
      stack s(w, ks, base, scratch, shards, false);
      timed_tap tap(s.leader ? static_cast<core::epoch_tap*>(&s.leader->log())
                             : nullptr);
      if (s.leader) s.coord.set_epoch_tap(&tap);
      core = pass_core(s, reqs, tr);
      s.coord.set_epoch_tap(nullptr);
      on_epoch_us = s.leader ? tap.mean_us() : 0.0;
      epochs = tap.epochs();
      const double t0 = pb::now_s();
      const std::uint32_t h = tr.open(tr.name_id("wal.checkpoint"), 0, 0);
      s.log->checkpoint(s.coord);
      tr.close(h);
      checkpoint_s = pb::now_s() - t0;
    }
    double apply_ns = 0.0;
    layer_times apply;
    {
      stack s(w, ks, base, scratch, shards, true);
      apply = pass_apply(s, reqs, tr, apply_ns);
    }

    // Replication and WAL passes over the core pass's rollovers (fleet only:
    // the other workloads run no replication and append no WAL).
    double pull_us_per_rec = 0.0, apply_us_per_rec = 0.0;
    std::vector<double> append_us;
    if (w.follower && !epochs.empty()) {
      repl::epoch_log log(epochs.size() + 1);
      for (const auto& [k, e] : epochs) log.on_epoch(k, e);
      std::vector<proto::epoch_update> batch;
      double pull_s = 0.0, apply_s = 0.0;
      std::uint64_t n = 0;
      core::sharded_coordinator fcoord(ks.grid(), pb::networks(),
                                       pb::coordinator_config(w, shards, false),
                                       pb::kServerSeed);
      repl::follower fol(fcoord);
      const std::uint32_t pname = tr.name_id("repl.epoch_log.pull");
      const std::uint32_t aname = tr.name_id("repl.follower.apply");
      for (std::uint64_t since = 0; since < log.last_seq(); since += 256) {
        batch.clear();
        std::uint32_t h = tr.open(pname, 0, since);
        double t0 = pb::now_s();
        log.pull(since, 256, batch);
        pull_s += pb::now_s() - t0;
        tr.close(h);
        h = tr.open(aname, 0, since);
        t0 = pb::now_s();
        fol.apply(batch);
        apply_s += pb::now_s() - t0;
        tr.close(h);
        n += batch.size();
      }
      pull_us_per_rec = n ? 1e6 * pull_s / static_cast<double>(n) : 0.0;
      apply_us_per_rec = n ? 1e6 * apply_s / static_cast<double>(n) : 0.0;
      const std::string wal_dir = dir + "/wal";
      fs::remove_all(wal_dir);
      fs::create_directories(wal_dir);
      core::durable_log dl(wal_dir);
      const std::uint32_t wname = tr.name_id("wal.durable_log.append");
      std::uint64_t seq = 0;
      for (const auto& [k, e] : epochs) {
        const std::uint32_t h = tr.open(wname, 0, seq);
        const double t0 = pb::now_s();
        dl.append(++seq, k, e);
        append_us.push_back(1e6 * (pb::now_s() - t0));
        tr.close(h);
      }
    }
    const pb::tail_summary app = pb::summarize(append_us);
    const std::string span_file =
        dir + "/spans-" + w.name + "-" + std::to_string(seed) + ".csv";
    tr.write(span_file);

    double h_on = 0.0, h_off = 0.0;
    for (int t = 0; t < kTypes; ++t) {
      h_on += handle.total_s[t];
      h_off += handle_off.total_s[t];
    }

    // Stage table: inclusive time per request of each layer, by type.
    std::printf("traced replay (%s, seed %llu): %zu requests, %zu spans -> %s\n",
                w.name.c_str(), static_cast<unsigned long long>(seed), reqs.size(),
                tr.size(), span_file.c_str());
    std::printf("  %-13s %8s %10s %10s %10s %10s %10s\n", "type", "n", "pump_us",
                "handle_us", "codec_us", "core_us", "apply_us");
    std::string types = "{";
    for (int t = 0; t < kTypes; ++t) {
      const rtype r = static_cast<rtype>(t);
      if (t) types += ',';
      types += '"';
      types += kTypeNames[t];
      types += "\":" +
               pb::json_obj()
                   .num("n", static_cast<double>(pump.count[t]))
                   .num("pump_us", pump.mean_us(r))
                   .num("handle_us", handle.mean_us(r))
                   .num("codec_us", codec.lt.mean_us(r))
                   .num("core_us", core.lt.mean_us(r))
                   .num("apply_us", apply.mean_us(r))
                   .done();
      if (pump.count[t] == 0) continue;
      std::printf("  %-13s %8llu %10.3f %10.3f %10.3f %10.3f %10.3f\n", kTypeNames[t],
                  static_cast<unsigned long long>(pump.count[t]), pump.mean_us(r),
                  handle.mean_us(r), codec.lt.mean_us(r), core.lt.mean_us(r),
                  apply.mean_us(r));
    }
    types += "}";

    std::printf(
        "%s\n",
        pb::json_obj()
            .raw("types", types)
            .raw("decode_ns", pb::json_obj()
                                  .num("reportb_v3", codec.decode_ns[0])
                                  .num("report_text", codec.decode_ns[1])
                                  .num("checkin", codec.decode_ns[2])
                                  .num("query", codec.decode_ns[3])
                                  .done())
            .num("encode_ns_est", codec.encode_ns_est)
            .raw("queue", pb::json_obj()
                              .num("enqueue_us", core.enqueue_us)
                              .num("flush_ms", core.flush_ms)
                              .done())
            .num("apply_ns_per_rec", apply_ns)
            .num("checkin_us", core.checkin_us)
            .num("lookup_ns", core.lookup_ns)
            .raw("wal", pb::json_obj()
                            .num("append_us_p50", app.p50)
                            .num("append_us_p99", app.tail)
                            .num("append_tail_pct", app.tail_pct)
                            .num("appends", static_cast<double>(app.n))
                            .num("checkpoint_s", checkpoint_s)
                            .done())
            .raw("repl", pb::json_obj()
                             .num("on_epoch_us", on_epoch_us)
                             .num("pull_us_per_rec", pull_us_per_rec)
                             .num("apply_us_per_rec", apply_us_per_rec)
                             .done())
            .num("overhead_frac", h_off > 0 ? h_on / h_off - 1.0 : 0.0)
            .num("spans", static_cast<double>(tr.size()))
            .done()
            .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_trace: %s\n", e.what());
    return 2;
  }
}
