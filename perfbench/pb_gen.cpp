// The benchmark's load generator: one process, two threads.
//
//   pb_gen --workload W --seed N --port P [--follower-port F] --seconds S
//          --ref-dir D
//
// Rates, depths and connection counts are the workload's (common.h). The
// load thread drives the workload's main traffic over nonblocking
// connections: an open-loop REPORTB rate ladder (ingest), QUERYB readers --
// closed loop, then open loop -- plus an open-loop REPORTB trickle (serve),
// or open-loop phone cycles -- CHECKIN, then pipelined REPORTs when tasked
// (fleet). Ingest's REPORTB and serve's QUERYB frames are encoded before
// the timed window, so the generator keeps up with the ladder's top rungs
// and with a closed loop. Open-loop latencies run from each request's due
// time. Every
// completed request of the load thread is counted in 10 ms bins, which the
// runner divides into the servers' CPU time. The probe thread is a phone
// of its own: every few milliseconds it checks in, sends a rollover-
// triggering REPORT on a probe stream and polls QUERY until the new epoch is
// visible (on the follower too, in fleet), then makes a few single QUERY
// round trips on warm keys; in serve it also drains ALERTS every 100 ms.
//
// After the window every reply is awaited, then the reference table is
// built: the prepared warm state in D, recovered into a synchronous
// single-shard coordinator, plus every ACKed record in per-connection
// order. Its fingerprint is printed for the runner to compare with the
// server's. The result is one JSON object on the last line of stdout.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <fcntl.h>

#include <cerrno>
#include <deque>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/durable_log.h"
#include "net/client.h"
#include "streams.h"

using namespace wiscape;

namespace {

struct args {
  std::string workload, ref_dir;
  std::uint64_t seed = 1;
  std::uint16_t port = 0, follower_port = 0;
  double seconds = 10.0;
};

args parse(int argc, char** argv) {
  args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--port") a.port = static_cast<std::uint16_t>(std::stoul(v));
    else if (k == "--follower-port") a.follower_port = static_cast<std::uint16_t>(std::stoul(v));
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--ref-dir") a.ref_dir = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  return a;
}

// ---- nonblocking connections -----------------------------------------------

enum class req_kind : std::uint8_t { reportb, queryb, checkin, report };

struct pending {
  double due = 0.0;
  req_kind kind = req_kind::reportb;
  int rung = -1;
  std::uint64_t index = 0;  ///< frame / cycle / line index on the connection
};

/// One nonblocking generator connection: queued output, buffered input and
/// the FIFO of requests awaiting replies (replies come back in order).
struct nb_conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_off = 0;
  std::deque<pending> fifo;

  nb_conn() = default;
  nb_conn(const nb_conn&) = delete;
  nb_conn& operator=(const nb_conn&) = delete;
  ~nb_conn() {
    if (fd >= 0) ::close(fd);
  }

  void open(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error("connect failed");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const std::string hello = "HELLO ver=3\n";
    if (::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(hello.size())) {
      throw std::runtime_error("hello send failed");
    }
    std::string line;
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line += c;
    if (line.rfind("HELLO ver=3", 0) != 0) {
      throw std::runtime_error("hello refused: " + line);
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }

  bool want_write() const { return out_off < out.size(); }

  void flush() {
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        throw std::runtime_error("send failed");
      }
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    } else if (out_off > (1u << 20) && 2 * out_off > out.size()) {
      // Moves less than it has sent, so a backlog costs amortized O(1).
      out.erase(0, out_off);
      out_off = 0;
    }
  }

  /// Reads what the socket has; false on EOF.
  bool fill() {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        in.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buf) return true;
      } else if (n == 0) {
        return false;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return true;
      } else if (errno != EINTR) {
        throw std::runtime_error("recv failed");
      }
    }
  }

  /// Cuts the next complete reply (a v3 frame or one text line) off the
  /// input; false when none is complete yet.
  bool next_reply(std::string_view& reply, bool& binary) {
    const std::string_view rest(in.data() + in_off, in.size() - in_off);
    if (rest.empty()) return false;
    if (proto::v3::is_frame_start(rest)) {
      if (rest.size() < proto::v3::frame_header_bytes) return false;
      std::uint32_t len = 0;
      std::memcpy(&len, rest.data() + 2, 4);
      const std::size_t total = proto::v3::frame_header_bytes + len;
      if (rest.size() < total) return false;
      reply = rest.substr(0, total);
      binary = true;
      in_off += total;
    } else {
      const std::size_t nl = rest.find('\n');
      if (nl == std::string_view::npos) return false;
      reply = rest.substr(0, nl);
      binary = false;
      in_off += nl + 1;
    }
    return true;
  }

  void compact() {
    if (in_off == in.size()) {
      in.clear();
      in_off = 0;
    } else if (in_off > (1u << 20)) {
      in.erase(0, in_off);
      in_off = 0;
    }
  }
};

/// Waits until a connection is readable/writable or `until` passes.
void wait_io(std::vector<nb_conn*>& conns, double until) {
  std::vector<pollfd> fds;
  for (nb_conn* c : conns) {
    pollfd p{};
    p.fd = c->fd;
    p.events = static_cast<short>(POLLIN | (c->want_write() ? POLLOUT : 0));
    fds.push_back(p);
  }
  const double wait = std::max(0.0, until - pb::now_s());
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(wait);
  ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
  ::ppoll(fds.data(), fds.size(), &ts, nullptr);
}

/// Records per second ACKed, over the span from the first due time to the
/// last ACK (a measured rate, not the schedule's).
struct rate_span {
  double first_due = 0.0, last_ack = 0.0;
  std::uint64_t records = 0;
  void add(double due, double acked, std::uint64_t n) {
    if (records == 0 || due < first_due) first_due = due;
    last_ack = std::max(last_ack, acked);
    records += n;
  }
  double per_s() const {
    return last_ack > first_due ? static_cast<double>(records) /
                                      (last_ack - first_due)
                                : 0.0;
  }
};

/// The rate ladder's schedule: rung r runs [bounds[r], bounds[r + 1]), the
/// reference rung twice as long as the others (its latencies are the
/// reported ones). The first fifth of every rung settles and is not
/// measured.
struct ladder_plan {
  std::vector<double> bounds;

  ladder_plan(double start, double end, std::size_t rungs, std::size_t ref) {
    const double units = static_cast<double>(rungs + (ref < rungs ? 1 : 0));
    bounds.push_back(start);
    for (std::size_t r = 0; r < rungs; ++r) {
      const double w = r == ref ? 2.0 : 1.0;
      bounds.push_back(bounds.back() + w * (end - start) / units);
    }
  }
  int rung_at(double t) const {
    const auto it = std::upper_bound(bounds.begin(), bounds.end(), t);
    const long r = static_cast<long>(it - bounds.begin()) - 1;
    return static_cast<int>(
        std::clamp<long>(r, 0, static_cast<long>(bounds.size()) - 2));
  }
  double settled_from(int r) const {
    return bounds[r] + 0.2 * (bounds[r + 1] - bounds[r]);
  }
};

// ---- results -------------------------------------------------------------------

struct ledger {
  std::uint64_t sent = 0, acked = 0, erred = 0;  ///< requests
  std::uint64_t acked_records = 0;
};

struct load_out {
  ledger led;
  pb::series ack_us, checkin_us;
  std::vector<double> late_us;
  std::vector<pb::rung_result> rungs;
  std::vector<pb::tail_summary> rung_ack;
  double rate_per_s = 0.0;      ///< records/s ACKed (ladder: top rung's)
  double query_lps = 0.0;       ///< serve: lookups/s answered, closed loop
  pb::time_bins done;           ///< completed requests
  std::uint64_t lookups = 0;    ///< QUERYB lookups answered
  std::uint64_t query_bad = 0;  ///< QUERYB answers that failed validation
  std::uint64_t query_checked = 0;
  std::uint64_t tasks = 0, idles = 0;
  std::uint64_t unanswered = 0;
  // What the reference replays: per load connection the frames (or fleet
  // cycles) sent, and those whose reports were refused.
  std::vector<std::uint64_t> sent_units;
  std::vector<std::set<std::uint64_t>> refused;
  std::vector<std::vector<std::uint64_t>> tasked;  ///< fleet: ACKed cycles
  std::string error;
};

struct probe_out {
  ledger led;
  pb::series checkin_us, query_us, visible_ms, replica_ms;
  std::vector<double> late_us;
  std::uint64_t probes = 0, probes_failed = 0;
  std::uint64_t query_bad = 0;
  std::uint64_t probes_skipped = 0;  ///< probe slots dropped after an overrun
  rate_span singles;                 ///< single QUERY round trips
  std::uint64_t query_errs = 0;  ///< QUERYs answered ERR (counted failed)
  std::uint64_t alerts_drained = 0, alerts_requests = 0;
  std::uint64_t last_round = 0;  ///< probes sent (the reference replays them)
  std::vector<std::uint64_t> refused;  ///< probe indices whose REPORT ERRed
  std::string error;
};

/// Where serve's closed-loop saturation phase ends.
double saturation_end(const pb::workload& w, double start, double end) {
  return start + w.saturation_frac * (end - start);
}

/// Load settles for this long before anything is measured.
constexpr double kSettleS = 1.0;

/// The upper quartile of the rates of `b` in 0.25 s windows of [from, to):
/// a window the host stole CPU from reads low, a slower program reads low
/// in every window.
double windowed_rate(const pb::time_bins& b, double from, double to) {
  return pb::quantile(pb::window_rates(b, from, to, 0.25), 0.75);
}

bool is_op(std::string_view f, proto::v3::opcode op) {
  return f.size() >= 2 &&
         static_cast<unsigned char>(f[1]) == static_cast<unsigned char>(op);
}
bool is_ack_frame(std::string_view f) { return is_op(f, proto::v3::opcode::ack); }
bool is_est_frame(std::string_view f) { return is_op(f, proto::v3::opcode::est); }

// ---- the load thread ----------------------------------------------------------

class load_runner {
 public:
  load_runner(const args& a, const pb::workload& w, const pb::keyspace& ks)
      : a_(a), w_(w), ks_(ks) {}

  /// Encodes the frame pools, before the timed window.
  void prepare() {
    std::vector<trace::measurement_record> rs;
    proto::reply_buffer buf;
    if (w_.name == "ingest") {
      report_pool_.assign(w_.report_conns, {});
      for (std::size_t c = 0; c < w_.report_conns; ++c) {
        for (std::uint64_t f = 0; f < pb::kReportPool; ++f) {
          buf.clear();
          pb::report_frame(ks_, w_, a_.seed, c, f, rs, buf);
          report_pool_[c].emplace_back(buf.view());
        }
      }
    }
    query_pool_.assign(w_.query_conns, {});
    for (std::size_t c = 0; c < w_.query_conns; ++c) {
      for (std::uint64_t f = 0; f < pb::kQueryPool; ++f) {
        buf.clear();
        pb::query_frame(ks_, a_.seed, c, f, qscratch_, buf);
        query_pool_[c].emplace_back(buf.view());
      }
    }
  }

  load_out run(double start, double end) {
    start_ = start;
    end_ = end;
    out_.done = pb::time_bins(start, end, 0.01);
    try {
      if (w_.name == "ingest") ingest();
      else if (w_.name == "serve") serve();
      else fleet();
    } catch (const std::exception& e) {
      out_.error = e.what();
    }
    return std::move(out_);
  }

 private:
  /// Handles every complete reply on `c`.
  template <class F>
  void drain(nb_conn& c, F&& on_reply) {
    if (!c.fill()) throw std::runtime_error("server closed a connection");
    std::string_view reply;
    bool binary = false;
    while (c.next_reply(reply, binary)) {
      if (c.fifo.empty()) throw std::runtime_error("unexpected reply");
      const pending p = c.fifo.front();
      c.fifo.pop_front();
      const double t = pb::now_s();
      out_.done.add(t);
      on_reply(p, reply, binary, t);
    }
    c.compact();
  }

  void wait_until(double t) {
    while (pb::now_s() < t) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(0.001, t - pb::now_s())));
    }
  }

  /// Waits for every outstanding reply (bounded), counting the rest as
  /// unanswered.
  template <class F>
  void finish(std::vector<nb_conn*>& conns, F&& on_reply) {
    const double deadline = pb::now_s() + 20.0;
    for (;;) {
      bool busy = false;
      for (nb_conn* c : conns) {
        c->flush();
        busy |= !c->fifo.empty();
      }
      if (!busy || pb::now_s() > deadline) break;
      wait_io(conns, pb::now_s() + 0.01);
      for (std::size_t i = 0; i < conns.size(); ++i) {
        drain(*conns[i], [&](const pending& p, std::string_view r, bool b,
                             double t) { on_reply(i, p, r, b, t); });
      }
    }
    for (nb_conn* c : conns) out_.unanswered += c->fifo.size();
  }

  void on_report_frame(std::size_t conn, const pending& p, std::string_view r,
                       bool binary, double t, pb::series* lat) {
    if (binary && is_ack_frame(r)) {
      const auto ack = proto::v3::decode_ack_frame(r);
      ++out_.led.acked;
      out_.led.acked_records += ack.count;
      if (lat) lat->add(t, (t - p.due) * 1e6);
      if (p.rung >= 0) rung_acked_[p.rung] += ack.count;
    } else {
      ++out_.led.erred;
      out_.refused[conn].insert(p.index);
    }
  }

  /// Queues the next REPORTB frame of ingest connection `c` (from its pool).
  void send_report_frame(nb_conn& conn, std::size_t c, double due, int rung) {
    conn.out.append(report_pool_[c][out_.sent_units[c] % pb::kReportPool]);
    conn.fifo.push_back({due, req_kind::reportb, rung, out_.sent_units[c]});
    ++out_.sent_units[c];
    ++out_.led.sent;
  }

  void ingest() {
    const std::size_t nconn = w_.report_conns;
    std::vector<nb_conn> conns(nconn);
    std::vector<nb_conn*> ptrs;
    for (auto& c : conns) {
      c.open(a_.port);
      ptrs.push_back(&c);
    }
    out_.sent_units.assign(nconn, 0);
    out_.refused.assign(nconn, {});
    const std::size_t nr = w_.rates.size();
    const ladder_plan plan(start_, end_, nr, w_.ref_rung);
    rung_acked_.assign(nr, 0);
    std::vector<pb::series> rung_lat(nr), rung_late(nr);
    std::vector<std::vector<double>> bx(nr), by(nr);
    std::vector<std::uint64_t> rung_due(nr, 0);
    std::vector<double> next_due(nconn, start_);
    double next_sample = start_;

    // Achieved rate: records ACKed for the rung's settled frames over the
    // time from the first settled frame's due time to its last ACK.
    std::vector<double> first_due(nr, 0.0), last_ack(nr, 0.0);
    std::vector<std::uint64_t> settled_records(nr, 0);
    auto reply = [&](std::size_t i, const pending& p, std::string_view r,
                     bool b, double t) {
      const bool settled = p.due >= plan.settled_from(p.rung);
      on_report_frame(i, p, r, b, t, settled ? &rung_lat[p.rung] : nullptr);
      if (settled && b && is_ack_frame(r)) {
        if (settled_records[p.rung] == 0) first_due[p.rung] = p.due;
        first_due[p.rung] = std::min(first_due[p.rung], p.due);
        last_ack[p.rung] = t;
        settled_records[p.rung] += pb::kReportFrame;
      }
    };
    while (true) {
      const double now = pb::now_s();
      if (now >= end_) break;
      const int rung = plan.rung_at(now);
      const double interval =
          static_cast<double>(pb::kReportFrame * nconn) / w_.rates[rung];
      for (std::size_t c = 0; c < nconn; ++c) {
        while (next_due[c] <= now && next_due[c] < end_) {
          const double due = next_due[c];
          const int due_rung = plan.rung_at(due);
          send_report_frame(conns[c], c, due, due_rung);
          rung_due[due_rung] += pb::kReportFrame;
          if (due >= plan.settled_from(due_rung)) {
            rung_late[due_rung].add(now, (now - due) * 1e6);
          }
          next_due[c] = due + interval;
        }
        conns[c].flush();
      }
      if (now >= next_sample) {
        // Backlog = records due so far in this rung minus records ACKed.
        if (now >= plan.settled_from(rung)) {
          bx[rung].push_back(now);
          by[rung].push_back(static_cast<double>(rung_due[rung]) -
                             static_cast<double>(rung_acked_[rung]));
        }
        next_sample = now + 0.005;
      }
      double until = std::min(end_, next_sample);
      for (double d : next_due) until = std::min(until, d);
      wait_io(ptrs, until);
      for (std::size_t c = 0; c < nconn; ++c) {
        drain(conns[c], [&](const pending& p, std::string_view r, bool b,
                            double t) { reply(c, p, r, b, t); });
      }
    }
    finish(ptrs, reply);

    for (std::size_t r = 0; r < nr; ++r) {
      pb::rung_result rr;
      rr.offered = w_.rates[r];
      rr.achieved = last_ack[r] > first_due[r]
                        ? static_cast<double>(settled_records[r]) /
                              (last_ack[r] - first_due[r])
                        : 0.0;
      // The verdict's p99s are taken per half-second window like every
      // other latency, so one burst of host CPU steal cannot fail (or
      // invalidate) a rung alone.
      const pb::tail_summary s =
          pb::summarize_windows(rung_lat[r], plan.settled_from(static_cast<int>(r)), 0.5);
      rr.ack_p99_us = s.tail;
      rr.late_p99_us = pb::summarize_windows(
          rung_late[r], plan.settled_from(static_cast<int>(r)), 0.5).tail;
      rr.backlog_slope = pb::slope(bx[r], by[r]);
      out_.rungs.push_back(rr);
      out_.rung_ack.push_back(s);
      for (const double l : rung_late[r].v) out_.late_us.push_back(l);
    }
    const std::size_t ref = std::min(w_.ref_rung, nr - 1);
    out_.ack_us = rung_lat[ref];
    const int top = pb::ladder_top(out_.rungs, pb::ladder_rules{});
    ladder_top_ = top;
    out_.rate_per_s = top >= 0 ? out_.rungs[top].achieved : 0.0;
  }

  /// Queues the next QUERYB frame of reader `reader` (from its pool).
  void send_query(nb_conn& c, std::size_t reader, double due) {
    c.out.append(query_pool_[reader][next_query_frame_[reader] % pb::kQueryPool]);
    c.fifo.push_back({due, req_kind::queryb, -1, next_query_frame_[reader]});
    ++next_query_frame_[reader];
    ++out_.led.sent;
  }

  /// Accounts one ESTB reply; one frame in 32 is validated in full:
  /// positions, zones, and NONE exactly for never-materialised zones.
  void on_query_reply(std::size_t reader, const pending& p, std::string_view r,
                      bool b, double t) {
    if (!b || !is_op(r, proto::v3::opcode::estb)) {
      ++out_.led.erred;
      return;
    }
    ++out_.led.acked;
    out_.lookups += pb::kQueryFrame;
    lookups_.add(t, pb::kQueryFrame);
    if (p.index % 32 != 0) return;
    ++out_.query_checked;
    const auto reps = proto::v3::decode_estimate_batch_frame(r);
    qbuf_.clear();
    pb::query_frame(ks_, a_.seed, reader, p.index, qscratch_, qbuf_);
    bool ok = reps.size() == qscratch_.size();
    for (std::size_t k = 0; ok && k < reps.size(); ++k) {
      const auto zone = ks_.grid().zone_of(qscratch_[k].pos);
      const bool cold = zone.iy >= ks_.side();
      ok = cold ? !reps[k].has_value()
                : reps[k].has_value() && reps[k]->zone == zone &&
                      reps[k]->network == qscratch_[k].network &&
                      reps[k]->metric == qscratch_[k].metric;
    }
    if (!ok) ++out_.query_bad;
  }

  void serve() {
    const std::size_t nreaders = w_.query_conns;
    std::vector<nb_conn> readers(nreaders);
    nb_conn trickle;
    std::vector<nb_conn*> ptrs;
    for (auto& c : readers) {
      c.open(a_.port);
      ptrs.push_back(&c);
    }
    trickle.open(a_.port);
    ptrs.push_back(&trickle);
    out_.sent_units.assign(1, 0);
    out_.refused.assign(1, {});
    rung_acked_.assign(1, 0);
    next_query_frame_.assign(nreaders, 0);
    lookups_ = pb::time_bins(start_, end_, 0.01);
    std::vector<trace::measurement_record> rscratch;
    proto::reply_buffer buf;
    const double interval = static_cast<double>(pb::kReportFrame) / w_.trickle_rate;
    double next_due = start_;
    rate_span rate;
    auto on_trickle = [&](const pending& p, std::string_view r, bool b, double t) {
      on_report_frame(0, p, r, b, t, &out_.ack_us);
      if (b && is_ack_frame(r)) rate.add(p.due, t, pb::kReportFrame);
    };
    const double sat_end = saturation_end(w_, start_, end_);
    const double query_interval =
        static_cast<double>(nreaders * pb::kQueryFrame) / w_.query_rate;
    std::vector<double> next_query(nreaders, sat_end);
    wait_until(start_);
    while (true) {
      const double now = pb::now_s();
      if (now >= end_) break;
      double until = now < sat_end ? sat_end : end_;
      for (std::size_t c = 0; c < nreaders; ++c) {
        if (now < sat_end) {
          // Closed loop: every reader keeps query_depth frames in flight.
          while (readers[c].fifo.size() < w_.query_depth) send_query(readers[c], c, now);
          continue;
        }
        // Open loop at query_rate.
        while (next_query[c] <= now && next_query[c] < end_) {
          send_query(readers[c], c, next_query[c]);
          next_query[c] += query_interval;
        }
        until = std::min(until, next_query[c]);
      }
      while (next_due <= now) {
        buf.clear();
        pb::report_frame(ks_, w_, a_.seed, 0, out_.sent_units[0], rscratch, buf);
        trickle.out.append(buf.view());
        trickle.fifo.push_back({next_due, req_kind::reportb, 0, out_.sent_units[0]});
        out_.late_us.push_back((now - next_due) * 1e6);
        ++out_.sent_units[0];
        ++out_.led.sent;
        next_due += interval;
      }
      for (nb_conn* c : ptrs) c->flush();
      wait_io(ptrs, std::min(until, next_due));
      for (std::size_t c = 0; c < nreaders; ++c) {
        drain(readers[c], [&](const pending& p, std::string_view r, bool b,
                              double t) { on_query_reply(c, p, r, b, t); });
      }
      drain(trickle, on_trickle);
    }
    finish(ptrs, [&](std::size_t i, const pending& p, std::string_view r,
                     bool b, double t) {
      if (i < nreaders) on_query_reply(i, p, r, b, t);
      else on_trickle(p, r, b, t);
    });
    out_.rate_per_s = rate.per_s();
    out_.query_lps =
        windowed_rate(lookups_, std::min(start_ + kSettleS, sat_end), sat_end);
  }

  void fleet() {
    const std::size_t nconn = w_.report_conns;
    std::vector<nb_conn> conns(nconn);
    std::vector<nb_conn*> ptrs;
    for (auto& c : conns) {
      c.open(a_.port);
      ptrs.push_back(&c);
    }
    out_.sent_units.assign(nconn, 0);
    out_.refused.assign(nconn, {});
    out_.tasked.assign(nconn, {});
    const double interval = static_cast<double>(nconn) / w_.cycle_rate;
    std::vector<double> next_due(nconn, start_);
    std::string checkin, reports;
    rate_span rate;

    auto reply = [&](std::size_t c, const pending& p, std::string_view r,
                     bool b, double t) {
      const std::string_view type = b ? std::string_view() : proto::message_type(r);
      if (p.kind == req_kind::checkin) {
        out_.checkin_us.add(t, (t - p.due) * 1e6);
        if (type == "TASK") {
          ++out_.led.acked;
          ++out_.tasks;
          pb::fleet_cycle(ks_, w_, a_.seed, c, p.index, checkin, reports);
          conns[c].out.append(reports);
          for (std::size_t k = 0; k < pb::kReportsPerTask; ++k) {
            conns[c].fifo.push_back(
                {t, req_kind::report, static_cast<int>(k), p.index});
            ++out_.led.sent;
          }
          out_.tasked[c].push_back(p.index);
        } else if (type == "IDLE") {
          ++out_.led.acked;
          ++out_.idles;
        } else {
          ++out_.led.erred;
        }
        return;
      }
      if (type == "ACK") {
        ++out_.led.acked;
        ++out_.led.acked_records;
        out_.ack_us.add(t, (t - p.due) * 1e6);
        rate.add(p.due, t, 1);
      } else {
        ++out_.led.erred;
        out_.refused[c].insert(p.index * pb::kReportsPerTask + p.rung);
      }
    };
    while (true) {
      const double now = pb::now_s();
      if (now >= end_) break;
      for (std::size_t c = 0; c < nconn; ++c) {
        while (next_due[c] <= now) {
          pb::fleet_cycle(ks_, w_, a_.seed, c, out_.sent_units[c], checkin,
                          reports);
          conns[c].out.append(checkin);
          conns[c].fifo.push_back(
              {next_due[c], req_kind::checkin, -1, out_.sent_units[c]});
          out_.late_us.push_back((now - next_due[c]) * 1e6);
          ++out_.sent_units[c];
          ++out_.led.sent;
          next_due[c] += interval;
        }
        conns[c].flush();
      }
      double until = end_;
      for (double d : next_due) until = std::min(until, d);
      wait_io(ptrs, until);
      for (std::size_t c = 0; c < nconn; ++c) {
        drain(conns[c], [&](const pending& p, std::string_view r, bool b,
                            double t) { reply(c, p, r, b, t); });
      }
    }
    finish(ptrs, reply);
    out_.rate_per_s = rate.per_s();
  }

 public:
  int ladder_top_ = -1;

 private:
  const args& a_;
  const pb::workload& w_;
  const pb::keyspace& ks_;
  double start_ = 0.0, end_ = 0.0;
  load_out out_;
  std::vector<std::uint64_t> rung_acked_;
  std::vector<std::vector<std::string>> report_pool_;  ///< [conn][frame]
  // QUERYB reader streams (serve).
  std::vector<std::vector<std::string>> query_pool_;   ///< [reader][frame]
  proto::reply_buffer qbuf_;
  std::vector<proto::query_request> qscratch_;
  std::vector<std::uint64_t> next_query_frame_;
  pb::time_bins lookups_;
};

// ---- the probe thread ---------------------------------------------------------

class probe_runner {
 public:
  probe_runner(const args& a, const pb::workload& w, const pb::keyspace& ks)
      : a_(a), w_(w), ks_(ks) {}

  /// Connects and primes every probe stream (two rounds: the second freezes
  /// the first epoch), before the timed window.
  void prime() {
    leader_.connect("127.0.0.1", a_.port);
    leader_.hello(3);
    if (w_.follower) {
      follower_.connect("127.0.0.1", a_.follower_port);
      follower_.hello(3);
    }
    last_.assign(pb::kProbeZones, 0);
    for (std::size_t z = 0; z < pb::kProbeZones; ++z) {
      for (std::uint64_t round = 0; round < 2; ++round) {
        if (!send_report(pb::probe_record(ks_, w_, a_.seed, round, z))) {
          throw std::runtime_error("probe priming report refused");
        }
      }
    }
    for (std::size_t z = 0; z < pb::kProbeZones; ++z) {
      const double t0 = pb::now_s();
      std::optional<std::uint64_t> idx;
      while (!(idx = query_epoch(leader_, z, nullptr))) {
        if (pb::now_s() - t0 > 10.0) throw std::runtime_error("priming timed out");
      }
      last_[z] = *idx;
      if (w_.follower) {
        while (!query_epoch(follower_, z, nullptr)) {
          if (pb::now_s() - t0 > 10.0) {
            throw std::runtime_error("follower priming timed out");
          }
        }
      }
    }
  }

  probe_out run(double start, double end) {
    try {
      loop(start, end);
    } catch (const std::exception& e) {
      out_.error = e.what();
    }
    return std::move(out_);
  }

 private:
  /// Sends one probe REPORT; false when it was refused (counted as failed).
  bool send_report(const trace::measurement_record& r) {
    proto::measurement_report rep;
    rep.client_id = r.client_id;
    rep.record = r;
    ++out_.led.sent;
    const std::string_view reply = leader_.request_view(proto::encode(rep));
    if (reply != "ACK") {
      ++out_.led.erred;
      return false;
    }
    ++out_.led.acked;
    ++out_.led.acked_records;
    return true;
  }

  /// One QUERY of probe stream `z`: its published epoch index, if any.
  std::optional<std::uint64_t> query_epoch(net::line_client& c, std::size_t z,
                                           pb::series* lat) {
    const proto::query_request q = pb::probe_query(ks_, z);
    const double t0 = pb::now_s();
    std::optional<std::uint64_t> idx;
    if (w_.text_probe) {
      const std::string_view r = c.request_view(proto::encode(q));
      if (proto::message_type(r) == "EST") idx = proto::decode_estimate(r).epoch_index;
    } else {
      const std::string_view f = c.request_frame(proto::v3::encode_query_frame(q));
      if (is_est_frame(f)) {
        if (const auto est = proto::v3::decode_estimate_frame(f)) {
          idx = est->epoch_index;
        }
      } else {
        ++out_.query_errs;
      }
    }
    if (lat) lat->add(t0, (pb::now_s() - t0) * 1e6);
    return idx;
  }

  /// One QUERY round trip on a warm key (binary v3, or text in fleet).
  void single_query(std::uint64_t i) {
    const proto::query_request q = pb::single_query(ks_, a_.seed, i);
    const double t0 = pb::now_s();
    std::optional<proto::estimate_reply> est;
    bool answered = true;
    if (w_.text_probe) {
      const std::string_view r = leader_.request_view(proto::encode(q));
      answered = proto::message_type(r) == "EST";
      if (answered) est = proto::decode_estimate(r);
    } else {
      const std::string_view f =
          leader_.request_frame(proto::v3::encode_query_frame(q));
      answered = is_est_frame(f);
      if (answered) est = proto::v3::decode_estimate_frame(f);
    }
    const double t1 = pb::now_s();
    out_.query_us.add(t0, (t1 - t0) * 1e6);
    out_.singles.add(t0, t1, 1);
    if (!answered) {
      ++out_.query_errs;
      return;
    }
    if (!est || est->zone != ks_.grid().zone_of(q.pos)) ++out_.query_bad;
  }

  void loop(double start, double end) {
    const double period = w_.probe_period_s;
    std::uint64_t singles = 0, alerts_cursor = 0;
    double next_alerts = start, due = start;
    for (std::uint64_t k = 0; due < end; ++k, due += period) {
      // A probe that overran its slot moves the schedule: missed slots are
      // dropped (and counted), not queued up behind it.
      if (pb::now_s() > due + period) {
        ++out_.probes_skipped;
        due = pb::now_s();
      }
      // serve drains the change alerts every 100 ms.
      if (w_.name == "serve" && pb::now_s() >= next_alerts) {
        const std::string reply = leader_.request(
            "ALERTS since=" + std::to_string(alerts_cursor) + " max=256");
        const auto drained = proto::decode_alerts_reply(reply);
        alerts_cursor = drained.next_seq;
        out_.alerts_drained += drained.alerts.size();
        ++out_.alerts_requests;
        next_alerts += 0.1;
      }
      while (pb::now_s() < due) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(0.0005, due - pb::now_s())));
      }
      out_.late_us.push_back((pb::now_s() - due) * 1e6);
      const std::size_t z = k % pb::kProbeZones;
      const std::uint64_t round = 2 + k / pb::kProbeZones;
      ++out_.probes;
      out_.last_round = k + 1;

      // The probe phone's check-in: a closed-loop round trip.
      proto::checkin_request c;
      c.client_id = 9000 + z;
      c.pos = ks_.probe_center(z);
      c.time_s = (100.0 + static_cast<double>(round)) * w_.epoch_s;
      c.device = "phone";
      ++out_.led.sent;
      const double t0 = pb::now_s();
      const std::string_view creply = leader_.request_view(proto::encode(c));
      const std::string_view ctype = proto::message_type(creply);
      out_.checkin_us.add(t0, (pb::now_s() - t0) * 1e6);
      if (ctype == "TASK" || ctype == "IDLE") ++out_.led.acked;
      else ++out_.led.erred;

      // The rollover-triggering report, then poll until visible.
      const double sent = pb::now_s();
      const bool acked = send_report(pb::probe_record(ks_, w_, a_.seed, round, z));
      if (!acked) out_.refused.push_back(k);
      bool seen = !acked;  // a refused report is a failed request, not a probe
      while (acked && pb::now_s() - sent < 2.0) {
        const auto idx = query_epoch(leader_, z, &out_.query_us);
        if (idx && *idx > last_[z]) {
          out_.visible_ms.add(sent, (pb::now_s() - sent) * 1e3);
          last_[z] = *idx;
          seen = true;
          break;
        }
      }
      if (seen && w_.follower) {
        seen = false;
        while (pb::now_s() - sent < 2.0) {
          const auto idx = query_epoch(follower_, z, nullptr);
          if (idx && *idx >= last_[z]) {
            out_.replica_ms.add(sent, (pb::now_s() - sent) * 1e3);
            seen = true;
            break;
          }
        }
      }
      if (!seen) ++out_.probes_failed;
      // Single reads beside the load: a fixed handful per probe, so the
      // request mix does not depend on how fast they come back.
      for (int j = 0; j < kSinglesPerProbe; ++j) single_query(singles++);
    }
  }

  static constexpr int kSinglesPerProbe = 8;

  const args& a_;
  const pb::workload& w_;
  const pb::keyspace& ks_;
  net::line_client leader_, follower_;
  std::vector<std::uint64_t> last_;
  probe_out out_;
};

// ---- the reference table -------------------------------------------------------

/// A record as the server decodes it from the text REPORT line it was sent
/// in (the CSV payload rounds some fields; binary frames carry raw bits).
trace::measurement_record via_text(const trace::measurement_record& r) {
  proto::measurement_report rep;
  rep.client_id = r.client_id;
  rep.record = r;
  return proto::decode_report(proto::encode(rep)).record;
}

std::string reference_fingerprint(const args& a, const pb::workload& w,
                                   const pb::keyspace& ks, const load_out& lo,
                                   const probe_out& po) {
  core::sharded_coordinator ref(ks.grid(), pb::networks(),
                                pb::coordinator_config(w, 1, true),
                                pb::kServerSeed);
  core::durable_log(a.ref_dir).recover(ref);
  trace::measurement_record r;
  for (std::size_t c = 0; c < lo.sent_units.size(); ++c) {
    if (w.name == "fleet") {
      for (const std::uint64_t cycle : lo.tasked[c]) {
        for (std::size_t k = 0; k < pb::kReportsPerTask; ++k) {
          const std::uint64_t i = cycle * pb::kReportsPerTask + k;
          if (lo.refused[c].count(i)) continue;
          pb::load_record(ks, w, a.seed, c, i, r);
          r.client_id = 100000 + c + ks.owners() * (cycle % pb::kPhonesPerConn);
          ref.report(via_text(r));
        }
      }
      continue;
    }
    for (std::uint64_t f = 0; f < lo.sent_units[c]; ++f) {
      if (lo.refused[c].count(f)) continue;
      for (std::size_t k = 0; k < pb::kReportFrame; ++k) {
        pb::load_record(ks, w, a.seed, c, pb::report_index(w, f, k), r);
        ref.report(r);
      }
    }
  }
  for (std::size_t z = 0; z < pb::kProbeZones; ++z) {
    for (std::uint64_t round = 0; round < 2; ++round) {
      ref.report(via_text(pb::probe_record(ks, w, a.seed, round, z)));
    }
  }
  for (std::uint64_t k = 0; k < po.last_round; ++k) {
    if (std::binary_search(po.refused.begin(), po.refused.end(), k)) continue;
    ref.report(via_text(pb::probe_record(ks, w, a.seed, 2 + k / pb::kProbeZones,
                                         k % pb::kProbeZones)));
  }
  return pb::fingerprint_text(pb::table_fingerprint(ref));
}

std::string rungs_json(const load_out& lo, int top) {
  std::string s = "[";
  for (std::size_t i = 0; i < lo.rungs.size(); ++i) {
    const auto& r = lo.rungs[i];
    if (i) s += ',';
    s += pb::json_obj()
             .num("offered", r.offered)
             .num("achieved", r.achieved)
             .num("ack_p99_us", r.ack_p99_us)
             .num("ack_n", static_cast<double>(lo.rung_ack[i].n))
             .num("late_p99_us", r.late_p99_us)
             .num("backlog_slope", r.backlog_slope)
             .str("verdict", pb::verdict_name(pb::judge(r, pb::ladder_rules{})))
             .num("top", static_cast<int>(i) == top ? 1 : 0)
             .done();
  }
  return s + "]";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const args a = parse(argc, argv);
    const pb::workload w = pb::workload_by_name(a.workload);
    if (w.name.empty()) throw std::invalid_argument("unknown workload");
    const pb::keyspace ks(w, a.seed, w.name == "serve" ? 1 : w.report_conns);

    probe_runner probe(a, w, ks);
    probe.prime();
    load_runner load(a, w, ks);
    load.prepare();
    const double start = pb::now_s() + 0.05;
    const double end = start + a.seconds;
    load_out lo;
    std::thread load_thread([&] { lo = load.run(start, end); });
    probe_out po = probe.run(start, end);
    load_thread.join();

    const std::string ref = reference_fingerprint(a, w, ks, lo, po);
    pb::series checkins = lo.checkin_us;
    for (std::size_t i = 0; i < po.checkin_us.size(); ++i) {
      checkins.add(po.checkin_us.t[i], po.checkin_us.v[i]);
    }
    // Latencies and CPU per request are taken over a span of steady open-
    // loop load: in ingest the reference rung's settled part (the other
    // rungs run at other rates), elsewhere what follows serve's saturation
    // phase, after a second of settling.
    double from = saturation_end(w, start, end) + kSettleS, to = end;
    if (w.name == "ingest") {
      const ladder_plan plan(start, end, w.rates.size(), w.ref_rung);
      const int ref = static_cast<int>(std::min(w.ref_rung, w.rates.size() - 1));
      from = plan.settled_from(ref);
      to = plan.bounds[ref + 1];
    }
    auto windowed = [&](const pb::series& s) {
      pb::series in;
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (s.t[i] >= from && s.t[i] < to) in.add(s.t[i], s.v[i]);
      }
      return pb::summary_json(pb::summarize_windows(in, from, 0.5));
    };
    std::vector<double> late = lo.late_us;
    late.insert(late.end(), po.late_us.begin(), po.late_us.end());
    // Requests of the main traffic completed per bin. The probe phone's
    // requests are left out: how many polls a probe needs varies from run
    // to run, and its load is small beside the main traffic.
    const pb::time_bins& done = lo.done;
    std::string done_bins = "[";
    for (std::size_t i = 0; i < done.n.size(); ++i) {
      if (i) done_bins += ',';
      done_bins += std::to_string(static_cast<std::uint64_t>(done.n[i]));
    }
    done_bins += ']';
    const std::size_t load_conns =
        w.name == "serve" ? w.query_conns + w.report_conns : w.report_conns;
    const std::string error = !lo.error.empty() ? lo.error : po.error;

    std::printf(
        "%s\n",
        pb::json_obj()
            .str("workload", w.name)
            .num("seconds", a.seconds)
            .num("start_s", start)
            .num("end_s", end)
            .str("error", error)
            .raw("ack_us", windowed(lo.ack_us))
            .raw("checkin_us", windowed(checkins))
            .raw("query_us", windowed(po.query_us))
            .raw("visible_ms", windowed(po.visible_ms))
            .raw("replica_visible_ms", windowed(po.replica_ms))
            .raw("late_us", pb::summary_json(pb::summarize(late)))
            .raw("rungs", rungs_json(lo, load.ladder_top_))
            .num("ladder_top", load.ladder_top_)
            .num("rate_per_s", lo.rate_per_s)
            .num("query_lps", lo.query_lps)
            .num("threads", 2)
            .num("connections", static_cast<double>(load_conns + 1 +
                                                    (w.follower ? 1 : 0)))
            .num("span_from_s", from)
            .num("span_to_s", to)
            .num("bins_t0_s", done.t0)
            .num("bin_s", done.width)
            .raw("done_bins", done_bins)
            .num("lookups", static_cast<double>(lo.lookups))
            .num("query_checked", static_cast<double>(lo.query_checked))
            .num("query_bad", static_cast<double>(lo.query_bad + po.query_bad))
            .num("single_queries", static_cast<double>(po.singles.records))
            .num("probes_skipped", static_cast<double>(po.probes_skipped))
            .num("tasks", static_cast<double>(lo.tasks))
            .num("idles", static_cast<double>(lo.idles))
            .num("probes", static_cast<double>(po.probes))
            .num("probes_failed", static_cast<double>(po.probes_failed))
            .num("alerts_drained", static_cast<double>(po.alerts_drained))
            .num("alerts_requests", static_cast<double>(po.alerts_requests))
            .num("sent", static_cast<double>(lo.led.sent + po.led.sent +
                                             po.query_us.size()))
            .num("acked", static_cast<double>(lo.led.acked + po.led.acked +
                                              po.query_us.size() - po.query_errs))
            .num("erred", static_cast<double>(lo.led.erred + po.led.erred +
                                              po.query_errs))
            .num("unanswered", static_cast<double>(lo.unanswered))
            .num("acked_records",
                 static_cast<double>(lo.led.acked_records + po.led.acked_records))
            .str("ref_fp", ref)
            .done()
            .c_str());
    return error.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_gen: %s\n", e.what());
    return 2;
  }
}
