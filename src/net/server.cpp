#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <unordered_map>

#include "core/fault_injection.h"
#include "obs/names.h"
#include "obs/registry.h"

namespace wiscape::net {

namespace {

struct net_metrics {
  obs::counter& accepts;
  obs::counter& accept_faults;
  obs::counter& capacity_rejects;
  obs::counter& closes;
  obs::counter& idle_timeouts;
  obs::counter& oversize_disconnects;
  obs::counter& slow_reader_disconnects;
  obs::counter& hello_violations;
  obs::counter& shed_queries;
  obs::counter& shed_reports;
  obs::counter& err_overload;
  obs::counter& bytes_in;
  obs::counter& bytes_out;
  obs::counter& writev_calls;
  obs::gauge& active_sessions;
  obs::histogram& read_latency;
  obs::histogram& write_latency;
  obs::histogram& replies_per_flush;
};

net_metrics& metrics() {
  auto& reg = obs::registry::global();
  static net_metrics m{
      reg.get_counter(obs::names::kNetAccepts),
      reg.get_counter(obs::names::kNetAcceptFaults),
      reg.get_counter(obs::names::kNetCapacityRejects),
      reg.get_counter(obs::names::kNetCloses),
      reg.get_counter(obs::names::kNetIdleTimeouts),
      reg.get_counter(obs::names::kNetOversizeDisconnects),
      reg.get_counter(obs::names::kNetSlowReaderDisconnects),
      reg.get_counter(obs::names::kNetHelloViolations),
      reg.get_counter(obs::names::kNetShedQueries),
      reg.get_counter(obs::names::kNetShedReports),
      reg.get_counter(obs::names::kServerErrOverload),
      reg.get_counter(obs::names::kNetBytesIn),
      reg.get_counter(obs::names::kNetBytesOut),
      reg.get_counter(obs::names::kNetWritevCalls),
      reg.get_gauge(obs::names::kNetActiveSessions),
      reg.get_histogram(obs::names::kNetReadLatency),
      reg.get_histogram(obs::names::kNetWriteLatency),
      reg.get_histogram(obs::names::kNetRepliesPerFlush)};
  return m;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

int make_listener(const std::string& address, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  // SO_REUSEPORT gives every event loop its own queue on the same port; the
  // kernel spreads incoming connections across them.
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) < 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "setsockopt");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::invalid_argument("tcp_server: bad IPv4 bind address '" +
                                address + "'");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, tcp_server::listen_backlog) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "bind/listen");
  }
  return fd;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

}  // namespace

// One epoll thread: its listener, its wakeup eventfd, and every session it
// has accepted. Shared-nothing -- only `server->active_` (an atomic) and
// the obs registry are touched across loops.
struct tcp_server::event_loop {
  tcp_server* server;
  int epoll_fd = -1;
  int listen_fd = -1;
  int wake_fd = -1;

  struct connection {
    int fd;
    session sess;
    double last_activity;
    bool want_write = false;
  };
  std::unordered_map<int, std::unique_ptr<connection>> conns;

  // Cached shed state (refreshed every saturation_refresh_every pumps).
  double saturation = 0.0;
  std::uint32_t pumps_since_refresh = 0;

  event_loop(tcp_server* srv, std::uint16_t port) : server(srv) {
    listen_fd = make_listener(srv->cfg_.bind_address, port);
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) throw_errno("epoll_create1");
    wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd < 0) throw_errno("eventfd");
    add_fd(listen_fd, EPOLLIN);
    add_fd(wake_fd, EPOLLIN);
  }

  ~event_loop() {
    if (wake_fd >= 0) ::close(wake_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (listen_fd >= 0) ::close(listen_fd);
  }

  void add_fd(int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      throw_errno("epoll_ctl(ADD)");
    }
  }

  void mod_fd(int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
  }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof one);
  }

  shed_state shed() {
    const auto& cfg = server->cfg_;
    if (pumps_since_refresh++ % saturation_refresh_every == 0) {
      saturation = cfg.ingest_saturation ? cfg.ingest_saturation() : 0.0;
    }
    return {saturation};
  }

  void accept_all() {
    auto& m = metrics();
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN (drained) or a transient accept error
      }
      m.accepts.inc();
      if (core::fault::armed() &&
          core::fault::fire(core::fault::site::accept_fail) ==
              core::fault::action::fail) {
        ::close(fd);
        m.accept_faults.inc();
        continue;
      }
      if (server->active_.load(std::memory_order_relaxed) >=
          server->cfg_.max_sessions) {
        ::close(fd);
        m.capacity_rejects.inc();
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      auto conn = std::make_unique<connection>(connection{
          fd, session(server->cfg_.limits, *server->handler_), now_s()});
      try {
        add_fd(fd, EPOLLIN);
      } catch (const std::system_error&) {
        ::close(fd);
        continue;
      }
      conns.emplace(fd, std::move(conn));
      server->active_.fetch_add(1, std::memory_order_relaxed);
      m.active_sessions.add(1);
    }
  }

  /// Writes out-ring bytes to the socket until drained or EAGAIN. Returns
  /// false on a hard write error (the connection must close).
  bool flush(connection& c) {
    auto& m = metrics();
    if (core::fault::armed()) {
      const auto a = core::fault::fire(core::fault::site::write_full);
      if (a == core::fault::action::fail) {
        // Behave exactly as an unwritable socket: keep the bytes queued and
        // wait for (the next) EPOLLOUT/flush attempt.
        c.want_write = !c.sess.out().empty();
        if (c.want_write) mod_fd(c.fd, EPOLLIN | EPOLLOUT);
        return true;
      }
      if (a == core::fault::action::stall) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    // All replies queued since the last flush ride this one writev (the
    // ring's two spans cover everything queued): record the coalescing
    // factor. Scaled by 1e-3 so the shared histogram edges read as reply
    // counts (0.001 bucket = 1 reply/flush, 0.1 = 100).
    const std::uint64_t queued = c.sess.take_queued_replies();
    if (queued > 0) {
      m.replies_per_flush.record(static_cast<double>(queued) * 1e-3);
    }
    const double t0 = c.sess.out().empty() ? 0.0 : now_s();
    std::size_t wrote = 0;
    while (!c.sess.out().empty()) {
      const auto spans = c.sess.out().read_spans();
      iovec iov[2];
      int iovcnt = 0;
      for (const auto& s : spans) {
        if (s.empty()) break;
        iov[iovcnt].iov_base = const_cast<char*>(s.data());
        iov[iovcnt].iov_len = s.size();
        ++iovcnt;
      }
      m.writev_calls.inc();
      const ssize_t n = ::writev(c.fd, iov, iovcnt);
      if (n > 0) {
        c.sess.out().consume(static_cast<std::size_t>(n));
        wrote += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;  // peer reset / hard error
    }
    if (wrote > 0) {
      m.bytes_out.inc(wrote);
      m.write_latency.record(now_s() - t0);
    }
    const bool pending = !c.sess.out().empty();
    if (pending != c.want_write) {
      c.want_write = pending;
      mod_fd(c.fd, pending ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
    }
    return true;
  }

  void close_conn(int fd, close_reason why) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    connection& c = *it->second;
    c.sess.set_reason(why);
    // Drain-on-disconnect: one best-effort flush so a final ERR reply (or
    // replies to requests answered after peer EOF) still reaches readers.
    flush(c);
    auto& m = metrics();
    switch (c.sess.reason()) {
      case close_reason::idle_timeout:
        m.idle_timeouts.inc();
        break;
      case close_reason::oversize:
        m.oversize_disconnects.inc();
        break;
      case close_reason::slow_reader:
        m.slow_reader_disconnects.inc();
        break;
      case close_reason::hello_violation:
        m.hello_violations.inc();
        break;
      default:
        break;
    }
    m.closes.inc();
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns.erase(it);
    server->active_.fetch_sub(1, std::memory_order_relaxed);
    m.active_sessions.add(-1);
  }

  /// Runs the session state machine over whatever is buffered and flushes
  /// replies; closes the connection when the session says so.
  void pump(connection& c) {
    auto& m = metrics();
    pump_stats stats;
    const double t0 = now_s();
    const bool keep = c.sess.pump(shed(), stats);
    if (stats.dispatched > 0) m.read_latency.record(now_s() - t0);
    if (stats.shed_queries > 0) m.shed_queries.inc(stats.shed_queries);
    if (stats.shed_reports > 0) m.shed_reports.inc(stats.shed_reports);
    if (stats.shed_queries + stats.shed_reports > 0) {
      m.err_overload.inc(stats.shed_queries + stats.shed_reports);
    }
    if (!keep) {
      close_conn(c.fd, c.sess.reason());
      return;
    }
    if (!flush(c)) close_conn(c.fd, close_reason::io_error);
  }

  void on_readable(connection& c) {
    if (core::fault::armed()) {
      const auto a = core::fault::fire(core::fault::site::read_stall);
      if (a == core::fault::action::fail) {
        close_conn(c.fd, close_reason::io_error);
        return;
      }
      if (a == core::fault::action::stall) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    auto& m = metrics();
    // Adaptive drain: keep reading only while each readv completely fills
    // the offered buffers (the kernel queue looks deep) and the per-wake
    // budget holds, then dispatch every complete request buffered and flush
    // once -- one writev per wake for a pipelining client instead of one
    // per 16 KiB, while the budget keeps a firehose session from starving
    // its loop's neighbours.
    std::size_t drained = 0;
    bool eof = false;
    bool hard_error = false;
    for (;;) {
      const auto spans = c.sess.in().write_spans(16384);
      iovec iov[2];
      int iovcnt = 0;
      std::size_t offered = 0;
      for (const auto& s : spans) {
        if (s.empty()) break;
        iov[iovcnt].iov_base = s.data();
        iov[iovcnt].iov_len = s.size();
        offered += s.size();
        ++iovcnt;
      }
      if (iovcnt == 0) {
        if (drained > 0) break;  // ring filled this wake: dispatch first
        // Read ring at its cap with no complete request: pump() turns this
        // into the oversize disconnect.
        pump(c);
        return;
      }
      const ssize_t n = ::readv(c.fd, iov, iovcnt);
      if (n > 0) {
        c.sess.in().commit(static_cast<std::size_t>(n));
        m.bytes_in.inc(static_cast<std::size_t>(n));
        drained += static_cast<std::size_t>(n);
        if (static_cast<std::size_t>(n) == offered &&
            drained < read_drain_budget_bytes) {
          continue;
        }
        break;  // short read: the socket is drained (level-trigger re-arms)
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      hard_error = true;
      break;
    }
    if (eof) {
      // Peer EOF: answer whatever complete requests are already buffered,
      // flush, then close (drain-on-disconnect).
      pump_stats stats;
      c.sess.pump(shed(), stats);
      if (stats.shed_queries > 0) m.shed_queries.inc(stats.shed_queries);
      if (stats.shed_reports > 0) m.shed_reports.inc(stats.shed_reports);
      if (stats.shed_queries + stats.shed_reports > 0) {
        m.err_overload.inc(stats.shed_queries + stats.shed_reports);
      }
      close_conn(c.fd, close_reason::peer_eof);
      return;
    }
    if (drained > 0) {
      c.last_activity = now_s();
      const int fd = c.fd;  // pump may close (and free) the connection
      pump(c);
      if (hard_error) close_conn(fd, close_reason::io_error);
      return;
    }
    if (hard_error) close_conn(c.fd, close_reason::io_error);
  }

  void sweep_idle(double now) {
    const double timeout = server->cfg_.idle_timeout_s;
    if (timeout <= 0) return;
    // Collect first: close_conn mutates the map.
    std::vector<int> expired;
    for (const auto& [fd, conn] : conns) {
      if (now - conn->last_activity > timeout) expired.push_back(fd);
    }
    for (const int fd : expired) close_conn(fd, close_reason::idle_timeout);
  }

  void run() {
    std::vector<epoll_event> events(256);
    const double timeout = server->cfg_.idle_timeout_s;
    const int wait_ms =
        timeout > 0
            ? std::max(1, std::min(100, static_cast<int>(timeout * 500)))
            : 250;
    double last_sweep = now_s();
    while (server->running_.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(epoll_fd, events.data(),
                                 static_cast<int>(events.size()), wait_ms);
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        const std::uint32_t ev = events[i].events;
        if (fd == wake_fd) {
          std::uint64_t buf;
          while (::read(wake_fd, &buf, sizeof buf) > 0) {
          }
          continue;
        }
        if (fd == listen_fd) {
          accept_all();
          continue;
        }
        const auto it = conns.find(fd);
        if (it == conns.end()) continue;  // closed earlier this batch
        connection& c = *it->second;
        if (ev & (EPOLLHUP | EPOLLERR)) {
          // Half-close still delivers EPOLLIN|EPOLLHUP; let the read path
          // observe EOF and drain. A bare error closes immediately.
          if (!(ev & EPOLLIN)) {
            close_conn(fd, close_reason::io_error);
            continue;
          }
        }
        if (ev & EPOLLOUT) {
          if (!flush(c)) {
            close_conn(fd, close_reason::io_error);
            continue;
          }
        }
        if (ev & EPOLLIN) on_readable(c);
      }
      const double now = now_s();
      if (timeout > 0 && now - last_sweep >= std::min(timeout / 2, 0.1)) {
        sweep_idle(now);
        last_sweep = now;
      }
    }
    // Server stopping: best-effort flush, then drop every session.
    std::vector<int> open;
    open.reserve(conns.size());
    for (const auto& [fd, conn] : conns) open.push_back(fd);
    for (const int fd : open) close_conn(fd, close_reason::shutdown);
  }
};

tcp_server::tcp_server(proto::coordinator_server& handler, server_config cfg)
    : handler_(&handler), cfg_(std::move(cfg)) {
  if (cfg_.event_loops == 0) cfg_.event_loops = 1;
}

tcp_server::~tcp_server() { stop(); }

void tcp_server::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  try {
    // Loop 0 resolves the ephemeral port; the rest bind the same one so the
    // kernel's SO_REUSEPORT balancing spreads accepts across loops.
    loops_.emplace_back(std::make_unique<event_loop>(this, cfg_.port));
    port_ = bound_port(loops_.front()->listen_fd);
    for (std::size_t i = 1; i < cfg_.event_loops; ++i) {
      loops_.emplace_back(std::make_unique<event_loop>(this, port_));
    }
  } catch (...) {
    running_.store(false, std::memory_order_release);
    loops_.clear();
    throw;
  }
  threads_.reserve(loops_.size());
  for (auto& loop : loops_) {
    threads_.emplace_back([l = loop.get()] { l->run(); });
  }
}

void tcp_server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  for (auto& loop : loops_) loop->wake();
  for (auto& t : threads_) t.join();
  threads_.clear();
  loops_.clear();
}

}  // namespace wiscape::net
