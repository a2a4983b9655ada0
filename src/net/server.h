// Nonblocking epoll TCP front end for the coordinator.
//
// tcp_server turns proto::coordinator_server -- until now an in-process
// line handler -- into a real socket service (ROADMAP: "real async network
// transport"). The threading model is shared-nothing, nginx-style: each of
// `event_loops` threads owns its own epoll instance *and* its own listening
// socket bound with SO_REUSEPORT, so the kernel load-balances accepts
// across loops and an accepted session lives its whole life on the loop
// that accepted it -- no cross-thread handoff, no locks on the data path.
// Every loop dispatches into the one coordinator_server, whose handle() is
// safe from any number of threads.
//
// Per-session behaviour (framing, HELLO gating, shed rule, buffer caps)
// lives in net::session; this layer owns the sockets: accept with
// per-connection caps, level-triggered read/write readiness, drain-on-
// disconnect (buffered complete requests are still answered and flushed
// after peer EOF), and an idle sweep that disconnects sessions with no
// complete request inside `idle_timeout_s` -- even mid-frame.
//
// Backpressure: the loop samples `ingest_saturation` (typically
// core::sharded_coordinator::ingest_saturation) every
// `saturation_refresh_every` pump calls and passes the cached value to the
// sessions' shed rule, so an overloaded pipeline answers typed
// "ERR overload" instead of stalling the event loop behind a full queue.
//
// Fault seams (core::fault): `accept_fail` closes a just-accepted socket,
// `read_stall` delays or kills a readable session, `write_full` makes a
// flush behave as if the socket were unwritable -- the scenario engine's
// connection_churn scenario drives all three through real sockets.
//
// Observability: the net.server.* family (obs/names.h; reference table in
// docs/RUNBOOK.md). Operational guide: docs/RUNBOOK.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/session.h"
#include "proto/server.h"

namespace wiscape::net {

struct server_config {
  std::string bind_address = "127.0.0.1";  ///< IPv4 dotted quad
  std::uint16_t port = 0;                  ///< 0 = ephemeral; see port()
  std::size_t event_loops = 2;             ///< epoll threads (>=1)
  std::size_t max_sessions = 65536;        ///< accept cap, across all loops
  session_limits limits{};                 ///< per-session protocol gates
  /// Ingest saturation source in [0, 1] (bind
  /// core::sharded_coordinator::ingest_saturation here). Empty = never shed.
  std::function<double()> ingest_saturation{};
  double idle_timeout_s = 300.0;  ///< <= 0 disables the idle sweep
};

/// The epoll TCP server. start() binds and spawns the loops; stop() (or the
/// destructor) disconnects every session and joins them. All public methods
/// are safe to call from the owning thread; port() and active_sessions()
/// from any thread.
class tcp_server {
 public:
  /// Borrows the handler; it must outlive the server. event_loops = 0 is
  /// taken as 1.
  tcp_server(proto::coordinator_server& handler, server_config cfg);
  ~tcp_server();

  tcp_server(const tcp_server&) = delete;
  tcp_server& operator=(const tcp_server&) = delete;

  /// Binds the listeners and spawns the event-loop threads. Throws
  /// std::system_error when bind/listen fails. Idempotent once started.
  void start();

  /// Disconnects every session (best-effort final flush), closes the
  /// listeners and joins the loops. Idempotent.
  void stop();

  /// The bound TCP port (the configured one, or the kernel-assigned
  /// ephemeral port when config.port == 0). Valid after start().
  std::uint16_t port() const noexcept { return port_; }

  /// Currently open sessions across all loops.
  std::size_t active_sessions() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  const server_config& config() const noexcept { return cfg_; }

  /// Pump calls between saturation refreshes (the value is cached per loop
  /// so sessions never call into the coordinator on the fast path).
  static constexpr std::uint32_t saturation_refresh_every = 64;
  /// Most bytes one epoll wake drains from a single socket before replies
  /// are dispatched and flushed. Reads continue past the first readv only
  /// while each one completely fills the offered buffers (the kernel queue
  /// looks deep), so a pipelining client is answered with one writev per
  /// wake instead of one per 16 KiB, and the cap keeps one firehose session
  /// from starving its loop's neighbours.
  static constexpr std::size_t read_drain_budget_bytes = 256 * 1024;
  /// Pending-accept queue per listener; the kernel clamps it to
  /// net.core.somaxconn.
  static constexpr int listen_backlog = 4096;

 private:
  struct event_loop;

  proto::coordinator_server* handler_;
  server_config cfg_;
  std::uint16_t port_ = 0;
  std::atomic<std::size_t> active_{0};
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<event_loop>> loops_;
  std::vector<std::thread> threads_;
};

}  // namespace wiscape::net
