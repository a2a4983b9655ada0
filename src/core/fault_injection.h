// Fault-injection seams for the scenario engine (ISSUE 6).
//
// Production code consults a process-wide hook at a small, named set of
// seams -- the report queue's producer edge, the sharded drain loop, the
// wire server's request dispatch, the persistence writer, the TCP
// front end's accept/read/write edges (src/net), and the replication
// stream's WAL/snapshot/pull edges (src/repl, ISSUE 10) -- so a scenario
// can make
// *real* code paths fail (a full queue, a stalled consumer, a dying
// transport) instead of mocking them. With no hook
// installed (the default, and the only state outside scenario runs) every
// seam costs one relaxed atomic load and a predicted-not-taken branch;
// behaviour is bit-for-bit the un-instrumented code.
//
// The hook decides per invocation what happens at a seam:
//   * proceed -- the seam executes normally (the hook saw the call).
//   * fail    -- the seam takes its natural error path: push() returns
//                false (record dropped + counted), push_owned() refuses the
//                whole batch (all-or-nothing, so wire accounting stays
//                exact), handle() answers an ERR reply, save throws.
//   * stall   -- the seam sleeps briefly before proceeding (slow-consumer /
//                scheduling-jitter stress). Timing-only: never changes what
//                is computed, only when.
//
// Determinism contract: decisions that change *which* records survive
// (queue_push, server_handle, persist_save) are only meaningful when the
// guarded seam is driven from one thread -- the scenario engine's driver
// thread -- where invocation order is reproducible. drain_stall fires on
// worker threads and is therefore restricted to timing-only effects.
// scenario::injector implements the hook with a seeded schedule keyed by
// (site, invocation index), so the same seed replays the same faults.
//
// Thread safety: install() publishes the hook pointer with release
// semantics; seams read it acquire. The hook must outlive its installation
// window; installers uninstall (install(nullptr)) before destroying it and
// while the guarded pipelines are quiescent.
#pragma once

#include <atomic>

namespace wiscape::core::fault {

/// The named seams production code guards. Append-only: scenario schedules
/// and tick logs refer to these by name (see site_name).
enum class site {
  queue_push,    ///< report_queue::push / push_owned (producer edge)
  drain_stall,   ///< sharded_coordinator drain worker, before applying a batch
  server_handle, ///< proto::coordinator_server::handle, before dispatch
  persist_save,  ///< core::save_state, before writing
  accept_fail,   ///< net::tcp_server accept edge: fail closes the new socket
  read_stall,    ///< net session read edge (worker thread: timing-only stall
                 ///< in scenarios, like drain_stall; fail closes the session)
  write_full,    ///< net session write flush: fail = socket unwritable this
                 ///< round (backpressure on the writer); stall sleeps briefly
  frame_truncate,///< net::line_client binary send edge (driver thread): fail
                 ///< sends only a prefix of the v3 frame then throws, so the
                 ///< server sees a cut frame + EOF; stall sleeps briefly
  wal_append,    ///< core::durable_log WAL append edge: fail throws before
                 ///< the record is written (a full disk / dying volume), so
                 ///< the tail of the log stays exactly the last fsync'd
                 ///< record; stall sleeps briefly
  replica_lag,   ///< repl::follower pull edge (driver thread): fail skips
                 ///< this replication round entirely, so the follower falls
                 ///< one pull interval further behind; stall sleeps briefly
  snapshot_torn, ///< core::durable_log snapshot checkpoint: fail writes a
                 ///< truncated temp file and throws before the rename, so
                 ///< the previous snapshot survives intact (crash mid-write)
};
inline constexpr int site_count = 11;

/// Stable lower_snake_case name of a site (tick logs, schedules).
const char* site_name(site s) noexcept;

/// What a hook tells the seam to do for one invocation.
enum class action {
  proceed,  ///< run normally
  fail,     ///< take the seam's natural error path
  stall,    ///< sleep briefly (timing-only), then proceed
};

/// Interface a fault source implements. on() is called from whatever thread
/// hits the seam (drain workers included) and must be thread-safe, noexcept
/// and fast -- it sits on hot paths whenever installed.
class hook {
 public:
  virtual ~hook() = default;
  virtual action on(site s) noexcept = 0;
};

namespace detail {
/// The process-wide hook slot. Internal: use install()/fire().
std::atomic<hook*>& slot() noexcept;
}  // namespace detail

/// Installs `h` as the process-wide hook (nullptr = disable). Returns the
/// previously installed hook so scopes can nest/restore.
hook* install(hook* h) noexcept;

/// True when any hook is installed (cheap pre-check for seams that would
/// otherwise build arguments).
inline bool armed() noexcept {
  return detail::slot().load(std::memory_order_relaxed) != nullptr;
}

/// Consults the hook at a seam. The no-hook fast path is one relaxed load.
inline action fire(site s) noexcept {
  hook* h = detail::slot().load(std::memory_order_acquire);
  return h == nullptr ? action::proceed : h->on(s);
}

}  // namespace wiscape::core::fault
