// Blocking line-protocol TCP client for tests, benches and the scenario
// engine's over-TCP mode.
//
// line_client speaks one synchronous request/reply exchange at a time over
// a persistent connection: send the request (single line or REPORTB/QUERYB
// frame) plus the terminating newline, then read exactly one reply -- the
// first line plus however many payload lines its header announces
// (proto::frame_extra_lines), with the trailing newline stripped so the
// returned string is byte-identical to what the in-process
// proto::coordinator_server::handle() would have returned. That equivalence
// is what lets the scenario engine and benches swap transports without
// changing any accounting.
//
// request() throws std::runtime_error when the connection dies mid-exchange
// (EOF or a socket error); callers that expect churn (the connection_churn
// scenario) catch it, reconnect and re-negotiate HELLO. Not thread-safe:
// one client, one thread.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "proto/messages.h"

namespace wiscape::net {

class line_client {
 public:
  line_client() = default;
  ~line_client() { close(); }

  line_client(const line_client&) = delete;
  line_client& operator=(const line_client&) = delete;
  line_client(line_client&& other) noexcept;
  line_client& operator=(line_client&& other) noexcept;

  /// Connects to host:port (IPv4 dotted quad). Throws std::system_error
  /// when the connection fails. Reconnecting an open client closes the old
  /// connection first.
  void connect(const std::string& host, std::uint16_t port);

  /// connect() that reports refusal instead of throwing: false when the
  /// TCP connect fails (server down / kill storm), for callers that count
  /// refused connects.
  bool try_connect(const std::string& host, std::uint16_t port);

  void close() noexcept;
  bool connected() const noexcept { return fd_ >= 0; }

  /// One synchronous exchange: sends `request` + '\n' and returns the full
  /// reply (multi-line frames included) without its trailing newline.
  /// Throws std::runtime_error when the connection dies mid-exchange.
  std::string request(std::string_view req);

  /// request() without the return-value copy: the view aliases the client's
  /// receive buffer and stays valid until the next call on this client.
  /// With a warm buffer one exchange makes zero heap allocations on the
  /// client side -- the measurement-friendly flavour benches use so client
  /// allocation cost cannot masquerade as server round-trip cost.
  std::string_view request_view(std::string_view req);

  /// One synchronous binary (wire v3) exchange: sends the self-delimiting
  /// `frame` as-is -- no newline -- and returns the complete binary reply
  /// frame, header included, as a view aliasing the receive buffer (valid
  /// until the next call). The caller negotiates HELLO ver>=3 first on
  /// gated ports. Throws std::runtime_error when the connection dies or
  /// the reply is not a well-formed frame. The frame_truncate fault seam
  /// fires here: on fail only a prefix of the frame leaves before the
  /// throw, so the server observes a cut frame followed by EOF.
  std::string_view request_frame(std::string_view frame);

  /// Pipelined exchange: sends `block` -- `count` complete back-to-back
  /// requests, each either a '\n'-terminated text line (or REPORTB/QUERYB
  /// frame) or a self-delimiting binary v3 frame -- in one burst, then
  /// reads all `count` replies, auto-detecting each reply's framing by its
  /// first byte. Returns the total reply bytes (text separators and binary
  /// headers included). This is how a batching reporter drives the
  /// server's per-wake reply coalescing.
  std::size_t pipeline(std::string_view block, std::size_t count);

  /// HELLO handshake convenience (a proto::client exchange over this
  /// connection); throws proto::reply_error when the server answers ERR and
  /// std::runtime_error on any other reply but HELLO.
  proto::hello_reply hello(std::uint32_t version = proto::wire_version);

 private:
  /// Reads up to (and including) the next '\n'; the returned line excludes
  /// it. Throws on EOF/error.
  std::string_view read_line();
  /// Reads exactly one binary v3 frame (header + declared payload); the
  /// returned view includes the header. Throws on EOF/error or a byte
  /// stream that is not a frame where one is expected.
  std::string_view read_frame();
  /// One recv appended to rx_. Throws on EOF/error.
  void fill_rx();
  /// Sends `req` + '\n' in one sendmsg (gather I/O -- no framed copy).
  void send_framed(std::string_view req);
  /// Sends every byte of `bytes` as-is. Throws on error.
  void send_all(std::string_view bytes);

  int fd_ = -1;
  std::string rx_;          ///< bytes received, not yet consumed
  std::size_t rx_pos_ = 0;  ///< consumed prefix of rx_
};

}  // namespace wiscape::net
