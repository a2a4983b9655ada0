#include "net/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "core/fault_injection.h"
#include "proto/wire_v3.h"

namespace wiscape::net {

line_client::line_client(line_client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      rx_(std::move(other.rx_)),
      rx_pos_(std::exchange(other.rx_pos_, 0)) {}

line_client& line_client::operator=(line_client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    rx_ = std::move(other.rx_);
    rx_pos_ = std::exchange(other.rx_pos_, 0);
  }
  return *this;
}

void line_client::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_.clear();
  rx_pos_ = 0;
}

bool line_client::try_connect(const std::string& host, std::uint16_t port) {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return false;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    ::close(fd);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fd_ = fd;
  return true;
}

void line_client::connect(const std::string& host, std::uint16_t port) {
  if (!try_connect(host, port)) {
    throw std::system_error(errno, std::generic_category(),
                            "line_client::connect " + host);
  }
}

void line_client::fill_rx() {
  // 64 KiB per recv: a batched ESTB reply (~70 KiB at 1024 estimates)
  // lands in two syscalls instead of five.
  char buf[65536];
  ssize_t n;
  do {
    n = ::recv(fd_, buf, sizeof buf, 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) {
    throw std::runtime_error(n == 0 ? "line_client: connection closed by peer"
                                    : "line_client: recv failed: " +
                                          std::string(std::strerror(errno)));
  }
  rx_.append(buf, static_cast<std::size_t>(n));
}

std::string_view line_client::read_line() {
  for (;;) {
    const std::size_t nl = rx_.find('\n', rx_pos_);
    if (nl != std::string::npos) {
      std::string_view line(rx_.data() + rx_pos_, nl - rx_pos_);
      rx_pos_ = nl + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      return line;
    }
    // Compact the consumed prefix before growing the buffer further.
    if (rx_pos_ > 0 && rx_pos_ == rx_.size()) {
      rx_.clear();
      rx_pos_ = 0;
    } else if (rx_pos_ > 65536) {
      rx_.erase(0, rx_pos_);
      rx_pos_ = 0;
    }
    fill_rx();
  }
}

void line_client::send_framed(std::string_view req) {
  if (fd_ < 0) throw std::runtime_error("line_client: not connected");
  // Gather I/O: the request and its newline leave in one syscall with no
  // concatenated copy. sendmsg rather than writev for MSG_NOSIGNAL -- a
  // server dying mid-churn must surface as an error, not SIGPIPE.
  char nl = '\n';
  iovec iov[2];
  iov[0].iov_base = const_cast<char*>(req.data());
  iov[0].iov_len = req.size();
  iov[1].iov_base = &nl;
  iov[1].iov_len = 1;
  iovec* cur = iov;
  int iovcnt = 2;
  while (iovcnt > 0) {
    msghdr msg{};
    msg.msg_iov = cur;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    ssize_t n;
    do {
      n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) {
      throw std::runtime_error("line_client: send failed: " +
                               std::string(std::strerror(errno)));
    }
    std::size_t left = static_cast<std::size_t>(n);
    while (iovcnt > 0 && left >= cur->iov_len) {
      left -= cur->iov_len;
      ++cur;
      --iovcnt;
    }
    if (iovcnt > 0) {
      cur->iov_base = static_cast<char*>(cur->iov_base) + left;
      cur->iov_len -= left;
    }
  }
}

void line_client::send_all(std::string_view bytes) {
  if (fd_ < 0) throw std::runtime_error("line_client: not connected");
  iovec iov;
  iov.iov_base = const_cast<char*>(bytes.data());
  iov.iov_len = bytes.size();
  while (iov.iov_len > 0) {
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    ssize_t n;
    do {
      n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) {
      throw std::runtime_error("line_client: send failed: " +
                               std::string(std::strerror(errno)));
    }
    iov.iov_base = static_cast<char*>(iov.iov_base) + n;
    iov.iov_len -= static_cast<std::size_t>(n);
  }
}

std::string_view line_client::read_frame() {
  // Compact the consumed prefix (same policy as read_line) so a long
  // pipelined burst does not grow rx_ with bytes already handed out.
  if (rx_pos_ > 0 && rx_pos_ == rx_.size()) {
    rx_.clear();
    rx_pos_ = 0;
  } else if (rx_pos_ > 65536) {
    rx_.erase(0, rx_pos_);
    rx_pos_ = 0;
  }
  while (rx_.size() - rx_pos_ < proto::v3::frame_header_bytes) fill_rx();
  const auto hdr = proto::v3::peek_header(
      std::string_view(rx_.data() + rx_pos_, rx_.size() - rx_pos_));
  if (!hdr) {
    throw std::runtime_error("line_client: reply is not a binary frame");
  }
  const std::size_t total = proto::v3::frame_header_bytes + hdr->payload_len;
  while (rx_.size() - rx_pos_ < total) fill_rx();
  std::string_view frame(rx_.data() + rx_pos_, total);
  rx_pos_ += total;
  return frame;
}

std::string_view line_client::request_frame(std::string_view frame) {
  if (fd_ < 0) throw std::runtime_error("line_client: not connected");
  switch (core::fault::fire(core::fault::site::frame_truncate)) {
    case core::fault::action::fail:
      // A client dying mid-send: ship a strict prefix of the frame, then
      // surface the failure. The server is left holding a cut frame that
      // only EOF resolves (the caller's reconnect path closes the socket).
      if (frame.size() > 1) send_all(frame.substr(0, frame.size() / 2));
      throw std::runtime_error("line_client: send failed: injected truncation");
    case core::fault::action::stall:
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      break;
    case core::fault::action::proceed:
      break;
  }
  send_all(frame);
  // Compact so the reply lands contiguously at the front of rx_; with a
  // warm buffer the erase and recv appends reuse capacity (no allocation).
  if (rx_pos_ > 0) {
    rx_.erase(0, rx_pos_);
    rx_pos_ = 0;
  }
  return read_frame();
}

std::string line_client::request(std::string_view req) {
  return std::string(request_view(req));
}

std::string_view line_client::request_view(std::string_view req) {
  send_framed(req);
  // Compact first so the whole reply lands contiguously at the front of
  // rx_ and the returned view needs no stitching. With a warm buffer the
  // erase and the recv appends below reuse capacity: zero allocations.
  if (rx_pos_ > 0) {
    rx_.erase(0, rx_pos_);
    rx_pos_ = 0;
  }
  std::size_t scanned = 0;
  std::size_t lines_needed = 1;
  std::size_t lines_found = 0;
  std::size_t end = 0;
  for (;;) {
    const std::size_t nl = rx_.find('\n', scanned);
    if (nl == std::string::npos) {
      scanned = rx_.size();
      fill_rx();
      continue;
    }
    ++lines_found;
    if (lines_found == 1) {
      // The reply's first line announces how many payload lines follow.
      std::string_view first(rx_.data(), nl);
      if (!first.empty() && first.back() == '\r') first.remove_suffix(1);
      lines_needed += proto::frame_extra_lines(first, proto::frame_side::reply);
    }
    scanned = nl + 1;
    if (lines_found == lines_needed) {
      end = nl;
      break;
    }
  }
  rx_pos_ = scanned;
  std::string_view reply(rx_.data(), end);
  if (!reply.empty() && reply.back() == '\r') reply.remove_suffix(1);
  return reply;
}

std::size_t line_client::pipeline(std::string_view block, std::size_t count) {
  // One burst of complete back-to-back requests (text lines and/or binary
  // frames)...
  send_all(block);
  // ...then all the replies, positional with the requests. Each reply's
  // first byte picks its framing: the v3 magic is not printable ASCII, so
  // no text reply ever starts with it.
  std::size_t total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    while (rx_pos_ == rx_.size()) {
      // Compact before growing, exactly like read_line's empty-buffer
      // path: without this, the framing peek below keeps appending past
      // an ever-longer consumed prefix and rx_ balloons across a burst.
      if (rx_pos_ > 0) {
        rx_.clear();
        rx_pos_ = 0;
      }
      fill_rx();
    }
    if (static_cast<unsigned char>(rx_[rx_pos_]) == proto::v3::frame_magic) {
      total += read_frame().size();
      continue;
    }
    const std::string_view first = read_line();
    total += first.size() + 1;
    const std::size_t extra =
        proto::frame_extra_lines(first, proto::frame_side::reply);
    for (std::size_t j = 0; j < extra; ++j) total += read_line().size() + 1;
  }
  return total;
}

proto::hello_reply line_client::hello(std::uint32_t version) {
  proto::hello_request req;
  req.version = version;
  const std::string reply = request(proto::encode(req));
  if (proto::message_type(reply) != "HELLO") {
    throw std::runtime_error("line_client: HELLO rejected: " +
                             proto::error_excerpt(reply));
  }
  return proto::decode_hello_reply(reply);
}

}  // namespace wiscape::net
