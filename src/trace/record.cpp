#include "trace/record.h"

#include <iterator>
#include <stdexcept>

namespace wiscape::trace {

std::string to_string(probe_kind k) {
  switch (k) {
    case probe_kind::tcp_download:
      return "tcp";
    case probe_kind::udp_burst:
      return "udp";
    case probe_kind::ping:
      return "ping";
    case probe_kind::udp_uplink:
      return "udp_up";
  }
  return "?";
}

probe_kind probe_kind_from_string(std::string_view s) {
  if (s == "tcp") return probe_kind::tcp_download;
  if (s == "udp") return probe_kind::udp_burst;
  if (s == "ping") return probe_kind::ping;
  if (s == "udp_up") return probe_kind::udp_uplink;
  throw std::invalid_argument("unknown probe kind: " + std::string(s));
}

namespace {

// Indexed by the metric enumerator. Hot on the wire QUERY path and the
// epoch-record codec: names compare and append as views, with no
// to_string() temporaries.
constexpr std::string_view kMetricNames[] = {
    "tcp_throughput", "udp_throughput", "loss_rate",
    "jitter",         "rtt",            "uplink_throughput",
};
static_assert(std::size(kMetricNames) ==
              static_cast<std::size_t>(metric::uplink_throughput_bps) + 1);

}  // namespace

std::string_view metric_name(metric m) noexcept {
  return kMetricNames[static_cast<int>(m)];
}

std::string to_string(metric m) { return std::string(metric_name(m)); }

metric metric_from_string(std::string_view s) {
  for (int i = 0; i < static_cast<int>(std::size(kMetricNames)); ++i) {
    if (kMetricNames[i] == s) return static_cast<metric>(i);
  }
  throw std::invalid_argument("unknown metric: " + std::string(s));
}

probe_kind kind_for(metric m) noexcept {
  switch (m) {
    case metric::tcp_throughput_bps:
      return probe_kind::tcp_download;
    case metric::udp_throughput_bps:
    case metric::loss_rate:
    case metric::jitter_s:
      return probe_kind::udp_burst;
    case metric::rtt_s:
      return probe_kind::ping;
    case metric::uplink_throughput_bps:
      return probe_kind::udp_uplink;
  }
  return probe_kind::ping;
}

std::span<const metric> metrics_of(probe_kind k) noexcept {
  // Order matters: the coordinator folds a record's metrics in this order,
  // and change-alert ordering is observable output.
  static constexpr metric tcp[] = {metric::tcp_throughput_bps};
  static constexpr metric udp[] = {metric::udp_throughput_bps,
                                   metric::loss_rate, metric::jitter_s};
  static constexpr metric icmp[] = {metric::rtt_s};
  static constexpr metric up[] = {metric::uplink_throughput_bps};
  switch (k) {
    case probe_kind::tcp_download:
      return tcp;
    case probe_kind::udp_burst:
      return udp;
    case probe_kind::ping:
      return icmp;
    case probe_kind::udp_uplink:
      return up;
  }
  return {};
}

double value_of(const measurement_record& r, metric m) noexcept {
  if (r.kind != kind_for(m)) return 0.0;
  switch (m) {
    case metric::tcp_throughput_bps:
    case metric::udp_throughput_bps:
    case metric::uplink_throughput_bps:
      return r.throughput_bps;
    case metric::loss_rate:
      return r.loss_rate;
    case metric::jitter_s:
      return r.jitter_s;
    case metric::rtt_s:
      return r.rtt_s;
  }
  return 0.0;
}

}  // namespace wiscape::trace
