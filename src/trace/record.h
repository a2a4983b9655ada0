// The measurement sample schema (paper Table 1: packet sequence numbers,
// receive timestamps, GPS coordinates -- folded up to per-probe records).
//
// Every probe a client runs produces one measurement_record; datasets are
// bags of records; everything above (zone tables, epochs, NKLD, validation)
// consumes records without caring whether they came from the simulator or a
// CRAWDAD-style CSV of field data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "geo/lat_lon.h"

namespace wiscape::trace {

/// Sentinel for measurement_record::network_id: the name has not been
/// resolved against an interner (matches core::network_interner::npos).
inline constexpr std::uint16_t no_network_id = 0xFFFF;

/// What kind of probe produced a record.
enum class probe_kind {
  tcp_download,  ///< bulk TCP transfer, yields downlink throughput
  udp_burst,     ///< CBR UDP train, yields throughput/loss/jitter
  ping,          ///< UDP/ICMP ping train, yields RTT and failure counts
  udp_uplink,    ///< client->server CBR train (Table 1's uplink direction)
};

std::string to_string(probe_kind k);
/// Parses the strings produced by to_string(probe_kind); throws
/// std::invalid_argument otherwise. Does not allocate on success.
probe_kind probe_kind_from_string(std::string_view s);

/// One collected measurement sample.
struct measurement_record {
  double time_s = 0.0;        ///< probe start, seconds since epoch
  std::string network;        ///< operator name ("NetA"/"NetB"/"NetC")
  geo::lat_lon pos;           ///< GPS fix at probe start
  double speed_mps = 0.0;     ///< vehicle speed at probe start
  /// Device category that measured ("laptop", "phone", ...). Composability
  /// only holds within a category (Sec 3.3); core::normalize estimates the
  /// cross-category scale.
  std::string device = "laptop";
  /// Stable identifier of the measuring client (0 = unknown). Used for
  /// per-client accounting and for ordering each client's GPS stream in
  /// trace::hygiene (two distinct clients are not a "teleport").
  std::uint64_t client_id = 0;
  /// Cached interned id of `network`, resolved once at the wire boundary
  /// against the coordinator's fixed operator list (no_network_id when the
  /// record came from a path that did not resolve it, or the operator is
  /// not in the list). Purely an acceleration: consumers must validate the
  /// id maps back to `network` before trusting it, since records can cross
  /// process boundaries carrying a foreign interner's ids.
  std::uint16_t network_id = no_network_id;
  probe_kind kind = probe_kind::tcp_download;
  bool success = false;       ///< probe completed (coverage + no timeout)

  // Metric payloads; meaningful fields depend on `kind`, others stay 0.
  double throughput_bps = 0.0;
  double loss_rate = 0.0;
  double jitter_s = 0.0;
  double rtt_s = 0.0;
  int ping_sent = 0;
  int ping_failures = 0;
  /// Modem-reported signal strength at probe time (dBm; -999 = unknown).
  /// Recorded on every probe; the paper found RSSI uncorrelated with TCP
  /// throughput (Sec 5) and excluded it from the estimated metrics, so it
  /// is intentionally absent from the `metric` enum.
  double rssi_dbm = -999.0;
};

/// Metrics a record can be asked for (the paper's Sec 2 list).
enum class metric {
  tcp_throughput_bps,
  udp_throughput_bps,
  loss_rate,
  jitter_s,
  rtt_s,
  uplink_throughput_bps,
};

/// The number of metrics (the cardinality of `metric`).
inline constexpr std::size_t metric_count = 6;

/// The wire name of `m` ("tcp_throughput", "rtt", ...); a view into
/// static storage.
std::string_view metric_name(metric m) noexcept;

std::string to_string(metric m);

/// Parses the strings produced by to_string(metric); throws
/// std::invalid_argument otherwise.
metric metric_from_string(std::string_view s);

/// The probe kind that carries a metric.
probe_kind kind_for(metric m) noexcept;

/// The metrics a probe kind yields, in the canonical fold order the
/// coordinator applies them (alert ordering depends on this order staying
/// fixed). Views into static storage.
std::span<const metric> metrics_of(probe_kind k) noexcept;

/// Value of `m` in record `r`. Callers should pre-filter records by
/// kind_for(m) and success; mismatched kinds return 0.
double value_of(const measurement_record& r, metric m) noexcept;

}  // namespace wiscape::trace
