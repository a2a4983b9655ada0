// Equivalence, robustness and regression suite for the zero-allocation wire
// & CSV parsers (ISSUE 3 tentpole).
//
// The old istringstream/unordered_map/stod decoder is preserved here
// verbatim as `legacy::` and used as the reference implementation: every
// line the old parser accepted must decode to an identical struct through
// the new std::string_view + std::from_chars fast path, and every
// encode(...) overload must produce byte-identical output. On top of the
// equivalence property: a malformed-line corpus (ERR, never a crash or a
// silent misparse), the u64 precision regression (client ids above 2^53
// used to travel through a double), snprintf truncation guards, and the
// REPORTB batch framing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "proto/messages.h"
#include "stats/rng.h"
#include "trace/csv.h"
#include "test_util.h"

namespace wiscape {
namespace {

// ---- the seed decoder/encoder, frozen as the reference --------------------
namespace legacy {

std::unordered_map<std::string, std::string> fields_of(
    const std::string& line, const std::string& expected_type) {
  std::istringstream is(line);
  std::string tag;
  if (!(is >> tag) || tag != expected_type) {
    throw std::invalid_argument("expected " + expected_type + " message");
  }
  std::unordered_map<std::string, std::string> out;
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("malformed field '" + token + "'");
    }
    out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

const std::string& need(
    const std::unordered_map<std::string, std::string>& fields,
    const std::string& key) {
  const auto it = fields.find(key);
  if (it == fields.end()) {
    throw std::invalid_argument("missing field '" + key + "'");
  }
  return it->second;
}

double need_double(const std::unordered_map<std::string, std::string>& fields,
                   const std::string& key) {
  const std::string& s = need(fields, key);
  std::size_t used = 0;
  const double v = std::stod(s, &used);
  if (used != s.size()) throw std::invalid_argument(s);
  return v;
}

std::uint64_t need_u64(
    const std::unordered_map<std::string, std::string>& fields,
    const std::string& key) {
  // The seed parser's u64-through-double path: loses precision above 2^53.
  return static_cast<std::uint64_t>(need_double(fields, key));
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

double to_double(const std::string& s) {
  std::size_t used = 0;
  const double v = std::stod(s, &used);
  if (used != s.size()) throw std::invalid_argument(s);
  return v;
}

trace::measurement_record from_csv(const std::string& line) {
  const auto f = split(line, ',');
  if (f.size() != 16) throw std::invalid_argument("CSV needs 16 fields");
  trace::measurement_record r;
  r.time_s = to_double(f[0]);
  r.network = f[1];
  r.pos = {to_double(f[2]), to_double(f[3])};
  r.speed_mps = to_double(f[4]);
  r.kind = trace::probe_kind_from_string(f[5]);
  r.success = static_cast<int>(to_double(f[6])) != 0;
  r.throughput_bps = to_double(f[7]);
  r.loss_rate = to_double(f[8]);
  r.jitter_s = to_double(f[9]);
  r.rtt_s = to_double(f[10]);
  r.ping_sent = static_cast<int>(to_double(f[11]));
  r.ping_failures = static_cast<int>(to_double(f[12]));
  r.rssi_dbm = to_double(f[13]);
  r.device = f[14];
  r.client_id = static_cast<std::uint64_t>(to_double(f[15]));
  return r;
}

std::string to_csv(const trace::measurement_record& r) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%.3f,%s,%.6f,%.6f,%.2f,%s,%d,%.1f,%.6f,%.6f,%.6f,%d,%d,%.1f,%s,%llu",
                r.time_s, r.network.c_str(), r.pos.lat_deg, r.pos.lon_deg,
                r.speed_mps, trace::to_string(r.kind).c_str(),
                r.success ? 1 : 0, r.throughput_bps, r.loss_rate, r.jitter_s,
                r.rtt_s, r.ping_sent, r.ping_failures, r.rssi_dbm,
                r.device.c_str(),
                static_cast<unsigned long long>(r.client_id));
  return buf;
}

std::string encode(const proto::checkin_request& m) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "CHECKIN client=%llu lat=%.6f lon=%.6f t=%.3f net=%u "
                "active=%u device=%s",
                static_cast<unsigned long long>(m.client_id), m.pos.lat_deg,
                m.pos.lon_deg, m.time_s, m.network_index, m.active_in_zone,
                m.device.c_str());
  return buf;
}

std::string encode(const proto::task_assignment& m) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "TASK kind=%s net=%u tcp_bytes=%llu udp_packets=%u "
                "ping_count=%u",
                trace::to_string(m.kind).c_str(), m.network_index,
                static_cast<unsigned long long>(m.tcp_bytes), m.udp_packets,
                m.ping_count);
  return buf;
}

proto::checkin_request decode_checkin(const std::string& line) {
  const auto f = fields_of(line, "CHECKIN");
  proto::checkin_request m;
  m.client_id = need_u64(f, "client");
  m.pos = {need_double(f, "lat"), need_double(f, "lon")};
  m.time_s = need_double(f, "t");
  m.network_index = static_cast<std::uint32_t>(need_u64(f, "net"));
  m.active_in_zone = static_cast<std::uint32_t>(need_u64(f, "active"));
  m.device = need(f, "device");
  return m;
}

proto::task_assignment decode_task(const std::string& line) {
  const auto f = fields_of(line, "TASK");
  proto::task_assignment m;
  m.kind = trace::probe_kind_from_string(need(f, "kind"));
  m.network_index = static_cast<std::uint32_t>(need_u64(f, "net"));
  m.tcp_bytes = need_u64(f, "tcp_bytes");
  m.udp_packets = static_cast<std::uint32_t>(need_u64(f, "udp_packets"));
  m.ping_count = static_cast<std::uint32_t>(need_u64(f, "ping_count"));
  return m;
}

}  // namespace legacy

// Exact struct comparison: the equivalence claim is bit-for-bit, including
// doubles (stod and from_chars are both correctly rounded).
void expect_same_record(const trace::measurement_record& a,
                        const trace::measurement_record& b) {
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.network, b.network);
  EXPECT_EQ(a.pos.lat_deg, b.pos.lat_deg);
  EXPECT_EQ(a.pos.lon_deg, b.pos.lon_deg);
  EXPECT_EQ(a.speed_mps, b.speed_mps);
  EXPECT_EQ(a.device, b.device);
  EXPECT_EQ(a.client_id, b.client_id);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.throughput_bps, b.throughput_bps);
  EXPECT_EQ(a.loss_rate, b.loss_rate);
  EXPECT_EQ(a.jitter_s, b.jitter_s);
  EXPECT_EQ(a.rtt_s, b.rtt_s);
  EXPECT_EQ(a.ping_sent, b.ping_sent);
  EXPECT_EQ(a.ping_failures, b.ping_failures);
  EXPECT_EQ(a.rssi_dbm, b.rssi_dbm);
}

/// Randomized but reproducible record covering every field, kind, and a
/// spread of magnitudes. Client ids stay below 2^53 here so the legacy
/// reference is not hit by its own precision bug.
trace::measurement_record random_record(stats::rng_stream& rng, int i) {
  trace::measurement_record r;
  r.time_s = 1000.0 + 3600.0 * rng.uniform();
  r.network = rng.chance(0.5) ? "NetB" : (rng.chance(0.5) ? "NetC" : "NetA");
  r.pos = {43.0 + rng.uniform(), -89.5 + rng.uniform()};
  r.speed_mps = 40.0 * rng.uniform();
  r.device = rng.chance(0.5) ? "laptop" : "phone";
  r.client_id = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)) *
                    (rng.chance(0.2) ? 1u << 20 : 1u) +
                static_cast<std::uint64_t>(i);
  r.kind = static_cast<trace::probe_kind>(rng.uniform_int(0, 3));
  r.success = rng.chance(0.9);
  r.throughput_bps = 1e6 * rng.uniform();
  r.loss_rate = rng.uniform();
  r.jitter_s = 0.01 * rng.uniform();
  r.rtt_s = 0.2 * rng.uniform();
  r.ping_sent = static_cast<int>(rng.uniform_int(0, 10));
  r.ping_failures = static_cast<int>(rng.uniform_int(0, 5));
  r.rssi_dbm = -60.0 - 40.0 * rng.uniform();
  return r;
}

// ---- golden-vector / property equivalence ---------------------------------

TEST(WireParseEquivalence, CsvRoundTripMatchesLegacyOnRandomRecords) {
  stats::rng_stream rng(77);
  for (int i = 0; i < 500; ++i) {
    const trace::measurement_record rec = random_record(rng, i);
    const std::string line = trace::to_csv(rec);
    EXPECT_EQ(line, legacy::to_csv(rec)) << "encoder drifted from seed bytes";
    expect_same_record(trace::from_csv(line), legacy::from_csv(line));
  }
}

TEST(WireParseEquivalence, CheckinMatchesLegacyOnRandomRequests) {
  stats::rng_stream rng(78);
  for (int i = 0; i < 300; ++i) {
    proto::checkin_request m;
    m.client_id = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    m.pos = {43.0 + rng.uniform(), -89.5 + rng.uniform()};
    m.time_s = 1e5 * rng.uniform();
    m.network_index = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
    m.active_in_zone = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    m.device = rng.chance(0.5) ? "laptop" : "phone";
    const std::string line = proto::encode(m);
    EXPECT_EQ(line, legacy::encode(m));
    const auto ours = proto::decode_checkin(line);
    const auto ref = legacy::decode_checkin(line);
    EXPECT_EQ(ours.client_id, ref.client_id);
    EXPECT_EQ(ours.pos.lat_deg, ref.pos.lat_deg);
    EXPECT_EQ(ours.pos.lon_deg, ref.pos.lon_deg);
    EXPECT_EQ(ours.time_s, ref.time_s);
    EXPECT_EQ(ours.network_index, ref.network_index);
    EXPECT_EQ(ours.active_in_zone, ref.active_in_zone);
    EXPECT_EQ(ours.device, ref.device);
  }
}

TEST(WireParseEquivalence, TaskMatchesLegacyOnRandomAssignments) {
  stats::rng_stream rng(79);
  for (int i = 0; i < 300; ++i) {
    proto::task_assignment m;
    m.kind = static_cast<trace::probe_kind>(rng.uniform_int(0, 3));
    m.network_index = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
    m.tcp_bytes = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    m.udp_packets = static_cast<std::uint32_t>(rng.uniform_int(0, 500));
    m.ping_count = static_cast<std::uint32_t>(rng.uniform_int(0, 50));
    const std::string line = proto::encode(m);
    EXPECT_EQ(line, legacy::encode(m));
    const auto ours = proto::decode_task(line);
    const auto ref = legacy::decode_task(line);
    EXPECT_EQ(ours.kind, ref.kind);
    EXPECT_EQ(ours.network_index, ref.network_index);
    EXPECT_EQ(ours.tcp_bytes, ref.tcp_bytes);
    EXPECT_EQ(ours.udp_packets, ref.udp_packets);
    EXPECT_EQ(ours.ping_count, ref.ping_count);
  }
}

TEST(WireParseEquivalence, GoldenVectorsDecodeLikeLegacy) {
  // Handwritten lines the old parser accepted: reordered fields, unknown
  // extra keys, extra whitespace between tokens.
  const std::vector<std::string> golden = {
      "CHECKIN client=42 lat=43.073000 lon=-89.401000 t=1234.567 net=2 "
      "active=7 device=phone",
      "CHECKIN device=laptop active=1 net=0 t=0.000 lon=0.000000 "
      "lat=0.000000 client=0",
      "CHECKIN client=1 lat=1.5 lon=-2.5 t=9.25 net=1 active=3 "
      "device=tablet future_key=ignored",
      "CHECKIN  client=7   lat=0.125 lon=0.25\tt=8 net=0 active=2 device=x",
  };
  for (const auto& line : golden) {
    const auto ours = proto::decode_checkin(line);
    const auto ref = legacy::decode_checkin(line);
    EXPECT_EQ(ours.client_id, ref.client_id) << line;
    EXPECT_EQ(ours.pos.lat_deg, ref.pos.lat_deg) << line;
    EXPECT_EQ(ours.pos.lon_deg, ref.pos.lon_deg) << line;
    EXPECT_EQ(ours.time_s, ref.time_s) << line;
    EXPECT_EQ(ours.network_index, ref.network_index) << line;
    EXPECT_EQ(ours.active_in_zone, ref.active_in_zone) << line;
    EXPECT_EQ(ours.device, ref.device) << line;
  }
}

// ---- malformed-line corpus ------------------------------------------------

TEST(WireParseMalformed, CheckinCorpusThrowsNeverCrashes) {
  const std::vector<std::string> corpus = {
      "",                                                    // empty line
      "CHECKIN",                                             // no fields
      "TASK kind=udp",                                       // wrong type
      "CHECKIN client=1",                                    // missing fields
      "CHECKIN client= lat=1 lon=1 t=1 net=0 active=1 device=a",  // empty val
      "CHECKIN k= lat=1 lon=1 t=1 net=0 active=1 device=a client=1",
      "CHECKIN =v client=1 lat=1 lon=1 t=1 net=0 active=1 device=a",
      "CHECKIN client=1 client=2 lat=1 lon=1 t=1 net=0 active=1 device=a",
      "CHECKIN client=1 lat=1 lat=1 lon=1 t=1 net=0 active=1 device=a",
      "CHECKIN client=x lat=1 lon=1 t=1 net=0 active=1 device=a",
      "CHECKIN client=1 lat=\xff\xfe lon=1 t=1 net=0 active=1 device=a",
      "CHECKIN client=1 lat=1e999 lon=1 t=1 net=0 active=1 device=a",
      "CHECKIN client=99999999999999999999999999 lat=1 lon=1 t=1 net=0 "
      "active=1 device=a",
      "CHECKIN client=1 lat=1.5x lon=1 t=1 net=0 active=1 device=a",
      "CHECKIN client=-1 lat=1 lon=1 t=1 net=0 active=1 device=a",
      "CHECKIN noequals client=1 lat=1 lon=1 t=1 net=0 active=1 device=a",
      "\x01\x02\x03\xff",
  };
  for (const auto& line : corpus) {
    EXPECT_THROW(proto::decode_checkin(line), std::invalid_argument) << line;
  }
}

TEST(WireParseMalformed, CsvCorpusThrowsNeverCrashes) {
  const std::string valid = trace::to_csv(
      testing::make_record(1.0, "NetB", {43.0, -89.4},
                           trace::probe_kind::udp_burst, 1e6));
  ASSERT_NO_THROW(trace::from_csv(valid));
  const std::vector<std::string> corpus = {
      "",                    // 1 empty field
      ",,,,,,,,,,,,,,,",     // 16 empty fields
      valid + ",extra",      // 17 fields
      valid.substr(0, valid.rfind(',')),  // 15 fields
      "x" + valid,           // bad time_s
      "1.0,NetB,43,-89,0,warp,1,1,0,0,0,0,0,-70,laptop,1",    // bad kind
      "1.0,NetB,43,-89,0,udp,yes,1,0,0,0,0,0,-70,laptop,1",   // bad success
      "1.0,NetB,43,-89,0,udp,1,1,0,0,0,0.5,0,-70,laptop,1",   // frac ping_sent
      "1.0,NetB,43,-89,0,udp,1,1,0,0,0,0,0,-70,laptop,1e9",   // exp client_id
      "1.0,NetB,43,-89,0,udp,1,1,0,0,0,0,0,-70,laptop,-3",    // neg client_id
      "1.0,NetB,43,-89,0,udp,1,1e999,0,0,0,0,0,-70,laptop,1",  // overflow
      "1.0,NetB,43,-89,0,udp,1,1,0,0,0,0,0,-70,laptop,"
      "99999999999999999999999999",                            // u64 overflow
      "1.0,NetB,\xff\xfe,-89,0,udp,1,1,0,0,0,0,0,-70,laptop,1",
  };
  for (const auto& line : corpus) {
    EXPECT_THROW(trace::from_csv(line), std::invalid_argument) << line;
  }
}

TEST(WireParseMalformed, ReportAndBatchCorpusThrows) {
  const std::string csv = trace::to_csv(
      testing::make_record(1.0, "NetB", {43.0, -89.4},
                           trace::probe_kind::udp_burst, 1e6));
  const std::vector<std::string> corpus = {
      "REPORT client=1",                     // missing csv
      "REPORT client=abc csv=" + csv,        // bad id
      "REPORT client=1abc csv=" + csv,       // trailing junk in id (the old
                                             // stoull silently read "1")
      "REPORT client= csv=" + csv,           // empty id
      "REPORT client=-1 csv=" + csv,         // negative id
      "REPORTB",                             // no count
      "REPORTB x",                           // bad count
      "REPORTB 2\n" + csv,                   // count > payload
      "REPORTB 1\n" + csv + "\n" + csv,      // count < payload
      "REPORTB 1\nnot,a,record",             // bad payload
      "REPORTB 99999999999\n" + csv,         // count over max_report_batch
      "REPORTB 1 junk\n" + csv,              // trailing header tokens
  };
  for (const auto& line : corpus) {
    EXPECT_THROW(proto::decode_report(line), std::invalid_argument);
  }
  for (const auto& line : corpus) {
    if (line.rfind("REPORTB", 0) == 0) {
      EXPECT_THROW(proto::decode_report_batch(line), std::invalid_argument)
          << line;
    }
  }
}

// ---- satellite regressions ------------------------------------------------

TEST(WireParseRegression, ClientIdsAbove2To53SurviveExactly) {
  // The seed parser routed u64s through a double: (1<<53)+1 came back as
  // 1<<53. The new from_chars path must be exact end to end.
  const std::uint64_t id = (1ull << 53) + 1;
  ASSERT_NE(static_cast<std::uint64_t>(static_cast<double>(id)), id)
      << "test premise: this id is not representable as a double";

  trace::measurement_record rec = testing::make_record(
      5.0, "NetB", {43.0, -89.4}, trace::probe_kind::ping, 0.1);
  rec.client_id = id;
  EXPECT_EQ(trace::from_csv(trace::to_csv(rec)).client_id, id);

  proto::measurement_report rep;
  rep.client_id = id;
  rep.record = rec;
  const auto back = proto::decode_report(proto::encode(rep));
  EXPECT_EQ(back.client_id, id);
  EXPECT_EQ(back.record.client_id, id);

  proto::checkin_request req;
  req.client_id = id;
  req.pos = {43.0, -89.4};
  EXPECT_EQ(proto::decode_checkin(proto::encode(req)).client_id, id);

  proto::task_assignment task;
  task.tcp_bytes = id;
  EXPECT_EQ(proto::decode_task(proto::encode(task)).tcp_bytes, id);
}

TEST(WireParseRegression, LongDeviceStringNeverTruncated) {
  // The seed encoder snprintf'd into a fixed stack buffer and returned the
  // silently-truncated result. encode/to_csv must grow instead.
  const std::string device(300, 'd');
  trace::measurement_record rec = testing::make_record(
      7.0, "NetB", {43.0, -89.4}, trace::probe_kind::udp_burst, 2e6);
  rec.device = device;
  rec.client_id = 12345;
  const std::string line = trace::to_csv(rec);
  EXPECT_GT(line.size(), 320u) << "must exceed the old 320-byte buffer";
  const auto back = trace::from_csv(line);
  EXPECT_EQ(back.device, device);
  EXPECT_EQ(back.client_id, 12345u) << "fields after device must survive";

  proto::checkin_request req;
  req.client_id = 9;
  req.pos = {43.0, -89.4};
  req.device = device;
  const auto round = proto::decode_checkin(proto::encode(req));
  EXPECT_EQ(round.device, device);

  proto::measurement_report rep;
  rep.client_id = 9;
  rep.record = rec;
  EXPECT_EQ(proto::decode_report(proto::encode(rep)).record.device, device);
}

TEST(WireParseRegression, ErrorExcerptClipsLongInput) {
  const std::string huge(4 << 20, 'z');
  const std::string clipped = proto::error_excerpt(huge);
  EXPECT_LE(clipped.size(), 123u + 3u);
  EXPECT_EQ(clipped.substr(clipped.size() - 3), "...");
  EXPECT_EQ(proto::error_excerpt("short"), "short");

  // Decoder errors that echo the input stay bounded too.
  try {
    proto::decode_checkin("CHECKIN client=" + huge + " lat=1 lon=1 t=1 "
                          "net=0 active=1 device=a");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_LT(std::string(e.what()).size(), 300u);
  }
  try {
    trace::from_csv(huge);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_LT(std::string(e.what()).size(), 300u);
  }
}

// ---- REPORTB framing ------------------------------------------------------

TEST(WireParseBatch, ReportBatchRoundTrips) {
  stats::rng_stream rng(80);
  std::vector<trace::measurement_record> recs;
  for (int i = 0; i < 64; ++i) recs.push_back(random_record(rng, i));
  const std::string frame = proto::encode_report_batch(recs);
  EXPECT_EQ(proto::message_type(frame), "REPORTB");
  const auto back = proto::decode_report_batch(frame);
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    // Through the CSV schema the payload is quantized exactly like a single
    // REPORT, so one encode->decode round trip is idempotent.
    expect_same_record(back[i], trace::from_csv(trace::to_csv(recs[i])));
  }
}

TEST(WireParseBatch, EmptyBatchAndTrailingNewlineTolerated) {
  EXPECT_TRUE(proto::decode_report_batch("REPORTB 0").empty());
  const std::string csv = trace::to_csv(testing::make_record(
      1.0, "NetB", {43.0, -89.4}, trace::probe_kind::udp_burst, 1e6));
  // A transport that delivers the terminal newline still decodes.
  EXPECT_EQ(proto::decode_report_batch("REPORTB 1\n" + csv + "\n").size(), 1u);
}

// ---- the zero-allocation encode path (the reply path's building blocks) --

TEST(WireEncodeInto, Double17ParityWithPrintf) {
  // append_double17 renders via to_chars(general, 17), which the standard
  // specifies to match printf("%.17g") byte for byte. The whole reply
  // byte-identity guarantee leans on that parity, so pin it over a corpus
  // of awkward doubles rather than assume it.
  std::vector<double> corpus = {0.0,
                                -0.0,
                                1.0,
                                -1.0,
                                0.1,
                                1.0 / 3.0,
                                1e-308,
                                1e308,
                                5e-324,  // smallest denormal
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::epsilon(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                123456789.123456789,
                                2.5e6,
                                -1.5e-5};
  std::mt19937_64 rng(20260809u);
  while (corpus.size() < 2000) {
    double v;
    const std::uint64_t bits = rng();
    std::memcpy(&v, &bits, sizeof v);
    if (std::isnan(v)) continue;  // NaN spellings differ (nan vs -nan(...))
    corpus.push_back(v);
  }
  proto::reply_buffer out;
  for (const double v : corpus) {
    out.clear();
    out.append_double17(v);
    char want[64];
    std::snprintf(want, sizeof want, "%.17g", v);
    EXPECT_EQ(out.view(), std::string_view(want)) << v;
  }
}

TEST(WireEncodeInto, EncodeIntoMatchesEncode) {
  proto::task_assignment task;
  task.kind = trace::probe_kind::tcp_download;
  task.network_index = 3;
  task.tcp_bytes = 1u << 20;
  task.udp_packets = 50;
  task.ping_count = 10;

  proto::hello_reply hello;

  proto::estimate_reply est;
  est.zone = {12, -7};
  est.network = "NetB";
  est.metric = trace::metric::udp_throughput_bps;
  est.count = 41;
  est.mean = 2.5e6 / 3.0;
  est.stddev = 1.25e5;
  est.epoch_index = 9;
  est.staleness_s = 17.25;
  est.confidence = 0.84;

  proto::alerts_reply alerts;
  alerts.next_seq = 6;
  alerts.dropped = 1;
  proto::alert_event ev;
  ev.seq = 5;
  ev.zone = {-2, 4};
  ev.network = "NetA";
  ev.metric = trace::metric::loss_rate;
  ev.epoch_start_s = 300.0;
  ev.previous_mean = 0.01;
  ev.new_mean = 0.2;
  ev.previous_stddev = 0.005;
  alerts.alerts.push_back(ev);
  ev.seq = 6;
  alerts.alerts.push_back(ev);

  // Appended to a non-empty buffer: only the appended tail must match
  // (the _into forms append, never overwrite).
  proto::reply_buffer out;
  const auto appended = [&out](auto&& encode_one) {
    out.clear();
    out.append("prefix|");
    encode_one();
    return std::string(out.view().substr(7));
  };
  EXPECT_EQ(appended([&] { proto::encode_into(task, out); }),
            proto::encode(task));
  EXPECT_EQ(appended([&] { proto::encode_into(hello, out); }),
            proto::encode(hello));
  EXPECT_EQ(appended([&] { proto::encode_into(est, out); }),
            proto::encode(est));
  EXPECT_EQ(appended([&] { proto::encode_into(alerts, out); }),
            proto::encode(alerts));
}

TEST(WireEncodeInto, EncodeErrorIntoMatchesEncodeError) {
  using proto::err_code;
  const std::string long_detail(300, 'd');
  proto::reply_buffer out;
  for (const err_code code :
       {err_code::parse, err_code::unsupported, err_code::stopped,
        err_code::version, err_code::internal, err_code::overload}) {
    for (const std::string_view detail :
         {std::string_view("short detail"), std::string_view(long_detail),
          std::string_view("")}) {
      out.clear();
      proto::encode_error_into(code, detail, out);
      EXPECT_EQ(out.view(), proto::encode_error(code, detail));
    }
  }
}

TEST(WireParseBatch, DecodeBatchIntoMatchesAndReusesCapacity) {
  std::vector<trace::measurement_record> recs;
  for (int i = 0; i < 8; ++i) {
    recs.push_back(testing::make_record(10.0 + i, "NetB", {43.0, -89.4},
                                        trace::probe_kind::udp_burst, 1e6));
  }
  const std::string frame = proto::encode_report_batch(recs);
  const auto via_copy = proto::decode_report_batch(frame);

  std::vector<trace::measurement_record> into;
  proto::decode_report_batch_into(frame, into);
  ASSERT_EQ(into.size(), via_copy.size());
  const std::size_t warm_cap = into.capacity();
  // Second decode reuses the warmed vector: same contents, no regrowth.
  proto::decode_report_batch_into(frame, into);
  EXPECT_EQ(into.capacity(), warm_cap);
  ASSERT_EQ(into.size(), via_copy.size());
  for (std::size_t i = 0; i < into.size(); ++i) {
    expect_same_record(into[i], via_copy[i]);
  }

  // Same contract for the query flavour.
  std::vector<proto::query_request> qs(2);
  qs[0].pos = {43.0, -89.4};
  qs[0].network = "NetB";
  qs[0].metric = trace::metric::udp_throughput_bps;
  qs[0].time_s = 100.0;
  qs[1].pos = {43.1, -89.5};
  qs[1].network = "NetA";
  qs[1].metric = trace::metric::loss_rate;
  const std::string qframe = proto::encode_query_batch(qs);
  const auto q_copy = proto::decode_query_batch(qframe);
  std::vector<proto::query_request> q_into;
  proto::decode_query_batch_into(qframe, q_into);
  proto::decode_query_batch_into(qframe, q_into);
  ASSERT_EQ(q_into.size(), q_copy.size());
  for (std::size_t i = 0; i < q_into.size(); ++i) {
    EXPECT_EQ(q_into[i].network, q_copy[i].network);
    EXPECT_EQ(q_into[i].metric, q_copy[i].metric);
    EXPECT_EQ(q_into[i].time_s, q_copy[i].time_s);
  }
}

TEST(WireParseBatch, CrlfFramesToleratedAtDecoderLevel) {
  // CRLF tolerance moved from the transport (scratch rebuild) into the
  // decoders: a frame whose every line ends "\r\n" decodes identically.
  std::vector<trace::measurement_record> recs;
  recs.push_back(testing::make_record(10.0, "NetB", {43.0, -89.4},
                                      trace::probe_kind::udp_burst, 1e6));
  recs.push_back(testing::make_record(11.0, "NetB", {43.0, -89.4},
                                      trace::probe_kind::udp_burst, 2e6));
  const std::string frame = proto::encode_report_batch(recs);
  std::string crlf;
  for (const char c : frame) {
    if (c == '\n') crlf += "\r\n";
    else crlf += c;
  }
  crlf += "\r\n";
  const auto plain = proto::decode_report_batch(frame);
  const auto tolerant = proto::decode_report_batch(crlf);
  ASSERT_EQ(tolerant.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    expect_same_record(tolerant[i], plain[i]);
  }
}

TEST(WireParseBatch, MessageTypeTagsAreStable) {
  EXPECT_EQ(proto::message_type("REPORTB 3\nx,y"), "REPORTB");
  EXPECT_EQ(proto::message_type("REPORT client=1 csv=x"), "REPORT");
  EXPECT_EQ(proto::message_type("garbage line"), "");
  // The returned view aliases a static literal, not the (dead) input.
  std::string_view tag;
  {
    std::string temp = "CHECKIN client=1";
    tag = proto::message_type(temp);
  }
  EXPECT_EQ(tag, "CHECKIN");
}

}  // namespace
}  // namespace wiscape
