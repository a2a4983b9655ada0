// Crash-consistency tests for the WAL/snapshot pair.
//
// The torn-write corpus is the core: a WAL stream cut at EVERY byte
// offset -- mid-header, mid-length, mid-record, mid-checksum, and at each
// record boundary -- must recover to exactly the last complete record,
// count core.persist.wal_truncated once per damaged tail, and never crash.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/durable_log.h"
#include "core/epoch_codec.h"
#include "core/fault_injection.h"
#include "core/sharded_coordinator.h"
#include "geo/projection.h"
#include "geo/zone_grid.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "proto/wire_v3.h"
#include "repl/epoch_log.h"
#include "scenario/injector.h"
#include "test_util.h"

namespace wiscape {
namespace {

using wal_record = core::epoch_update;

const std::string kHeader = "WISCAPE-WAL v2\n";

std::vector<wal_record> corpus_records() {
  std::vector<wal_record> recs;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    wal_record r;
    r.seq = i;
    r.key = {{static_cast<int>(i % 3), -1}, "NetB",
             trace::metric::udp_throughput_bps};
    r.est.epoch_start_s = 300.0 * static_cast<double>(i) + 0.125;
    r.est.mean = 1.0e6 / 3.0 + static_cast<double>(i);
    r.est.stddev = 7.0 / 9.0;
    r.est.samples = 11 * i;
    r.alert_seq = i % 2 == 0 ? 100 + i : 0;
    recs.push_back(std::move(r));
  }
  return recs;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream text;
  text << is.rdbuf();
  return text.str();
}

void append(core::durable_log& dl, const wal_record& r) {
  dl.append(r.seq, r.key, r.est, r.alert_seq);
}

/// The bytes of `r` as the one element of an EPOCHB frame.
std::string epochb_element(const wal_record& r) {
  const std::string frame = testing::frame_of(
      proto::v3::encode_epoch_batch_frame, std::span<const wal_record>(&r, 1));
  return frame.substr(proto::v3::frame_header_bytes + 4);  // after the count
}

std::string le_bytes(std::uint64_t v, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += static_cast<char>((v >> (8 * i)) & 0xff);
  return out;
}

/// One framed WAL record: u32 length, the EPOCHB element, u64 checksum of
/// the two.
std::string ref_frame(const wal_record& r) {
  const std::string element = epochb_element(r);
  const std::string body = le_bytes(element.size(), 4) + element;
  return body + le_bytes(core::epoch_codec::checksum(body), 8);
}

// Writes the corpus through a durable_log -- the one WAL writer -- and
// returns the file's bytes and the byte offset at which each record
// completes.
std::string render_corpus(const std::vector<wal_record>& recs,
                          std::vector<std::size_t>& ends) {
  static int runs = 0;
  const std::string dir =
      ::testing::TempDir() + "wal_corpus_" + std::to_string(++runs);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::size_t> sizes;
  std::string full;
  {
    core::durable_log dl(dir);
    for (const wal_record& r : recs) {
      append(dl, r);
      sizes.push_back(std::filesystem::file_size(dl.wal_path()));
    }
    full = read_file(dl.wal_path());
  }
  std::filesystem::remove_all(dir);
  ends.assign(1, kHeader.size());  // "zero records complete" boundary
  ends.insert(ends.end(), sizes.begin(), sizes.end());
  return full;
}

void expect_same_record(const wal_record& got, const wal_record& want) {
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(std::signbit(got.est.mean), std::signbit(want.est.mean));
  EXPECT_EQ(got.est.epoch_start_s, want.est.epoch_start_s);
  EXPECT_EQ(got.est.mean, want.est.mean);
  EXPECT_EQ(got.est.stddev, want.est.stddev);
  EXPECT_EQ(got.est.samples, want.est.samples);
  EXPECT_EQ(got.alert_seq, want.alert_seq);
}

obs::counter& truncated_counter() {
  return obs::registry::global().get_counter(obs::names::kPersistWalTruncated);
}

TEST(Wal, TornTailCorpusRecoversToLastCompleteRecord) {
  const std::vector<wal_record> recs = corpus_records();
  std::vector<std::size_t> ends;
  const std::string full = render_corpus(recs, ends);

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    // Number of complete records wholly inside the prefix.
    std::size_t complete = 0;
    while (complete + 1 < ends.size() && ends[complete + 1] <= cut) {
      ++complete;
    }
    // A clean cut lands exactly on a boundary (including the empty file
    // and the header); anything else is a torn tail.
    const bool clean =
        cut == 0 || (cut >= ends.front() &&
                     std::find(ends.begin(), ends.end(), cut) != ends.end());

    std::istringstream is(full.substr(0, cut));
    std::vector<wal_record> applied;
    const std::uint64_t before = truncated_counter().value();
    core::wal_extent ext{~0ull, ~0ull, ~0ull};
    const std::uint64_t last = core::wal_replay(
        is, [&](const wal_record& r) { applied.push_back(r); }, &ext);
    const std::uint64_t torn_delta = truncated_counter().value() - before;
    // The valid prefix ends at the last whole record (0 while the header
    // itself is incomplete); every cut is the stream's tail.
    EXPECT_EQ(ext.valid_bytes, cut < ends.front() ? 0u : ends[complete])
        << "cut at byte " << cut;
    EXPECT_EQ(ext.read_bytes, cut) << "cut at byte " << cut;
    EXPECT_EQ(ext.after_damage, 0u) << "cut at byte " << cut;

    ASSERT_EQ(applied.size(), complete) << "cut at byte " << cut;
    EXPECT_EQ(last, complete == 0 ? 0u : recs[complete - 1].seq)
        << "cut at byte " << cut;
    EXPECT_EQ(torn_delta, clean ? 0u : 1u) << "cut at byte " << cut;
    // Replayed records are bit-exact, never partially decoded.
    for (std::size_t i = 0; i < applied.size(); ++i) {
      expect_same_record(applied[i], recs[i]);
    }
  }
}

TEST(Wal, BitRotInsideAValidLengthRecordIsCaughtByTheChecksum) {
  const std::vector<wal_record> recs = corpus_records();
  std::vector<std::size_t> ends;
  std::string full = render_corpus(recs, ends);
  // Flip one bit of the THIRD record's mean: same length, bad sum.
  full[ends[2] + 4 + 30] ^= 0x10;

  std::istringstream is(full);
  std::size_t applied = 0;
  const std::uint64_t before = truncated_counter().value();
  core::wal_extent ext;
  const std::uint64_t last = core::wal_replay(
      is, [&](const wal_record&) { ++applied; }, &ext);
  EXPECT_EQ(applied, 2u);  // stops before the rotten record
  EXPECT_EQ(last, 2u);
  EXPECT_EQ(truncated_counter().value() - before, 1u);
  // The damage is not the tail: the two whole records after it are read
  // and reported, not taken for part of a torn tail.
  EXPECT_EQ(ext.valid_bytes, ends[2]);
  EXPECT_EQ(ext.read_bytes, full.size());
  EXPECT_EQ(ext.after_damage, full.size() - ends[3]);
}

// The corpus plus records whose fields are the doubles a decimal renderer
// would most likely get wrong.
std::vector<wal_record> awkward_records() {
  std::vector<wal_record> recs = corpus_records();
  const double inf = std::numeric_limits<double>::infinity();
  const double vals[] = {0.0,     -0.0,     inf,          -inf,
                         DBL_MAX, DBL_MIN,  DBL_TRUE_MIN, -DBL_TRUE_MIN,
                         1e21,    1e-7,     0.1,          123456789012345678.0};
  std::uint64_t seq = recs.size();
  for (const double v : vals) {
    wal_record r;
    r.seq = ++seq;
    r.key = {{-17, 2048}, "NetC", trace::metric::uplink_throughput_bps};
    r.est = {v, -v, v, static_cast<std::size_t>(seq) * 1000003u};
    r.alert_seq = seq * 7;
    recs.push_back(r);
  }
  return recs;
}

// The name dates from the text WAL, whose records were the snprintf
// rendering; a record is now a length, the EPOCHB element of the same
// update, and a checksum, and the test pins those bytes.
TEST(Wal, RecordBytesMatchTheSnprintfRenderingAndReplayBitExact) {
  const std::vector<wal_record> recs = awkward_records();
  std::string want = kHeader;
  for (const wal_record& r : recs) want += ref_frame(r);
  std::vector<std::size_t> ends;
  ASSERT_EQ(render_corpus(recs, ends), want);

  std::istringstream is(want);
  std::vector<wal_record> back;
  const std::uint64_t before = truncated_counter().value();
  core::wal_replay(is, [&](const wal_record& r) { back.push_back(r); });
  EXPECT_EQ(truncated_counter().value(), before);
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    expect_same_record(back[i], recs[i]);
  }
}

TEST(Wal, ChecksummedNanRecordEndsReplayLikeATornTail) {
  // Same rule as the snapshot loader (persist_test.cpp): a NaN field is
  // malformed. The writer encodes it with a valid checksum; replay applies
  // the records before it and stops there.
  std::vector<wal_record> recs = corpus_records();
  recs[2].est.mean = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::size_t> ends;
  const std::string full = render_corpus(recs, ends);
  ASSERT_EQ(full.size(), ends.back());  // every record was written whole
  std::istringstream is(full);
  std::size_t applied = 0;
  const std::uint64_t before = truncated_counter().value();
  EXPECT_EQ(core::wal_replay(is, [&](const wal_record&) { ++applied; }), 2u);
  EXPECT_EQ(applied, 2u);
  EXPECT_EQ(truncated_counter().value() - before, 1u);
}

// ---- the on-disk pair ------------------------------------------------------

struct pair_fixture {
  std::string dir;
  geo::projection proj{geo::lat_lon{43.0, -89.4}};
  geo::zone_grid grid{proj, 250.0};

  pair_fixture() {
    dir = ::testing::TempDir() + "wal_pair_" +
          std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~pair_fixture() { std::filesystem::remove_all(dir); }

  core::sharded_coordinator make_coord() {
    return core::sharded_coordinator(grid, {"NetB"}, {}, 1);
  }
};

TEST(DurableLog, AppendCheckpointRecoverRoundTrip) {
  pair_fixture fx;
  core::durable_log dl(fx.dir);
  core::sharded_coordinator a = fx.make_coord();

  const std::vector<wal_record> recs = corpus_records();
  // First three epochs land in the coordinator AND the WAL...
  for (std::size_t i = 0; i < 3; ++i) {
    a.restore_estimate(recs[i].key, recs[i].est);
    append(dl, recs[i]);
  }
  // ...then a checkpoint folds them into the snapshot and resets the WAL...
  dl.checkpoint(a);
  // ...and two more ride the fresh WAL only.
  for (std::size_t i = 3; i < recs.size(); ++i) {
    a.restore_estimate(recs[i].key, recs[i].est);
    append(dl, recs[i]);
  }

  core::sharded_coordinator b = fx.make_coord();
  const std::uint64_t last = dl.recover(b);
  EXPECT_EQ(last, recs.back().seq);
  ASSERT_EQ(b.keys().size(), a.keys().size());
  for (const core::estimate_key& k : a.keys()) {
    const auto ah = a.history(k);
    const auto bh = b.history(k);
    ASSERT_EQ(ah.size(), bh.size());
    for (std::size_t i = 0; i < ah.size(); ++i) {
      EXPECT_EQ(ah[i].epoch_start_s, bh[i].epoch_start_s);
      EXPECT_EQ(ah[i].mean, bh[i].mean);
      EXPECT_EQ(ah[i].stddev, bh[i].stddev);
      EXPECT_EQ(ah[i].samples, bh[i].samples);
    }
  }
}

// Named, like the record-bytes test, for the text WAL; the file is now
// the header and the framed EPOCHB elements.
TEST(DurableLog, AppendedFileIsTheSnprintfRenderingAcrossACheckpoint) {
  pair_fixture fx;
  const std::vector<wal_record> recs = awkward_records();
  core::sharded_coordinator empty = fx.make_coord();
  {
    core::durable_log dl(fx.dir);
    for (std::size_t i = 0; i < 4; ++i) append(dl, recs[i]);
    dl.checkpoint(empty);
    // The held descriptor was reopened truncated: only the header is left,
    // and later appends land after it.
    EXPECT_EQ(read_file(dl.wal_path()), kHeader);
    for (std::size_t i = 4; i < recs.size(); ++i) append(dl, recs[i]);
  }
  // A second log over the same directory appends after the existing tail
  // without a second header.
  core::durable_log again(fx.dir);
  append(again, recs[0]);
  std::string want = kHeader;
  for (std::size_t i = 4; i < recs.size(); ++i) want += ref_frame(recs[i]);
  EXPECT_EQ(read_file(again.wal_path()), want + ref_frame(recs[0]));
}

TEST(DurableLog, InjectedAppendFaultLeavesTheTailIntact) {
  pair_fixture fx;
  core::durable_log dl(fx.dir);
  const std::vector<wal_record> recs = corpus_records();
  dl.append(recs[0].seq, recs[0].key, recs[0].est);
  const auto size_before = std::filesystem::file_size(dl.wal_path());

  scenario::injector inj(1);
  inj.add_rule({core::fault::site::wal_append, 0, 1, 1.0,
                core::fault::action::fail});
  scenario::arm_scope armed(inj);
  EXPECT_THROW(dl.append(recs[1].seq, recs[1].key, recs[1].est),
               std::runtime_error);
  // Full-disk model: nothing was written, the tail is the previous record.
  EXPECT_EQ(std::filesystem::file_size(dl.wal_path()), size_before);
  // The rule's budget is spent: the retry lands.
  dl.append(recs[1].seq, recs[1].key, recs[1].est);

  core::sharded_coordinator back = fx.make_coord();
  EXPECT_EQ(dl.recover(back), recs[1].seq);
}

TEST(DurableLog, InjectedFaultOnTheFirstAppendWritesNoHeaderEither) {
  pair_fixture fx;
  core::durable_log dl(fx.dir);
  const std::vector<wal_record> recs = corpus_records();
  scenario::injector inj(1);
  inj.add_rule({core::fault::site::wal_append, 0, 1, 1.0,
                core::fault::action::fail});
  scenario::arm_scope armed(inj);
  EXPECT_THROW(dl.append(recs[0].seq, recs[0].key, recs[0].est),
               std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(dl.wal_path()));
  dl.append(recs[0].seq, recs[0].key, recs[0].est);
  EXPECT_EQ(std::filesystem::file_size(dl.wal_path()),
            kHeader.size() + ref_frame(recs[0]).size());
}

TEST(DurableLog, ShortWriteIsCutOffSoTheNextAppendRecovers) {
  // A file-size limit makes the kernel accept only part of a record, the
  // way a full disk does. The failed append must not leave those bytes in
  // front of the next record.
  pair_fixture fx;
  core::durable_log dl(fx.dir);
  const std::vector<wal_record> recs = corpus_records();
  dl.append(recs[0].seq, recs[0].key, recs[0].est);
  const auto size_before = std::filesystem::file_size(dl.wal_path());

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = size_before + 10;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  EXPECT_THROW(dl.append(recs[1].seq, recs[1].key, recs[1].est),
               std::runtime_error);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_EQ(std::filesystem::file_size(dl.wal_path()), size_before);

  dl.append(recs[2].seq, recs[2].key, recs[2].est);
  std::vector<std::uint64_t> seqs;
  std::ifstream is(dl.wal_path());
  const std::uint64_t before = truncated_counter().value();
  core::wal_replay(is, [&](const wal_record& r) { seqs.push_back(r.seq); });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{recs[0].seq, recs[2].seq}));
  EXPECT_EQ(truncated_counter().value(), before);
}

TEST(DurableLog, RecoverCutsATornTailSoTheNextAppendSurvives) {
  pair_fixture fx;
  const std::vector<wal_record> recs = corpus_records();
  std::string wal_path;
  {
    core::durable_log dl(fx.dir);
    dl.append(recs[0].seq, recs[0].key, recs[0].est);
    dl.append(recs[1].seq, recs[1].key, recs[1].est);
    wal_path = dl.wal_path();
  }
  // A crash mid-write: the second record lost its last bytes.
  const std::string whole = read_file(wal_path);
  const std::size_t last_whole = whole.size() - ref_frame(recs[1]).size();
  std::filesystem::resize_file(wal_path, whole.size() - 7);

  {
    core::durable_log dl(fx.dir);
    core::sharded_coordinator a = fx.make_coord();
    const std::uint64_t before = truncated_counter().value();
    EXPECT_EQ(dl.recover(a), recs[0].seq);
    EXPECT_EQ(truncated_counter().value() - before, 1u);
    // The torn bytes are gone: the next record follows the last whole one.
    EXPECT_EQ(std::filesystem::file_size(wal_path), last_whole);
    dl.append(recs[2].seq, recs[2].key, recs[2].est);
  }

  core::sharded_coordinator b = fx.make_coord();
  const std::uint64_t before = truncated_counter().value();
  EXPECT_EQ(core::durable_log(fx.dir).recover(b), recs[2].seq);
  EXPECT_EQ(truncated_counter().value(), before);
  EXPECT_EQ(b.latest(recs[0].key).has_value(), true);
  const auto got = b.latest(recs[2].key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->mean, recs[2].est.mean);
  EXPECT_EQ(read_file(wal_path), whole.substr(0, last_whole) +
                                     ref_frame(recs[2]));
}

TEST(DurableLog, RecoverCutsATornHeaderSoTheNextAppendRewritesIt) {
  pair_fixture fx;
  const std::vector<wal_record> recs = corpus_records();
  const std::string wal_path = core::durable_log(fx.dir).wal_path();
  {
    std::ofstream os(wal_path, std::ios::binary);
    os << "WISCAPE-W";  // a crash while the header was being written
  }
  core::durable_log dl(fx.dir);
  core::sharded_coordinator a = fx.make_coord();
  EXPECT_EQ(dl.recover(a), 0u);
  EXPECT_EQ(std::filesystem::file_size(wal_path), 0u);
  dl.append(recs[0].seq, recs[0].key, recs[0].est);

  core::sharded_coordinator b = fx.make_coord();
  EXPECT_EQ(core::durable_log(fx.dir).recover(b), recs[0].seq);
  EXPECT_EQ(read_file(wal_path), kHeader + ref_frame(recs[0]));
}

TEST(DurableLog, RecoverRefusesToCutWholeRecordsAfterMidFileDamage) {
  // Bit rot in the second record, with three whole records after it: in
  // its body (same length, bad checksum), and in its length, which then
  // claims the record runs past the end of the file.
  for (const std::size_t offset : {std::size_t{4 + 30}, std::size_t{1}}) {
    pair_fixture fx;
    const std::vector<wal_record> recs = corpus_records();
    std::string wal_path;
    {
      core::durable_log dl(fx.dir);
      for (const wal_record& r : recs) append(dl, r);
      wal_path = dl.wal_path();
    }
    std::string bytes = read_file(wal_path);
    const std::size_t at = bytes.find(ref_frame(recs[1])) + offset;
    bytes[at] ^= 0x10;
    {
      std::ofstream os(wal_path, std::ios::binary | std::ios::trunc);
      os << bytes;
    }

    core::durable_log dl(fx.dir);
    core::sharded_coordinator a = fx.make_coord();
    EXPECT_THROW(dl.recover(a), std::runtime_error) << offset;
    // Nothing was cut: every record after the damage is still on disk.
    EXPECT_EQ(read_file(wal_path), bytes);
    for (std::size_t i = 2; i < recs.size(); ++i) {
      EXPECT_NE(bytes.find(ref_frame(recs[i])), std::string::npos) << i;
    }
  }
}

TEST(DurableLog, TornCheckpointPreservesSnapshotAndWal) {
  pair_fixture fx;
  core::durable_log dl(fx.dir);
  core::sharded_coordinator a = fx.make_coord();
  const std::vector<wal_record> recs = corpus_records();
  for (std::size_t i = 0; i < 2; ++i) {
    a.restore_estimate(recs[i].key, recs[i].est);
    append(dl, recs[i]);
  }
  dl.checkpoint(a);  // a good snapshot to protect
  a.restore_estimate(recs[2].key, recs[2].est);
  dl.append(recs[2].seq, recs[2].key, recs[2].est);

  scenario::injector inj(1);
  inj.add_rule({core::fault::site::snapshot_torn, 0, 1, 1.0,
                core::fault::action::fail});
  scenario::arm_scope armed(inj);
  EXPECT_THROW(dl.checkpoint(a), std::runtime_error);
  // The crash left a truncated temp file, never the real snapshot.
  EXPECT_TRUE(std::filesystem::exists(dl.snapshot_path() + ".tmp"));

  // Recovery = intact previous snapshot + the intact WAL suffix.
  core::sharded_coordinator b = fx.make_coord();
  EXPECT_EQ(dl.recover(b), recs[2].seq);
  const core::estimate_key& k = recs[0].key;
  EXPECT_EQ(b.history(k).size(), a.history(k).size());
}

TEST(DurableLog, RecoverRefusesASnapshotOrWalItCannotOpen) {
  // Only a missing file is an absent one. A snapshot or WAL that is there
  // but cannot be opened -- here a symlink loop, ELOOP even for root --
  // throws naming it, installs nothing and leaves both files as they were;
  // recovering past it would let the next checkpoint overwrite the state
  // it holds.
  for (const bool loop_the_snapshot : {true, false}) {
    pair_fixture fx;
    const std::vector<wal_record> recs = corpus_records();
    {
      core::durable_log dl(fx.dir);
      core::sharded_coordinator a = fx.make_coord();
      a.restore_estimate(recs[0].key, recs[0].est);
      dl.checkpoint(a);
      dl.append(recs[1].seq, recs[1].key, recs[1].est);
    }
    core::durable_log dl(fx.dir);
    const std::string& looped =
        loop_the_snapshot ? dl.snapshot_path() : dl.wal_path();
    const std::string& other =
        loop_the_snapshot ? dl.wal_path() : dl.snapshot_path();
    const std::string kept = read_file(other);
    std::filesystem::remove(looped);
    std::filesystem::create_symlink(looped, looped);

    core::sharded_coordinator b = fx.make_coord();
    try {
      dl.recover(b);
      ADD_FAILURE() << "recovered past an unopenable " << looped;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(looped), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(b.keys().empty());
    EXPECT_TRUE(std::filesystem::is_symlink(looped));
    EXPECT_EQ(read_file(other), kept);
  }
}

// ---- recovery installs each frozen epoch once -------------------------------

core::coordinator_config epochs_of_100s() {
  core::coordinator_config cfg;
  cfg.epochs.default_epoch_s = 100.0;
  return cfg;
}

TEST(DurableLog, RecoverClosesTheEpochTheSnapshotSawOpen) {
  pair_fixture fx;
  const auto recs = testing::reports_at(
      fx.proj.to_lat_lon(geo::xy{200.0, 100.0}),
      {10, 20, 30, 40, 50, 60, 70, 80, 110, 120, 130, 140, 200});
  const std::span<const trace::measurement_record> all(recs);
  // The uninterrupted run: epoch 0 with 8 samples, epoch 100 with 4.
  core::sharded_coordinator want =
      testing::sync_coordinator(fx.grid, {"NetB"}, epochs_of_100s(), 1);
  want.report_batch(all);
  const core::estimate_key k{fx.grid.zone_of(recs[0].pos), "NetB",
                             trace::metric::tcp_throughput_bps};
  ASSERT_EQ(want.history(k).size(), 2u);

  {
    // The leader checkpoints with epoch 0 open (4 samples), then epoch 0
    // freezes into the WAL, then it dies with epoch 100 open.
    core::durable_log dl(fx.dir);
    core::sharded_coordinator lead =
        testing::sync_coordinator(fx.grid, {"NetB"}, epochs_of_100s(), 1);
    repl::epoch_log tee(16, &dl);
    lead.set_epoch_tap(&tee);
    lead.report_batch(all.first(4));
    dl.checkpoint(lead);
    lead.report_batch(all.subspan(4, 5));
    lead.set_epoch_tap(nullptr);
  }
  core::durable_log dl(fx.dir);
  core::sharded_coordinator got =
      testing::sync_coordinator(fx.grid, {"NetB"}, epochs_of_100s(), 1);
  dl.recover(got);
  // Clients re-submit the reports ACKed since the checkpoint whose epoch
  // the recovered coordinator has not frozen, then carry on.
  got.report_batch(all.subspan(8));
  EXPECT_EQ(testing::estimate_state(got), testing::estimate_state(want));
}

TEST(DurableLog, CrashBetweenSnapshotRenameAndWalResetRecoversEachEpochOnce) {
  pair_fixture fx;
  core::durable_log dl(fx.dir);
  core::sharded_coordinator a =
      testing::sync_coordinator(fx.grid, {"NetB"}, epochs_of_100s(), 1);
  repl::epoch_log tee(16, &dl);
  a.set_epoch_tap(&tee);
  // Epochs 0, 100 and 200 freeze into the WAL; epoch 300 stays open.
  a.report_batch(testing::reports_at(
      fx.proj.to_lat_lon(geo::xy{200.0, 100.0}), {10, 110, 120, 210, 310}));
  a.set_epoch_tap(nullptr);
  const std::string before = testing::estimate_state(a);
  const std::string wal = read_file(dl.wal_path());
  dl.checkpoint(a);
  // The crash: the new snapshot was renamed into place, the WAL it covers
  // was never reset.
  std::ofstream(dl.wal_path(), std::ios::binary | std::ios::trunc) << wal;

  core::sharded_coordinator b =
      testing::sync_coordinator(fx.grid, {"NetB"}, epochs_of_100s(), 1);
  core::durable_log again(fx.dir);
  again.recover(b);
  EXPECT_EQ(testing::estimate_state(b), before);
}

TEST(DurableLog, RecoverRefusesAV1TextWalByItsVersion) {
  // The text WAL an older build wrote: recovery names its version before
  // loading anything, and leaves both files as they were.
  pair_fixture fx;
  const std::vector<wal_record> recs = corpus_records();
  core::durable_log dl(fx.dir);
  {
    core::sharded_coordinator a = fx.make_coord();
    a.restore_estimate(recs[0].key, recs[0].est);
    dl.checkpoint(a);
  }
  const std::string v1 =
      "WISCAPE-WAL v1\nW 1 1:-1 NetB udp 300.125 333334.33333333331 "
      "0.77777777777777779 11 C8f0e4b1d\n";
  std::ofstream(dl.wal_path(), std::ios::binary | std::ios::trunc) << v1;
  core::sharded_coordinator b = fx.make_coord();
  try {
    dl.recover(b);
    ADD_FAILURE() << "recovered from a v1 WAL";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 'v1'"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(b.keys().empty());
  EXPECT_EQ(read_file(dl.wal_path()), v1);
}

// ---- alert numbering across a kill -9 ---------------------------------------

/// Reports of one zone, one per 10 s over [t0, t0 + 100): `level` with a
/// 1% spread, so each epoch of 100 s has a spread the next can leave.
std::vector<trace::measurement_record> epoch_of(const pair_fixture& fx,
                                                double t0, double level) {
  std::vector<trace::measurement_record> out;
  for (int k = 0; k < 10; ++k) {
    out.push_back(testing::make_record(
        t0 + 10.0 * k + 1.0, "NetB", fx.proj.to_lat_lon(geo::xy{200.0, 100.0}),
        trace::probe_kind::tcp_download, level * (1.0 + 0.01 * (k % 3))));
  }
  return out;
}

TEST(DurableLog, AlertNumberingResumesAtTheLastAlertPushed) {
  // Epochs alternate between two levels far apart, so every freeze after
  // the first raises a change alert. The checkpoint holds alert 1; alerts
  // 2-4 freeze into the WAL only; then the process dies.
  pair_fixture fx;
  {
    core::durable_log dl(fx.dir);
    core::sharded_coordinator lead =
        testing::sync_coordinator(fx.grid, {"NetB"}, epochs_of_100s(), 1);
    repl::epoch_log tee(16, &dl);
    lead.set_epoch_tap(&tee);
    for (int e = 0; e <= 2; ++e) {
      lead.report_batch(epoch_of(fx, 100.0 * e, e % 2 == 0 ? 1.0e6 : 5.0e6));
    }
    ASSERT_EQ(lead.alert_seq(), 1u);
    dl.checkpoint(lead);
    for (int e = 3; e <= 5; ++e) {
      lead.report_batch(epoch_of(fx, 100.0 * e, e % 2 == 0 ? 1.0e6 : 5.0e6));
    }
    ASSERT_EQ(lead.alert_seq(), 4u);
    lead.set_epoch_tap(nullptr);
  }
  core::sharded_coordinator got =
      testing::sync_coordinator(fx.grid, {"NetB"}, epochs_of_100s(), 1);
  core::durable_log(fx.dir).recover(got);
  EXPECT_EQ(got.alert_seq(), 4u);
  // Epoch 500 was open at the kill; its reports come again, and epoch 600
  // freezes it: the next alert is 5, not a number a consumer has seen.
  got.report_batch(epoch_of(fx, 500.0, 5.0e6));
  got.report_batch(epoch_of(fx, 600.0, 1.0e6));
  const core::alert_drain d = got.alert_sink().drain_since(4);
  ASSERT_EQ(d.alerts.size(), 1u);
  EXPECT_EQ(d.alerts.front().seq, 5u);
  EXPECT_EQ(d.alerts.front().alert.epoch_start_s, 500.0);
}

}  // namespace
}  // namespace wiscape
