#include "core/durable_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <system_error>

#include "core/epoch_codec.h"
#include "core/fault_injection.h"
#include "core/persist.h"
#include "obs/names.h"
#include "obs/registry.h"

namespace wiscape::core {

namespace {

constexpr std::string_view kWalMagic = "WISCAPE-WAL ";
constexpr std::string_view kWalHeader = "WISCAPE-WAL v2\n";
/// A record's frame around its bytes: the u32 length before, the u64
/// checksum after.
constexpr std::size_t kLenBytes = 4;
constexpr std::size_t kSumBytes = 8;
/// The longest frame, and so the most a crash mid-append can leave torn.
constexpr std::size_t kMaxFrame =
    kLenBytes + epoch_codec::max_record_bytes + kSumBytes;

struct wal_metrics {
  obs::counter& appends;
  obs::counter& append_failures;
  obs::counter& truncated;
  obs::counter& replayed;
  obs::counter& snapshots;
  obs::counter& snapshot_failures;
};

wal_metrics& metrics() {
  auto& reg = obs::registry::global();
  static wal_metrics m{
      reg.get_counter(obs::names::kPersistWalAppends),
      reg.get_counter(obs::names::kPersistWalAppendFailures),
      reg.get_counter(obs::names::kPersistWalTruncated),
      reg.get_counter(obs::names::kPersistWalReplayed),
      reg.get_counter(obs::names::kPersistSnapshots),
      reg.get_counter(obs::names::kPersistSnapshotFailures)};
  return m;
}

/// One write(2) of all of `s`; false on an error or a short write.
bool write_whole(int fd, std::string_view s) {
  return ::write(fd, s.data(), s.size()) == static_cast<ssize_t>(s.size());
}

/// Opens `path` into `in`; false only when there is no such file. A file
/// that is there but cannot be opened (a symlink loop, a permission) is
/// not an absent one: recovering without it would let the next checkpoint
/// overwrite the state it holds, so that throws.
bool open_existing(const std::string& path, const char* what,
                   std::ifstream& in) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    if (err == ENOENT) return false;
    throw std::runtime_error(std::string("cannot open ") + what + ": " +
                             path + ": " +
                             std::generic_category().message(err));
  }
  ::close(fd);
  in.open(path, std::ios::binary);
  if (!in.is_open()) {
    throw std::runtime_error(std::string("cannot open ") + what + ": " +
                             path);
  }
  return true;
}

/// fsync(2)s `path` (a file, or with O_DIRECTORY a directory); false on
/// any failure.
bool sync_path(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | flags);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// The length of the whole frame `bytes` opens, its record decoded into
/// `u`; 0 when it opens none: cut short, a length no record can have, a
/// checksum that disagrees, or a record that does not decode whole or has
/// a NaN field (a NaN estimate carries nothing and cannot round-trip its
/// payload).
std::size_t whole_frame(std::string_view bytes, epoch_update& u) {
  if (bytes.size() < kLenBytes) return 0;
  const char* p = bytes.data();
  const std::uint32_t len = epoch_codec::load<std::uint32_t>(p);
  if (len < epoch_codec::min_record_bytes ||
      len > epoch_codec::max_record_bytes ||
      bytes.size() < kLenBytes + len + kSumBytes) {
    return 0;
  }
  const char* sum = p + len;
  if (epoch_codec::load<std::uint64_t>(sum) !=
      epoch_codec::checksum(bytes.substr(0, kLenBytes + len))) {
    return 0;
  }
  try {
    if (epoch_codec::get_record(bytes.substr(kLenBytes, len), u) != len) {
      return 0;
    }
  } catch (const std::invalid_argument&) {
    return 0;
  }
  if (std::isnan(u.est.epoch_start_s) || std::isnan(u.est.mean) ||
      std::isnan(u.est.stddev)) {
    return 0;
  }
  return kLenBytes + len + kSumBytes;
}

/// The damaged bytes at the front of `in`: up to the next whole frame, or
/// to the end of the stream when none follows within the longest frame a
/// crash could tear (capped there when more bytes follow). A crash tears
/// only the record being appended, so a damaged frame the span does not
/// take to the end -- a whole record after it, or more bytes than one
/// record -- is damage inside the file, even when its length (itself
/// damaged) claims it runs past the end.
std::size_t damage_span(epoch_codec::byte_source& in) {
  const std::string_view rest = in.peek(2 * kMaxFrame);
  const std::size_t reach = std::min(rest.size(), kMaxFrame);
  epoch_update u;
  for (std::size_t k = 1; k < reach; ++k) {
    if (whole_frame(rest.substr(k), u) != 0) return k;
  }
  return reach;
}

/// Throws when `wal` opens with the header line of another version (as
/// long as this one), naming it; leaves the stream at its start.
void refuse_other_version(std::ifstream& wal, const std::string& path) {
  std::string head(kWalHeader.size(), '\0');
  const auto got = wal.read(head.data(), std::ssize(head)).gcount();
  head.resize(static_cast<std::size_t>(got));
  wal.clear();
  wal.seekg(0);
  if (head.starts_with(kWalMagic) && head.ends_with('\n') &&
      head != kWalHeader) {
    const std::string version =
        head.substr(kWalMagic.size(), head.size() - kWalMagic.size() - 1);
    throw std::runtime_error("WAL version '" + version +
                             "' is not supported; this build reads v2: " +
                             path);
  }
}

}  // namespace

std::uint64_t wal_replay(std::istream& is,
                         const std::function<void(const epoch_update&)>& apply,
                         wal_extent* extent) {
  // An empty stream is an empty log; a damaged or cut header leaves
  // nothing to replay.
  epoch_codec::byte_source in(is, 2 * kMaxFrame);
  const std::string_view head = in.peek(kWalHeader.size());
  bool torn = !head.empty() && head != kWalHeader;
  std::uint64_t valid = 0;
  if (!torn) {
    in.take(head.size());
    valid = head.size();
  }
  std::uint64_t last_seq = 0;
  epoch_update u;
  while (!torn) {
    const std::string_view rest = in.peek(kMaxFrame);
    if (rest.empty()) break;
    const std::size_t frame = whole_frame(rest, u);
    torn = frame == 0;
    if (torn) break;
    apply(u);
    last_seq = u.seq;
    in.take(frame);
    valid += frame;
    metrics().replayed.inc();
  }
  if (torn) metrics().truncated.inc();
  if (extent != nullptr) {
    // Whatever follows the damage tells a torn tail from damage inside
    // the file.
    const std::uint64_t damaged = torn ? damage_span(in) : 0;
    const std::uint64_t read = valid + in.drain();
    *extent = {valid, read, read - (valid + damaged)};
  }
  return last_seq;
}

durable_log::durable_log(std::string dir)
    : dir_(std::move(dir)),
      snapshot_path_(dir_ + "/snapshot"),
      wal_path_(dir_ + "/wal") {}

durable_log::~durable_log() {
  if (wal_fd_ >= 0) ::close(wal_fd_);
}

std::uint64_t durable_log::recover(durable_state& state) {
  std::lock_guard walk(state_mu_);
  // Both files are opened before anything loads: an unreadable WAL must
  // not leave a half-recovered state behind either.
  std::ifstream snap;
  std::ifstream wal;
  const bool have_snap = open_existing(snapshot_path_, "snapshot", snap);
  const bool have_wal = open_existing(wal_path_, "WAL", wal);
  if (have_wal) refuse_other_version(wal, wal_path_);
  if (have_snap) load_state(snap, state);
  if (!have_wal) return 0;
  wal_extent ext;
  std::uint64_t alert_mark = 0;
  const std::uint64_t last = wal_replay(
      wal,
      [&](const epoch_update& u) {
        state.restore_estimate(u.key, u.est);
        alert_mark = std::max(alert_mark, u.alert_seq);
      },
      &ext);
  // Nothing has raised an alert since the snapshot's mark resumed the
  // ring, and the mark only moves forward.
  if (alert_mark > state.alert_seq()) state.resume_alert_seq(alert_mark);
  struct stat st {};
  if (::stat(wal_path_.c_str(), &st) != 0) {
    throw std::runtime_error("cannot stat WAL: " + wal_path_);
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  // A read error ends the stream early, like an end of file: the bytes
  // past it were never checked, so none of them may be cut.
  if (ext.read_bytes != size) {
    throw std::runtime_error("WAL read stopped at byte " +
                             std::to_string(ext.read_bytes) + " of " +
                             std::to_string(size) + ": " + wal_path_);
  }
  if (ext.after_damage != 0) {
    throw std::runtime_error("WAL damaged at byte " +
                             std::to_string(ext.valid_bytes) + " with " +
                             std::to_string(ext.after_damage) +
                             " bytes after it: " + wal_path_);
  }
  // Cut a torn tail off, or the next append would land glued to it and
  // the recovery after that would stop there, dropping every later record.
  if (ext.valid_bytes < size) {
    std::lock_guard lock(mu_);
    if (::truncate(wal_path_.c_str(), static_cast<off_t>(ext.valid_bytes)) !=
        0) {
      throw std::runtime_error("cannot cut torn WAL tail: " + wal_path_);
    }
    // A held descriptor reopens on the next append, which rewrites the
    // header if the cut left the file empty.
    if (wal_fd_ >= 0) ::close(wal_fd_);
    wal_fd_ = -1;
  }
  return last;
}

void durable_log::open_wal(int flags) {
  if (wal_fd_ >= 0) ::close(wal_fd_);
  wal_fd_ = -1;
  const int fd = ::open(wal_path_.c_str(),
                        O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC | flags, 0644);
  if (fd < 0) throw std::runtime_error("cannot open WAL: " + wal_path_);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot stat WAL: " + wal_path_);
  }
  wal_size_ = st.st_size;
  if (wal_size_ == 0) {
    if (!write_whole(fd, kWalHeader)) {
      // Leave the file empty, not a partial header, for the next open.
      [[maybe_unused]] const int cut = ::ftruncate(fd, 0);
      ::close(fd);
      throw std::runtime_error("WAL header write failed: " + wal_path_);
    }
    wal_size_ = static_cast<std::int64_t>(kWalHeader.size());
  }
  wal_fd_ = fd;
}

void durable_log::append(std::uint64_t seq, const estimate_key& key,
                         const epoch_estimate& est, std::uint64_t alert_seq) {
  std::lock_guard lock(mu_);
  if (fault::fire(fault::site::wal_append) == fault::action::fail) {
    metrics().append_failures.inc();
    throw std::runtime_error("injected fault: WAL append refused");
  }
  if (wal_fd_ < 0) open_wal(0);
  record_.assign(kLenBytes, '\0');
  epoch_codec::put_record(record_, seq, key, est, alert_seq);
  epoch_codec::store(record_.data(),
                     static_cast<std::uint32_t>(record_.size() - kLenBytes));
  char sum[kSumBytes];
  epoch_codec::store(sum, epoch_codec::checksum(record_));
  record_.append(sum, kSumBytes);
  if (!write_whole(wal_fd_, record_)) {
    // A short write (a full disk) can leave part of the record behind.
    // Cut it off, or the next record would land glued to it and replay
    // would stop at the merged bytes, dropping every later append. Should
    // the cut fail too, replay stops at the partial record, as after a
    // crash mid-write.
    [[maybe_unused]] const int cut = ::ftruncate(wal_fd_, wal_size_);
    metrics().append_failures.inc();
    throw std::runtime_error("WAL append failed: " + wal_path_);
  }
  wal_size_ += static_cast<std::int64_t>(record_.size());
  metrics().appends.inc();
}

void durable_log::checkpoint(const durable_state& state) {
  std::lock_guard walk(state_mu_);
  const std::string tmp = snapshot_path_ + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc | std::ios::binary);
    if (!os) throw std::runtime_error("cannot open snapshot: " + tmp);
    if (fault::fire(fault::site::snapshot_torn) == fault::action::fail) {
      // Model the crash mid-checkpoint: leave a truncated temp file (a
      // header with no body) and abort before the rename, so recovery
      // still sees the previous snapshot + the intact WAL.
      os << "WISCAPE-CO";
      os.flush();
      metrics().snapshot_failures.inc();
      throw std::runtime_error("injected fault: snapshot checkpoint torn");
    }
    save_state(os, state);
    os.close();
    if (!os) {
      metrics().snapshot_failures.inc();
      throw std::runtime_error("snapshot write failed: " + tmp);
    }
  }
  // The snapshot's bytes are on disk before the rename publishes them, and
  // the rename is before the WAL they cover is emptied: a power cut at any
  // point leaves the old pair or the new snapshot whole.
  if (!sync_path(tmp, 0)) {
    metrics().snapshot_failures.inc();
    throw std::runtime_error("snapshot fsync failed: " + tmp);
  }
  std::lock_guard lock(mu_);
  if (std::rename(tmp.c_str(), snapshot_path_.c_str()) != 0) {
    metrics().snapshot_failures.inc();
    throw std::runtime_error("snapshot rename failed: " + snapshot_path_);
  }
  if (!sync_path(dir_, O_DIRECTORY)) {
    // The rename may not survive a power cut, so the WAL keeps what it
    // covers; recovery installs records both files hold once.
    metrics().snapshot_failures.inc();
    throw std::runtime_error("snapshot directory fsync failed: " + dir_);
  }
  // The snapshot now covers everything; reset the WAL to just its header.
  try {
    open_wal(O_TRUNC);
  } catch (const std::runtime_error&) {
    // A WAL that cannot be reset leaves the checkpoint taken; the next
    // append reopens the file and reports it if it still fails.
  }
  metrics().snapshots.inc();
}

}  // namespace wiscape::core
