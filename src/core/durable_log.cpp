#include "core/durable_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
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

constexpr char kWalHeader[] = "WISCAPE-WAL v1";

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

}  // namespace

std::uint64_t wal_replay(
    std::istream& is,
    const std::function<void(std::uint64_t, const estimate_key&,
                             const epoch_estimate&)>& apply,
    wal_extent* extent) {
  // A final line the input cut before its newline is the classic torn
  // tail: the reader reports it as cut, and replay stops there. An empty
  // stream is an empty log; a damaged header leaves nothing to replay.
  epoch_codec::line_reader in(is);
  std::string_view line;
  const auto span_of = [&] { return line.size() + (in.cut() ? 0 : 1); };
  const bool any = in.next(line);
  bool torn = any && (in.cut() || line != kWalHeader);
  std::uint64_t valid = any && !torn ? span_of() : 0;
  std::uint64_t read = any ? span_of() : 0;
  std::uint64_t last_seq = 0;
  std::uint64_t seq = 0;
  estimate_key key;
  epoch_estimate est;
  while (!torn && in.next(line)) {
    read += span_of();
    if (line.empty()) {
      valid += 1;
      continue;
    }
    // Any record that is cut or fails its checksum (mid-record cut, bit
    // rot, a record the writer never finished) ends the valid prefix.
    if (in.cut() || !epoch_codec::parse_wal(line, seq, key, est)) {
      torn = true;
      break;
    }
    apply(seq, key, est);
    last_seq = seq;
    valid += line.size() + 1;
    metrics().replayed.inc();
  }
  if (torn) metrics().truncated.inc();
  if (extent != nullptr) {
    // Whatever follows the damage tells a torn tail from damage inside
    // the file.
    const std::uint64_t stop = read;
    while (in.next(line)) read += span_of();
    *extent = {valid, read, read - stop};
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
  if (have_snap) load_state(snap, state);
  if (!have_wal) return 0;
  wal_extent ext;
  const std::uint64_t last = wal_replay(
      wal,
      [&](std::uint64_t, const estimate_key& key, const epoch_estimate& est) {
        state.restore_estimate(key, est);
      },
      &ext);
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
    const std::string header = std::string(kWalHeader) + "\n";
    if (!write_whole(fd, header)) {
      // Leave the file empty, not a partial header, for the next open.
      [[maybe_unused]] const int cut = ::ftruncate(fd, 0);
      ::close(fd);
      throw std::runtime_error("WAL header write failed: " + wal_path_);
    }
    wal_size_ = static_cast<std::int64_t>(header.size());
  }
  wal_fd_ = fd;
}

void durable_log::append(std::uint64_t seq, const estimate_key& key,
                         const epoch_estimate& est) {
  std::lock_guard lock(mu_);
  if (fault::fire(fault::site::wal_append) == fault::action::fail) {
    metrics().append_failures.inc();
    throw std::runtime_error("injected fault: WAL append refused");
  }
  if (wal_fd_ < 0) open_wal(0);
  line_.clear();
  epoch_codec::put_wal(line_, seq, key, est);
  if (!write_whole(wal_fd_, line_)) {
    // A short write (a full disk) can leave part of the record behind.
    // Cut it off, or the next record would land glued to it and replay
    // would stop at the merged line, dropping every later append. Should
    // the cut fail too, replay stops at the partial record, as after a
    // crash mid-write.
    [[maybe_unused]] const int cut = ::ftruncate(wal_fd_, wal_size_);
    metrics().append_failures.inc();
    throw std::runtime_error("WAL append failed: " + wal_path_);
  }
  wal_size_ += static_cast<std::int64_t>(line_.size());
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
