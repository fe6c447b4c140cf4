#include "store/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>

#include "util/fileio.hpp"
#include "util/log.hpp"

namespace sdns::store {

using util::Bytes;
using util::BytesView;

namespace {
constexpr char kMagic[8] = {'S', 'D', 'N', 'S', 'W', 'A', 'L', '1'};
constexpr std::size_t kRecordHeader = 4 + 8;  // u32 len + u64 checksum
/// Body-size sanity bound: an abcast payload is at most a few update
/// messages; anything past this is corruption, not data.
constexpr std::uint32_t kMaxBody = 1u << 26;
}  // namespace

Wal::Wal(std::string path, obs::Registry* metrics) : path_(std::move(path)) {
  c_appends_ = metrics ? &metrics->counter("store.wal_appends") : &obs::noop_counter();
  c_append_bytes_ =
      metrics ? &metrics->counter("store.wal_append_bytes") : &obs::noop_counter();
  c_syncs_ = metrics ? &metrics->counter("store.wal_syncs") : &obs::noop_counter();

  fd_ = util::retry_open(path_, O_RDWR | O_CREAT);
  const Bytes raw = util::read_entire_file(path_);

  if (raw.empty()) {
    util::write_all(fd_, kMagic, sizeof kMagic);
    util::fsync_fd(fd_);
    bytes_ = sizeof kMagic;
    return;
  }
  if (raw.size() < sizeof kMagic ||
      std::memcmp(raw.data(), kMagic, sizeof kMagic) != 0) {
    // Not our log: unusable as history. Reset rather than append after
    // garbage — the recovery ladder falls back to network transfer.
    SDNS_LOG_WARN("wal ", path_, ": bad magic, resetting (", raw.size(),
                  " bytes discarded)");
    torn_bytes_ = raw.size();
    util::truncate_fd(fd_, 0);
    util::write_all(fd_, kMagic, sizeof kMagic);
    util::fsync_fd(fd_);
    bytes_ = sizeof kMagic;
    return;
  }

  // Scan records; stop at the first torn or corrupt one.
  std::size_t pos = sizeof kMagic;
  while (pos + kRecordHeader <= raw.size()) {
    util::Reader hdr(BytesView(raw).subspan(pos, kRecordHeader));
    const std::uint32_t len = hdr.u32();
    const std::uint64_t sum = hdr.u64();
    if (len < 9 || len > kMaxBody) break;
    if (pos + kRecordHeader + len > raw.size()) break;  // torn body
    const BytesView body = BytesView(raw).subspan(pos + kRecordHeader, len);
    if (util::fnv1a(body) != sum) break;
    try {
      util::Reader r(body);
      WalRecord rec;
      rec.seq = r.u64();
      rec.mark = r.u8() != 0;
      rec.payload = r.raw_copy(r.remaining());
      recovered_.push_back(std::move(rec));
    } catch (const util::ParseError&) {
      break;
    }
    pos += kRecordHeader + len;
  }
  torn_bytes_ = raw.size() - pos;
  if (torn_bytes_ > 0) {
    SDNS_LOG_WARN("wal ", path_, ": truncating ", torn_bytes_,
                  " torn tail bytes after ", recovered_.size(), " intact records");
    util::truncate_fd(fd_, pos);
    util::fsync_fd(fd_);
  }
  bytes_ = pos;
  // Position the fd at the end for appends (O_APPEND is avoided so
  // truncate + write interleave predictably).
  if (::lseek(fd_, static_cast<off_t>(pos), SEEK_SET) < 0) {
    throw util::IoError("lseek " + path_);
  }
}

Wal::~Wal() { util::close_fd(fd_); }

void Wal::append(const WalRecord& rec) {
  util::Writer body;
  body.u64(rec.seq);
  body.u8(rec.mark ? 1 : 0);
  body.raw(rec.payload);
  const Bytes b = std::move(body).take();
  util::Writer frame(kRecordHeader + b.size());
  frame.u32(static_cast<std::uint32_t>(b.size()));
  frame.u64(util::fnv1a(b));
  frame.raw(b);
  const Bytes f = std::move(frame).take();
  util::write_all(fd_, f);
  bytes_ += f.size();
  dirty_ = true;
  c_appends_->inc();
  c_append_bytes_->inc(f.size());
}

bool Wal::sync() {
  if (!dirty_) return false;
  util::fdatasync_fd(fd_);
  dirty_ = false;
  c_syncs_->inc();
  return true;
}

void Wal::reset() {
  util::truncate_fd(fd_, sizeof kMagic);
  if (::lseek(fd_, static_cast<off_t>(sizeof kMagic), SEEK_SET) < 0) {
    throw util::IoError("lseek " + path_);
  }
  util::fsync_fd(fd_);
  bytes_ = sizeof kMagic;
  dirty_ = false;
}

}  // namespace sdns::store
