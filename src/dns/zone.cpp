#include "dns/zone.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace sdns::dns {

using util::Bytes;
using util::BytesView;
using util::ParseError;

Zone::Zone(Name origin) : origin_(std::move(origin)) {}

const RRset* Zone::find(const Name& name, RRType type) const {
  auto it = data_.find(name);
  if (it == data_.end()) return nullptr;
  auto jt = it->second.find(type);
  if (jt == it->second.end()) return nullptr;
  return &jt->second;
}

std::vector<RRset> Zone::rrsets_at(const Name& name) const {
  std::vector<RRset> out;
  auto it = data_.find(name);
  if (it == data_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [type, rrset] : it->second) out.push_back(rrset);
  return out;
}

bool Zone::name_exists(const Name& name) const { return data_.count(name) != 0; }

Name Zone::predecessor(const Name& name) const {
  if (data_.empty()) return origin_;
  auto it = data_.upper_bound(name);
  if (it == data_.begin()) return origin_;
  --it;
  return it->first;
}

void Zone::add_record(const ResourceRecord& rr) {
  record(rr.name);
  auto& rrset = data_[rr.name][rr.type];
  rrset.name = rr.name;
  rrset.type = rr.type;
  rrset.ttl = rr.ttl;
  if (std::find(rrset.rdatas.begin(), rrset.rdatas.end(), rr.rdata) ==
      rrset.rdatas.end()) {
    rrset.rdatas.push_back(rr.rdata);
  }
}

bool Zone::remove_rrset(const Name& name, RRType type) {
  record(name);
  auto it = data_.find(name);
  if (it == data_.end()) return false;
  const bool removed = it->second.erase(type) != 0;
  if (it->second.empty()) data_.erase(it);
  return removed;
}

bool Zone::remove_record(const Name& name, RRType type, BytesView rdata) {
  record(name);
  auto it = data_.find(name);
  if (it == data_.end()) return false;
  auto jt = it->second.find(type);
  if (jt == it->second.end()) return false;
  auto& rdatas = jt->second.rdatas;
  auto rt = std::find_if(rdatas.begin(), rdatas.end(), [&](const Bytes& b) {
    return BytesView(b).size() == rdata.size() &&
           std::equal(b.begin(), b.end(), rdata.begin());
  });
  if (rt == rdatas.end()) return false;
  rdatas.erase(rt);
  if (rdatas.empty()) it->second.erase(jt);
  if (it->second.empty()) data_.erase(it);
  return true;
}

bool Zone::remove_name(const Name& name) {
  record(name);
  return data_.erase(name) != 0;
}

std::optional<SoaRdata> Zone::soa() const {
  const RRset* rrset = find(origin_, RRType::kSOA);
  if (!rrset || rrset->rdatas.empty()) return std::nullopt;
  return SoaRdata::decode(rrset->rdatas.front());
}

void Zone::bump_serial() {
  record(origin_);
  auto it = data_.find(origin_);
  if (it == data_.end()) throw std::logic_error("zone has no SOA");
  auto jt = it->second.find(RRType::kSOA);
  if (jt == it->second.end() || jt->second.rdatas.empty()) {
    throw std::logic_error("zone has no SOA");
  }
  SoaRdata soa = SoaRdata::decode(jt->second.rdatas.front());
  ++soa.serial;
  jt->second.rdatas.front() = soa.encode();
}

std::vector<Name> Zone::names() const {
  std::vector<Name> out;
  out.reserve(data_.size());
  for (const auto& [name, types] : data_) out.push_back(name);
  return out;
}

void Zone::for_each_rrset(const std::function<void(const RRset&)>& fn) const {
  for (const auto& [name, types] : data_) {
    for (const auto& [type, rrset] : types) fn(rrset);
  }
}

std::size_t Zone::record_count() const {
  std::size_t n = 0;
  for (const auto& [name, types] : data_) {
    for (const auto& [type, rrset] : types) n += rrset.rdatas.size();
  }
  return n;
}

std::size_t Zone::rrset_count() const {
  std::size_t n = 0;
  for (const auto& [name, types] : data_) n += types.size();
  return n;
}

namespace {

/// Names holding only DNSSEC meta-records (NXT/SIG) are empty: they leave
/// the zone and the chain entirely.
bool only_meta(const Zone::TypeMap& types) {
  for (const auto& [type, rrset] : types) {
    if (type != RRType::kNXT && type != RRType::kSIG) return false;
  }
  return true;
}

}  // namespace

void Zone::record(const Name& name) {
  if (!capture_) return;
  const auto [slot, first] = capture_->try_emplace(name);
  if (!first) return;
  if (auto it = data_.find(name); it != data_.end()) slot->second = it->second;
}

std::uint32_t Zone::nxt_ttl() const {
  auto s = soa();
  return s ? s->minimum : 300u;
}

bool Zone::set_nxt(DataMap::iterator owner, std::uint32_t ttl) {
  TypeMap& types = owner->second;
  const auto next = std::next(owner);
  NxtRdata nxt;
  nxt.next = (next == data_.end() ? data_.begin() : next)->first;
  for (const auto& [type, rrset] : types) {
    if (static_cast<std::uint16_t>(type) <= 127 && type != RRType::kNXT) {
      nxt.types.push_back(type);
    }
  }
  nxt.types.push_back(RRType::kNXT);
  if (std::find(nxt.types.begin(), nxt.types.end(), RRType::kSIG) == nxt.types.end()) {
    nxt.types.push_back(RRType::kSIG);
  }
  std::sort(nxt.types.begin(), nxt.types.end());
  Bytes encoded = nxt.encode();
  auto jt = types.find(RRType::kNXT);
  if (jt != types.end() && jt->second.rdatas.size() == 1 &&
      jt->second.rdatas.front() == encoded) {
    return false;
  }
  record(owner->first);
  RRset rrset;
  rrset.name = owner->first;
  rrset.type = RRType::kNXT;
  rrset.ttl = ttl;
  rrset.rdatas = {std::move(encoded)};
  types[RRType::kNXT] = std::move(rrset);
  return true;
}

std::vector<Name> Zone::rebuild_nxt_chain() {
  for (auto it = data_.begin(); it != data_.end();) {
    if (only_meta(it->second)) {
      record(it->first);
      it = data_.erase(it);
    } else {
      ++it;
    }
  }
  std::vector<Name> changed;
  const std::uint32_t ttl = nxt_ttl();
  for (auto it = data_.begin(); it != data_.end(); ++it) {
    if (set_nxt(it, ttl)) changed.push_back(it->first);
  }
  return changed;
}

std::vector<Name> Zone::refresh_nxt_chain() {
  std::vector<Name> changed;
  if (!capture_) return changed;
  for (const auto& [name, before] : *capture_) {
    auto it = data_.find(name);
    if (it != data_.end() && only_meta(it->second)) data_.erase(it);
  }
  // An owner's NXT depends on its own types and on its successor, so only
  // touched owners and the names just before them can change. The apex has
  // no predecessor to repair: the last name's NXT always names the apex.
  std::vector<DataMap::iterator> owners;
  for (const auto& [name, before] : *capture_) {
    auto it = data_.lower_bound(name);
    if (it != data_.end() && !data_.key_comp()(name, it->first)) owners.push_back(it);
    if (it != data_.begin()) owners.push_back(std::prev(it));
  }
  std::sort(owners.begin(), owners.end(), [&](const auto& a, const auto& b) {
    return data_.key_comp()(a->first, b->first);
  });
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  const std::uint32_t ttl = nxt_ttl();
  for (const auto& it : owners) {
    if (set_nxt(it, ttl)) changed.push_back(it->first);
  }
  return changed;
}

void Zone::rollback(PreImages pre) {
  for (auto& [name, before] : pre) {
    if (before) {
      data_.insert_or_assign(name, std::move(*before));
    } else {
      data_.erase(name);
    }
  }
}

const RRset* Zone::find_committed(const Name& name, RRType type) const {
  if (capture_) {
    if (auto ct = capture_->find(name); ct != capture_->end()) {
      if (!ct->second) return nullptr;
      auto jt = ct->second->find(type);
      return jt == ct->second->end() ? nullptr : &jt->second;
    }
  }
  return find(name, type);
}

void Zone::for_each_committed_rrset(const std::function<void(const RRset&)>& fn) const {
  if (!capture_) return for_each_rrset(fn);
  const auto emit = [&](const TypeMap& types) {
    for (const auto& [type, rrset] : types) fn(rrset);
  };
  // Merge the live owners with the captured ones in canonical order; a
  // captured owner replaces the live one (or stands for one since erased).
  auto it = data_.begin();
  auto ct = capture_->begin();
  while (it != data_.end() || ct != capture_->end()) {
    if (ct == capture_->end() ||
        (it != data_.end() && data_.key_comp()(it->first, ct->first))) {
      emit(it->second);
      ++it;
      continue;
    }
    if (ct->second) emit(*ct->second);
    if (it != data_.end() && !data_.key_comp()(ct->first, it->first)) ++it;
    ++ct;
  }
}

const Name* Zone::cyclic_predecessor(const Name& name) const {
  if (data_.empty()) return nullptr;
  auto it = data_.lower_bound(name);
  return &(it == data_.begin() ? std::prev(data_.end()) : std::prev(it))->first;
}

const Name* Zone::cyclic_successor(const Name& name) const {
  if (data_.empty()) return nullptr;
  auto it = data_.upper_bound(name);
  return &(it == data_.end() ? data_.begin() : it)->first;
}

void Zone::remove_sigs(const Name& name, RRType covered) {
  record(name);
  auto it = data_.find(name);
  if (it == data_.end()) return;
  auto jt = it->second.find(RRType::kSIG);
  if (jt == it->second.end()) return;
  auto& rdatas = jt->second.rdatas;
  rdatas.erase(std::remove_if(rdatas.begin(), rdatas.end(),
                              [&](const Bytes& rd) {
                                try {
                                  return SigRdata::decode(rd).type_covered == covered;
                                } catch (const ParseError&) {
                                  // A SIG that does not even decode can never
                                  // verify, so dropping it is safe — but it is
                                  // never supposed to exist, so make the drop
                                  // visible instead of silent.
                                  ++malformed_sigs_dropped_;
                                  return true;
                                }
                              }),
               rdatas.end());
  if (rdatas.empty()) it->second.erase(jt);
  if (it->second.empty()) data_.erase(it);
}

std::vector<ResourceRecord> Zone::all_records() const {
  std::vector<ResourceRecord> out;
  for_each_rrset([&](const RRset& rrset) {
    for (auto& rr : rrset.to_records()) out.push_back(std::move(rr));
  });
  return out;
}

// ---------------------------------------------------------------------------
// Wire formats.
//
// v1 (legacy): origin wire name | u32 record count | records. Records are
// `ResourceRecord::to_wire` encodings in canonical order. Still read forever.
//
// v2 (SDNSZONE2): 9-byte magic "SDNSZONE2" | u8 header version (1) | origin
// wire name | u64 total record count | u32 chunk count | chunk index | chunk
// payloads. Each index entry is u32 record count, u64 byte offset (from the
// start of the payload region), u64 byte length; offsets are contiguous from
// 0 and chunks close on owner-name boundaries so each chunk is an
// independently parsable, canonically sorted run. Record encoding inside a
// chunk is identical to v1. The magic's first byte ('S' = 0x53 > 63) can
// never be a v1 leading label length, so the two formats are self-describing.
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint8_t kZone2Magic[9] = {'S', 'D', 'N', 'S', 'Z', 'O', 'N', 'E', '2'};
constexpr std::uint8_t kZone2HeaderVersion = 1;
constexpr std::size_t kZone2IndexEntryBytes = 4 + 8 + 8;

bool has_zone2_magic(BytesView data) {
  return data.size() >= sizeof kZone2Magic &&
         std::memcmp(data.data(), kZone2Magic, sizeof kZone2Magic) == 0;
}

void write_record(util::Writer& w, const RRset& rrset, const Bytes& rd) {
  rrset.name.to_wire(w);
  w.u16(static_cast<std::uint16_t>(rrset.type));
  w.u16(static_cast<std::uint16_t>(RRClass::kIN));
  w.u32(rrset.ttl);
  w.lp16(rd);
}

/// One record inspected in place: views into the input, no allocation.
struct RecordScan {
  BytesView owner_raw;  ///< length-prefixed labels + root byte
  std::size_t labels = 0;
  RRType type{};
  std::uint32_t ttl = 0;
  BytesView rdata;
};

RecordScan scan_record(util::Reader& r) {
  RecordScan s;
  const BytesView whole = r.whole();
  const std::size_t start = r.pos();
  std::size_t pos = start;
  for (;;) {
    if (pos >= whole.size()) throw ParseError("truncated wire name");
    const std::uint8_t len = whole[pos++];
    if (len == 0) break;
    if (len > 63) throw ParseError("label exceeds 63 octets");
    pos += len;
    ++s.labels;
  }
  if (pos > whole.size()) throw ParseError("truncated wire name");
  if (pos - start > 255) throw ParseError("name exceeds 255 octets");
  s.owner_raw = whole.subspan(start, pos - start);
  r.seek(pos);
  s.type = static_cast<RRType>(r.u16());
  (void)r.u16();  // class: stored zones are IN-only, matching add_record
  s.ttl = r.u32();
  s.rdata = r.raw(r.u16());
  return s;
}

Name name_from_scan(const RecordScan& s) {
  std::vector<std::string> labels;
  labels.reserve(s.labels);
  std::size_t p = 0;
  for (std::size_t i = 0; i < s.labels; ++i) {
    const std::uint8_t len = s.owner_raw[p++];
    labels.emplace_back(reinterpret_cast<const char*>(s.owner_raw.data() + p), len);
    p += len;
  }
  return Name::from_labels(std::move(labels));
}

ResourceRecord record_from_scan(const RecordScan& s, Name owner) {
  ResourceRecord rr;
  rr.name = std::move(owner);
  rr.type = s.type;
  rr.ttl = s.ttl;
  rr.rdata.assign(s.rdata.begin(), s.rdata.end());
  return rr;
}

/// Bulk loader for a canonically sorted run of records. The tail of the map
/// is the maximum key, so each in-order record costs one canonical_compare
/// (usually short-circuited by raw-byte equality with the previous owner)
/// plus an amortized-O(1) emplace_hint at the end — no O(log n) lookups.
///
/// `strict` (v2 chunks) rejects any deviation: out-of-order owners or types,
/// duplicate rdatas, owners spanning chunk boundaries. Non-strict (v1 input)
/// tolerates everything add_record tolerates; an out-of-order record is
/// handed back to the caller for the general-purpose path instead.
class RunLoader {
 public:
  RunLoader(Zone::DataMap& out, const Name& origin, bool strict)
      : out_(out), origin_(origin), strict_(strict), tail_(out.end()) {}

  /// Consume one record from `r`. `boundary` marks the first record of a
  /// follow-on v2 chunk: its owner must be strictly greater than the
  /// previous chunk's last owner (owners never span chunks, which is what
  /// keeps parallel parsing deterministic). Returns the decoded record
  /// instead of inserting when non-strict input is out of order.
  std::optional<ResourceRecord> add(util::Reader& r, bool boundary) {
    const RecordScan s = scan_record(r);
    if (tail_ != out_.end() && !boundary && s.owner_raw.size() == tail_raw_.size() &&
        std::equal(s.owner_raw.begin(), s.owner_raw.end(), tail_raw_.begin())) {
      // Same owner, same spelling as the previous record: no Name built.
      append(tail_->second, s, nullptr);
      return std::nullopt;
    }
    Name owner = name_from_scan(s);
    if (tail_ != out_.end()) {
      const int c = Name::canonical_compare(tail_->first, owner);
      if (c > 0 || (c == 0 && boundary)) {
        if (strict_) {
          throw ParseError(c > 0 ? "records out of canonical order in SDNSZONE2 zone"
                                 : "owner name spans a chunk boundary in SDNSZONE2 zone");
        }
        return record_from_scan(s, std::move(owner));
      }
      if (c == 0) {  // same owner, different spelling
        tail_raw_ = s.owner_raw;
        append(tail_->second, s, strict_ ? nullptr : &owner);
        return std::nullopt;
      }
    }
    if (!owner.is_subdomain_of(origin_)) {
      throw ParseError("record outside zone in snapshot");
    }
    tail_ = out_.emplace_hint(out_.end(), std::move(owner), Zone::TypeMap{});
    tail_raw_ = s.owner_raw;
    append(tail_->second, s, &tail_->first);
    return std::nullopt;
  }

 private:
  void append(Zone::TypeMap& tm, const RecordScan& s, const Name* owner) {
    Bytes rdata(s.rdata.begin(), s.rdata.end());
    if (strict_) {
      if (!tm.empty()) {
        const auto last = std::prev(tm.end());
        if (s.type < last->first) {
          throw ParseError("record types out of canonical order in SDNSZONE2 zone");
        }
        if (s.type == last->first) {
          RRset& rrset = last->second;
          if (std::find(rrset.rdatas.begin(), rrset.rdatas.end(), rdata) !=
              rrset.rdatas.end()) {
            throw ParseError("duplicate rdata in SDNSZONE2 zone");
          }
          rrset.ttl = s.ttl;
          rrset.rdatas.push_back(std::move(rdata));
          return;
        }
      }
      RRset& rrset = tm.emplace_hint(tm.end(), s.type, RRset{})->second;
      rrset.name = owner ? *owner : name_from_scan(s);
      rrset.type = s.type;
      rrset.ttl = s.ttl;
      rrset.rdatas.push_back(std::move(rdata));
      return;
    }
    // Non-strict: add_record semantics — duplicate rdatas collapse and the
    // newest record's TTL wins.
    const auto [it, inserted] = tm.try_emplace(s.type);
    RRset& rrset = it->second;
    if (inserted) {
      rrset.name = owner ? *owner : name_from_scan(s);
      rrset.type = s.type;
    } else if (owner) {
      rrset.name = *owner;  // add_record refreshes the stored spelling
    }
    rrset.ttl = s.ttl;
    if (std::find(rrset.rdatas.begin(), rrset.rdatas.end(), rdata) ==
        rrset.rdatas.end()) {
      rrset.rdatas.push_back(std::move(rdata));
    }
  }

  Zone::DataMap& out_;
  const Name& origin_;
  const bool strict_;
  Zone::DataMap::iterator tail_;
  BytesView tail_raw_{};
};

struct Zone2Chunk {
  std::uint32_t records = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

struct Zone2Header {
  Name origin;
  std::uint64_t total_records = 0;
  std::vector<Zone2Chunk> chunks;
  std::size_t payload_start = 0;
  std::uint64_t payload_bytes = 0;
};

Zone2Header parse_zone2_header(BytesView data) {
  util::Reader r(data);
  r.raw(sizeof kZone2Magic);  // caller verified the magic
  if (r.u8() != kZone2HeaderVersion) {
    throw ParseError("unsupported SDNSZONE2 header version");
  }
  Zone2Header h;
  h.origin = Name::from_wire(r);
  h.total_records = r.u64();
  const std::uint32_t nchunks = r.u32();
  // Size the index before reading it so a huge count in a truncated buffer
  // fails cleanly instead of allocating.
  if (static_cast<std::uint64_t>(nchunks) * kZone2IndexEntryBytes > r.remaining()) {
    throw ParseError("truncated SDNSZONE2 chunk index");
  }
  h.chunks.reserve(nchunks);
  std::uint64_t expect_off = 0;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < nchunks; ++i) {
    Zone2Chunk c;
    c.records = r.u32();
    c.offset = r.u64();
    c.bytes = r.u64();
    if (c.records == 0) throw ParseError("empty chunk in SDNSZONE2 index");
    if (c.offset != expect_off) throw ParseError("non-contiguous SDNSZONE2 chunk index");
    if (c.bytes > data.size()) throw ParseError("oversized chunk in SDNSZONE2 index");
    expect_off += c.bytes;
    if (expect_off > data.size()) throw ParseError("SDNSZONE2 chunk index exceeds input");
    total += c.records;
    h.chunks.push_back(c);
  }
  h.payload_start = r.pos();
  h.payload_bytes = r.remaining();
  if (expect_off != h.payload_bytes) throw ParseError("SDNSZONE2 payload size mismatch");
  if (total != h.total_records) throw ParseError("SDNSZONE2 record count mismatch");
  return h;
}

/// Parse chunks [first, last) into `out`. Runs on worker threads: reports
/// failure through `error` instead of throwing across the thread boundary.
void parse_zone2_chunks(BytesView data, const Zone2Header& h, const Name& origin,
                        std::size_t first, std::size_t last, Zone::DataMap& out,
                        std::string& error) noexcept {
  try {
    RunLoader loader(out, origin, /*strict=*/true);
    for (std::size_t c = first; c < last; ++c) {
      const Zone2Chunk& m = h.chunks[c];
      util::Reader r(data.subspan(h.payload_start + m.offset, m.bytes));
      for (std::uint32_t i = 0; i < m.records; ++i) {
        loader.add(r, /*boundary=*/i == 0 && c > first);
      }
      r.expect_done();  // a chunk must span exactly its declared bytes
    }
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown error parsing SDNSZONE2 chunk";
  }
}

}  // namespace

util::Bytes Zone::to_wire_v1() const {
  util::Writer w;
  origin_.to_wire(w);
  w.u32(static_cast<std::uint32_t>(record_count()));
  // Stream straight off the map — no all_records() copy of the whole zone.
  for_each_rrset([&](const RRset& rrset) {
    for (const auto& rd : rrset.rdatas) write_record(w, rrset, rd);
  });
  return std::move(w).take();
}

util::Bytes Zone::to_wire_v2(std::size_t chunk_records) const {
  if (chunk_records == 0) chunk_records = 1;
  // Pass 1: chunk layout. A chunk closes after the owner that reaches
  // `chunk_records`, so owners never straddle chunks.
  std::vector<Zone2Chunk> chunks;
  std::uint64_t total_records = 0;
  std::uint64_t payload = 0;
  {
    Zone2Chunk cur;
    for (const auto& [name, types] : data_) {
      for (const auto& [type, rrset] : types) {
        const std::uint64_t per = rrset.name.wire_length() + 10;  // type/class/ttl/rdlen
        for (const auto& rd : rrset.rdatas) {
          cur.bytes += per + rd.size();
          ++cur.records;
          ++total_records;
        }
      }
      if (cur.records >= chunk_records) {
        cur.offset = payload;
        payload += cur.bytes;
        chunks.push_back(cur);
        cur = {};
      }
    }
    if (cur.records != 0) {
      cur.offset = payload;
      payload += cur.bytes;
      chunks.push_back(cur);
    }
  }
  util::Writer w(sizeof kZone2Magic + 1 + origin_.wire_length() + 8 + 4 +
                 chunks.size() * kZone2IndexEntryBytes + payload);
  for (const std::uint8_t b : kZone2Magic) w.u8(b);
  w.u8(kZone2HeaderVersion);
  origin_.to_wire(w);
  w.u64(total_records);
  w.u32(static_cast<std::uint32_t>(chunks.size()));
  for (const auto& c : chunks) {
    w.u32(c.records);
    w.u64(c.offset);
    w.u64(c.bytes);
  }
  // Pass 2: stream the records in the same map order the layout pass saw.
  for_each_rrset([&](const RRset& rrset) {
    for (const auto& rd : rrset.rdatas) write_record(w, rrset, rd);
  });
  return std::move(w).take();
}

Zone Zone::from_wire(util::BytesView data, unsigned threads) {
  if (has_zone2_magic(data)) return from_wire_v2(data, threads);
  return from_wire_v1(data);
}

Zone Zone::from_wire_v1(util::BytesView data) {
  util::Reader r(data);
  Zone zone(Name::from_wire(r));
  const std::uint32_t count = r.u32();
  RunLoader loader(zone.data_, zone.origin_, /*strict=*/false);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto slow = loader.add(r, /*boundary=*/false);
    if (!slow) continue;
    // Out-of-order input — not produced by our writers, but v1 never
    // promised order. Everything bulk-loaded so far stays valid; this
    // record and the rest take the general-purpose path.
    if (!zone.in_zone(slow->name)) throw ParseError("record outside zone in snapshot");
    zone.add_record(*slow);
    for (std::uint32_t j = i + 1; j < count; ++j) {
      const RecordScan s = scan_record(r);
      const ResourceRecord rr = record_from_scan(s, name_from_scan(s));
      if (!zone.in_zone(rr.name)) throw ParseError("record outside zone in snapshot");
      zone.add_record(rr);
    }
    break;
  }
  r.expect_done();
  return zone;
}

Zone Zone::from_wire_v2(util::BytesView data, unsigned threads) {
  Zone2Header h = parse_zone2_header(data);
  Zone zone(std::move(h.origin));
  const std::size_t nchunks = h.chunks.size();
  if (nchunks == 0) return zone;  // header parse verified an empty payload
  unsigned want = threads != 0 ? threads : std::thread::hardware_concurrency();
  if (want == 0) want = 1;
  if (want > nchunks) want = static_cast<unsigned>(nchunks);
  if (want <= 1) {
    std::string error;
    parse_zone2_chunks(data, h, zone.origin_, 0, nchunks, zone.data_, error);
    if (!error.empty()) throw ParseError(error);
    return zone;
  }
  // Parallel parse: each worker builds a sorted fragment from a contiguous
  // chunk range; the main thread then verifies canonical order across every
  // fragment seam and splices the fragments with O(1) node moves. Fragments
  // are merged in chunk order, so the result is byte-for-byte independent of
  // the thread count.
  std::vector<Zone::DataMap> frags(want);
  std::vector<std::string> errors(want);
  {
    std::vector<std::thread> workers;
    workers.reserve(want);
    const std::size_t base = nchunks / want;
    const std::size_t extra = nchunks % want;
    std::size_t next = 0;
    for (unsigned wi = 0; wi < want; ++wi) {
      const std::size_t first = next;
      next += base + (wi < extra ? 1 : 0);
      const std::size_t last = next;
      workers.emplace_back([&, wi, first, last] {
        parse_zone2_chunks(data, h, zone.origin_, first, last, frags[wi], errors[wi]);
      });
    }
    for (auto& t : workers) t.join();
  }
  for (const auto& e : errors) {
    if (!e.empty()) throw ParseError(e);
  }
  for (auto& frag : frags) {
    if (frag.empty()) continue;
    if (!zone.data_.empty()) {
      const int c = Name::canonical_compare(std::prev(zone.data_.end())->first,
                                            frag.begin()->first);
      if (c > 0) throw ParseError("records out of canonical order in SDNSZONE2 zone");
      if (c == 0) throw ParseError("owner name spans a chunk boundary in SDNSZONE2 zone");
    }
    while (!frag.empty()) {
      zone.data_.insert(zone.data_.end(), frag.extract(frag.begin()));
    }
  }
  return zone;
}

void Zone::SortedInserter::add(const ResourceRecord& rr) {
  DataMap& map = zone_.data_;
  if (!map.empty()) {
    const auto tail = std::prev(map.end());
    const int c = Name::canonical_compare(tail->first, rr.name);
    if (c > 0) {  // out of order: this one record pays the O(log n) path
      zone_.add_record(rr);
      return;
    }
    if (c == 0) {
      RRset& rrset = tail->second.try_emplace(rr.type).first->second;
      rrset.name = rr.name;
      rrset.type = rr.type;
      rrset.ttl = rr.ttl;
      if (std::find(rrset.rdatas.begin(), rrset.rdatas.end(), rr.rdata) ==
          rrset.rdatas.end()) {
        rrset.rdatas.push_back(rr.rdata);
      }
      return;
    }
  }
  RRset& rrset = map.emplace_hint(map.end(), rr.name, TypeMap{})->second[rr.type];
  rrset.name = rr.name;
  rrset.type = rr.type;
  rrset.ttl = rr.ttl;
  rrset.rdatas.push_back(rr.rdata);
}

std::string Zone::to_text() const {
  std::ostringstream os;
  for_each_rrset([&](const RRset& rrset) {
    for (const auto& rr : rrset.to_records()) os << rr.to_text() << "\n";
  });
  return os.str();
}

namespace {
std::uint32_t parse_zone_u32(const std::string& s, std::size_t line_no) {
  if (s.empty()) throw ParseError("empty number at line " + std::to_string(line_no));
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      throw ParseError("bad number '" + s + "' at line " + std::to_string(line_no));
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (v > 0xffffffffULL) {
      throw ParseError("number out of range at line " + std::to_string(line_no));
    }
  }
  return static_cast<std::uint32_t>(v);
}
}  // namespace

Zone Zone::from_text(const Name& origin, std::string_view text) {
  Zone zone(origin);
  std::uint32_t default_ttl = 3600;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    // Strip comments.
    if (auto c = line.find(';'); c != std::string_view::npos) line = line.substr(0, c);
    // Tokenize.
    std::vector<std::string> tok;
    std::string cur;
    bool quoted = false;
    for (char ch : line) {
      if (ch == '"') {
        quoted = !quoted;
        cur.push_back(ch);
        continue;
      }
      if (!quoted && (ch == ' ' || ch == '\t' || ch == '\r')) {
        if (!cur.empty()) {
          tok.push_back(std::move(cur));
          cur.clear();
        }
      } else {
        cur.push_back(ch);
      }
    }
    if (!cur.empty()) tok.push_back(std::move(cur));
    if (tok.empty()) continue;
    if (tok[0] == "$TTL") {
      if (tok.size() != 2) throw ParseError("bad $TTL at line " + std::to_string(line_no));
      default_ttl = parse_zone_u32(tok[1], line_no);
      continue;
    }
    if (tok.size() < 3) throw ParseError("short record at line " + std::to_string(line_no));

    std::size_t i = 0;
    Name owner = tok[i] == "@" ? origin : Name::parse(tok[i]);
    if (tok[i] != "@" && tok[i].back() != '.') {
      // Relative name: append origin.
      std::vector<std::string> labels;
      for (std::size_t l = 0; l < owner.label_count(); ++l) labels.push_back(owner.label(l));
      Name abs = origin;
      for (auto it = labels.rbegin(); it != labels.rend(); ++it) abs = abs.child(*it);
      owner = abs;
    }
    ++i;
    std::uint32_t ttl = default_ttl;
    if (i < tok.size() && !tok[i].empty() && tok[i][0] >= '0' && tok[i][0] <= '9') {
      ttl = parse_zone_u32(tok[i], line_no);
      ++i;
    }
    if (i < tok.size() && tok[i] == "IN") ++i;
    if (i >= tok.size()) throw ParseError("missing type at line " + std::to_string(line_no));
    const RRType type = rrtype_from_string(tok[i]);
    ++i;
    std::string rdata_text;
    for (; i < tok.size(); ++i) {
      if (!rdata_text.empty()) rdata_text.push_back(' ');
      rdata_text += tok[i];
    }
    ResourceRecord rr;
    rr.name = owner;
    rr.type = type;
    rr.ttl = ttl;
    rr.rdata = rdata_from_text(type, rdata_text);
    if (!zone.in_zone(rr.name)) {
      throw ParseError("record outside zone at line " + std::to_string(line_no));
    }
    zone.add_record(rr);
  }
  return zone;
}

}  // namespace sdns::dns
