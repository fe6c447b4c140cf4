#include "net/cluster.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <sstream>
#include <stdexcept>

#include "abcast/group.hpp"
#include "dns/dnssec.hpp"
#include "threshold/fixtures.hpp"
#include "util/bytes.hpp"

namespace sdns::net {

using util::Bytes;
using util::Rng;

namespace {

constexpr std::uint64_t kSignerStream = 0xFFFF'0000'0000'0003ULL;
constexpr std::uint64_t kTsigStream = 0xFFFF'0000'0000'0004ULL;

const char* kDefaultZone =
    "@ 3600 IN SOA ns1.example.com. admin.example.com. 1 7200 3600 1209600 3600\n"
    "@ 3600 IN NS ns1.example.com.\n"
    "@ 3600 IN NS ns2.example.com.\n"
    "ns1 3600 IN A 10.0.0.1\n"
    "ns2 3600 IN A 10.0.0.2\n"
    "www 3600 IN A 10.0.0.80\n"
    "mail 3600 IN A 10.0.0.25\n";

std::string protocol_name(threshold::SigProtocol p) {
  switch (p) {
    case threshold::SigProtocol::kBasic: return "basic";
    case threshold::SigProtocol::kOptProof: return "optproof";
    case threshold::SigProtocol::kOptTE: return "optte";
  }
  return "optte";
}

}  // namespace

ClusterFiles generate_cluster(const std::string& dir, const ClusterOptions& opt) {
  if (opt.n < 1 || opt.n <= 3 * opt.t) {
    throw std::logic_error("generate_cluster: needs n > 3t");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("generate_cluster: cannot create " + dir);
  }
  Rng rng(opt.seed);

  // ---- SINTRA group (atomic broadcast keys) ----
  abcast::Group group = abcast::generate_group(rng, opt.n, opt.t, opt.key_bits);

  // ---- threshold zone key ----
  threshold::DealtKey dealt;
  if (opt.key_bits == 512) {
    dealt = threshold::deal_with_primes(rng, opt.n, opt.t,
                                        threshold::fixtures::safe_prime_256_a(),
                                        threshold::fixtures::safe_prime_256_b());
  } else if (opt.key_bits == 1024) {
    dealt = threshold::deal_with_primes(rng, opt.n, opt.t,
                                        threshold::fixtures::safe_prime_512_a(),
                                        threshold::fixtures::safe_prime_512_b());
  } else {
    dealt = threshold::deal(rng, opt.n, opt.t, opt.key_bits);
  }

  // ---- initial zone signing: dealer assembles t+1 shares (§4.3) ----
  dns::Zone zone = dns::Zone::from_text(
      dns::Name::parse(opt.origin),
      opt.zone_text.empty() ? kDefaultZone : opt.zone_text.c_str());
  Rng srng(opt.seed, kSignerStream);
  const auto signer = [&](util::BytesView data) {
    const bn::BigInt x = threshold::hash_to_element(dealt.pub, data);
    std::vector<threshold::SignatureShare> shares;
    for (unsigned i = 1; i <= opt.t + 1; ++i) {
      shares.push_back(
          threshold::generate_share(dealt.pub, dealt.shares[i - 1], x, false, srng));
    }
    auto y = threshold::assemble(dealt.pub, x, shares);
    if (!y) throw std::logic_error("initial zone signing failed");
    return threshold::signature_bytes(dealt.pub, *y);
  };
  dns::sign_zone(zone, dealt.pub.rsa(), /*inception=*/999'000,
                 /*expiration=*/999'000 + 365 * 24 * 3600, signer);

  // ---- shared secrets ----
  const Bytes mesh_secret = rng.bytes(32);
  std::string tsig_hex = opt.tsig_secret_hex;
  if (opt.require_tsig && tsig_hex.empty()) {
    tsig_hex = util::hex_encode(Rng(opt.seed, kTsigStream).bytes(32));
  }

  // ---- write the dealt material ----
  // Zone goes out in wire form: rdata_from_text has no SIG/KEY/NXT parser,
  // so a signed zone only round-trips through Zone::to_wire.
  write_file(dir + "/zone.wire", zone.to_wire());
  write_file(dir + "/group.pub", abcast::encode_group_public(*group.pub));
  write_file(dir + "/zone.pub", dealt.pub.encode());
  write_file(dir + "/mesh.secret", mesh_secret);
  if (opt.require_tsig) {
    // Hex, so shell recipes can do --tsig "name:$(cat dir/tsig.secret)".
    write_file(dir + "/tsig.secret", util::to_bytes(tsig_hex));
  }

  ClusterFiles out;
  out.tsig_name = opt.tsig_name;
  out.tsig_secret_hex = tsig_hex;
  out.zone_key = dealt.pub.rsa();
  for (unsigned i = 0; i < opt.n; ++i) {
    const std::string suffix = std::to_string(i);
    write_file(dir + "/node" + suffix + ".secret",
               abcast::encode_node_secret(group.secrets[i]));
    write_file(dir + "/zone" + suffix + ".share", dealt.shares[i].encode());

    std::ostringstream cfg;
    cfg << "# sdnsd replica " << i << " of " << opt.n << " (generated)\n"
        << "id = " << i << "\n"
        << "n = " << opt.n << "\n"
        << "t = " << opt.t << "\n"
        << "sig_protocol = " << protocol_name(opt.sig_protocol) << "\n"
        << "disseminate_reads = " << (opt.disseminate_reads ? "true" : "false")
        << "\n"
        << "origin = " << opt.origin << "\n"
        << "zone_file = " << dir << "/zone.wire\n"
        << "group_public = " << dir << "/group.pub\n"
        << "node_secret = " << dir << "/node" << suffix << ".secret\n"
        << "zone_public = " << dir << "/zone.pub\n"
        << "zone_share = " << dir << "/zone" << suffix << ".share\n"
        << "mesh_secret = " << dir << "/mesh.secret\n"
        << "listen_dns = " << opt.dns_host << ":" << (opt.dns_base_port + i) << "\n"
        << "seed = " << (opt.seed + 1000 + i) << "\n";
    if (opt.shards != 1) cfg << "shards = " << opt.shards << "\n";
    if (opt.journal_limit != 0) cfg << "journal_limit = " << opt.journal_limit << "\n";
    for (unsigned k = 0; k < opt.edges; ++k) {
      cfg << "notify = " << opt.dns_host << ":" << (opt.edge_base_port + k) << "\n";
    }
    if (opt.durable) {
      const std::string data_dir = dir + "/data" + suffix;
      cfg << "data_dir = " << data_dir << "\n"
          << "snapshot_log_bytes = " << opt.snapshot_log_bytes << "\n";
      out.data_dirs.push_back(data_dir);
    }
    if (opt.require_tsig) {
      cfg << "require_tsig = true\n"
          << "tsig_name = " << opt.tsig_name << "\n"
          << "tsig_secret = " << tsig_hex << "\n";
    }
    for (unsigned j = 0; j < opt.n; ++j) {
      cfg << "peer" << j << " = " << opt.dns_host << ":" << (opt.mesh_base_port + j)
          << "\n";
    }
    const std::string cfg_str = cfg.str();
    const std::string path = dir + "/replica" + suffix + ".conf";
    write_file(path, util::BytesView(
                         reinterpret_cast<const std::uint8_t*>(cfg_str.data()),
                         cfg_str.size()));
    out.configs.push_back(path);
    out.dns_addrs.push_back(
        SockAddr::parse(opt.dns_host + ":" +
                        std::to_string(opt.dns_base_port + i)));
  }

  // ---- edge configs (sdns_edge) ----
  // An edge gets the zone PUBLIC key only — never a share. It learns the
  // zone itself over AXFR from the core and trusts the threshold signatures
  // inside, so this material distributes to any number of edges safely.
  for (unsigned k = 0; k < opt.edges; ++k) {
    std::ostringstream cfg;
    cfg << "# sdns_edge " << k << " of " << opt.edges << " (generated)\n"
        << "origin = " << opt.origin << "\n"
        << "zone_public = " << dir << "/zone.pub\n"
        << "listen_dns = " << opt.dns_host << ":" << (opt.edge_base_port + k)
        << "\n";
    for (unsigned i = 0; i < opt.n; ++i) {
      cfg << "core = " << opt.dns_host << ":" << (opt.dns_base_port + i) << "\n";
    }
    if (opt.shards != 1) cfg << "shards = " << opt.shards << "\n";
    cfg << "seed = " << (opt.seed + 2000 + k) << "\n";
    const std::string cfg_str = cfg.str();
    const std::string path = dir + "/edge" + std::to_string(k) + ".conf";
    write_file(path, util::BytesView(
                         reinterpret_cast<const std::uint8_t*>(cfg_str.data()),
                         cfg_str.size()));
    out.edge_configs.push_back(path);
    out.edge_addrs.push_back(
        SockAddr::parse(opt.dns_host + ":" +
                        std::to_string(opt.edge_base_port + k)));
  }
  return out;
}

PortBlock::PortBlock() {
  constexpr unsigned kFirst = 20000;
  constexpr unsigned kEnd = 32768;
  for (unsigned base = kFirst; base + kPorts <= kEnd; base += kPorts) {
    const std::string path = "/tmp/sdns-ports-" + std::to_string(base) + ".lock";
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
    if (fd < 0) continue;
    if (::flock(fd, LOCK_EX | LOCK_NB) == 0) {
      fd_ = fd;
      base_ = static_cast<std::uint16_t>(base);
      return;
    }
    ::close(fd);
  }
  throw NetError("no free port block in [20000, 32768)");
}

PortBlock::~PortBlock() { ::close(fd_); }

}  // namespace sdns::net
