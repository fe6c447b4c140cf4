// The client side of every workload, driven from one thread: open-loop
// reads, closed-loop and chained TSIG updates, and edge-lag polling, over
// two UDP sockets (reads; updates and polls). Every answer is checked
// against the seeded zone.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "crypto/rsa.hpp"
#include "dns/message.hpp"
#include "dns/tsig.hpp"
#include "logic.hpp"
#include "net/socket.hpp"

namespace perfbench {

/// Latency recorded for an operation that failed: above every limit.
constexpr double kReadFailMs = 1000.0;
constexpr double kUpdateFailMs = 5000.0;

struct TrafficContext {
  const ZoneSpec* zone = nullptr;
  sdns::crypto::RsaPublicKey zone_key;
  sdns::dns::TsigKey tsig;
  std::uint64_t seed = 1;
};

/// One client operation: the trace's root span. Times are monotonic seconds.
struct OpSpan {
  std::uint64_t id = 0;
  char kind = 'r';        ///< 'r' read, 'a' add, 'd' delete
  int target = 0;         ///< index into the phase's read targets / gateways
  std::uint32_t name = 0; ///< update label index (updates only)
  double due = 0, sent = 0, done = 0;
  bool ok = false;
};

struct PhasePlan {
  double seconds = 0;
  // Open-loop reads.
  double read_rate = 0;
  ReadGenerator* reads = nullptr;
  std::vector<sdns::net::SockAddr> read_targets;  ///< round robin
  double read_timeout_s = 1.0;
  /// Decode and check every answer; otherwise every 8th in full and the
  /// header (rcode, answer count) of the rest — the ladder's high rates
  /// would otherwise measure the checker.
  bool check_all = true;
  // Updates go round robin over the gateways, one gateway per operation.
  std::vector<sdns::net::SockAddr> gateways;
  /// One closed-loop client: add a fresh name, then delete it, repeat.
  bool closed_loop_updates = false;
  /// Measure how long each committed update takes to show at this edge.
  std::optional<sdns::net::SockAddr> edge;
  /// One update at a time, add then delete: the next leaves as soon as the
  /// edge served the previous, so no refresh overlaps an update in flight.
  bool chained_updates = false;
  bool keep_spans = false;    ///< traced runs: one span per operation
  bool record_reads = false;  ///< keep read inputs for the in-process replay
};

struct PhaseResult {
  LatencySet reads{kReadFailMs};
  LatencySet adds{kUpdateFailMs};
  LatencySet dels{kUpdateFailMs};
  LatencySet edge_lag{kUpdateFailMs};
  std::vector<double> late_ms;  ///< how late each read left its schedule
  double window_s = 0;          ///< length of the send window
  double reads_active_s = 0;    ///< from the window's start to the last read answer
  /// Driver time spent sending, receiving and checking, without the idle
  /// spins and sleeps between events.
  double busy_s = 0;
  std::uint64_t reads_sent = 0, reads_answered = 0;
  std::uint64_t wrong = 0;      ///< answers that contradict the zone
  std::uint64_t send_errors = 0;
  std::uint64_t committed = 0;  ///< updates answered NOERROR
  std::vector<std::string> wrong_examples;
  std::vector<OpSpan> spans;        ///< keep_spans only
  std::vector<ReadQuery> read_inputs;  ///< record_reads only
  std::vector<OpSpan> updates;      ///< every update, in send order
};

/// The last update that committed, for the edge freshness check.
struct LastWrite {
  bool add = false;
  std::uint32_t name = 0;
};

class Traffic {
 public:
  explicit Traffic(const TrafficContext& ctx);
  ~Traffic();
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  PhaseResult run(const PhasePlan& plan);

  /// Delete every name a phase added and left behind, one at a time and
  /// unmeasured, so the zone returns to its seeded size. False if one failed.
  bool cleanup(const std::vector<sdns::net::SockAddr>& gateways);

  /// Flush every server's packet cache with one unmeasured update, which
  /// bumps the zone generation: alternately the add of a fresh name and its
  /// delete, so the zone never grows by more than that name. False if the
  /// update did not commit.
  bool flush_caches(const sdns::net::SockAddr& gateway);

  std::optional<LastWrite> last_write() const { return last_write_; }

  /// Wait up to `timeout_s` until every server answers the apex SOA with one
  /// serial and a SIG that verifies: no update is still being signed
  /// anywhere and the edge holds the latest zone. False on timeout.
  bool quiesce(const std::vector<sdns::net::SockAddr>& servers, double timeout_s) const;

  /// The query bytes sent for a read (id 0).
  sdns::util::Bytes read_wire(const ReadQuery& q);
  /// An RFC 2136 add or delete of update_label(seed, name), TSIG-signed
  /// when `sign`.
  sdns::dns::Message update_message(bool add, std::uint32_t name, std::uint16_t id,
                                    bool sign) const;
  sdns::dns::Name update_name(std::uint32_t name) const;

 private:
  /// Full check of a read's answer against the seeded zone; `verify_sig`
  /// also checks the answer's (or the denial's) SIG under the zone key.
  bool check_answer(const ReadQuery& q, const sdns::dns::Message& response,
                    bool verify_sig, std::string* why) const;

  sdns::dns::Name read_name(const ReadQuery& q) const;

  /// Send one update to `gateway` and wait for its NOERROR, unmeasured.
  bool commit(bool add, std::uint32_t name, const sdns::net::SockAddr& gateway);

  TrafficContext ctx_;
  sdns::dns::Name origin_;
  std::vector<sdns::dns::Name> names_;
  std::vector<sdns::util::Bytes> name_wires_;  ///< cached query per (name, payload, DO)
  int read_fd_ = -1;
  int ctl_fd_ = -1;
  std::uint32_t next_update_name_ = 0;
  std::uint64_t next_span_ = 1;
  std::uint16_t next_read_id_ = 0;
  std::uint16_t next_ctl_id_ = 0;
  std::optional<LastWrite> last_write_;
  std::optional<std::uint32_t> flush_name_;  ///< added by flush_caches, not yet deleted
  /// Update label indexes added and not yet deleted.
  std::set<std::uint32_t> live_names_;
};

}  // namespace perfbench
