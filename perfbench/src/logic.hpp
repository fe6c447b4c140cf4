// Pure benchmark logic: input generators, percentile rules, failed-op
// accounting, the read-capacity ladder and span self-time arithmetic.
//
// Nothing here touches sockets, processes or the clock, so every rule the
// benchmark reports by is unit-tested in tests/logic_test.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

// ---- inputs ---------------------------------------------------------------

/// One owner name of the seeded zone: a seed-derived label and its address.
struct ZoneName {
  std::string label;                    ///< relative to the origin
  std::array<std::uint8_t, 4> address;  ///< the name's single A record
};

/// The seeded zone: `count` distinct names under `origin`, plus a fixed apex
/// (SOA, two NS, MX) and the in-zone hosts those point at.
struct ZoneSpec {
  std::string origin;
  std::vector<ZoneName> names;

  /// Master-file text for net::ClusterOptions::zone_text.
  std::string master_text() const;
  /// Fully qualified owner name of names[i].
  std::string fqdn(std::size_t i) const { return names[i].label + "." + origin; }
};

/// Same seed, same zone: labels and addresses come from Rng(seed, stream).
ZoneSpec make_zone(std::uint64_t seed, std::size_t count, const std::string& origin);

/// Zipf(s) ranks over [0, n): rank 0 is the most popular. Popularity is
/// mapped onto zone names through a seeded permutation by the caller.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(sdns::util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// What a read asks for.
enum class QueryKind : std::uint8_t {
  kName,  ///< A query for an existing zone name
  kNx,    ///< A query for a fresh, never-existing name (NXDOMAIN + NXT)
  kMx,    ///< apex MX
  kNs,    ///< apex NS
};

struct ReadQuery {
  QueryKind kind = QueryKind::kName;
  std::uint32_t index = 0;  ///< zone name index (kName) or fresh-name serial (kNx)
  bool dnssec_ok = false;   ///< DO bit in the query's OPT record
  /// Advertised EDNS payload: 4096, or 1232 (the DNS Flag Day 2020 size
  /// many resolvers send). The packet cache keys on the size bucket, so each
  /// size is a separate cache entry.
  std::uint16_t udp_payload = 4096;
};

/// The read traffic shape of a workload.
struct ReadMix {
  double zipf_s = 0;     ///< 0 = uniform over the zone
  double nx_share = 0;   ///< fresh non-existent names
  double mx_share = 0;
  double ns_share = 0;
  double do_share = 0;   ///< queries with the DO bit set
  double small_payload_share = 0;  ///< queries advertising 1232, not 4096
};

/// Deterministic read generator: the i-th draw depends only on the seed, the
/// stream and i. Popular ranks map onto names through a seeded permutation,
/// so the hot set differs per seed but never per run.
class ReadGenerator {
 public:
  ReadGenerator(const ReadMix& mix, std::size_t zone_names, std::uint64_t seed,
                std::uint64_t stream);
  ReadQuery next();

 private:
  ReadMix mix_;
  sdns::util::Rng rng_;
  std::optional<Zipf> zipf_;
  std::vector<std::uint32_t> rank_to_name_;
  std::uint32_t next_nx_ = 0;
};

/// Label of the i-th fresh non-existent name; never collides with zone
/// labels (which start with 'w') or update labels (which start with 'u').
std::string nx_label(std::uint64_t seed, std::uint32_t i);
/// Label of the i-th name an update adds and later deletes.
std::string update_label(std::uint64_t seed, std::uint32_t i);

// ---- percentiles and failed-op accounting ---------------------------------

/// Nearest-rank index (0-based) of percentile p (0 < p <= 100) in n sorted
/// samples: the smallest sample with at least p% of the samples at or below.
std::size_t percentile_rank(std::size_t n, double p);

/// Samples strictly above the percentile's rank.
std::size_t samples_beyond(std::size_t n, double p);

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; fewer and one outlier decides the value.
constexpr std::size_t kMinSamplesBeyond = 10;

/// True when n samples support percentile p under the >= 10-beyond rule.
bool supports_percentile(std::size_t n, double p);

/// Nearest-rank percentile of unsorted samples (p in (0, 100]); NaN if empty.
double percentile(std::vector<double> samples, double p);

/// Median; the mean of the middle two for an even count. NaN if empty.
double median(std::vector<double> values);

/// Latency samples for one operation kind. A failed operation (timeout,
/// wrong answer, non-NOERROR update) is recorded with the failure latency,
/// which exceeds every limit, and stays in the denominator: dropping it
/// would make a failing system look faster.
class LatencySet {
 public:
  explicit LatencySet(double failure_ms) : failure_ms_(failure_ms) {}

  void ok(double ms) { samples_.push_back(ms); }
  void failed() {
    samples_.push_back(failure_ms_);
    ++failed_;
  }
  void merge(const LatencySet& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    failed_ += other.failed_;
  }

  std::size_t attempted() const { return samples_.size(); }
  std::size_t failed_count() const { return failed_; }
  /// Nearest-rank percentile over every attempt, failures included.
  double pct(double p) const { return percentile(samples_, p); }

 private:
  double failure_ms_;
  std::vector<double> samples_;
  std::size_t failed_ = 0;
};

// ---- the read-capacity ladder ---------------------------------------------

/// Fixed geometric rungs: rung i offers base * ratio^i queries per second.
struct Ladder {
  double base = 5000;
  double ratio = 1.05;
  unsigned rungs = 100;
  double rate(unsigned rung) const;
};

/// One measured ladder step.
struct StepResult {
  double offered_qps = 0;
  double achieved_qps = 0;
  double answered = 0;        ///< share of sent reads answered in the step
  double p99_ms = 0;          ///< from due time; unanswered count as failed
  double late_p99_ms = 0;     ///< how late the generator sent (driver limit)
  // What the step cost each side, so a ceiling names its bottleneck.
  double replica_cpu_pct = 0; ///< the replica under test, % of one CPU
  double driver_busy_pct = 0; ///< the driver's work, idle spinning excluded
};

/// Limits a step must meet to count as sustained.
struct StepLimits {
  /// The benchmark's read latency limit. Loose enough that a few-ms stall
  /// of a shared virtual CPU passes; a saturated replica queues far past it.
  double p99_ms = 20.0;
  double answered = 0.999;   ///< >= 99.9 % of reads answered
  double late_ms = 10.0;     ///< the generator kept its schedule (no backlog)
};

bool step_passes(const StepResult& step, const StepLimits& limits);

/// Coarse-to-fine search over the fixed ladder: climb `stride` rungs at a
/// time from `start` until a step fails (or the top rung passes), then
/// bisect between the last passing and first failing rung. The answer is
/// always a rung of the fixed ladder; each rung is measured at most once.
class LadderSearch {
 public:
  LadderSearch(const Ladder& ladder, unsigned start, unsigned stride);

  /// The next rung to measure, or nullopt when the search has finished.
  std::optional<unsigned> next() const;
  /// Record the verdict for the rung next() returned.
  void record(unsigned rung, bool passed);
  /// Highest rung that passed, if any did.
  std::optional<unsigned> best() const { return best_; }
  /// Lowest failing rung above best(), if any failed.
  std::optional<unsigned> first_failed() const { return fail_; }
  unsigned steps() const { return steps_; }

 private:
  Ladder ladder_;
  unsigned stride_;
  std::optional<unsigned> best_;   ///< highest passing rung
  std::optional<unsigned> fail_;   ///< lowest failing rung above best_
  unsigned cursor_;                ///< next rung while climbing
  bool climbing_ = true;
  unsigned steps_ = 0;
};

// ---- spans ----------------------------------------------------------------

/// A timed interval in microseconds. Replayed layer calls are child spans of
/// the client operation they reproduce.
struct Span {
  double start_us = 0;
  double end_us = 0;
  double duration() const { return end_us - start_us; }
};

/// Self time of `parent`: its duration minus the part of it covered by the
/// union of `children` (clipped to the parent; overlaps counted once).
double self_time(const Span& parent, std::vector<Span> children);

/// Lay out replayed child durations back to back from the parent's start —
/// replays run after the window, so only their durations are known.
std::vector<Span> back_to_back(const Span& parent, const std::vector<double>& durations_us);

}  // namespace perfbench
