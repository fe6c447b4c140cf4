#include "logic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

namespace perfbench {

namespace {
constexpr std::uint64_t kZoneStream = 0x5045'5246'0001ULL;
constexpr std::uint64_t kPermStream = 0x5045'5246'0002ULL;
}  // namespace

// ---- inputs ---------------------------------------------------------------

std::string ZoneSpec::master_text() const {
  std::ostringstream out;
  out << "@ 3600 IN SOA ns1." << origin << " admin." << origin
      << " 1 7200 3600 1209600 3600\n"
      << "@ 3600 IN NS ns1." << origin << "\n"
      << "@ 3600 IN NS ns2." << origin << "\n"
      << "@ 3600 IN MX 10 mail." << origin << "\n"
      << "ns1 3600 IN A 10.0.0.1\n"
      << "ns2 3600 IN A 10.0.0.2\n"
      << "mail 3600 IN A 10.0.0.25\n";
  for (const ZoneName& n : names) {
    out << n.label << " 3600 IN A " << int(n.address[0]) << '.' << int(n.address[1])
        << '.' << int(n.address[2]) << '.' << int(n.address[3]) << '\n';
  }
  return out.str();
}

ZoneSpec make_zone(std::uint64_t seed, std::size_t count, const std::string& origin) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  sdns::util::Rng rng(seed, kZoneStream);
  ZoneSpec zone;
  zone.origin = origin;
  std::set<std::string> seen;
  while (zone.names.size() < count) {
    std::string label = "w";
    for (int i = 0; i < 7; ++i) label += kAlphabet[rng.below(sizeof kAlphabet - 1)];
    if (!seen.insert(label).second) continue;
    ZoneName name{std::move(label), {}};
    name.address = {10, static_cast<std::uint8_t>(rng.range(1, 254)),
                    static_cast<std::uint8_t>(rng.below(256)),
                    static_cast<std::uint8_t>(rng.range(1, 254))};
    zone.names.push_back(std::move(name));
  }
  return zone;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::draw(sdns::util::Rng& rng) const {
  const double u = rng.unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

ReadGenerator::ReadGenerator(const ReadMix& mix, std::size_t zone_names,
                             std::uint64_t seed, std::uint64_t stream)
    : mix_(mix), rng_(seed, stream), rank_to_name_(zone_names) {
  if (mix.zipf_s > 0) zipf_.emplace(zone_names, mix.zipf_s);
  for (std::size_t i = 0; i < zone_names; ++i) {
    rank_to_name_[i] = static_cast<std::uint32_t>(i);
  }
  sdns::util::Rng perm(seed, kPermStream);
  for (std::size_t i = zone_names; i > 1; --i) {
    std::swap(rank_to_name_[i - 1], rank_to_name_[perm.below(i)]);
  }
}

ReadQuery ReadGenerator::next() {
  ReadQuery q;
  const double u = rng_.unit();
  if (u < mix_.nx_share) {
    q.kind = QueryKind::kNx;
    q.index = next_nx_++;
  } else if (u < mix_.nx_share + mix_.mx_share) {
    q.kind = QueryKind::kMx;
  } else if (u < mix_.nx_share + mix_.mx_share + mix_.ns_share) {
    q.kind = QueryKind::kNs;
  } else {
    const std::size_t rank =
        zipf_ ? zipf_->draw(rng_) : rng_.below(rank_to_name_.size());
    q.index = rank_to_name_[rank];
  }
  q.dnssec_ok = rng_.chance(mix_.do_share);
  q.udp_payload = rng_.chance(mix_.small_payload_share) ? 1232 : 4096;
  return q;
}

std::string nx_label(std::uint64_t seed, std::uint32_t i) {
  return "nx" + std::to_string(seed) + "-" + std::to_string(i);
}

std::string update_label(std::uint64_t seed, std::uint32_t i) {
  return "u" + std::to_string(seed) + "-" + std::to_string(i);
}

// ---- percentiles and failed-op accounting ---------------------------------

std::size_t percentile_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps p*n that is integral in exact arithmetic (99% of 1000)
  // from rounding up a rank through floating-point error.
  const double exact = p / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return rank - 1;
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - 1 - percentile_rank(n, p);
}

bool supports_percentile(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinSamplesBeyond;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t k = percentile_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// ---- the read-capacity ladder ---------------------------------------------

double Ladder::rate(unsigned rung) const {
  return base * std::pow(ratio, static_cast<double>(rung));
}

bool step_passes(const StepResult& step, const StepLimits& limits) {
  return step.answered >= limits.answered && step.p99_ms <= limits.p99_ms &&
         step.late_p99_ms <= limits.late_ms;
}

LadderSearch::LadderSearch(const Ladder& ladder, unsigned start, unsigned stride)
    : ladder_(ladder),
      stride_(std::max(1u, stride)),
      cursor_(std::min(start, ladder.rungs - 1)) {}

std::optional<unsigned> LadderSearch::next() const {
  if (climbing_) return cursor_;
  if (!fail_) return std::nullopt;  // the top rung passed
  // Bisect the open interval (best_, fail_); with no pass yet the lower
  // bound is "below rung 0".
  const long lo = best_ ? static_cast<long>(*best_) : -1;
  const long hi = static_cast<long>(*fail_);
  if (hi - lo <= 1) return std::nullopt;
  return static_cast<unsigned>(lo + (hi - lo) / 2);
}

void LadderSearch::record(unsigned rung, bool passed) {
  ++steps_;
  if (passed) {
    if (!best_ || rung > *best_) best_ = rung;
  } else if (!fail_ || rung < *fail_) {
    fail_ = rung;
  }
  if (!climbing_) return;
  const unsigned top = ladder_.rungs - 1;
  if (!passed) {
    climbing_ = false;
  } else if (rung >= top) {
    climbing_ = false;  // fail_ stays empty: the top rung is the answer
  } else {
    cursor_ = std::min(rung + stride_, top);
  }
}

// ---- spans ----------------------------------------------------------------

double self_time(const Span& parent, std::vector<Span> children) {
  for (Span& c : children) {
    c.start_us = std::max(c.start_us, parent.start_us);
    c.end_us = std::min(c.end_us, parent.end_us);
  }
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_us < b.start_us; });
  double covered = 0;
  double run_start = 0, run_end = 0;
  bool open = false;
  for (const Span& c : children) {
    if (c.end_us <= c.start_us) continue;
    if (open && c.start_us <= run_end) {
      run_end = std::max(run_end, c.end_us);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = c.start_us;
    run_end = c.end_us;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return parent.duration() - covered;
}

std::vector<Span> back_to_back(const Span& parent, const std::vector<double>& durations_us) {
  std::vector<Span> out;
  double at = parent.start_us;
  for (double d : durations_us) {
    out.push_back({at, at + d});
    at += d;
  }
  return out;
}

}  // namespace perfbench
