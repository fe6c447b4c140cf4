// Per-layer replay: a traced run's own inputs pushed through the layers'
// public functions in process, after the cluster has stopped, so each call
// is timed alone. Nothing inside src/ is instrumented.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "traffic.hpp"

namespace perfbench {

struct ReplayInputs {
  std::string cluster_dir;  ///< the dealt material (zone.wire, keys, shares)
  std::string scratch_dir;  ///< for the store replay's WAL
  std::vector<ReadQuery> reads;
  std::vector<OpSpan> updates;  ///< committed client updates, in send order
};

/// Self-times of the stages one replayed update crosses, in microseconds.
struct UpdateStages {
  double apply_us = 0;     ///< AuthoritativeServer::apply_update + SIG installs
  double finalize_us = 0;  ///< finalize_journal (the IXFR diff)
  double threshold_us = 0; ///< per signature: own share + assemble + final check
  double store_us = 0;     ///< WAL append + fsync
  double crypto_us = 0;    ///< abcast node-key signs and verifies per delivery
  std::size_t sigs = 0;
  std::vector<double> durations() const {
    return {apply_us, finalize_us, threshold_us, store_us, crypto_us};
  }
};

struct ReplayResult {
  std::map<std::string, double> metrics;  ///< per-layer name -> value
  std::vector<UpdateStages> updates;      ///< aligned with ReplayInputs::updates
};

ReplayResult replay(const ReplayInputs& in, Traffic& traffic);

}  // namespace perfbench
