// Configuration auto-tuner (extension).
//
// The paper tunes communication strategy choices by hand per dataset
// (Q-only when m >> n, FP16 when the rating scale is coarse, streams when
// the matrix is square-ish, DP1 vs DP2 via lambda).  The DataManager
// automates the partition choice; this tuner automates the rest: it sweeps
// the discrete communication-configuration space on the virtual platform
// and returns the fastest combination, with the full trial log.
#pragma once

#include <string>
#include <vector>

#include "comm/strategy.hpp"
#include "core/data_manager.hpp"

namespace hcc::core {

/// One evaluated configuration.
struct TuneTrial {
  comm::CommConfig comm;
  bool prune = false;
  PartitionStrategy chosen = PartitionStrategy::kAuto;
  double epoch_seconds = 0.0;
};

/// The tuner's pick plus everything it tried (best first).
struct TuneResult {
  TuneTrial best;
  std::vector<TuneTrial> trials;

  /// Human-readable one-liner for logs/examples.
  std::string summary() const;
};

/// Sweeps {payload reduction} x {codec fp16/fp32} x {streams 1/2/4} x
/// {pruning} under the auto partition strategy and returns the
/// configuration with the smallest simulated epoch time.  Deterministic.
TuneResult tune_comm(const sim::PlatformSpec& platform,
                     const sim::DatasetShape& shape,
                     const DataManagerOptions& options = {});

}  // namespace hcc::core
