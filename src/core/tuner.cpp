#include "core/tuner.hpp"

#include <algorithm>
#include <sstream>

#include "comm/payload.hpp"

namespace hcc::core {

std::string TuneResult::summary() const {
  std::ostringstream os;
  os << "payload=" << (best.comm.reduce_payload ? "reduced" : "P&Q")
     << " codec=" << comm::codec_kind_name(best.comm.codec)
     << " streams=" << best.comm.streams
     << " prune=" << (best.prune ? "on" : "off")
     << " strategy=" << partition_strategy_name(best.chosen)
     << " epoch=" << best.epoch_seconds << "s";
  return os.str();
}

TuneResult tune_comm(const sim::PlatformSpec& platform,
                     const sim::DatasetShape& shape,
                     const DataManagerOptions& options) {
  TuneResult result;
  for (const bool reduce : {true, false}) {
    for (const comm::CodecKind codec :
         {comm::CodecKind::kFp16, comm::CodecKind::kFp32}) {
      for (const std::uint32_t streams : {1u, 2u, 4u}) {
        for (const bool prune : {false, true}) {
          comm::CommConfig comm;
          comm.reduce_payload = reduce;
          comm.codec = codec;
          comm.streams = streams;

          DataManagerOptions opts = options;
          opts.prune_unhelpful_workers = prune;
          const DataManager manager(platform, shape, comm, opts);
          const Plan plan = manager.plan(PartitionStrategy::kAuto);

          TuneTrial trial;
          trial.comm = comm;
          trial.prune = prune;
          trial.chosen = plan.chosen;
          trial.epoch_seconds = manager.simulated_epoch_seconds(plan);
          result.trials.push_back(trial);
        }
      }
    }
  }
  std::sort(result.trials.begin(), result.trials.end(),
            [](const TuneTrial& a, const TuneTrial& b) {
              return a.epoch_seconds < b.epoch_seconds;
            });
  result.best = result.trials.front();
  return result;
}

}  // namespace hcc::core
