// Communication strategy planner.
//
// Combines the three optimizations of Section 3.4 — payload reduction
// (Strategy 1), FP16 compression (Strategy 2) and asynchronous multi-stream
// pipelines (Strategy 3) — plus the backend choice (COMM vs COMM-P) into a
// per-worker sim::CommPlan for the timing engine, and constructs the
// functional codec and link objects for the real data path.  COMM-P exists
// only in the timing plan: functionally every transfer rides ShmComm or a
// SessionComm.
#pragma once

#include <cstdint>
#include <memory>

#include "comm/backend.hpp"
#include "comm/payload.hpp"
#include "comm/transport.hpp"
#include "sim/timing.hpp"

namespace hcc::comm {

/// Timing-model backend: kShm is COMM's one-copy path; kBroker scales the
/// bus efficiency down by broker_penalty, reproducing Table 5's COMM-P.
enum class BackendKind { kShm, kBroker };

/// User-facing communication configuration.
struct CommConfig {
  bool reduce_payload = true;  ///< Strategy 1: Q-only / P-only
  /// Strategy 2's wire encoding: kFp16 (the default) or kFp32, or one of
  /// the error-feedback sub-FP16 codecs kInt8/kTwoBit (see comm/codec.hpp),
  /// for which each worker owns stateful per-direction codec instances.
  CodecKind codec = CodecKind::kFp16;
  std::uint32_t codec_threads = 0;  ///< Strategy 2's "multi-threaded" AVX
                                    ///< conversion: >= 2 gives the codec an
                                    ///< internal pool that slices large
                                    ///< batches; 0/1 converts inline
  std::uint32_t streams = 1;   ///< Strategy 3: requested pipeline depth;
                               ///< capped by each device's copy engines
  bool sparse = false;         ///< "Strategy 4" (extension): transfer only
                               ///< the Q rows the worker's slice touches —
                               ///< attacks the dimension-bound cost the
                               ///< paper's Section 4.6 identifies.  Adds a
                               ///< 4-byte row index per transmitted row.
  /// Chunked-streaming extension: how many row-aligned chunks of one P/Q
  /// transfer may be in flight at once (comm/pipeline.hpp).  Depth 1 (the
  /// default) sends each transfer as one chunk through one codec; depth > 1
  /// splits it so chunk i's encode overlaps chunk i-1's wire transfer and
  /// decode-side commit.
  std::uint32_t pipeline_depth = 1;
  BackendKind backend = BackendKind::kShm;

  /// Elastic-transport extension: what kind of link the pull/push wire is.
  /// The default (kInProcess) is the one-copy ShmComm link; the other kinds
  /// interpose a sequence-numbered session (comm/session.hpp) over a
  /// simulated-latency or chaos link.
  TransportConfig transport;

  // Timing-model constants, calibrated against Table 5 (see EXPERIMENTS.md):
  /// Fraction of peak bus bandwidth COMM's single-copy path sustains.
  double shm_bus_efficiency = 0.8;
  /// How much slower COMM-P is than COMM at equal payload (extra copies,
  /// kernel crossings, per-message overhead).
  double broker_penalty = 6.67;
  /// Above-linear FP16 gain the paper measures ("more data being cached").
  double fp16_bus_bonus = 1.5;
  /// Quantized-codec stage rates over RAW fp32 bytes, feeding the Eq. 1
  /// overlap term when pipeline_depth > 1.  The EF commit is memory-bound
  /// (~3.3 GB/s measured, see ROADMAP); encode is a little faster because
  /// the delta pass reads less state than the commit writes.
  double codec_encode_gbs = 4.0;
  double codec_commit_gbs = 3.3;
};

/// Payload mode after applying (or not applying) Strategy 1.
PayloadMode effective_mode(const CommConfig& config,
                           const sim::DatasetShape& shape);

/// The codec kind the *pull* direction (server -> worker parameter
/// broadcast) actually uses.  Ternary compression is an update codec: on
/// the push stream it reaches RMSE parity with fp16, but ternarizing the
/// parameters a worker trains against injects noise proportional to the
/// per-epoch factor movement and measurably stalls convergence (tenths of
/// RMSE on MovieLens-scale runs).  kTwoBit pulls therefore fall back to
/// fp16 — the standard asymmetry of gradient-compression systems — while
/// int8 and coarser codecs ride both directions.
CodecKind pull_codec_kind(const CommConfig& config);

/// Pipeline depth for a device: min(requested, copy engines).  Devices
/// without a copy engine (plain CPUs) cannot overlap, per Section 3.4.
std::uint32_t effective_streams(const CommConfig& config,
                                const sim::DeviceSpec& device);

/// Builds the timing plan for one worker-epoch.  `share` (the worker's
/// nnz fraction) only matters when config.sparse is set: it sizes the
/// touched-row estimate.
sim::CommPlan make_comm_plan(const CommConfig& config,
                             const sim::DatasetShape& shape,
                             const sim::DeviceSpec& device,
                             bool last_epoch = false, double share = 1.0);

/// Functional objects matching the config.  `row_elems` sets the quantized
/// codecs' scale-block size — pass the factor rank k when known (one absmax
/// scale per Q row); 0 keeps their default.  Stateful codecs come back
/// fresh (first transfer is a keyframe), one instance per link direction.
std::unique_ptr<Codec> make_codec(const CommConfig& config,
                                  std::size_t row_elems = 0);

/// Codec for the pull stream: make_codec with pull_codec_kind applied.
std::unique_ptr<Codec> make_pull_codec(const CommConfig& config,
                                       std::size_t row_elems = 0);

/// The link for one worker: ShmComm for TransportKind::kInProcess, else a
/// SessionComm over that worker's transport (the chaos schedule is
/// addressed by worker id).  The out-of-band checksum starts disarmed;
/// TrainWorker::set_fault_runtime arms it when a fault runtime is active.
std::unique_ptr<CommBackend> make_backend(const CommConfig& config,
                                          std::uint32_t worker = 0);

}  // namespace hcc::comm
