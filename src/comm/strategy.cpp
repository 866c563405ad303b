#include "comm/strategy.hpp"

#include <algorithm>

#include "comm/session.hpp"

namespace hcc::comm {

PayloadMode effective_mode(const CommConfig& config,
                           const sim::DatasetShape& shape) {
  if (!config.reduce_payload) return PayloadMode::kPQ;
  return choose_payload(shape.m, shape.n);
}

std::uint32_t effective_streams(const CommConfig& config,
                                const sim::DeviceSpec& device) {
  return std::max(1u, std::min(config.streams, device.copy_streams));
}

CodecKind effective_codec(const CommConfig& config) {
  if (config.codec != CodecKind::kAuto) return config.codec;
  return config.fp16 ? CodecKind::kFp16 : CodecKind::kFp32;
}

CodecKind pull_codec_kind(const CommConfig& config) {
  const CodecKind kind = effective_codec(config);
  return kind == CodecKind::kTwoBit ? CodecKind::kFp16 : kind;
}

sim::CommPlan make_comm_plan(const CommConfig& config,
                             const sim::DatasetShape& shape,
                             const sim::DeviceSpec& device, bool last_epoch,
                             double share) {
  const PayloadMode mode = effective_mode(config, shape);
  const CodecKind kind = effective_codec(config);
  sim::CommPlan plan;
  // Pull and push may ride different codecs (2-bit is push-only).
  plan.pull_bytes = wire_bytes(pull_elements(shape, mode),
                               pull_codec_kind(config), shape.k);
  plan.push_bytes =
      wire_bytes(push_elements(shape, mode, last_epoch), kind, shape.k);
  // The server merges every pushed feature at FP32 width regardless of the
  // wire encoding (Eq. 3 counts elements, not wire bytes).
  plan.sync_bytes = static_cast<double>(
      push_elements(shape, mode, last_epoch) * 4);
  plan.pull_raw_bytes = static_cast<double>(pull_elements(shape, mode) * 4);
  plan.push_raw_bytes =
      static_cast<double>(push_elements(shape, mode, last_epoch) * 4);

  // Strategy 4 (extension): only the touched Q rows travel and merge.  The
  // exchanged-dimension term shrinks from n to touched(n); the final P&Q
  // push and the P side are unaffected (P rows are worker-exclusive).
  if (config.sparse && mode == PayloadMode::kQOnly && !last_epoch) {
    const double frac = expected_touched_fraction(
        static_cast<double>(shape.nnz) * share, static_cast<double>(shape.n));
    const double index_bytes = 4.0 * frac * static_cast<double>(shape.n);
    plan.pull_bytes = plan.pull_bytes * frac + index_bytes;
    plan.push_bytes = plan.push_bytes * frac + index_bytes;
    plan.sync_bytes *= frac;
    plan.pull_raw_bytes *= frac;
    plan.push_raw_bytes *= frac;
  }

  double efficiency = config.shm_bus_efficiency;
  if (config.backend == BackendKind::kBroker) {
    efficiency /= config.broker_penalty;
  }
  // The paper's "more data being cached" bonus comes from the payload
  // shrinking, so every compressed codec earns it, not just fp16.
  if (kind != CodecKind::kFp32) efficiency *= config.fp16_bus_bonus;
  plan.bus_efficiency = efficiency;
  plan.streams = effective_streams(config, device);

  // Chunked streaming (Eq. 1 overlap term): stage rates are only modeled
  // for the stateful quantized codecs, whose encode (EF delta + quantize)
  // and commit (dequantize + reference update) are the heavy stages worth
  // hiding behind the wire.  fp32/fp16 keep rates at 0 — the cost model
  // then falls back to the legacy wire-only prediction, so depth > 1 with
  // an unmodeled codec predicts exactly what depth 1 does.
  plan.pipeline_depth = std::max(1u, config.pipeline_depth);
  if (plan.pipeline_depth > 1 &&
      (kind == CodecKind::kInt8 || kind == CodecKind::kTwoBit)) {
    plan.encode_gbs = config.codec_encode_gbs;
    plan.commit_gbs = config.codec_commit_gbs;
  }
  return plan;
}

std::unique_ptr<Codec> make_codec(const CommConfig& config,
                                  std::size_t row_elems) {
  switch (effective_codec(config)) {
    case CodecKind::kFp16:
      return std::make_unique<Fp16Codec>(config.codec_threads);
    case CodecKind::kInt8:
      return std::make_unique<Int8Codec>(row_elems, config.codec_threads);
    case CodecKind::kTwoBit:
      return std::make_unique<TwoBitCodec>(row_elems, config.codec_threads);
    case CodecKind::kAuto:
    case CodecKind::kFp32:
      break;
  }
  return std::make_unique<Fp32Codec>();
}

std::unique_ptr<Codec> make_pull_codec(const CommConfig& config,
                                       std::size_t row_elems) {
  CommConfig pull = config;
  pull.codec = pull_codec_kind(config);
  return make_codec(pull, row_elems);
}

std::unique_ptr<CommBackend> make_backend(const CommConfig& config,
                                          std::uint32_t worker) {
  std::unique_ptr<CommBackend> backend;
  if (config.transport.kind == TransportKind::kInProcess) {
    backend = std::make_unique<ShmComm>();
  } else {
    backend = std::make_unique<SessionComm>(
        make_transport(config.transport, worker), config.transport, worker);
  }
  backend->set_checksum_enabled(config.checksum);
  return backend;
}

}  // namespace hcc::comm
