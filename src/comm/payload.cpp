#include "comm/payload.hpp"

#include <cmath>

namespace hcc::comm {

double wire_bytes(std::uint64_t elements, CodecKind kind,
                  std::uint32_t row_elems) {
  const std::uint64_t row = row_elems > 0 ? row_elems : 128;
  const std::uint64_t blocks = (elements + row - 1) / row;
  const std::uint64_t rem = elements % row;
  switch (kind) {
    case CodecKind::kFp32:
      return static_cast<double>(elements) * 4.0;
    case CodecKind::kFp16:
      return static_cast<double>(elements) * 2.0;
    case CodecKind::kInt8:
      return static_cast<double>(blocks * 4 + elements);
    case CodecKind::kTwoBit: {
      const std::uint64_t full = elements / row;
      std::uint64_t payload = full * ((row + 3) / 4);
      if (rem != 0) payload += (rem + 3) / 4;
      return static_cast<double>(blocks * 4 + payload);
    }
  }
  return static_cast<double>(elements) * 4.0;
}

const char* payload_mode_name(PayloadMode mode) {
  switch (mode) {
    case PayloadMode::kPQ: return "P&Q";
    case PayloadMode::kQOnly: return "Q";
    case PayloadMode::kPOnly: return "P";
  }
  return "?";
}

std::uint64_t pull_elements(const sim::DatasetShape& shape, PayloadMode mode) {
  const std::uint64_t p_elems = shape.m * shape.k;
  const std::uint64_t q_elems = shape.n * shape.k;
  switch (mode) {
    case PayloadMode::kPQ: return p_elems + q_elems;
    case PayloadMode::kQOnly: return q_elems;
    case PayloadMode::kPOnly: return p_elems;
  }
  return 0;
}

std::uint64_t push_elements(const sim::DatasetShape& shape, PayloadMode mode,
                            bool last_epoch) {
  const std::uint64_t p_elems = shape.m * shape.k;
  const std::uint64_t q_elems = shape.n * shape.k;
  if (mode == PayloadMode::kPQ || last_epoch) return p_elems + q_elems;
  return mode == PayloadMode::kQOnly ? q_elems : p_elems;
}

double expected_touched_fraction(double assigned_nnz, double n) {
  if (n <= 0.0) return 0.0;
  if (assigned_nnz <= 0.0) return 0.0;
  return 1.0 - std::exp(-assigned_nnz / n);
}

double total_wire_bytes(const sim::DatasetShape& shape, PayloadMode mode,
                        CodecKind kind, std::uint32_t epochs) {
  double total = 0.0;
  for (std::uint32_t e = 0; e < epochs; ++e) {
    const bool last = (e + 1 == epochs);
    total += wire_bytes(pull_elements(shape, mode), kind, shape.k);
    total += wire_bytes(push_elements(shape, mode, last), kind, shape.k);
  }
  return total;
}

}  // namespace hcc::comm
