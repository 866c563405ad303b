// The scalar kernel table: the portable baseline and the conformance oracle
// every vector backend is tested against.  Compiled with the project's
// default flags only — no -m options — so it runs on any host the binary
// targets.
#include "simd/kernel_table.hpp"
#include "simd/scalar_impl.hpp"

namespace hcc::simd {

const KernelTable& scalar_kernels() noexcept {
  static const KernelTable table{
      Isa::kScalar,
      "scalar",
      detail::scalar_dot,
      detail::scalar_score_block,
      detail::scalar_sgd_update,
      detail::scalar_sum_squares,
      detail::scalar_all_finite,
      detail::scalar_fp16_encode,
      detail::scalar_fp16_decode,
      detail::scalar_absmax,
      detail::scalar_ef_delta,
      detail::scalar_int8_encode,
      detail::scalar_int8_commit,
      detail::scalar_two_bit_encode,
      detail::scalar_two_bit_commit,
  };
  return table;
}

}  // namespace hcc::simd
