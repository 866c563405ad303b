// Payload selection and byte accounting (Strategy 1 of Section 3.4).
//
// Under a row grid, each worker's P rows are private for the whole training
// run, so the per-epoch exchange only needs the Q matrix ("Transmitting Q
// matrix only"); symmetrically, a column grid only needs P.  The very last
// push of training transmits both matrices so the server ends up with the
// complete model.
#pragma once

#include <cstdint>

#include "comm/codec.hpp"
#include "sim/perf_model.hpp"

namespace hcc::comm {

/// Which feature matrices travel between worker and server each epoch.
enum class PayloadMode {
  kPQ,     ///< both matrices, every epoch (unoptimized baseline)
  kQOnly,  ///< Q each epoch, P only in the final push (row grids, m >= n)
  kPOnly,  ///< P each epoch, Q only in the final push (column grids, m < n)
};

const char* payload_mode_name(PayloadMode mode);

/// The paper's rule: transmit only the smaller-dimension matrix.
inline PayloadMode choose_payload(std::uint64_t m, std::uint64_t n) {
  return m >= n ? PayloadMode::kQOnly : PayloadMode::kPOnly;
}

/// Feature elements (floats) a worker pulls at the start of an epoch.
std::uint64_t pull_elements(const sim::DatasetShape& shape, PayloadMode mode);

/// Feature elements a worker pushes at the end of an epoch.  `last_epoch`
/// adds the withheld matrix on the final push.
std::uint64_t push_elements(const sim::DatasetShape& shape, PayloadMode mode,
                            bool last_epoch);

/// Wire bytes for `elements` floats under codec `kind`, for the Eq. 1-5
/// cost terms.  The quantized codecs add a 4-byte scale per `row_elems`
/// block; their occasional keyframes are ignored (steady-state bytes
/// dominate a multi-epoch run).
double wire_bytes(std::uint64_t elements, CodecKind kind,
                  std::uint32_t row_elems);

/// Total wire bytes one worker moves (pull + push) across a whole training
/// run of `epochs` epochs under codec `kind` (one scale block per factor
/// row).  This is the quantity whose ratio gives the paper's theoretical
/// speedups in Table 5 (e.g. ~19x for Netflix Q-only).
double total_wire_bytes(const sim::DatasetShape& shape, PayloadMode mode,
                        CodecKind kind, std::uint32_t epochs);

/// Expected fraction of the n items a worker's slice touches, given it
/// holds `assigned_nnz` ratings spread over `n` items — the balls-in-bins
/// estimate 1 - exp(-assigned/n) under uniform popularity.  Real Zipf data
/// touches fewer items; the functional layer uses exact per-slice counts,
/// the timing layer this bound (so sparse-push savings are conservative).
/// Drives "Strategy 4" (sparse push, an extension — see CommConfig::sparse).
double expected_touched_fraction(double assigned_nnz, double n);

}  // namespace hcc::comm
