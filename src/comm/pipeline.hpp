// Chunked streaming pipeline: the one wire path for every P/Q transfer.
//
// A StreamPipeline splits one logical P/Q transfer into row-aligned chunks
// and runs a bounded ring of them in flight through a CommBackend's
// split-phase chunk API (backend.hpp): while chunk i-1 crosses the wire and
// commits on the receiver, chunk i's EF encode is already underway.  In
// steady state each chunk therefore costs max(encode, wire, commit)
// instead of their sum — the Eq. 1 overlap term the cost model
// (core/cost_model.cpp) predicts and bench_table5_comm measures.  Depth 1
// is the same loop over a single chunk.
//
// One ring loop serves both executors.  Each step fills the window —
// encoding each chunk inline, or waiting for a dedicated encoder thread to
// have encoded it — then submits it, and then commits the oldest chunk.
// The encoder thread therefore decides only which thread encodes: the
// order and number of backend calls are fixed, so the wire and a
// session's virtual clock are identical either way.  The thread runs only
// when a transfer has several chunks and the host has a second hardware
// thread to run it (Threading::kAuto); one spare ring slot lets it encode
// the chunk after the window while the caller commits the oldest.
//
// Guarantees:
//  - depth 1 sends the whole array as one chunk through one codec built
//    with CommConfig::codec_threads.
//  - depth > 1 decodes to bit-identical floats: the quantized codecs scale
//    per k-block and chunks are block-aligned, so per-chunk codec state
//    partitions the monolithic codec's state exactly.
//  - error feedback survives retries: a chunk aborted by ChecksumError is
//    re-submitted from its pristine ring slot (codec state only commits at
//    decode), so the retry wire is byte-identical per chunk.
//  - chunks commit in submission order; the on_chunk hook fires as each
//    chunk's floats land, letting the worker overlap snapshot copies too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/backend.hpp"
#include "comm/codec.hpp"
#include "comm/strategy.hpp"
#include "obs/metrics.hpp"

namespace hcc::comm {

/// One direction's chunked transfer engine.  Owns the per-chunk codec
/// instances (so EF state persists across epochs) and the in-flight ring.
class StreamPipeline {
 public:
  enum class Direction {
    kPull,  ///< server -> worker (uses pull_codec_kind: no 2-bit pulls)
    kPush,  ///< worker -> server
  };

  /// Who encodes a multi-chunk transfer.  kAuto picks kThreaded when the
  /// host has >= 2 hardware threads and kInline otherwise; both make the
  /// same backend calls in the same order.  Process-wide test/bench seam.
  enum class Threading {
    kAuto,
    kInline,    ///< windowed ring on the calling thread only
    kThreaded,  ///< dedicated encoder thread feeds the ring
  };
  static void set_threading(Threading mode) noexcept;
  static Threading threading() noexcept;

  /// Wraps one delivery attempt with the caller's retry policy (fault
  /// counting, bounded retries, backoff).  The pipeline invokes the inner
  /// callable; it throws ChecksumError when the chunk needs re-sending and
  /// the same callable re-submits pristine bytes on its next invocation.
  using RetryFn = std::function<void(const std::function<void()>&)>;

  /// Fires after chunk [lo, hi) (float offsets into dst) has committed —
  /// in order — so per-chunk post-processing overlaps the remaining wire.
  using ChunkHook = std::function<void(std::size_t lo, std::size_t hi)>;

  /// `row_elems` is the factor rank k (chunks stay row-aligned and the
  /// quantized codecs scale per row); `sparse_indexed` frames quantized
  /// payloads with their row indices (SparseIndexedCodec) for the sparse
  /// push path — stateless codecs stay unwrapped, keeping the legacy
  /// fp32/fp16 sparse wire bit-identical.
  StreamPipeline(const CommConfig& config, std::size_t row_elems,
                 Direction direction, bool sparse_indexed = false);

  /// In-flight window; 1 = one chunk per transfer.
  std::uint32_t depth() const noexcept { return depth_; }
  /// Switches the window between epochs.  A new depth re-partitions codec
  /// state, so the next transfer re-keyframes.
  void set_depth(std::uint32_t depth);
  /// Chunks an n-float transfer splits into at the current depth.
  std::size_t chunk_count(std::size_t n_floats) const noexcept;

  /// Drops all codec EF state; the next transfer per chunk is a keyframe.
  void reset_state();

  /// Row indices backing the sparse-indexed framing; must cover the rows of
  /// the next packed transfer, in payload order.  The span must stay valid
  /// through the transfer call.
  void set_sparse_rows(std::span<const std::uint32_t> rows) noexcept {
    sparse_rows_ = rows;
  }

  /// Wire codec label for logs/summaries ("int8", "sparse+int8", ...).
  std::string codec_name();

  /// Moves src into dst through `backend`'s chunk API, overlapping
  /// encode / wire / commit when the transfer has several chunks.
  void transfer(CommBackend& backend, std::span<const float> src,
                std::span<float> dst, const RetryFn& retry = {},
                const ChunkHook& on_chunk = {});

 private:
  void ensure_layout(std::size_t n_floats);
  std::unique_ptr<Codec> build_codec(std::uint32_t threads) const;
  void ensure_pipeline_metrics();
  std::pair<std::size_t, std::size_t> chunk_range(std::size_t chunk) const;

  CommConfig config_;
  std::size_t row_elems_;
  Direction dir_;
  bool sparse_indexed_;
  std::uint32_t depth_;
  /// Row-aligned floats per chunk: the whole array at depth 1, else sized
  /// from codec_threads so a 0-thread per-chunk codec still saturates
  /// (threads x kParallelThreshold).
  std::size_t chunk_floats_;

  /// One codec per chunk.  depth 1: a single codec with codec_threads.
  /// depth > 1: each created with 0 threads (the encoder thread and the
  /// chunk fan-out are the parallelism; nesting pools would explode
  /// threads).
  std::vector<std::unique_ptr<Codec>> codecs_;
  /// Aligned with codecs_: the SparseIndexedCodec view when wrapped.
  std::vector<SparseIndexedCodec*> sparse_views_;
  std::size_t n_floats_ = 0;

  std::span<const std::uint32_t> sparse_rows_;

  /// Encoded wire per in-flight chunk, kept across transfers so a
  /// steady-state transfer does not allocate.
  std::vector<std::vector<std::byte>> ring_;

  obs::Counter* chunks_counter_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Histogram* stall_hist_ = nullptr;
  obs::Gauge* overlap_gauge_ = nullptr;
};

}  // namespace hcc::comm
