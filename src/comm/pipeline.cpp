#include "comm/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "obs/span.hpp"
#include "util/clock.hpp"

namespace hcc::comm {

namespace {

/// Applies the caller's retry policy, or runs the attempt once when the
/// caller passed none.
void run_with(const StreamPipeline::RetryFn& retry,
              const std::function<void()>& attempt) {
  if (retry) {
    retry(attempt);
  } else {
    attempt();
  }
}

std::atomic<StreamPipeline::Threading> g_threading{
    StreamPipeline::Threading::kAuto};

/// kAuto: an encoder thread only overlaps anything when a second hardware
/// thread exists to run it; on a single core it just adds context
/// switches on the critical path.  An unknown core count (0) assumes the
/// common multi-core case.
bool use_encoder_thread() {
  switch (g_threading.load(std::memory_order_relaxed)) {
    case StreamPipeline::Threading::kInline:
      return false;
    case StreamPipeline::Threading::kThreaded:
      return true;
    case StreamPipeline::Threading::kAuto:
      break;
  }
  return std::thread::hardware_concurrency() != 1;
}

/// Encodes chunks 0..chunks-1 in order on its own thread, at most `slots`
/// chunks ahead of the caller's commits (the ring's capacity).  The mutex
/// guards both counters; the condition variable lets whichever side has
/// nothing to do sleep.
class EncoderThread {
 public:
  EncoderThread(std::size_t chunks, std::size_t slots,
                const std::function<void(std::size_t)>& encode)
      : thread_([this, chunks, slots, &encode] {
          run(chunks, slots, encode);
        }) {}

  EncoderThread(const EncoderThread&) = delete;
  EncoderThread& operator=(const EncoderThread&) = delete;

  ~EncoderThread() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      abort_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Blocks until chunk `c` is encoded; rethrows an encoder failure.
  void wait_encoded(std::size_t c) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return abort_ || encoded_ > c; });
    if (error_) std::rethrow_exception(error_);
  }

  /// Chunks [0, committed) are decoded: their ring slots may be reused.
  void release(std::size_t committed) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      committed_ = committed;
    }
    cv_.notify_all();
  }

  /// Joins the finished thread and returns its encode time.
  double join() {
    thread_.join();
    return busy_s_;
  }

 private:
  void run(std::size_t chunks, std::size_t slots,
           const std::function<void(std::size_t)>& encode) {
    try {
      util::Stopwatch watch;
      for (std::size_t c = 0; c < chunks; ++c) {
        {
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait(lock, [&] { return abort_ || c < committed_ + slots; });
          if (abort_) return;
        }
        watch.reset();
        encode(c);
        busy_s_ += watch.seconds();
        {
          std::lock_guard<std::mutex> lock(mu_);
          encoded_ = c + 1;
        }
        cv_.notify_all();
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        error_ = std::current_exception();
        abort_ = true;
      }
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t encoded_ = 0;
  std::size_t committed_ = 0;
  bool abort_ = false;
  std::exception_ptr error_;
  double busy_s_ = 0.0;  // encoder-owned until join()
  std::thread thread_;   // last: starts after every field above exists
};

}  // namespace

void StreamPipeline::set_threading(Threading mode) noexcept {
  g_threading.store(mode, std::memory_order_relaxed);
}

StreamPipeline::Threading StreamPipeline::threading() noexcept {
  return g_threading.load(std::memory_order_relaxed);
}

StreamPipeline::StreamPipeline(const CommConfig& config, std::size_t row_elems,
                               Direction direction, bool sparse_indexed)
    : config_(config),
      row_elems_(row_elems > 0 ? row_elems : 1),
      dir_(direction),
      sparse_indexed_(sparse_indexed),
      depth_(0) {
  set_depth(config.pipeline_depth);
}

std::size_t StreamPipeline::chunk_count(std::size_t n_floats) const noexcept {
  return std::max<std::size_t>(
      1, n_floats / chunk_floats_ + (n_floats % chunk_floats_ != 0));
}

void StreamPipeline::set_depth(std::uint32_t depth) {
  const std::uint32_t clamped = std::max(1u, depth);
  if (clamped == depth_) return;
  depth_ = clamped;
  if (depth_ == 1) {
    chunk_floats_ = std::numeric_limits<std::size_t>::max();
  } else {
    // A chunk carries at least `codec_threads` pool-parallel stripes' worth
    // of floats so the 0-thread per-chunk codecs don't lose throughput to
    // the monolithic pooled codec, rounded down to whole rows so quantized
    // scale blocks (one per row) never straddle chunks.
    const std::size_t threads = std::max(1u, config_.codec_threads);
    const std::size_t target =
        std::max(row_elems_, threads * Fp16Codec::kParallelThreshold);
    chunk_floats_ = (target / row_elems_) * row_elems_;
  }
  // Codec state is partitioned per chunk; a different window can mean a
  // different partition, so drop the codecs and let the next transfer
  // re-seed with keyframes rather than decode against mismatched state.
  codecs_.clear();
  sparse_views_.clear();
  n_floats_ = 0;
}

void StreamPipeline::reset_state() {
  for (auto& codec : codecs_) codec->reset_state();
}

std::unique_ptr<Codec> StreamPipeline::build_codec(
    std::uint32_t threads) const {
  CommConfig config = config_;
  config.codec_threads = threads;
  auto inner = dir_ == Direction::kPull ? make_pull_codec(config, row_elems_)
                                        : make_codec(config, row_elems_);
  // Only stateful (quantized) payloads gain the row-index frame: their
  // sparse wire wasn't self-describing before, while fp32/fp16 sparse
  // transfers stay bit-identical to the legacy format.
  if (sparse_indexed_ && inner->stateful()) {
    return std::make_unique<SparseIndexedCodec>(std::move(inner), row_elems_);
  }
  return inner;
}

void StreamPipeline::ensure_pipeline_metrics() {
  if (chunks_counter_ != nullptr) return;
  auto& reg = obs::registry();
  chunks_counter_ = &reg.counter("comm.pipeline.chunks");
  inflight_gauge_ = &reg.gauge("comm.pipeline.inflight_peak");
  stall_hist_ = &reg.histogram("comm.pipeline.stall_ms");
  overlap_gauge_ = &reg.gauge("comm.pipeline.overlap_ratio");
}

std::pair<std::size_t, std::size_t> StreamPipeline::chunk_range(
    std::size_t chunk) const {
  const std::size_t lo = std::min(n_floats_, chunk * chunk_floats_);
  return {lo, lo + std::min(n_floats_ - lo, chunk_floats_)};
}

void StreamPipeline::ensure_layout(std::size_t n_floats) {
  const std::size_t chunks = chunk_count(n_floats);
  if (codecs_.size() != chunks) {
    // Chunk-count changes re-partition state; size drift inside the last
    // chunk is handled by that chunk's codec keyframing itself (at depth 1
    // the single codec re-keyframes whenever the float count changes).
    const std::uint32_t threads = depth_ == 1 ? config_.codec_threads : 0;
    codecs_.clear();
    sparse_views_.clear();
    codecs_.reserve(chunks);
    sparse_views_.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      codecs_.push_back(build_codec(threads));
      sparse_views_.push_back(
          dynamic_cast<SparseIndexedCodec*>(codecs_.back().get()));
    }
  }
  n_floats_ = n_floats;
}

void StreamPipeline::transfer(CommBackend& backend, std::span<const float> src,
                              std::span<float> dst, const RetryFn& retry,
                              const ChunkHook& on_chunk) {
  assert(src.size() == dst.size());
  ensure_layout(src.size());
  ensure_pipeline_metrics();
  obs::ScopedSpan span("transfer", obs::kCommCategory);
  const std::size_t chunks = codecs_.size();
  const std::size_t window = std::min<std::size_t>(depth_, chunks);
  // A slot's pristine bytes live until its chunk commits (for ChecksumError
  // re-submission).  One slot beyond the window lets the encoder thread
  // encode the chunk after the window while the oldest one commits.
  const std::size_t slots = std::min(chunks, window + 1);
  if (ring_.size() < slots) ring_.resize(slots);

  if (sparse_indexed_) {
    for (std::size_t c = 0; c < chunks; ++c) {
      if (sparse_views_[c] == nullptr) continue;
      const auto [lo, hi] = chunk_range(c);
      sparse_views_[c]->set_rows(
          sparse_rows_.subspan(lo / row_elems_, (hi - lo) / row_elems_));
    }
  }

  const std::function<void(std::size_t)> encode = [&](std::size_t c) {
    const auto [lo, hi] = chunk_range(c);
    std::vector<std::byte>& wire = ring_[c % slots];
    wire.resize(codecs_[c]->encoded_bytes(hi - lo));
    codecs_[c]->encode(src.subspan(lo, hi - lo), wire);
  };
  // A single chunk has nothing to overlap, so it never spawns a thread.
  std::optional<EncoderThread> encoder;
  if (chunks > 1 && use_encoder_thread()) {
    encoder.emplace(chunks, slots, encode);
  }

  double encode_s = 0.0;
  double stall_s = 0.0;
  double commit_s = 0.0;
  std::size_t inflight_peak = 0;
  std::size_t wire_bytes = 0;
  std::size_t submitted = 0;
  util::Stopwatch watch;
  for (std::size_t c = 0; c < chunks; ++c) {
    // Fill the window: chunks [c, c + window) are in flight before the
    // oldest commits, whichever thread encoded them.
    for (; submitted < std::min(chunks, c + window); ++submitted) {
      watch.reset();
      if (encoder) {
        encoder->wait_encoded(submitted);
        stall_s += watch.seconds();
      } else {
        encode(submitted);
        encode_s += watch.seconds();
      }
      const std::vector<std::byte>& wire = ring_[submitted % slots];
      backend.submit_chunk(wire);
      wire_bytes += wire.size();
      inflight_peak = std::max(inflight_peak, backend.chunks_in_flight());
    }

    // Commit the oldest outstanding chunk.  On ChecksumError the same
    // attempt re-submits the slot's pristine bytes first, so the retry
    // wire is byte-identical and EF state (committed only by decode)
    // stays consistent.
    const std::vector<std::byte>& pristine = ring_[c % slots];
    const auto [lo, hi] = chunk_range(c);
    bool resend = false;
    run_with(retry, [&] {
      if (resend) backend.submit_chunk(pristine);
      resend = true;
      watch.reset();
      const std::span<const std::byte> delivered = backend.await_chunk();
      stall_s += watch.seconds();
      watch.reset();
      codecs_[c]->decode(delivered, dst.subspan(lo, hi - lo));
      commit_s += watch.seconds();
    });
    if (on_chunk) on_chunk(lo, hi);
    if (encoder) encoder->release(c + 1);
  }
  if (encoder) encode_s = encoder->join();
  backend.settle_chunks();

  // Overlap accounting: the caller's wall clock already contains the
  // decode/commit work and every stall; an encoder thread's busy time
  // rides on top.  Serial execution gives a ratio near 1, full
  // encode/commit overlap pushes it toward 2.
  span.arg("bytes", std::to_string(wire_bytes));
  const double wall_s = span.stop();
  chunks_counter_->add(chunks);
  inflight_gauge_->set(static_cast<double>(inflight_peak));
  stall_hist_->observe(stall_s * 1e3);
  if (wall_s > 0.0) {
    overlap_gauge_->set((encode_s + commit_s + stall_s) / wall_s);
  }
}

}  // namespace hcc::comm
