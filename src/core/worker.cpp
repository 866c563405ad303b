#include "core/worker.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "fault/errors.hpp"
#include "mf/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace hcc::core {

namespace {
// Workers occupy Chrome-trace tracks 1..N; track 0 is the server.
std::uint32_t track_of(std::uint32_t worker_id) { return worker_id + 1; }
}  // namespace

TrainWorker::TrainWorker(std::uint32_t id, std::string device_name,
                         data::RatingMatrix slice,
                         const comm::CommConfig& config, std::uint32_t streams)
    : id_(id),
      device_name_(std::move(device_name)),
      slice_(std::move(slice)),
      streams_(std::max(1u, streams)),
      sparse_(config.sparse),
      backend_(comm::make_backend(config, id)),
      comm_config_(config) {
  if (sparse_) {
    rebuild_touched();
  }
  const std::string base = "worker" + std::to_string(id_) + ".";
  auto& reg = obs::registry();
  hist_pull_ = &reg.histogram(base + "pull_s");
  hist_compute_ = &reg.histogram(base + "compute_s");
  hist_push_ = &reg.histogram(base + "push_s");
  hist_sync_ = &reg.histogram(base + "sync_s");
  counter_updates_ = &reg.counter("simd.sgd_updates");
  obs::trace().set_track_name(track_of(id_),
                              "worker " + std::to_string(id_) + " (" +
                                  device_name_ + ")");
}

void TrainWorker::set_schedule(const data::ScheduleOptions& options,
                               std::uint32_t k) {
  data::ScheduleOptions mixed = options;
  // Decorrelate workers: identical base seeds must not make every worker
  // visit its tiles in the same global order (that would re-synchronize
  // the server merge traffic the schedule is trying to spread out).
  mixed.seed ^= 0x9e3779b97f4a7c15ULL * (std::uint64_t(id_) + 1);
  scheduler_ = data::RatingScheduler(mixed, k);
  sched_epoch_ = 0;
  sched_stats_ = {};
}

void TrainWorker::prepare_epoch() {
  const std::uint32_t epoch = sched_epoch_++;
  if (scheduler_.options().policy == data::SchedulePolicy::kAsIs) {
    return;  // kAsIs never touches the slice
  }
  obs::ScopedSpan span("schedule", obs::kPhaseCategory, track_of(id_));
  span.arg("epoch", std::to_string(epoch));
  sched_stats_ = scheduler_.prepare(slice_, epoch);
}

void TrainWorker::set_fault_runtime(fault::FaultRuntime* runtime) {
  fault_ = runtime;
  if (runtime != nullptr && runtime->active()) {
    backend_->set_checksum_enabled(true);
    backend_->set_wire_tap([runtime, worker = id_](std::span<std::byte> wire) {
      runtime->injector().tap_wire(wire, worker);
    });
  }
}

void TrainWorker::rebuild_touched() {
  touched_.clear();
  const auto counts = slice_.col_counts();
  for (std::uint32_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) touched_.push_back(i);
  }
}

void TrainWorker::absorb_entries(const std::vector<data::Rating>& entries) {
  if (entries.empty()) return;
  // One bulk append (a single reserve + memcpy-ish insert), then one index
  // rebuild — not O(entries) incremental add() calls.
  slice_.append(entries);
  if (sparse_) rebuild_touched();
  // A repartition reshuffles what each packed slot means (and under sparse
  // push, the packed length): the delta coders' references are stale, so
  // force the next transfer per direction to re-keyframe.
  if (pull_pipe_ != nullptr) pull_pipe_->reset_state();
  if (push_pipe_ != nullptr) push_pipe_->reset_state();
}

void TrainWorker::record_phase(double seconds, double obs::PhaseTimes::*field,
                               obs::Histogram* hist) {
  // A real stall already spent its factor in wall clock (apply_real_stall
  // slept inside the span); multiplying again would double-charge it.
  const double s = seconds * (real_stalls_ ? 1.0 : stall_factor_);
  measured_.*field += s;
  hist->observe(s);
}

void TrainWorker::apply_real_stall(double elapsed_s) const {
  if (!real_stalls_ || stall_factor_ <= 1.0 || elapsed_s <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double>((stall_factor_ - 1.0) * elapsed_s));
}

comm::StreamPipeline::RetryFn TrainWorker::retry_policy() {
  return [this](const std::function<void()>& attempt) {
    std::uint32_t tries = 0;
    for (;;) {
      try {
        attempt();
        return;
      } catch (const comm::ChecksumError&) {
        if (fault_ == nullptr) throw;
        fault_->count_checksum_failure();
        if (tries >= fault_->options().max_retries) {
          throw fault::TransferFailure(id_, tries + 1, backend_->name());
        }
        // The attempt re-sends the chunk's pristine encoded bytes, so a
        // retry is idempotent.
        fault_->count_retry();
        const double backoff = fault_->options().backoff_base_s *
                               static_cast<double>(1u << tries);
        if (backoff > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        }
        ++tries;
      }
    }
  };
}

void TrainWorker::gather_touched(std::span<const float> q,
                                 std::vector<float>& packed,
                                 std::uint32_t k) const {
  assert(packed.size() == touched_.size() * std::size_t(k));
  for (std::size_t t = 0; t < touched_.size(); ++t) {
    const float* src = &q[std::size_t(touched_[t]) * k];
    std::copy(src, src + k, &packed[t * k]);
  }
}

void TrainWorker::scatter_touched(const std::vector<float>& packed,
                                  std::span<float> q,
                                  std::uint32_t k) const {
  assert(packed.size() == touched_.size() * std::size_t(k));
  for (std::size_t t = 0; t < touched_.size(); ++t) {
    const float* src = &packed[t * k];
    std::copy(src, src + k, &q[std::size_t(touched_[t]) * k]);
  }
}

void TrainWorker::ensure_buffers(Server& server) {
  const std::size_t q_size = server.model().q_data().size();
  const std::uint32_t k = server.model().k();
  if (pull_pipe_ == nullptr) {
    // Built here, not in the constructor: the quantized codecs want the
    // rank for their per-row scale blocks, and k lives on the server.
    // Sparse pushes carry their row indices in-band when the codec is a
    // stateful quantizer (SparseIndexedCodec), making the packed wire
    // self-describing; fp32/fp16 sparse wire stays bit-identical.
    pull_pipe_ = std::make_unique<comm::StreamPipeline>(
        comm_config_, k, comm::StreamPipeline::Direction::kPull);
    push_pipe_ = std::make_unique<comm::StreamPipeline>(
        comm_config_, k, comm::StreamPipeline::Direction::kPush, sparse_);
  }
  if (local_q_.size() != q_size) {
    local_q_.assign(q_size, 0.0f);
    snapshot_q_.assign(q_size, 0.0f);
    push_staging_.assign(q_size, 0.0f);
  }
  if (sparse_) {
    // Sized once from the touched set (re-sized only after absorb_entries
    // grows it); the gather/scatter hot paths assert instead of resizing.
    const std::size_t packed = touched_.size() * k;
    if (packed_send_.size() != packed) {
      packed_send_.resize(packed);
      packed_recv_.resize(packed);
    }
  }
}

void TrainWorker::pull(Server& server) {
  if (fault_ != nullptr) {
    fault_->injector().check_phase(id_);
    // Epoch-addressed transport faults (chaos link) follow the injector's
    // cursor; a no-op for the in-process link.
    backend_->begin_epoch(fault_->injector().current_epoch());
  }
  obs::ScopedSpan span("pull", obs::kPhaseCategory, track_of(id_));
  ensure_buffers(server);
  const std::uint32_t k = server.model().k();
  const comm::StreamPipeline::RetryFn retry = retry_policy();
  if (sparse_) {
    // Strategy 4: only the touched Q rows cross the wire.
    gather_touched(server.model().q_data(), packed_send_, k);
    pull_pipe_->transfer(*backend_, packed_send_, packed_recv_, retry);
    scatter_touched(packed_recv_, local_q_, k);
    // The snapshot is what this worker *received* (post-codec), so the
    // later delta merge cancels the pull's quantization exactly.  The
    // untouched rows copy local (stale) values: their delta is then exactly
    // zero, so they neither travel nor merge.
    std::copy(local_q_.begin(), local_q_.end(), snapshot_q_.begin());
  } else {
    // Dense pulls snapshot per chunk as each lands — under a depth > 1
    // pipeline the copy of chunk i overlaps the wire of chunk i+1.
    const comm::StreamPipeline::ChunkHook snapshot_chunk =
        [&](std::size_t lo, std::size_t hi) {
          std::copy(local_q_.begin() + lo, local_q_.begin() + hi,
                    snapshot_q_.begin() + lo);
        };
    pull_pipe_->transfer(*backend_, server.model().q_data(), local_q_, retry,
                         snapshot_chunk);
  }
  record_phase(span.stop(), &obs::PhaseTimes::pull_s, hist_pull_);
}

void TrainWorker::compute_chunk(Server& server, std::uint32_t chunk, float lr,
                                float reg_p, float reg_q,
                                util::ThreadPool* pool) {
  assert(chunk < streams_);
  assert(!local_q_.empty() && "pull() must precede compute_chunk()");
  if (fault_ != nullptr) fault_->injector().check_phase(id_);
  obs::ScopedSpan span("compute", obs::kPhaseCategory, track_of(id_));
  span.arg("chunk", std::to_string(chunk));
  util::Stopwatch watch;
  const auto entries = slice_.entries();
  const std::size_t per_chunk = (entries.size() + streams_ - 1) / streams_;
  const std::size_t lo = std::min(entries.size(), chunk * per_chunk);
  const std::size_t hi = std::min(entries.size(), lo + per_chunk);
  mf::FactorModel& model = server.model();
  const std::uint32_t k = model.k();
  // Hint a few updates ahead: far enough that the lines arrive before the
  // demand load, near enough that they are not evicted again first.
  constexpr std::size_t kPrefetchAhead = 4;
  auto body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t idx = begin; idx < end; ++idx) {
      if (idx + kPrefetchAhead < end) {
        const auto& f = entries[idx + kPrefetchAhead];
        mf::sgd_prefetch_rows(model.p(f.u), &local_q_[std::size_t(f.i) * k],
                              k);
      }
      const auto& e = entries[idx];
      // P row: exclusive to this worker (row grid) -> global in place.
      // Q row: private local copy, merged at push.
      mf::sgd_update_dispatch(model.p(e.u), &local_q_[std::size_t(e.i) * k],
                              k, e.r, lr, reg_p, reg_q);
    }
  };
  for (std::uint32_t pass = 0; pass < passes_; ++pass) {
    if (pool != nullptr) {
      pool->parallel_for(lo, hi, body);
    } else {
      body(lo, hi);
    }
  }
  counter_updates_->add((hi - lo) * passes_);
  last_chunk_ = chunk;
  apply_real_stall(watch.seconds());
  record_phase(span.stop(), &obs::PhaseTimes::compute_s, hist_compute_);

  // Divergence guard: a runaway learning rate poisons whole Q rows within
  // one chunk; catch it here, before push spreads it to the server.
  if (fault_ != nullptr && fault_->options().divergence_guard &&
      !mf::all_finite(local_q_)) {
    util::log_kv(util::LogLevel::kWarn, "fault.divergence",
                 {util::kv("worker", id_),
                  util::kv("epoch", fault_->injector().current_epoch())});
    throw fault::DivergenceError(id_, fault_->injector().current_epoch());
  }
}

void TrainWorker::push(Server& server) {
  assert(!local_q_.empty() && "pull() must precede push()");
  if (fault_ != nullptr) {
    fault_->injector().check_phase(id_);
    fault_->injector().begin_push(id_, last_chunk_);
    backend_->begin_epoch(fault_->injector().current_epoch());
  }
  obs::ScopedSpan span("push", obs::kPhaseCategory, track_of(id_));
  const comm::StreamPipeline::RetryFn retry = retry_policy();
  if (sparse_) {
    const std::uint32_t k = server.model().k();
    gather_touched(local_q_, packed_send_, k);
    // Quantized sparse pushes ride the SparseIndexedCodec framing: the
    // packed values go through the int8/2-bit wire with their row indices
    // in-band (wired up in ensure_buffers).
    push_pipe_->set_sparse_rows(touched_);
    push_pipe_->transfer(*backend_, packed_send_, packed_recv_, retry);
    // Untouched rows carry the snapshot, so their merge delta is zero.
    std::copy(snapshot_q_.begin(), snapshot_q_.end(), push_staging_.begin());
    scatter_touched(packed_recv_, push_staging_, k);
  } else {
    push_pipe_->transfer(*backend_, local_q_, push_staging_, retry);
  }
  if (fault_ != nullptr) fault_->injector().end_push(id_);
  record_phase(span.stop(), &obs::PhaseTimes::push_s, hist_push_);

  // The server-side merge is the paper's T_sync term — timed separately
  // and attributed to this worker (the server records its own span).
  util::Stopwatch sync_watch;
  if (!item_weights_.empty()) {
    server.sync_q(push_staging_, snapshot_q_,
                  std::span<const float>(item_weights_));
  } else {
    server.sync_q(push_staging_, snapshot_q_, sync_weight_);
  }
  record_phase(sync_watch.seconds(), &obs::PhaseTimes::sync_s, hist_sync_);
}

}  // namespace hcc::core
