// Helpers of the benchmark that carry its measuring rules: quantiles, the
// tail quantile the sample supports, the open-loop load generator that times
// each request from its due time, and the reconciliation that exposes the
// part of train() no epoch accounts for.  Header-only and independent of the
// library, so stats_test.cpp checks them in isolation.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <thread>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] of `v`, interpolating linearly between order
/// statistics (numpy's default).  NaN for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The highest quantile of a fixed ladder that still has at least
/// `kTailBeyond` samples beyond it, with its value and the sample count.
struct TailQuantile {
  double q = 0.0;  ///< 0 when the sample is too small for any rung
  double value = std::numeric_limits<double>::quiet_NaN();
  std::size_t n = 0;
};

inline constexpr std::size_t kTailBeyond = 10;

inline TailQuantile tail_quantile(const std::vector<double>& v) {
  static constexpr double kLadder[] = {0.9999, 0.999, 0.99, 0.9, 0.5};
  TailQuantile t;
  t.n = v.size();
  for (const double q : kLadder) {
    // Samples strictly above the q-quantile's rank.
    const double beyond =
        std::floor(static_cast<double>(t.n) * (1.0 - q) + 1e-9);
    if (beyond >= static_cast<double>(kTailBeyond)) {
      t.q = q;
      t.value = quantile(v, q);
      return t;
    }
  }
  return t;
}

/// What train() spent outside its epochs and the work the benchmark can
/// attribute between them: the wall of the facade call, minus the epoch
/// walls, minus the test-RMSE evaluations and checkpoint copies it made
/// (each timed separately by the benchmark at the same shape).
inline double unaccounted_s(double train_s, double epoch_walls_s,
                            std::size_t rmse_evals, double rmse_eval_s,
                            std::size_t checkpoints, double checkpoint_s) {
  return train_s - epoch_walls_s -
         static_cast<double>(rmse_evals) * rmse_eval_s -
         static_cast<double>(checkpoints) * checkpoint_s;
}

/// One request of an open-loop run, in seconds since the run's origin.
struct RequestTiming {
  double due_s = 0.0;    ///< when the schedule says it is sent
  double sent_s = 0.0;   ///< when the generator actually enqueued it
  double start_s = 0.0;  ///< when a reader picked it up
  double end_s = 0.0;    ///< when its answer was complete
  double latency_s() const { return end_s - due_s; }
  double queue_s() const { return start_s - due_s; }
  double service_s() const { return end_s - start_s; }
};

/// Runs an open loop: one generator thread releases request i at
/// origin + due_s[i] whatever the readers are doing, and `readers` threads
/// take the requests in order and serve them through `serve(i, reader)`.
/// Latency is taken from the due time, so a stall delays — and is charged
/// to — every request queued behind it.  Readers and the generator's last
/// stretch before each due time spin rather than sleep, so thread wake-up
/// latency of the harness itself does not pose as queueing.  Returns one
/// timing per request, in request order.  `serve` is called concurrently
/// from the reader threads and must not throw.
template <class Serve>
std::vector<RequestTiming> run_open_loop(const std::vector<double>& due_s,
                                         unsigned readers, Serve&& serve) {
  using Clock = std::chrono::steady_clock;
  constexpr double kSpinS = 200e-6;  ///< generator spins this long per send
  std::vector<RequestTiming> out(due_s.size());
  std::atomic<std::size_t> next{0};      // next request a reader claims
  std::atomic<std::size_t> released{0};  // requests the generator sent
  const Clock::time_point origin = Clock::now();
  const auto since = [origin] {
    return std::chrono::duration<double>(Clock::now() - origin).count();
  };

  std::vector<std::thread> pool;
  pool.reserve(readers);
  for (unsigned r = 0; r < readers; ++r) {
    pool.emplace_back([&, r] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= out.size()) return;
        while (released.load(std::memory_order_acquire) <= i) {
          std::this_thread::yield();
        }
        out[i].start_s = since();
        serve(i, r);
        out[i].end_s = since();
      }
    });
  }
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    if (due_s[i] - since() > kSpinS) {
      std::this_thread::sleep_until(
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i] - kSpinS)));
    }
    while (since() < due_s[i]) {
    }
    out[i].due_s = due_s[i];
    out[i].sent_s = since();
    released.store(i + 1, std::memory_order_release);
  }
  for (auto& t : pool) t.join();
  return out;
}

/// A backlog grows when requests due late in a run wait clearly longer in
/// the queue than those due early: the median queue wait of the last
/// quarter exceeds the first quarter's by more than `slack_s`.
inline bool backlog_grows(const std::vector<RequestTiming>& timings,
                          double slack_s) {
  const std::size_t quarter = timings.size() / 4;
  if (quarter == 0) return false;
  std::vector<double> first, last;
  for (std::size_t i = 0; i < quarter; ++i) {
    first.push_back(timings[i].queue_s());
    last.push_back(timings[timings.size() - 1 - i].queue_s());
  }
  return median(last) > median(first) + slack_s;
}

}  // namespace perfbench
