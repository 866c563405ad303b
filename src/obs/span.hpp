// RAII scoped spans and the trace recorder behind them.
//
// A ScopedSpan times one phase of the collaborative-computing timeline —
// the paper's `pull`, `compute`, `push`, `sync` (Section 3.2) — and, when
// tracing is enabled, records a complete event the Chrome-trace exporter
// can render.  Recording is off by default so instrumented hot paths cost
// two steady_clock reads and nothing else; stop() always returns the
// elapsed seconds so callers can feed accumulators and histograms even
// with tracing off.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace hcc::obs {

/// Span phase category names (Chrome trace `cat`): the paper's epoch terms.
inline constexpr const char* kPhaseCategory = "phase";
inline constexpr const char* kCommCategory = "comm";
inline constexpr const char* kEpochCategory = "epoch";
/// train()'s stages outside the epoch phases: slicing, model init, merge
/// weights, test-set ordering and each test-RMSE evaluation.
inline constexpr const char* kTrainCategory = "train";

/// One complete ("ph":"X") trace event.  `track` renders as the Chrome
/// trace tid, so per-worker phases land on per-worker rows.
struct TraceEvent {
  std::string name;
  std::string cat;
  std::uint32_t track = 0;
  double ts_us = 0.0;   ///< start, microseconds since the recorder epoch
  double dur_us = 0.0;  ///< duration, microseconds
  std::vector<std::pair<std::string, std::string>> args;
};

/// Thread-safe append-only event sink with its own time origin.
class TraceRecorder {
 public:
  /// Enables/disables event recording (spans still time themselves).
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds since this recorder's construction (or last clear()).
  double now_us() const;

  /// Appends `event` if recording is enabled.
  void record(TraceEvent event);

  /// Human name for a track (Chrome's thread_name metadata) — e.g. the
  /// worker's device name.
  void set_track_name(std::uint32_t track, std::string name);

  std::size_t size() const;
  std::vector<TraceEvent> snapshot() const;
  std::map<std::uint32_t, std::string> track_names() const;

  /// Drops all events and track names and restarts the time origin.
  void clear();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::map<std::uint32_t, std::string> tracks_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// The process-global recorder the instrumented runtime writes to.
TraceRecorder& trace();

/// Times a scope; on stop (or destruction) records one TraceEvent into the
/// recorder when tracing is enabled.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder& recorder, std::string name, std::string cat,
             std::uint32_t track = 0);
  /// Convenience: record into the global trace().
  ScopedSpan(std::string name, std::string cat, std::uint32_t track = 0);

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { stop(); }

  /// Attaches a key/value argument (rendered in the trace viewer).
  void arg(std::string key, std::string value);

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop();

 private:
  TraceRecorder* recorder_;
  TraceEvent event_;
  std::chrono::steady_clock::time_point start_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

}  // namespace hcc::obs
