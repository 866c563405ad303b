// Shared plumbing of the benchmark binary: arguments, the result a run
// prints, the benchmark's own spans, and deltas of the library's metrics
// registry around one call.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "comm/pipeline.hpp"
#include "data/datasets.hpp"
#include "data/rating_matrix.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string results_dir;  ///< where the result and trace files go
  std::string commit;       ///< source revision, stamped into the result
  /// Executor of train-cluster's depth-4 chunk ring.  Inline keeps the run
  /// on one thread, which the exact-repeat check needs (README.md).
  hcc::comm::StreamPipeline::Threading pipeline_threading =
      hcc::comm::StreamPipeline::Threading::kInline;
};

/// Seconds on the steady clock since the process started measuring.
double now_s();

/// The benchmark's own spans: name, start, end and the span that caused
/// it.  Spans are kept in memory and written out when the run ends.  Time
/// is always taken (the untraced run needs the durations too); recording
/// happens only when the log is enabled.
class SpanLog {
 public:
  struct Record {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    double start_s = 0.0;
    double end_s = 0.0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  std::uint64_t next_id();
  void add(Record r);
  std::vector<Record> records() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<Record> records_;
};

SpanLog& spans();

/// Times one scope; records it into spans() when tracing is on.
class Span {
 public:
  explicit Span(std::string name, std::uint64_t parent = 0);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }
  std::uint64_t id() const { return id_; }
  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop();

 private:
  std::string name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  double start_s_;
  double seconds_ = -1.0;
};

/// Counter values and histogram sums of the library's obs::registry() at
/// one instant; subtracting two gives what one call added.
struct RegistrySnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> hist_sums;

  static RegistrySnapshot take();
  RegistrySnapshot operator-(const RegistrySnapshot& before) const;
  double counter(const std::string& name) const;
  double hist_sum(const std::string& name) const;
  /// Sum over every histogram whose name is `prefix` + anything + `suffix`.
  double hist_sum_matching(const std::string& prefix,
                           const std::string& suffix) const;
};

/// What one run reports: its metrics, its correctness checks, and the
/// attempt tally.  finish() prints a human-readable report followed by the
/// one-line JSON the benchmark contract asks for.
class Result {
 public:
  /// Records a metric of the catalog (report.cpp, mirrored by
  /// BENCHMARK.json), which fixes its unit.
  void metric(const std::string& name, double value);
  /// Extra measured detail kept in the result file and printed, but not in
  /// the final JSON line (per-rate latencies, sample counts, ...).
  void detail(const std::string& name, double value, const std::string& unit);
  void check(const std::string& name, bool ok, const std::string& what);
  void attempt(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }

  bool correct() const;
  /// Prints the report; writes the result (and, traced, the span) files
  /// under args.results_dir.  Returns the process exit code.
  int finish(const Args& args);

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Value>> metrics_;
  std::vector<std::pair<std::string, Value>> details_;
  struct Check {
    std::string name;
    bool ok;
    std::string what;
  };
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process since the last reset_peak_rss()
/// (or since it started), in MiB.  The reset also returns freed heap to the
/// kernel, so the next peak starts from what is live.
double peak_rss_mb();
void reset_peak_rss();

/// Latency of a sample of requests: the median as the end-to-end metric,
/// and as detail the highest quantile with at least ten samples beyond it
/// (quantile 0 when the sample supports none) and the sample size.
void report_latency(const std::vector<double>& ms, Result& result);

/// One set-up: the seeded synthetic dataset and its 90/10 split, with the
/// time each library call took.
struct Dataset {
  hcc::data::RatingMatrix train;
  hcc::data::RatingMatrix test;
  double generate_s = 0.0;
  double split_s = 0.0;
};
Dataset make_dataset(const hcc::data::DatasetSpec& spec, std::uint64_t seed);

/// Set-up repetitions per run; set-up time is their median.
inline constexpr int kSetups = 3;

void run_train_node(const Args& args, Result& result);
void run_train_cluster(const Args& args, Result& result);
void run_serve_mixed(const Args& args, Result& result);

}  // namespace perfbench
