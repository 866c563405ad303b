#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "simd/dispatch.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

struct Catalog {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; run.py checks the printed keys against it.
constexpr Catalog kEndToEnd[] = {
    {"setup_s", "s"},          {"train_s", "s"},
    {"final_rmse", "rmse"},    {"peak_rss_mb", "MiB"},
    {"latency_ms", "ms"},      {"throughput_per_s", "1/s"},
};

constexpr Catalog kPerLayer[] = {
    {"data.generate_s", "s"},
    {"data.split_s", "s"},
    {"core.epoch_s", "s"},
    {"core.epoch_walls_s", "s"},
    {"core.compute_max_s", "s"},
    {"core.compute_mean_s", "s"},
    {"core.imbalance", "ratio"},
    {"core.barrier_idle_s", "s"},
    {"core.server_sync_s", "s"},
    {"core.unaccounted_s", "s"},
    {"server.stripe_contention_ratio", "ratio"},
    {"mf.rmse_eval_s", "s"},
    {"mf.updates_per_s", "1/s"},
    {"simd.sgd_updates_ratio", "ratio"},
    {"sched.reorder_ms", "ms"},
    {"comm.raw_bytes", "bytes"},
    {"comm.wire_bytes", "bytes"},
    {"comm.compression_ratio", "ratio"},
    {"comm.encode_s", "s"},
    {"comm.decode_s", "s"},
    {"comm.pull_s", "s"},
    {"comm.push_s", "s"},
    {"comm.pipeline.stall_s", "s"},
    {"comm.pipeline.chunks", "count"},
    {"transport.frames", "count"},
    {"transport.retransmits", "count"},
    {"transport.reconnects", "count"},
    {"transport.retransmit_ratio", "ratio"},
    {"fault.checkpoint_s", "s"},
    {"fault.recovery_s", "s"},
    {"cluster.recoveries", "count"},
    {"cluster.active_nodes", "count"},
    {"serve.queue_ms", "ms"},
    {"serve.service_ms", "ms"},
    {"serve.foldin_ms", "ms"},
    {"serve.publish_s", "s"},
    {"serve.store_bytes", "bytes"},
    {"serve.generator_late_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.spans", "count"},
};

const Catalog* find(const std::string& name) {
  for (const auto& c : kEndToEnd) {
    if (name == c.name) return &c;
  }
  for (const auto& c : kPerLayer) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

std::string read_first_line_with(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) return {};
      std::string v = line.substr(colon + 1);
      const auto b = v.find_first_not_of(" \t");
      return b == std::string::npos ? std::string() : v.substr(b);
    }
  }
  return {};
}

std::string quote(const std::string& s) {
  return '"' + hcc::obs::json_escape(s) + '"';
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Host and build stamp: what the comparer requires to match before it
/// compares two results.
std::vector<std::pair<std::string, std::string>> host_metadata(
    const Args& args) {
  char host[256] = {};
  if (gethostname(host, sizeof host - 1) != 0) host[0] = '\0';
  const std::string isa = hcc::simd::isa_name(hcc::simd::active_isa());
  using Threading = hcc::comm::StreamPipeline::Threading;
  const Threading threading = hcc::comm::StreamPipeline::threading();
  return {
      {"cpu_model", read_first_line_with("/proc/cpuinfo", "model name")},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"mem_total", read_first_line_with("/proc/meminfo", "MemTotal")},
      {"pinning", "off"},
      {"simd_isa", isa},
      {"pipeline_threading", threading == Threading::kInline     ? "inline"
                             : threading == Threading::kThreaded ? "threaded"
                                                                 : "auto"},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", PERFBENCH_COMPILER},
      {"commit", args.commit.empty() ? "unknown" : args.commit},
      {"hostname", host},
  };
}

void write_spans(const std::string& path) {
  // One Chrome trace holding the library's own recorder (pull/compute/
  // push/sync spans) and the benchmark's spans on a track of their own,
  // each with its id and parent id as arguments.
  std::vector<hcc::obs::TraceEvent> events = hcc::obs::trace().snapshot();
  auto tracks = hcc::obs::trace().track_names();
  constexpr std::uint32_t kBenchTrack = 9000;
  tracks[kBenchTrack] = "perfbench";
  // The library's recorder counts from its own origin and spans() from
  // now_s()'s; both are steady clocks, so shift by their offset.
  const double offset_us = hcc::obs::trace().now_us() - now_s() * 1e6;
  for (const auto& r : spans().records()) {
    hcc::obs::TraceEvent e;
    e.name = r.name;
    e.cat = "perfbench";
    e.track = kBenchTrack;
    e.ts_us = r.start_s * 1e6 + offset_us;
    e.dur_us = (r.end_s - r.start_s) * 1e6;
    e.args = {{"id", std::to_string(r.id)},
              {"parent", std::to_string(r.parent)}};
    events.push_back(std::move(e));
  }
  if (!hcc::obs::write_chrome_trace(events, path, tracks)) {
    std::cerr << "perfbench: failed to write " << path << '\n';
  }
}

}  // namespace

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

std::uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanLog::add(Record r) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(r));
}

std::vector<SpanLog::Record> SpanLog::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

Span::Span(std::string name, std::uint64_t parent)
    : name_(std::move(name)),
      id_(spans().enabled() ? spans().next_id() : 0),
      parent_(parent),
      start_s_(now_s()) {}

double Span::stop() {
  if (seconds_ >= 0.0) return seconds_;
  const double end = now_s();
  seconds_ = end - start_s_;
  if (id_ != 0) spans().add({std::move(name_), id_, parent_, start_s_, end});
  return seconds_;
}

RegistrySnapshot RegistrySnapshot::take() {
  auto& reg = hcc::obs::registry();
  RegistrySnapshot s;
  for (const auto& name : reg.counter_names()) {
    s.counters[name] = static_cast<double>(reg.find_counter(name)->value());
  }
  for (const auto& name : reg.histogram_names()) {
    s.hist_sums[name] = reg.find_histogram(name)->sum();
  }
  return s;
}

RegistrySnapshot RegistrySnapshot::operator-(
    const RegistrySnapshot& before) const {
  RegistrySnapshot d = *this;
  for (auto& [k, v] : d.counters) v -= before.counter(k);
  for (auto& [k, v] : d.hist_sums) v -= before.hist_sum(k);
  return d;
}

double RegistrySnapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double RegistrySnapshot::hist_sum(const std::string& name) const {
  const auto it = hist_sums.find(name);
  return it == hist_sums.end() ? 0.0 : it->second;
}

double RegistrySnapshot::hist_sum_matching(const std::string& prefix,
                                           const std::string& suffix) const {
  double total = 0.0;
  for (const auto& [name, sum] : hist_sums) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.starts_with(prefix) && name.ends_with(suffix)) {
      total += sum;
    }
  }
  return total;
}

void Result::metric(const std::string& name, double value) {
  const Catalog* c = find(name);
  if (c == nullptr) {
    throw std::logic_error("perfbench: metric '" + name +
                           "' is not in the catalog");
  }
  metrics_.push_back({name, {value, c->unit}});
}

void Result::detail(const std::string& name, double value,
                    const std::string& unit) {
  details_.push_back({name, {value, unit}});
}

void Result::check(const std::string& name, bool ok, const std::string& what) {
  checks_.push_back({name, ok, what});
}

bool Result::correct() const {
  for (const auto& c : checks_) {
    if (!c.ok) return false;
  }
  return !checks_.empty();
}

int Result::finish(const Args& args) {
  // The JSON line carries the end-to-end catalog untraced and the
  // per-layer catalog traced; a layer the workload never enters did no
  // work and reads 0.
  std::vector<std::pair<std::string, Value>> out;
  const auto take = [&](const Catalog& c, bool zero_if_missing) {
    for (const auto& [name, v] : metrics_) {
      if (name == c.name) {
        out.push_back({name, v});
        return;
      }
    }
    if (!zero_if_missing) {
      throw std::logic_error(
          std::string("perfbench: workload did not report ") + c.name);
    }
    out.push_back({c.name, {0.0, c.unit}});
  };
  if (args.trace) {
    for (const auto& c : kPerLayer) take(c, true);
  } else {
    for (const auto& c : kEndToEnd) take(c, false);
  }

  const auto meta = host_metadata(args);
  std::cout << "\nperfbench " << args.workload << "  seed " << args.seed
            << "  " << (args.trace ? "traced" : "untraced") << "\n";
  for (const auto& [k, v] : meta) {
    std::cout << "  host." << k << " = " << v << '\n';
  }
  for (const auto& [name, v] : details_) {
    std::cout << "  " << name << " = " << num(v.value) << ' ' << v.unit << '\n';
  }
  for (const auto& [name, v] : out) {
    std::cout << "  " << name << " = " << num(v.value) << ' ' << v.unit << '\n';
  }
  std::cout << "  attempted " << attempted_ << ", failed " << failed_
            << " (failed_ratio "
            << num(attempted_ > 0 ? static_cast<double>(failed_) /
                                        static_cast<double>(attempted_)
                                  : 0.0)
            << ")\n";
  for (const auto& c : checks_) {
    std::cout << "  check " << (c.ok ? "ok    " : "FAILED") << ' ' << c.name
              << ": " << c.what << '\n';
  }

  std::ostringstream line;
  line << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) line << ", ";
    line << quote(out[i].first) << ": {\"value\": "
         << num(out[i].second.value) << ", \"unit\": "
         << quote(out[i].second.unit) << '}';
  }
  line << "}}";

  if (!args.results_dir.empty()) {
    const std::string stem = args.results_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) +
                             (args.trace ? "-traced" : "");
    std::ofstream f(stem + ".json");
    f << "{\"workload\": " << quote(args.workload)
      << ", \"seed\": " << args.seed << ", \"trace\": "
      << (args.trace ? "true" : "false") << ", \"host\": {";
    for (std::size_t i = 0; i < meta.size(); ++i) {
      if (i > 0) f << ", ";
      f << quote(meta[i].first) << ": "
        << quote(meta[i].second);
    }
    f << "}, \"details\": {";
    for (std::size_t i = 0; i < details_.size(); ++i) {
      if (i > 0) f << ", ";
      f << quote(details_[i].first) << ": {\"value\": "
        << num(details_[i].second.value) << ", \"unit\": "
        << quote(details_[i].second.unit) << '}';
    }
    f << "}, \"checks\": {";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      if (i > 0) f << ", ";
      f << quote(checks_[i].name) << ": {\"ok\": "
        << (checks_[i].ok ? "true" : "false")
        << ", \"what\": " << quote(checks_[i].what) << '}';
    }
    f << "}, \"result\": " << line.str() << "}\n";
    if (args.trace) write_spans(stem + ".trace.json");
  }

  std::cout << line.str() << std::endl;
  return correct() ? 0 : 1;
}

void report_latency(const std::vector<double>& ms, Result& result) {
  const TailQuantile tail = tail_quantile(ms);
  result.metric("latency_ms", median(ms));
  result.detail("latency.tail_quantile", tail.q, "quantile");
  result.detail("latency.tail_ms", tail.value, "ms");
  result.detail("latency.samples", static_cast<double>(tail.n), "count");
}

void reset_peak_rss() {
  // Hand freed heap back first, so earlier calls' fragmentation does not
  // raise the baseline; then "5" resets the kernel's high-water mark
  // (VmHWM) to the current RSS.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  const std::string hwm = read_first_line_with("/proc/self/status", "VmHWM");
  if (!hwm.empty()) return std::stod(hwm) / 1024.0;  // "<n> kB"
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
