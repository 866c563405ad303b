// The serving workload: an open loop of top-10 queries against an int8
// snapshot while a publisher swaps in fresh snapshots (see README.md).
//
// Set-up trains real factors (block-max gating in the scan depends on the
// score distribution, so random factors would measure a different scan),
// encodes them and publishes the first snapshot.  The timed part runs one
// generator thread that sends requests on a fixed schedule to kReaders
// reader threads, each with its own TopKEngine: first at three fixed
// offered rates, then up a fixed ladder of rates until the latency limit or
// a growing backlog stops it, then bursts with every request due at once.
#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "core/hccmf.hpp"
#include "mf/recommend.hpp"
#include "obs/span.hpp"
#include "serve/engine.hpp"
#include "serve/foldin.hpp"
#include "serve/snapshot.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kK = 128;
/// Set-up training: serial execution, the steadier of the two engines on a
/// shared host, for a few epochs — enough for a trained score distribution.
constexpr std::uint32_t kTrainEpochs = 3;
constexpr std::size_t kTopN = 10;
constexpr unsigned kReaders = 2;
constexpr double kColdShare = 0.10;
constexpr std::size_t kFoldInRatings = 20;
constexpr std::size_t kColdProfiles = 256;
/// Offered rates (queries/s), about 25/50/75% of two readers' int8
/// capacity at this catalog size on the 4-core reference host.
constexpr double kRates[] = {300.0, 600.0, 900.0};
/// Share of the run's seconds each fixed rate gets.  The lowest rate's
/// latency is the end-to-end figure: on a shared host the higher rates
/// turn every slowdown of the machine into queueing, so their latencies
/// are kept as detail.
constexpr double kRateShare[] = {0.4, 0.15, 0.15};
/// The fixed ladder for the highest sustainable rate, climbed from its
/// bottom until a step fails; each step gets kStepShare of the seconds.
constexpr double kLadder[] = {800.0,  850.0,  900.0,  950.0,  1000.0,
                              1050.0, 1100.0, 1150.0, 1200.0, 1250.0,
                              1300.0, 1350.0, 1400.0, 1450.0, 1500.0,
                              1600.0, 1800.0, 2000.0};
constexpr double kStepShare = 0.04;
/// Capacity bursts: every request of a burst is due at once, so both
/// readers run flat out; throughput is the median completion rate of
/// kBursts bursts.  A burst holds kBurstShare of the seconds at kBurstQps,
/// about two readers' int8 capacity on the reference host.  The ladder's
/// highest passing step is kept as detail: one stall of the shared host
/// ends its climb, so over ten runs of one build it stopped anywhere from
/// 900/s to 1400/s, while a burst's rate averages a stall over the burst.
constexpr int kBursts = 5;
constexpr double kBurstShare = 0.06;
constexpr double kBurstQps = 1300.0;
/// Offered rate that makes every request of a phase due at its start.
constexpr double kFlood = 1e9;
/// A query slower than this (from its due time) misses; a rate passes when
/// its p99 meets it without a growing backlog.
constexpr double kLimitMs = 50.0;
/// Fewest requests per phase: enough that p99 has ten samples beyond it.
constexpr std::size_t kMinRequests = 1000;
constexpr double kPublishPeriodS = 1.0;
constexpr std::size_t kProbeUsers = 64;
constexpr double kMinProbeOverlap = 0.8;

std::size_t requests(double rate, double seconds) {
  return std::max(kMinRequests, static_cast<std::size_t>(rate * seconds));
}

struct Query {
  bool cold = false;
  std::uint32_t user = 0;    ///< known user
  std::size_t profile = 0;   ///< cold-start profile
};

struct ColdProfile {
  std::vector<hcc::serve::FoldInRating> ratings;
  std::vector<std::uint32_t> exclude;  ///< sorted rated items
};

struct Served {
  hcc::data::RatingMatrix train;
  hcc::mf::FactorModel model;
  std::unique_ptr<hcc::mf::SeenIndex> seen;
  std::shared_ptr<hcc::serve::SnapshotRegistry> registry;
  float reg = 0.0f;
};

std::shared_ptr<const hcc::serve::ModelSnapshot> encode(
    const hcc::mf::FactorModel& m, std::uint32_t epoch) {
  auto snap = std::make_shared<hcc::serve::ModelSnapshot>();
  snap->epoch = epoch;
  snap->store = hcc::serve::FactorStore(hcc::serve::StoreKind::kInt8,
                                        m.users(), m.items(), m.k(),
                                        m.p_data(), m.q_data());
  return snap;
}

/// Re-encodes and publishes a fresh snapshot every kPublishPeriodS until
/// destroyed, timing each encode + publish.
class Publisher {
 public:
  explicit Publisher(const Served& served)
      : served_(served), thread_([this] { loop(); }) {}
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;
  ~Publisher() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  std::vector<double> publish_s() {
    std::lock_guard<std::mutex> lock(mutex_);
    return publish_s_;
  }

 private:
  void loop() {
    std::uint32_t epoch = 1;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!wake_.wait_for(lock, std::chrono::duration<double>(kPublishPeriodS),
                           [this] { return stop_; })) {
      lock.unlock();
      Span s("serve publish");
      served_.registry->publish(encode(served_.model, ++epoch));
      const double t = s.stop();
      lock.lock();
      publish_s_.push_back(t);
    }
  }

  const Served& served_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<double> publish_s_;
  std::thread thread_;  // last: starts after the members it uses
};

struct Phase {
  double rate = 0.0;
  std::vector<RequestTiming> timings;
  std::vector<double> foldin_s;  ///< < 0 for known-user queries
  std::vector<char> bad;          ///< threw, or an invalid result

  std::size_t bad_count() const {
    return static_cast<std::size_t>(std::count(bad.begin(), bad.end(), 1));
  }

  std::vector<double> latency_ms() const {
    std::vector<double> v;
    for (const auto& t : timings) v.push_back(1e3 * t.latency_s());
    return v;
  }
  std::size_t over_limit() const {
    std::size_t n = 0;
    for (const auto& t : timings) n += 1e3 * t.latency_s() > kLimitMs;
    return n;
  }
  bool passes() const {
    // A backlog "grows" once late queries wait a quarter of the limit
    // longer than early ones.
    return bad_count() == 0 && quantile(latency_ms(), 0.99) <= kLimitMs &&
           !backlog_grows(timings, 0.25e-3 * kLimitMs);
  }
  double completed_per_s() const {
    double end = 0.0;
    for (const auto& t : timings) end = std::max(end, t.end_s);
    return end > 0.0 ? static_cast<double>(timings.size()) / end : 0.0;
  }
};

/// True when `items` holds n distinct entries none of which `excluded`.
template <class Excluded>
bool valid(const std::vector<hcc::mf::ScoredItem>& items, Excluded&& excluded) {
  if (items.size() != kTopN) return false;
  std::unordered_set<std::uint32_t> seen;
  for (const auto& it : items) {
    if (!seen.insert(it.item).second || excluded(it.item)) return false;
  }
  return true;
}

class Workload {
 public:
  Workload(const Served& served, std::uint64_t seed)
      : served_(served), rng_seed_(seed * 104729 + 11) {
    // Cold-start profiles: up to kFoldInRatings training ratings of random
    // users, folded in as if from someone training never saw.
    hcc::util::Rng rng(seed * 7919 + 3);
    const std::uint32_t users = served.model.users();
    std::vector<std::uint32_t> owners;
    for (std::size_t i = 0; i < kColdProfiles; ++i) {
      owners.push_back(static_cast<std::uint32_t>(rng.uniform_u64(users)));
    }
    profiles_.resize(kColdProfiles);
    std::vector<std::vector<std::size_t>> by_user(users);
    for (std::size_t i = 0; i < owners.size(); ++i) {
      by_user[owners[i]].push_back(i);
    }
    for (const auto& r : served.train.entries()) {
      for (const std::size_t p : by_user[r.u]) {
        if (profiles_[p].ratings.size() < kFoldInRatings) {
          profiles_[p].ratings.push_back({r.i, r.r});
          profiles_[p].exclude.push_back(r.i);
        }
      }
    }
    for (auto& p : profiles_) {
      std::sort(p.exclude.begin(), p.exclude.end());
      p.exclude.erase(std::unique(p.exclude.begin(), p.exclude.end()),
                      p.exclude.end());
    }
  }

  /// One open-loop phase of `n` requests sent at `rate` per second.
  Phase run(double rate, std::size_t n, std::uint64_t parent) {
    Phase phase;
    phase.rate = rate;
    hcc::util::Rng rng(rng_seed_++);
    std::vector<Query> queries(n);
    std::vector<double> due(n);
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = static_cast<double>(i) / rate;
      queries[i].cold = rng.uniform() < kColdShare;
      queries[i].user =
          static_cast<std::uint32_t>(rng.uniform_u64(served_.model.users()));
      queries[i].profile = rng.uniform_u64(profiles_.size());
    }
    phase.foldin_s.assign(n, -1.0);
    phase.bad.assign(n, 0);
    std::vector<hcc::serve::TopKEngine> engines(kReaders);
    Span span("open loop @" + std::to_string(static_cast<int>(rate)) + "/s",
              parent);
    const double origin = now_s();
    phase.timings = run_open_loop(due, kReaders, [&](std::size_t i,
                                                     unsigned reader) {
      try {
        const Query& q = queries[i];
        const auto snap = served_.registry->current();
        if (!q.cold) {
          const auto top = engines[reader].top_k(*snap, q.user, kTopN,
                                                 served_.seen.get());
          phase.bad[i] = !valid(top, [&](std::uint32_t it) {
            return served_.seen->seen(q.user, it);
          });
        } else {
          const ColdProfile& p = profiles_[q.profile];
          const double t0 = now_s();
          const std::vector<float> row =
              hcc::serve::fold_in(snap->store, p.ratings, served_.reg);
          phase.foldin_s[i] = now_s() - t0;
          const auto top =
              engines[reader].top_k_row(*snap, row.data(), kTopN, p.exclude);
          phase.bad[i] = !valid(top, [&](std::uint32_t it) {
            return std::binary_search(p.exclude.begin(), p.exclude.end(), it);
          });
        }
      } catch (...) {
        phase.bad[i] = 1;
      }
    });
    span.stop();
    if (spans().enabled()) {
      // Each request's span runs from its due time; queue wait and service
      // are its children, fold-in (cold starts) a child of service.
      for (std::size_t i = 0; i < n; ++i) {
        const RequestTiming& t = phase.timings[i];
        auto& log = spans();
        const std::uint64_t req = log.next_id();
        log.add({queries[i].cold ? "cold query" : "query", req, span.id(),
                 origin + t.due_s, origin + t.end_s});
        log.add({"queued", log.next_id(), req, origin + t.due_s,
                 origin + t.start_s});
        const std::uint64_t svc = log.next_id();
        log.add({queries[i].cold ? "fold_in + TopKEngine::top_k_row"
                                 : "TopKEngine::top_k",
                 svc, req, origin + t.start_s, origin + t.end_s});
        if (phase.foldin_s[i] >= 0.0) {
          log.add({"serve::fold_in", log.next_id(), svc, origin + t.start_s,
                   origin + t.start_s + phase.foldin_s[i]});
        }
      }
    }
    return phase;
  }

 private:
  const Served& served_;
  std::vector<ColdProfile> profiles_;
  std::uint64_t rng_seed_;  ///< seeds each phase's query stream
};

/// Set-up: dataset, the served factors' training, the first publish.
Served setup(std::uint64_t seed, Result& result) {
  const hcc::data::DatasetSpec spec =
      hcc::data::movielens20m_spec().scaled(0.2);
  std::vector<double> setup_s, gen, split, train_s, rmse;
  Served served;
  for (int i = 0; i < kSetups; ++i) {
    served = Served{};  // release the previous copy before making the next
    Span s("setup");
    Dataset ds = make_dataset(spec, seed);
    hcc::core::HccMfConfig config;
    config.sgd = hcc::mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, kK);
    config.sgd.epochs = kTrainEpochs;
    config.sgd.seed = seed;
    config.platform = hcc::sim::paper_workstation_hetero();
    config.dataset_name = spec.name;
    hcc::core::HccMf framework(config);
    Span t("HccMf::train", s.id());
    hcc::core::TrainReport report = framework.train(ds.train, &ds.test);
    train_s.push_back(t.stop());
    rmse.push_back(report.epochs.back().test_rmse);
    served.model = std::move(*report.model);
    served.reg = spec.reg_lambda;
    Span p("serve publish", s.id());
    served.registry = std::make_shared<hcc::serve::SnapshotRegistry>();
    served.registry->publish(encode(served.model, 1));
    p.stop();
    served.seen = std::make_unique<hcc::mf::SeenIndex>(ds.train);
    served.train = std::move(ds.train);
    setup_s.push_back(s.stop());
    gen.push_back(ds.generate_s);
    split.push_back(ds.split_s);
  }
  result.metric("setup_s", median(setup_s));
  result.metric("data.generate_s", median(gen));
  result.metric("data.split_s", median(split));
  result.metric("train_s", median(train_s));
  result.metric("final_rmse", median(rmse));
  return served;
}

}  // namespace

void run_serve_mixed(const Args& args, Result& result) {
  const Served served = setup(args.seed, result);
  const auto first = served.registry->current();
  result.metric("serve.store_bytes",
                static_cast<double>(first->store.store_bytes()));

  // Quality probe: the int8 snapshot's top-10 against mf::top_n on the
  // fp32 factors, for a fixed set of users.
  {
    hcc::serve::TopKEngine engine;
    const std::uint32_t users = served.model.users();
    std::size_t common = 0;
    for (std::size_t j = 0; j < kProbeUsers; ++j) {
      const auto u = static_cast<std::uint32_t>(j * users / kProbeUsers);
      const auto a = engine.top_k(*first, u, kTopN, served.seen.get());
      const auto b = hcc::mf::top_n(served.model, *served.seen, u, kTopN);
      for (const auto& x : a) {
        common += std::any_of(b.begin(), b.end(),
                              [&](const auto& y) { return y.item == x.item; });
      }
    }
    const double overlap =
        static_cast<double>(common) / static_cast<double>(kProbeUsers * kTopN);
    result.detail("probe.top10_overlap", overlap, "ratio");
    result.check("probe_overlap", overlap >= kMinProbeOverlap,
                 "int8 top-10 of " + std::to_string(kProbeUsers) +
                     " probe users overlaps the fp32 mf::top_n by " +
                     std::to_string(overlap) + " (>= " +
                     std::to_string(kMinProbeOverlap) + ")");
  }

  Workload workload(served, args.seed);
  std::vector<Phase> fixed, ladder, bursts;
  Phase reference;  // untraced twin of the lowest rate (traced runs only)
  std::vector<double> publish_s;
  reset_peak_rss();
  {
    Publisher publisher(served);
    if (args.trace) {
      spans().set_enabled(false);
      hcc::obs::trace().set_enabled(false);
      reference = workload.run(
          kRates[0], requests(kRates[0], kRateShare[0] * args.seconds), 0);
      spans().set_enabled(true);
      hcc::obs::trace().set_enabled(true);
    }
    Span root("serve-mixed open loops");
    for (std::size_t i = 0; i < std::size(kRates); ++i) {
      fixed.push_back(workload.run(
          kRates[i], requests(kRates[i], kRateShare[i] * args.seconds),
          root.id()));
    }
    for (const double rate : kLadder) {
      ladder.push_back(workload.run(
          rate, requests(rate, kStepShare * args.seconds), root.id()));
      if (!ladder.back().passes()) break;
    }
    for (int b = 0; b < kBursts; ++b) {
      bursts.push_back(workload.run(
          kFlood, requests(kBurstQps, kBurstShare * args.seconds),
          root.id()));
    }
    publish_s = publisher.publish_s();
  }

  // Attempts are the fixed-rate queries.  The ladder and the bursts probe
  // capacity past them, where over-limit queries are expected; their
  // results are still checked.
  std::size_t bad = 0;
  double late_ms = 0.0;
  for (const auto* phases : {&fixed, &ladder, &bursts}) {
    for (const Phase& p : *phases) {
      bad += p.bad_count();
      for (std::size_t i = 0; i < p.timings.size(); ++i) {
        const RequestTiming& t = p.timings[i];
        late_ms = std::max(late_ms, 1e3 * (t.sent_s - t.due_s));
        if (phases == &fixed) {
          result.attempt(p.bad[i] || 1e3 * t.latency_s() > kLimitMs);
        }
      }
    }
  }
  result.check("serve_results", bad == 0,
               std::to_string(bad) +
                   " queries threw or returned a seen item, a duplicate or "
                   "fewer than 10 items");

  for (const Phase& p : fixed) {
    std::string at = "@";
    at += std::to_string(static_cast<int>(p.rate));
    const auto lat = p.latency_ms();
    const TailQuantile tail = tail_quantile(lat);
    result.detail("query_p50_ms" + at, median(lat), "ms");
    result.detail("query_p99_ms" + at, quantile(lat, 0.99), "ms");
    result.detail("query_tail_q" + at, tail.q, "quantile");
    result.detail("query_tail_ms" + at, tail.value, "ms");
    result.detail("query_samples" + at, static_cast<double>(tail.n), "count");
    result.detail("query_over_limit" + at, static_cast<double>(p.over_limit()),
                  "count");
  }
  double max_qps = 0.0;
  for (const Phase& p : fixed) {
    if (p.passes()) max_qps = std::max(max_qps, p.completed_per_s());
  }
  for (const Phase& p : ladder) {
    result.detail("ladder_p99_ms@" + std::to_string(static_cast<int>(p.rate)),
                  quantile(p.latency_ms(), 0.99), "ms");
    if (p.passes()) max_qps = std::max(max_qps, p.completed_per_s());
  }
  result.detail("query_max_qps", max_qps, "1/s");
  std::vector<double> burst_qps, burst_service_s;
  for (const Phase& p : bursts) {
    burst_qps.push_back(p.completed_per_s());
    for (const auto& t : p.timings) burst_service_s.push_back(t.service_s());
  }
  result.detail("burst.qps", median(burst_qps), "1/s");
  result.detail("burst.qps_min", quantile(burst_qps, 0.0), "1/s");
  result.detail("burst.qps_max", quantile(burst_qps, 1.0), "1/s");

  const Phase& low = fixed.front();
  report_latency(low.latency_ms(), result);
  result.metric("throughput_per_s", kReaders / median(burst_service_s));

  std::vector<double> queue, service, foldin;
  for (const auto& t : low.timings) {
    queue.push_back(1e3 * t.queue_s());
    service.push_back(1e3 * t.service_s());
  }
  for (const Phase& p : fixed) {
    for (const double f : p.foldin_s) {
      if (f >= 0.0) foldin.push_back(1e3 * f);
    }
  }
  result.metric("serve.queue_ms", quantile(queue, 0.99));
  result.metric("serve.service_ms", median(service));
  result.metric("serve.foldin_ms", median(foldin));
  result.metric("serve.publish_s", median(publish_s));
  result.metric("serve.generator_late_ms", late_ms);
  result.detail("serve.publishes", static_cast<double>(publish_s.size()),
                "count");
  if (args.trace) {
    std::vector<double> ref_service;
    for (const auto& t : reference.timings) {
      ref_service.push_back(1e3 * t.service_s());
    }
    result.metric("bench.trace_overhead_pct",
                  100.0 * (median(service) / median(ref_service) - 1.0));
    result.metric("bench.spans",
                  static_cast<double>(spans().records().size()));
  }
  result.metric("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
