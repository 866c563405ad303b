// Online serving benchmark: top-K query latency and throughput off RCU
// model snapshots (src/serve/), across store encodings, ranks and catalog
// sizes, plus the train-while-serve scenario the subsystem exists for.
//
// Sections:
//   latency           qps / p50 / p99 per (store, k, catalog) — single
//                     reader, steady-state scan over a frozen snapshot
//   store             snapshot footprint per encoding and the compression
//                     ratio vs fp32 (deterministic; CI-gated)
//   quality           leave-one-out hit-rate@10 per store encoding off one
//                     SerialSgd-trained model — quantization must not move
//                     ranking quality
//   train_while_serve parallel HccMf training publishing every epoch with
//                     concurrent reader threads; serving throughput and
//                     the training outcome
//
// Flags: --json-out=PATH       machine-readable output (JsonReport format)
//        --ms-per-config=N     milliseconds per latency config (default 120)
//        --readers=N           reader threads for train-while-serve (def. 2)
//        --quality-scale=F     movielens20m scale for quality (def. 0.01)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/hccmf.hpp"
#include "mf/metrics.hpp"
#include "mf/trainer.hpp"
#include "serve/engine.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "simd/dispatch.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace hcc;

namespace {

using clock_type = std::chrono::steady_clock;

mf::FactorModel random_model(std::uint32_t users, std::uint32_t items,
                             std::uint32_t k, std::uint64_t seed) {
  mf::FactorModel m(users, items, k);
  util::Rng rng(seed);
  m.init_random(rng, 3.0f);
  return m;
}

std::shared_ptr<const serve::ModelSnapshot> snap_of(const mf::FactorModel& m,
                                                    serve::StoreKind kind) {
  auto s = std::make_shared<serve::ModelSnapshot>();
  s->epoch = 1;
  s->store = serve::FactorStore(kind, m.users(), m.items(), m.k(), m.p_data(),
                                m.q_data());
  return s;
}

struct LatencyStats {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t queries = 0;
};

/// Runs timed top-10 queries against one snapshot for ~`ms` milliseconds.
LatencyStats measure_latency(const serve::ModelSnapshot& snapshot, double ms,
                             const mf::SeenIndex* seen) {
  serve::TopKEngine engine({.record_metrics = false});
  std::vector<double> lat;
  lat.reserve(4096);
  util::Rng rng(99);
  // Warm up: touch every catalog block once so first-query page-ins don't
  // land in the percentiles.
  engine.top_k(snapshot, 0, 10, seen);
  const auto t0 = clock_type::now();
  const double budget_s = ms / 1e3;
  for (;;) {
    const auto user =
        static_cast<std::uint32_t>(rng.uniform_u64(snapshot.store.users()));
    const auto q0 = clock_type::now();
    const auto recs = engine.top_k(snapshot, user, 10, seen);
    const auto q1 = clock_type::now();
    if (recs.empty()) std::cerr << "empty result\n";  // keep recs live
    lat.push_back(std::chrono::duration<double>(q1 - q0).count() * 1e3);
    if (std::chrono::duration<double>(q1 - t0).count() >= budget_s) break;
  }
  LatencyStats out;
  out.queries = lat.size();
  const double elapsed =
      std::chrono::duration<double>(clock_type::now() - t0).count();
  out.qps = static_cast<double>(lat.size()) / elapsed;
  std::sort(lat.begin(), lat.end());
  out.p50_ms = lat[lat.size() / 2];
  out.p99_ms = lat[std::min(lat.size() - 1,
                            static_cast<std::size_t>(0.99 * lat.size()))];
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const double ms_per_config = cli.get("ms-per-config", 120.0);
  const int readers = static_cast<int>(cli.get("readers", std::int64_t{2}));
  const double quality_scale = cli.get("quality-scale", 0.01);

  bench::banner("Online serving: top-K latency off RCU snapshots",
                "serving tier over the paper's trained factors; store "
                "encodings reuse Section 3.4's compression kernels");

  bench::JsonReport report(argc, argv, "serving");
  report.meta("active_isa", simd::kernels().name);
  report.meta("ms_per_config", ms_per_config);
  report.meta("readers", static_cast<double>(readers));
  report.meta("quality_scale", quality_scale);

  const std::vector<serve::StoreKind> kinds{
      serve::StoreKind::kFp32, serve::StoreKind::kFp16,
      serve::StoreKind::kInt8};

  // --- latency: store x k x catalog ------------------------------------
  {
    util::Table table({"store", "k", "catalog", "qps", "p50_ms", "p99_ms"});
    for (const std::uint32_t k : {32u, 128u}) {
      // 2.7e4 items is the MovieLens-20M catalog; 2'000 a genre shard.
      for (const std::uint32_t catalog : {2000u, 27000u}) {
        const auto model = random_model(256, catalog, k, 7);
        data::RatingMatrix train(256, catalog);
        util::Rng seen_rng(8);
        for (std::uint32_t u = 0; u < 256; ++u) {
          for (int j = 0; j < 40; ++j) {
            train.add(u,
                      static_cast<std::uint32_t>(seen_rng.uniform_u64(catalog)),
                      4.0f);
          }
        }
        const mf::SeenIndex seen(train);
        for (const serve::StoreKind kind : kinds) {
          const auto snapshot = snap_of(model, kind);
          const auto stats = measure_latency(*snapshot, ms_per_config, &seen);
          table.add_row({serve::store_kind_name(kind), std::to_string(k),
                         std::to_string(catalog),
                         util::Table::num(stats.qps, 4),
                         util::Table::num(stats.p50_ms, 4),
                         util::Table::num(stats.p99_ms, 4)});
          report.add_row(
              "latency",
              {{"store",
                bench::JsonReport::quote(serve::store_kind_name(kind))},
               {"k", bench::JsonReport::number(k)},
               {"catalog", bench::JsonReport::number(catalog)},
               {"qps", bench::JsonReport::number(stats.qps)},
               {"p50_ms", bench::JsonReport::number(stats.p50_ms)},
               {"p99_ms", bench::JsonReport::number(stats.p99_ms)}});
        }
      }
    }
    table.print(std::cout);
  }

  // --- store footprint (deterministic; the CI-gated ratios) -------------
  {
    const std::uint32_t users = 1000, items = 27000, k = 128;
    const auto model = random_model(users, items, k, 9);
    const auto base = snap_of(model, serve::StoreKind::kFp32);
    util::Table table({"store", "bytes", "bytes_ratio"});
    for (const serve::StoreKind kind : kinds) {
      const auto snapshot = snap_of(model, kind);
      const double ratio = static_cast<double>(base->store.store_bytes()) /
                           static_cast<double>(snapshot->store.store_bytes());
      table.add_row({serve::store_kind_name(kind),
                     std::to_string(snapshot->store.store_bytes()),
                     util::Table::num(ratio, 3)});
      report.add_row(
          "store",
          {{"store", bench::JsonReport::quote(serve::store_kind_name(kind))},
           {"bytes", bench::JsonReport::number(
                         static_cast<double>(snapshot->store.store_bytes()))},
           {"bytes_ratio", bench::JsonReport::number(ratio)}});
    }
    table.print(std::cout);
  }

  // --- quality: hit-rate@10 per encoding off one trained model ----------
  {
    const auto spec = data::movielens20m_spec().scaled(quality_scale);
    data::GeneratorConfig gen;
    gen.seed = 37;
    gen.planted_rank = 4;
    const auto full = data::generate(spec, gen);
    util::Rng rng(38);
    auto [train, test] = data::train_test_split(full, 0.1, rng);
    auto config = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, /*k=*/16);
    config.epochs = 8;
    mf::FactorModel model(spec.m, spec.n, config.k);
    util::Rng init(39);
    model.init_random(init, 3.5f);
    mf::SerialSgd trainer(config);
    for (std::uint32_t e = 0; e < config.epochs; ++e) {
      trainer.train_epoch(model, train);
    }
    double fp32_hit = 0.0;
    util::Table table({"store", "hit_rate_at_10", "delta_vs_fp32"});
    for (const serve::StoreKind kind : kinds) {
      const auto snapshot = snap_of(model, kind);
      const double hit =
          serve::snapshot_hit_rate_at_n(*snapshot, train, test, 10, 4.0f);
      if (kind == serve::StoreKind::kFp32) fp32_hit = hit;
      table.add_row({serve::store_kind_name(kind), util::Table::num(hit, 4),
                     util::Table::num(hit - fp32_hit, 4)});
      report.add_row(
          "quality",
          {{"store", bench::JsonReport::quote(serve::store_kind_name(kind))},
           {"hit_rate_at_10", bench::JsonReport::number(hit)},
           {"delta_vs_fp32", bench::JsonReport::number(hit - fp32_hit)}});
    }
    table.print(std::cout);
  }

  // --- train-while-serve ------------------------------------------------
  {
    const auto spec = data::netflix_spec().scaled(0.004);
    data::GeneratorConfig gen;
    gen.seed = 5;
    gen.planted_rank = 4;
    const auto full = data::generate(spec, gen);
    util::Rng rng(6);
    auto [train, test] = data::train_test_split(full, 0.1, rng);
    const mf::SeenIndex seen(train);

    core::HccMfConfig config;
    config.sgd = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, /*k=*/16);
    config.sgd.epochs = 8;
    config.comm.codec = comm::CodecKind::kFp32;
    config.platform = sim::paper_workstation_hetero();
    for (auto& w : config.platform.workers) w.epoch_overhead_s = 0.0;
    config.dataset_name = spec.name;
    config.exec.mode = core::ExecMode::kParallel;
    config.publish_every = 1;
    config.publish_store = serve::StoreKind::kFp16;
    config.snapshots = std::make_shared<serve::SnapshotRegistry>();

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> answered{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < readers; ++t) {
      pool.emplace_back([&, t] {
        serve::TopKEngine engine({.record_metrics = false});
        util::Rng reader_rng(50 + t);
        while (!stop.load(std::memory_order_relaxed)) {
          const auto snap = config.snapshots->current();
          if (snap == nullptr) continue;
          const auto u = static_cast<std::uint32_t>(
              reader_rng.uniform_u64(snap->store.users()));
          if (!engine.top_k(*snap, u, 10, &seen).empty()) {
            answered.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    const auto t0 = clock_type::now();
    core::HccMf framework(config);
    const auto train_report = framework.train(train, &test);
    const double train_s =
        std::chrono::duration<double>(clock_type::now() - t0).count();
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : pool) th.join();

    const double qps = static_cast<double>(answered.load()) / train_s;
    const double rmse = train_report.epochs.back().test_rmse;
    util::Table table(
        {"readers", "published", "queries", "qps", "train_s", "test_rmse"});
    table.add_row({std::to_string(readers),
                   std::to_string(config.snapshots->published()),
                   std::to_string(answered.load()), util::Table::num(qps, 4),
                   util::Table::num(train_s, 3), util::Table::num(rmse, 4)});
    table.print(std::cout);
    report.add_row(
        "train_while_serve",
        {{"readers", bench::JsonReport::number(readers)},
         {"published", bench::JsonReport::number(
                           static_cast<double>(config.snapshots->published()))},
         {"queries",
          bench::JsonReport::number(static_cast<double>(answered.load()))},
         {"qps", bench::JsonReport::number(qps)},
         {"train_s", bench::JsonReport::number(train_s)},
         {"test_rmse", bench::JsonReport::number(rmse)}});
  }

  std::cout << "\nnotes: latency is a single steady-state reader; "
               "train-while-serve runs " << readers
            << " readers against per-epoch snapshot publishes\n";
  return 0;
}
