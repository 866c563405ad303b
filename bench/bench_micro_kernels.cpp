// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// the SGD update kernel, the FP16 codec, the in-process COMM link and the
// grid partitioner.  These quantify the host-side costs that the paper's design
// assumes are cheap (e.g. FP16 conversion "using AVX instructions and
// multi-threaded parallel acceleration").
#include <benchmark/benchmark.h>

#include <vector>

#include "comm/backend.hpp"
#include "comm/codec.hpp"
#include "comm/pipeline.hpp"
#include "data/datasets.hpp"
#include "data/grid.hpp"
#include "legacy_kernels.hpp"
#include "mf/kernels.hpp"
#include "mf/model.hpp"
#include "util/fp16.hpp"
#include "util/rng.hpp"

namespace {

using namespace hcc;

void BM_SgdUpdate(benchmark::State& state) {
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  util::Rng rng(1);
  std::vector<float> p(k), q(k);
  for (auto& v : p) v = static_cast<float>(rng.uniform());
  for (auto& v : q) v = static_cast<float>(rng.uniform());
  float r = 4.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mf::sgd_update(p.data(), q.data(), k, r, 0.005f, 0.01f, 0.01f));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flops/update"] = 7.0 * k;
}
BENCHMARK(BM_SgdUpdate)->Arg(8)->Arg(32)->Arg(128);

// The unrolled variant (the paper's footnote-1 vectorization, portable).
void BM_SgdUpdateX4(benchmark::State& state) {
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  util::Rng rng(1);
  std::vector<float> p(k), q(k);
  for (auto& v : p) v = static_cast<float>(rng.uniform());
  for (auto& v : q) v = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench::sgd_update_x4(p.data(), q.data(), k, 4.0f, 0.005f, 0.01f,
                             0.01f));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SgdUpdateX4)->Arg(8)->Arg(32)->Arg(128);

void BM_Fp16Encode(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  std::vector<float> src(n);
  for (auto& v : src) v = static_cast<float>(rng.normal(0.2, 0.1));
  std::vector<util::Half> dst(n);
  for (auto _ : state) {
    util::fp16_encode(src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n * 4);
}
BENCHMARK(BM_Fp16Encode)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_Fp16Decode(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<util::Half> src(n);
  for (auto& v : src) {
    v = util::float_to_fp16(static_cast<float>(rng.normal(0.2, 0.1)));
  }
  std::vector<float> dst(n);
  for (auto _ : state) {
    util::fp16_decode(src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n * 2);
}
BENCHMARK(BM_Fp16Decode)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_CommTransfer(benchmark::State& state) {
  // One depth-1 fp32 transfer over the in-process COMM link: encode into
  // the ring slot, one wire copy, decode.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  comm::ShmComm backend;
  comm::CommConfig config;
  config.codec = comm::CodecKind::kFp32;
  comm::StreamPipeline pipe(config, /*row_elems=*/1,
                            comm::StreamPipeline::Direction::kPush);
  util::Rng rng(4);
  std::vector<float> src(n);
  for (auto& v : src) v = static_cast<float>(rng.uniform());
  std::vector<float> dst(n);
  for (auto _ : state) {
    pipe.transfer(backend, src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n * 4);
}
BENCHMARK(BM_CommTransfer)->Arg(1 << 14)->Arg(1 << 18);

void BM_GridPartition(benchmark::State& state) {
  const data::DatasetSpec spec = data::netflix_spec().scaled(0.01);
  data::GeneratorConfig gen;
  const data::RatingMatrix matrix = data::generate(spec, gen);
  const std::vector<double> fractions{0.4, 0.1, 0.35, 0.15};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        data::make_grid(matrix, data::GridKind::kRow, fractions));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          matrix.nnz());
}
BENCHMARK(BM_GridPartition);

void BM_DatasetGeneration(benchmark::State& state) {
  const data::DatasetSpec spec =
      data::movielens20m_spec().scaled(0.002);
  data::GeneratorConfig gen;
  for (auto _ : state) {
    gen.seed++;
    benchmark::DoNotOptimize(data::generate(spec, gen));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          spec.nnz);
}
BENCHMARK(BM_DatasetGeneration);

}  // namespace
