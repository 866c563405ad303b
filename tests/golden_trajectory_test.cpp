// Golden per-epoch test-RMSE trajectories of serial training.
//
// kSerial is deterministic, so the whole training loop (partition, mean
// init, epoch engine, merge weights, kill/join recovery with rollback)
// collapses into one number per epoch.  These trajectories pin it: any
// refactor of that loop must reproduce them to 1e-9.  The vector backends
// reassociate the dot products differently (scalar vs avx2 drift ~1.5e-5
// after 8 epochs), so CTest runs this binary with HCCMF_SIMD=scalar and the
// suite refuses to compare against any other backend.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/hierarchical.hpp"
#include "core/hccmf.hpp"
#include "data/datasets.hpp"
#include "fault/plan.hpp"
#include "simd/dispatch.hpp"

namespace hcc {
namespace {

constexpr double kTolerance = 1e-9;

struct SmallProblem {
  data::RatingMatrix train{0, 0};
  data::RatingMatrix test{0, 0};
  data::DatasetSpec spec;
};

SmallProblem netflix_small() {
  SmallProblem pr;
  pr.spec = data::netflix_spec().scaled(0.002);
  data::GeneratorConfig gen;
  gen.seed = 5;
  gen.planted_rank = 4;
  const auto full = data::generate(pr.spec, gen);
  util::Rng rng(6);
  auto [train, test] = data::train_test_split(full, 0.1, rng);
  pr.train = std::move(train);
  pr.test = std::move(test);
  return pr;
}

/// Three heterogeneous workers of the paper workstation.
core::HccMfConfig node_config(const data::DatasetSpec& spec) {
  core::HccMfConfig config;
  config.sgd = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, /*k=*/16);
  config.sgd.epochs = 8;
  config.comm.codec = comm::CodecKind::kFp32;
  config.platform = sim::paper_workstation_hetero();
  config.platform.workers.resize(3);
  for (auto& w : config.platform.workers) w.epoch_overhead_s = 0.0;
  config.dataset_name = spec.name;
  return config;
}

/// Three workstation nodes over 100GbE.
cluster::HierarchicalConfig cluster_config(const data::DatasetSpec& spec) {
  cluster::HierarchicalConfig config;
  config.sgd = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, /*k=*/16);
  config.sgd.epochs = 8;
  config.comm.codec = comm::CodecKind::kFp32;
  config.cluster =
      cluster::workstation_cluster(3, cluster::ethernet_100g());
  config.dataset_name = spec.name;
  for (auto& node : config.cluster.nodes) {
    for (auto& w : node.platform.workers) w.epoch_overhead_s = 0.0;
  }
  return config;
}

std::string render(const std::vector<double>& v) {
  std::string out = "{";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
    out += (i ? ", " : "") + std::string(buf);
  }
  return out + "}";
}

void expect_trajectory(const std::vector<double>& actual,
                       const std::vector<double>& golden) {
  ASSERT_EQ(simd::active_isa(), simd::Isa::kScalar)
      << "golden trajectories are pinned on the scalar backend; run this "
         "suite through ctest (which sets HCCMF_SIMD=scalar)";
  ASSERT_EQ(actual.size(), golden.size()) << "actual " << render(actual);
  for (std::size_t e = 0; e < golden.size(); ++e) {
    EXPECT_NEAR(actual[e], golden[e], kTolerance)
        << "epoch " << e << "; actual trajectory " << render(actual);
  }
}

std::vector<double> node_trajectory(const core::HccMfConfig& config,
                                    const SmallProblem& pr) {
  const core::TrainReport report =
      core::HccMf(config).train(pr.train, &pr.test);
  std::vector<double> rmse;
  for (const auto& e : report.epochs) rmse.push_back(e.test_rmse);
  return rmse;
}

std::vector<double> cluster_trajectory(
    const cluster::HierarchicalConfig& config, const SmallProblem& pr) {
  return cluster::HierarchicalHcc(config).train(pr.train, &pr.test).test_rmse;
}

TEST(Golden, SerialHccMfClean) {
  const SmallProblem pr = netflix_small();
  expect_trajectory(node_trajectory(node_config(pr.spec), pr),
                    {1.1596232767153403, 0.3864306508367098,
                     0.35375220014048397, 0.34703660232432387,
                     0.33978930865723034, 0.3341346393394698,
                     0.32982463888381419, 0.32599705490149761});
}

TEST(Golden, SerialHccMfKilledWorker) {
  const SmallProblem pr = netflix_small();
  core::HccMfConfig config = node_config(pr.spec);
  config.fault.plan = fault::FaultPlan::parse("kill:w1@e3");
  expect_trajectory(node_trajectory(config, pr),
                    {1.1596232767153403, 0.3864306508367098,
                     0.35375220014048397, 0.33966557679059295,
                     0.33406255174608351, 0.32942666063078679,
                     0.32454370318824294, 0.32036669066592144});
}

TEST(Golden, SerialHierarchicalClean) {
  const SmallProblem pr = netflix_small();
  expect_trajectory(cluster_trajectory(cluster_config(pr.spec), pr),
                    {1.2178625968177206, 0.37610866175455099,
                     0.3547046645469451, 0.34316037946281625,
                     0.33650165756428391, 0.3330541948523153,
                     0.33000035623872204, 0.32662602805284185});
}

TEST(Golden, SerialHierarchicalKillAndRejoin) {
  const SmallProblem pr = netflix_small();
  cluster::HierarchicalConfig config = cluster_config(pr.spec);
  config.fault.plan = fault::FaultPlan::parse("kill:w2@e2;join:w2@e5");
  expect_trajectory(cluster_trajectory(config, pr),
                    {1.2178625968177206, 0.37610866175455099,
                     0.3612464550380079, 0.3540929663887582,
                     0.34923052843756563, 0.33057933425088309,
                     0.32789903906318252, 0.32503401572523671});
}

TEST(Golden, SerialHierarchicalTwoLocalEpochs) {
  const SmallProblem pr = netflix_small();
  cluster::HierarchicalConfig config = cluster_config(pr.spec);
  config.local_epochs = 2;
  expect_trajectory(cluster_trajectory(config, pr),
                    {0.37703265773646116, 0.34377747151973376,
                     0.33348327538371109, 0.32709129269282622,
                     0.32017774365932478, 0.31445718033755704,
                     0.31038857988515833, 0.30765215080757752});
}

}  // namespace
}  // namespace hcc
