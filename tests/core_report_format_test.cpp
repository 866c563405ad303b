// Tests for the report formatter and the shared bench JSON report schema.
#include "core/report_format.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>

#include "bench_common.hpp"

namespace hcc::core {
namespace {

TrainReport sample_report(bool with_rmse) {
  TrainReport report;
  report.plan.explanation = "grid=row payload=Q strategy=DP1";
  for (std::uint32_t e = 0; e < 4; ++e) {
    EpochReport er;
    er.epoch = e;
    er.virtual_s = 0.1;
    er.cumulative_virtual_s = 0.1 * (e + 1);
    er.test_rmse = with_rmse
                       ? 1.0 - 0.1 * e
                       : std::numeric_limits<double>::quiet_NaN();
    report.epochs.push_back(er);
  }
  report.total_virtual_s = 0.4;
  report.updates_per_s = 2.0e9;
  report.ideal_updates_per_s = 2.5e9;
  report.utilization = 0.8;
  report.comm_totals.wire_bytes = 5'000'000;
  report.comm_totals.copies = 16;
  return report;
}

TEST(FormatReport, MentionsEveryHeadline) {
  const std::string s = format_report(sample_report(true));
  EXPECT_NE(s.find("strategy=DP1"), std::string::npos);
  EXPECT_NE(s.find("1.0000 -> 0.7000"), std::string::npos);
  EXPECT_NE(s.find("(best 0.7000)"), std::string::npos);
  EXPECT_NE(s.find("0.4000 s over 4 epochs"), std::string::npos);
  EXPECT_NE(s.find("2000.0 Mupdates/s"), std::string::npos);
  EXPECT_NE(s.find("80.0%"), std::string::npos);
  EXPECT_NE(s.find("5.00 MB in 16 transfers"), std::string::npos);
  EXPECT_EQ(s.find("repartitions"), std::string::npos);  // none happened
}

TEST(FormatReport, SkipsRmseWhenNotEvaluated) {
  const std::string s = format_report(sample_report(false));
  EXPECT_EQ(s.find("test RMSE"), std::string::npos);
}

TEST(FormatReport, ReportsRepartitions) {
  TrainReport report = sample_report(true);
  report.repartitions = 3;
  EXPECT_NE(format_report(report).find("adaptive repartitions: 3"),
            std::string::npos);
}

TEST(FormatEpochTable, StrideSubsamplesButKeepsLastEpoch) {
  const std::string s = format_epoch_table(sample_report(true), 3);
  EXPECT_NE(s.find("epoch"), std::string::npos);
  // Rows 0 and 3 survive stride 3; row 3 is also the last.
  EXPECT_NE(s.find("1.0000"), std::string::npos);
  EXPECT_NE(s.find("0.7000"), std::string::npos);
  EXPECT_EQ(s.find("0.9000"), std::string::npos);  // row 1 dropped
}

TEST(FormatEpochTable, DashesForUnevaluatedEpochs) {
  const std::string s = format_epoch_table(sample_report(false));
  EXPECT_NE(s.find("-"), std::string::npos);
}

// Every bench binary's --json-out document carries the schema version and
// the locality configuration (schedule policy, tile budget, pinning) parsed
// from the same argv, so BENCH_*.json files are comparable across runs.
TEST(JsonReportSchema, StampsScheduleMetaFromArgv) {
  const std::string path = ::testing::TempDir() + "bench_schema_probe.json";
  const char* argv[] = {"bench",      "--json-out", path.c_str(),
                        "--schedule", "tiled",      "--tile-kb",
                        "512",        "--pin",      "--codec",
                        "2bit"};
  {
    hcc::bench::JsonReport report(10, argv, "schema_probe");
  }  // destructor writes the document
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  EXPECT_NE(doc.find("\"schema\":4"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"schedule\":\"tiled\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"tile_kb\":512"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"pin\":1"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"codec\":\"2bit\""), std::string::npos) << doc;
}

TEST(JsonReportSchema, DefaultsToAsIsUnpinned) {
  const std::string path = ::testing::TempDir() + "bench_schema_default.json";
  const char* argv[] = {"bench", "--json-out", path.c_str()};
  {
    hcc::bench::JsonReport report(3, argv, "schema_probe");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  EXPECT_NE(doc.find("\"schedule\":\"asis\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"pin\":0"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"codec\":\"fp16\""), std::string::npos) << doc;
  // Every document stamps the host it measured on.
  EXPECT_NE(doc.find("\"host_cpus\":"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"isa\":\""), std::string::npos) << doc;
}

}  // namespace
}  // namespace hcc::core
