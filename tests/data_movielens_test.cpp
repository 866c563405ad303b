// Tests for the MovieLens ratings.csv loader.
#include "data/movielens_io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace hcc::data {
namespace {

/// A temp path of this test case alone: its name plus the pid, so cases
/// running in parallel (ctest -j) never share a file.
std::string temp_path_for_test(const std::string& extension) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string name = std::string("hccmf_") + test->test_suite_name() +
                           "_" + test->name() + "_" +
                           std::to_string(::getpid()) + extension;
  return (std::filesystem::temp_directory_path() / name).string();
}

class MovieLensTest : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove(path_); }
  void write(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }
  std::string path_ = temp_path_for_test(".csv");
};

TEST_F(MovieLensTest, ParsesHeaderAndDensifiesIds) {
  write(
      "userId,movieId,rating,timestamp\n"
      "1,31,2.5,1260759144\n"
      "1,1029,3.0,1260759179\n"
      "7,31,4.0,851868750\n");
  const MovieLensData ml = load_movielens_csv(path_);
  EXPECT_EQ(ml.ratings.rows(), 2u);  // users 1, 7
  EXPECT_EQ(ml.ratings.cols(), 2u);  // movies 31, 1029
  EXPECT_EQ(ml.ratings.nnz(), 3u);
  EXPECT_EQ(ml.user_ids, (std::vector<std::uint64_t>{1, 7}));
  EXPECT_EQ(ml.item_ids, (std::vector<std::uint64_t>{31, 1029}));
  // The shared movie 31 maps both occurrences onto dense column 0.
  EXPECT_EQ(ml.ratings.entries()[0].i, ml.ratings.entries()[2].i);
  EXPECT_FLOAT_EQ(ml.ratings.entries()[2].r, 4.0f);
}

TEST_F(MovieLensTest, WorksWithoutHeaderAndTimestamp) {
  write("3,5,1.5\n4,5,2.0\n");
  const MovieLensData ml = load_movielens_csv(path_);
  EXPECT_EQ(ml.ratings.nnz(), 2u);
  EXPECT_EQ(ml.ratings.rows(), 2u);
  EXPECT_EQ(ml.ratings.cols(), 1u);
}

TEST_F(MovieLensTest, SkipsEmptyLines) {
  write("1,2,3.0\n\n2,2,4.0\n");
  EXPECT_EQ(load_movielens_csv(path_).ratings.nnz(), 2u);
}

TEST_F(MovieLensTest, RejectsMalformedRows) {
  write("1,2\n");
  EXPECT_THROW(load_movielens_csv(path_), std::runtime_error);
  write("one,2,3.0\n");
  EXPECT_THROW(load_movielens_csv(path_), std::runtime_error);
  write("1,2,high\n");
  EXPECT_THROW(load_movielens_csv(path_), std::runtime_error);
}

TEST_F(MovieLensTest, MissingFileThrows) {
  EXPECT_THROW(load_movielens_csv("/tmp/definitely_missing_ml.csv"),
               std::runtime_error);
}

TEST_F(MovieLensTest, SaveLoadRoundTrip) {
  write(
      "userId,movieId,rating,timestamp\n"
      "10,100,4.5,1\n"
      "20,200,0.5,2\n"
      "10,200,3.0,3\n");
  const MovieLensData ml = load_movielens_csv(path_);
  const std::string out_path = temp_path_for_test("_roundtrip.csv");
  ASSERT_TRUE(
      save_movielens_csv(ml.ratings, ml.user_ids, ml.item_ids, out_path));
  const MovieLensData again = load_movielens_csv(out_path);
  ASSERT_EQ(again.ratings.nnz(), ml.ratings.nnz());
  EXPECT_EQ(again.user_ids, ml.user_ids);
  EXPECT_EQ(again.item_ids, ml.item_ids);
  for (std::size_t i = 0; i < ml.ratings.nnz(); ++i) {
    EXPECT_EQ(again.ratings.entries()[i], ml.ratings.entries()[i]);
  }
  std::filesystem::remove(out_path);
}

}  // namespace
}  // namespace hcc::data
