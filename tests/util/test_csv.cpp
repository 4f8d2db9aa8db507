#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

namespace mcopt::util {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ctest runs each case as its own process, possibly concurrently: every
// case writes a file of its own (pid plus test name).
class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ =
      testing::TempDir() + "/mcopt_csv_" + std::to_string(::getpid()) + "_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter w(path_, {"x", "y"});
    w.add_row({"1", "2"});
    w.add_row({"3", "4"});
    EXPECT_EQ(w.rows(), 2u);
  }
  EXPECT_EQ(slurp(path_), "# mcopt-csv v2, columns: x,y\nx,y\n1,2\n3,4\n");
}

TEST_F(CsvTest, StampsTheSchemaVersionFirst) {
  { CsvWriter w(path_, {"a", "b", "c"}); }
  const std::string body = slurp(path_);
  EXPECT_EQ(body.rfind("# mcopt-csv v2, columns: a,b,c\n", 0), 0u);
}

TEST_F(CsvTest, RejectsMismatchedRow) {
  CsvWriter w(path_, {"x", "y"});
  EXPECT_THROW(w.add_row({"1"}), std::invalid_argument);
}

TEST(CsvEscape, PlainCellUnchanged) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
}

TEST(CsvEscape, QuotesSpecials) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST_F(CsvTest, CloseDeliversFinalVerdictAndIsIdempotent) {
  CsvWriter w(path_, {"x"});
  w.add_row({"1"});
  EXPECT_TRUE(w.close().ok());
  EXPECT_TRUE(w.close().ok());  // second close is a no-op
  EXPECT_EQ(slurp(path_), "# mcopt-csv v2, columns: x\nx\n1\n");
}

TEST_F(CsvTest, MidWriteFailureSurfacesThroughStatus) {
  CsvWriter w(path_, {"x"});
  EXPECT_TRUE(w.try_add_row({"1"}).ok());
  w.poison_for_test();
  const Status bad = w.try_add_row({"2"});
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("write failed"), std::string::npos);
  // Later rows are refused, not silently dropped: rows() stays at the last
  // confirmed row and the sticky status keeps reporting the failure.
  EXPECT_FALSE(w.try_add_row({"3"}).ok());
  EXPECT_EQ(w.rows(), 1u);
  EXPECT_FALSE(w.close().ok());
  EXPECT_THROW(w.flush(), std::invalid_argument);
}

TEST_F(CsvTest, ThrowingWrapperPropagatesStreamFailure) {
  CsvWriter w(path_, {"x"});
  w.poison_for_test();
  EXPECT_THROW(w.add_row({"1"}), std::invalid_argument);
}

TEST_F(CsvTest, AddRowAfterCloseIsRefused) {
  CsvWriter w(path_, {"x"});
  EXPECT_TRUE(w.close().ok());
  EXPECT_FALSE(w.try_add_row({"1"}).ok());
  EXPECT_EQ(w.rows(), 0u);
}

TEST_F(CsvTest, WidthMismatchStillThrowsEvenWhenPoisoned) {
  CsvWriter w(path_, {"x", "y"});
  w.poison_for_test();
  EXPECT_THROW((void)w.try_add_row({"1"}), std::invalid_argument);
}

TEST(CsvWriterErrors, UnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/f.csv", {"a"}), std::runtime_error);
}

TEST(CsvWriterErrors, EmptyHeader) {
  const std::string path = testing::TempDir() + "/mcopt_csv_hdr.csv";
  EXPECT_THROW(CsvWriter(path, {}), std::invalid_argument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mcopt::util
