// Robustness sweep (TEST_P) over malformed CSV inputs: every corrupted file
// must be rejected cleanly (nullopt + error message), never crash or return
// partially-parsed data.
#include "gendt/io/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace gendt::io {
namespace {

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = (std::filesystem::temp_directory_path() / name).string();
  std::ofstream os(path, std::ios::trunc);
  os << content;
  return path;
}

struct BadCsvCase {
  const char* label;
  const char* content;
};

// Without this, gtest prints the param as raw bytes — two pointers whose
// values change with every build and every address-space layout — and
// those bytes end up in the test names that ctest discovers.
void PrintTo(const BadCsvCase& c, std::ostream* os) { *os << c.label; }

class BadTrajectoryP : public ::testing::TestWithParam<BadCsvCase> {};

TEST_P(BadTrajectoryP, RejectedWithError) {
  const auto& c = GetParam();
  const std::string path = write_temp(std::string("gendt_badtraj_") + c.label + ".csv",
                                      c.content);
  EXPECT_FALSE(read_trajectory_csv(path).has_value()) << c.label;
  EXPECT_FALSE(last_error().empty());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BadTrajectoryP,
    ::testing::Values(
        BadCsvCase{"empty", ""},
        BadCsvCase{"header_only_wrong_cols", "a,b\n"},
        BadCsvCase{"too_few_fields", "t,lat,lon\n0,51.5\n"},
        BadCsvCase{"too_many_fields", "t,lat,lon\n0,51.5,7.4,9\n"},
        BadCsvCase{"non_numeric_t", "t,lat,lon\nx,51.5,7.4\n"},
        BadCsvCase{"non_numeric_lat", "t,lat,lon\n0,north,7.4\n"},
        BadCsvCase{"duplicate_timestamp", "t,lat,lon\n0,51.5,7.4\n0,51.6,7.5\n"},
        BadCsvCase{"decreasing_timestamp", "t,lat,lon\n5,51.5,7.4\n1,51.6,7.5\n"},
        BadCsvCase{"trailing_garbage", "t,lat,lon\n0,51.5,7.4abc\n"},
        // from_chars parses these; the reader must still refuse non-finite
        // values in numeric columns.
        BadCsvCase{"nan_lat", "t,lat,lon\n0,nan,7.4\n"},
        BadCsvCase{"inf_lon", "t,lat,lon\n0,51.5,inf\n"},
        BadCsvCase{"neg_inf_t", "t,lat,lon\n-inf,51.5,7.4\n"}),
    [](const auto& param_info) { return param_info.param.label; });

class BadRecordP : public ::testing::TestWithParam<BadCsvCase> {};

TEST_P(BadRecordP, RejectedWithError) {
  const auto& c = GetParam();
  const std::string path = write_temp(std::string("gendt_badrec_") + c.label + ".csv",
                                      c.content);
  EXPECT_FALSE(read_record_csv(path).has_value()) << c.label;
  std::remove(path.c_str());
}

namespace rec_headers {
constexpr const char* kGood =
    "t,lat,lon,serving_cell,rsrp_dbm,rsrq_db,sinr_db,cqi,throughput_mbps,per\n";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BadRecordP,
    ::testing::Values(
        BadCsvCase{"empty", ""},
        BadCsvCase{"wrong_header_cols", "t,lat,lon\n"},
        BadCsvCase{"short_row",
                   "t,lat,lon,serving_cell,rsrp_dbm,rsrq_db,sinr_db,cqi,throughput_mbps,per\n"
                   "0,51.5,7.4\n"},
        BadCsvCase{"float_cell_id",
                   "t,lat,lon,serving_cell,rsrp_dbm,rsrq_db,sinr_db,cqi,throughput_mbps,per\n"
                   "0,51.5,7.4,1.5,-85,-11,8,9,12,0.01\n"},
        BadCsvCase{"text_cqi",
                   "t,lat,lon,serving_cell,rsrp_dbm,rsrq_db,sinr_db,cqi,throughput_mbps,per\n"
                   "0,51.5,7.4,1,-85,-11,8,high,12,0.01\n"},
        BadCsvCase{"cell_id_overflows_int32",
                   "t,lat,lon,serving_cell,rsrp_dbm,rsrq_db,sinr_db,cqi,throughput_mbps,per\n"
                   "0,51.5,7.4,4294967296,-85,-11,8,9,12,0.01\n"},
        BadCsvCase{"cqi_overflows_int",
                   "t,lat,lon,serving_cell,rsrp_dbm,rsrq_db,sinr_db,cqi,throughput_mbps,per\n"
                   "0,51.5,7.4,1,-85,-11,8,99999999999,12,0.01\n"},
        BadCsvCase{"nan_rsrp",
                   "t,lat,lon,serving_cell,rsrp_dbm,rsrq_db,sinr_db,cqi,throughput_mbps,per\n"
                   "0,51.5,7.4,1,nan,-11,8,9,12,0.01\n"},
        BadCsvCase{"inf_throughput",
                   "t,lat,lon,serving_cell,rsrp_dbm,rsrq_db,sinr_db,cqi,throughput_mbps,per\n"
                   "0,51.5,7.4,1,-85,-11,8,9,infinity,0.01\n"}),
    [](const auto& param_info) { return param_info.param.label; });

class BadCellsP : public ::testing::TestWithParam<BadCsvCase> {};

TEST_P(BadCellsP, RejectedWithError) {
  const auto& c = GetParam();
  const std::string path = write_temp(std::string("gendt_badcells_") + c.label + ".csv",
                                      c.content);
  EXPECT_FALSE(read_cells_csv(path, {51.5, 7.4}).has_value()) << c.label;
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BadCellsP,
    ::testing::Values(
        BadCsvCase{"empty", ""},
        BadCsvCase{"wrong_header", "id,lat,lon\n"},
        BadCsvCase{"bad_power",
                   "id,lat,lon,p_max_dbm,azimuth_deg,beamwidth_deg,n_rb,earfcn\n"
                   "1,51.5,7.4,loud,0,65,50,1300\n"},
        BadCsvCase{"float_n_rb",
                   "id,lat,lon,p_max_dbm,azimuth_deg,beamwidth_deg,n_rb,earfcn\n"
                   "1,51.5,7.4,46,0,65,50.5,1300\n"},
        BadCsvCase{"id_overflows_int32",
                   "id,lat,lon,p_max_dbm,azimuth_deg,beamwidth_deg,n_rb,earfcn\n"
                   "-4294967296,51.5,7.4,46,0,65,50,1300\n"},
        BadCsvCase{"earfcn_overflows_int",
                   "id,lat,lon,p_max_dbm,azimuth_deg,beamwidth_deg,n_rb,earfcn\n"
                   "1,51.5,7.4,46,0,65,50,99999999999\n"}),
    [](const auto& param_info) { return param_info.param.label; });

// ---- Line-length limit + column-count diagnostics --------------------------

// A line longer than max_line_bytes() fails the load with a structured error
// naming the limit, instead of feeding an unbounded line into the splitter.
TEST(CsvLimits, OversizedLineRejected) {
  const size_t prev = set_max_line_bytes(256);
  // Whitespace padding keeps the row otherwise valid — only its length is bad.
  std::string content = "t,lat,lon\n0,51.5,7.4\n1,";
  content += std::string(1024, ' ');
  content += "51.6,7.5\n";
  const std::string path = write_temp("gendt_longline.csv", content);
  EXPECT_FALSE(read_trajectory_csv(path).has_value());
  EXPECT_NE(last_error().find("256-byte limit"), std::string::npos) << last_error();
  set_max_line_bytes(prev);
  std::remove(path.c_str());
}

// The limit is configurable: the same file parses once the limit covers it.
TEST(CsvLimits, LimitIsConfigurable) {
  std::string content = "t,lat,lon\n0,51.5,7.4\n1,";
  content += std::string(1024, ' ');
  content += "51.6,7.5\n";
  const std::string path = write_temp("gendt_longline_ok.csv", content);
  const size_t prev = set_max_line_bytes(4096);
  EXPECT_TRUE(read_trajectory_csv(path).has_value()) << last_error();
  set_max_line_bytes(prev);
  EXPECT_EQ(max_line_bytes(), prev);
  std::remove(path.c_str());
}

// Zero clamps to one instead of disabling the limit.
TEST(CsvLimits, ZeroClampsToOne) {
  const size_t prev = set_max_line_bytes(0);
  EXPECT_EQ(max_line_bytes(), 1u);
  set_max_line_bytes(prev);
}

// A row whose column count disagrees with the header gets a structured
// got/expected diagnostic, distinct from a per-field parse failure.
TEST(CsvLimits, ColumnCountMismatchDiagnostic) {
  const std::string path =
      write_temp("gendt_colcount.csv", "t,lat,lon\n0,51.5,7.4\n1,51.6\n");
  EXPECT_FALSE(read_trajectory_csv(path).has_value());
  EXPECT_NE(last_error().find("column count mismatch (got 2, expected 3)"),
            std::string::npos)
      << last_error();
  std::remove(path.c_str());
}

TEST(CsvLimits, RecordColumnCountDiagnostic) {
  const std::string path = write_temp(
      "gendt_reccol.csv",
      "t,lat,lon,serving_cell,rsrp_dbm,rsrq_db,sinr_db,cqi,throughput_mbps,per\n"
      "0,51.5,7.4,1,-85,-11,8,9,12,0.01,extra\n");
  EXPECT_FALSE(read_record_csv(path).has_value());
  EXPECT_NE(last_error().find("column count mismatch (got 11, expected 10)"),
            std::string::npos)
      << last_error();
  std::remove(path.c_str());
}

// Whitespace tolerance: leading spaces in numeric fields must parse.
TEST(CsvTolerance, LeadingWhitespaceAccepted) {
  const std::string path = write_temp("gendt_ws.csv", "t,lat,lon\n 0, 51.5, 7.4\n 1, 51.6, 7.5\n");
  auto t = read_trajectory_csv(path);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size(), 2u);
  std::remove(path.c_str());
}

// CRLF line endings (Windows exports) must parse.
TEST(CsvTolerance, CrlfAccepted) {
  const std::string path = write_temp("gendt_crlf.csv", "t,lat,lon\r\n0,51.5,7.4\r\n1,51.6,7.5\r\n");
  auto t = read_trajectory_csv(path);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gendt::io
