#include "gendt/sim/dataset.h"
#include "gendt/sim/drive_test.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

namespace gendt::sim {
namespace {

// Shared tiny world + simulator for all tests in this file.
class DriveTestF : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RegionConfig r;
    r.origin = {51.5, 7.46};
    r.extent_m = 6000.0;
    r.cities.push_back({{0.0, 0.0}, 2500.0});
    r.highways.push_back({{{-5500.0, -5000.0}, {5500.0, -5000.0}}});
    r.seed = 21;
    world_ = new World(make_world(r));
    sim_ = new DriveTestSimulator(*world_, SimConfig{});
  }
  static void TearDownTestSuite() {
    delete sim_;
    delete world_;
    sim_ = nullptr;
    world_ = nullptr;
  }

  static geo::Trajectory walk_traj(uint64_t seed, double duration = 400.0) {
    std::mt19937_64 rng(seed);
    return scenario_trajectory(world_->region, Scenario::kWalk, duration, rng);
  }

  static World* world_;
  static DriveTestSimulator* sim_;
};
World* DriveTestF::world_ = nullptr;
DriveTestSimulator* DriveTestF::sim_ = nullptr;

TEST_F(DriveTestF, ProducesOneSamplePerTrajectoryPoint) {
  geo::Trajectory t = walk_traj(1);
  DriveTestRecord rec = sim_->run(t, Scenario::kWalk, 100);
  EXPECT_EQ(rec.samples.size(), t.size());  // city walk: never out of coverage
}

TEST_F(DriveTestF, KpisWithinLteRanges) {
  DriveTestRecord rec = sim_->run(walk_traj(2), Scenario::kWalk, 101);
  ASSERT_GT(rec.samples.size(), 100u);
  for (const auto& m : rec.samples) {
    EXPECT_GE(m.rsrp_dbm, radio::kRsrpBadDbm);
    EXPECT_LE(m.rsrp_dbm, radio::kRsrpGoodDbm);
    EXPECT_GE(m.rsrq_db, radio::kRsrqBadDb);
    EXPECT_LE(m.rsrq_db, radio::kRsrqGoodDb);
    EXPECT_GE(m.cqi, radio::kCqiMin);
    EXPECT_LE(m.cqi, radio::kCqiMax);
    EXPECT_GE(m.throughput_mbps, 0.0);
    EXPECT_GE(m.per, 0.0);
    EXPECT_LE(m.per, 1.0);
    EXPECT_NE(m.serving_cell, radio::kNoCell);
  }
}

TEST_F(DriveTestF, PlausibleUrbanRsrpStatistics) {
  DriveTestRecord rec = sim_->run(walk_traj(3, 800.0), Scenario::kWalk, 102);
  const auto rsrp = rec.kpi_series(Kpi::kRsrp);
  const double mean =
      std::accumulate(rsrp.begin(), rsrp.end(), 0.0) / static_cast<double>(rsrp.size());
  double var = 0.0;
  for (double v : rsrp) var += (v - mean) * (v - mean);
  const double stddev = std::sqrt(var / static_cast<double>(rsrp.size()));
  // Paper Table 1: mean ~ -85 dBm, std ~ 10 dB. Allow generous bands.
  EXPECT_GT(mean, -105.0);
  EXPECT_LT(mean, -65.0);
  EXPECT_GT(stddev, 4.0);
  EXPECT_LT(stddev, 18.0);
}

TEST_F(DriveTestF, RepeatedRunsDifferButShareStructure) {
  // Paper Fig. 1: same trajectory, different runs -> visibly different KPI
  // series (stochasticity), but similar distribution.
  geo::Trajectory t = walk_traj(4, 600.0);
  DriveTestRecord a = sim_->run(t, Scenario::kWalk, 200);
  DriveTestRecord b = sim_->run(t, Scenario::kWalk, 201);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  double diff = 0.0, mean_a = 0.0, mean_b = 0.0;
  for (size_t i = 0; i < a.samples.size(); ++i) {
    diff += std::abs(a.samples[i].rsrp_dbm - b.samples[i].rsrp_dbm);
    mean_a += a.samples[i].rsrp_dbm;
    mean_b += b.samples[i].rsrp_dbm;
  }
  diff /= static_cast<double>(a.samples.size());
  mean_a /= static_cast<double>(a.samples.size());
  mean_b /= static_cast<double>(a.samples.size());
  EXPECT_GT(diff, 1.0);                       // point-wise variation exists
  EXPECT_LT(std::abs(mean_a - mean_b), 4.0);  // distribution similar
}

TEST_F(DriveTestF, SameSeedIsReproducible) {
  geo::Trajectory t = walk_traj(5);
  DriveTestRecord a = sim_->run(t, Scenario::kWalk, 300);
  DriveTestRecord b = sim_->run(t, Scenario::kWalk, 300);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples[i].rsrp_dbm, b.samples[i].rsrp_dbm);
    EXPECT_EQ(a.samples[i].serving_cell, b.samples[i].serving_cell);
  }
}

TEST_F(DriveTestF, HandoversOccurAndAreNotPerSample) {
  DriveTestRecord rec = sim_->run(walk_traj(6, 900.0), Scenario::kWalk, 400);
  int handovers = 0;
  for (size_t i = 1; i < rec.samples.size(); ++i)
    if (rec.samples[i].serving_cell != rec.samples[i - 1].serving_cell) ++handovers;
  EXPECT_GT(handovers, 0);
  // Hysteresis + TTT must prevent ping-ponging every sample.
  EXPECT_LT(handovers, static_cast<int>(rec.samples.size()) / 5);
  EXPECT_GT(rec.avg_serving_cell_duration_s(), 5.0);
}

TEST_F(DriveTestF, ServingCellIsNearby) {
  DriveTestRecord rec = sim_->run(walk_traj(7), Scenario::kWalk, 500);
  const auto& proj = world_->projection();
  for (size_t i = 0; i < rec.samples.size(); i += 25) {
    const auto& m = rec.samples[i];
    const radio::Cell* c = world_->cells.find(m.serving_cell);
    ASSERT_NE(c, nullptr);
    EXPECT_LT(geo::haversine_m(m.pos, c->site), 3000.0);
  }
  (void)proj;
}

TEST_F(DriveTestF, SinrCqiThroughputConsistent) {
  DriveTestRecord rec = sim_->run(walk_traj(8, 800.0), Scenario::kWalk, 600);
  // Higher SINR should on average mean higher CQI and throughput: compare
  // top-quartile vs bottom-quartile SINR samples.
  auto sinr = rec.kpi_series(Kpi::kSinr);
  std::vector<size_t> idx(sinr.size());
  std::iota(idx.begin(), idx.end(), 0u);
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) { return sinr[a] < sinr[b]; });
  const size_t q = sinr.size() / 4;
  double low_cqi = 0, high_cqi = 0, low_tput = 0, high_tput = 0;
  for (size_t i = 0; i < q; ++i) {
    low_cqi += rec.samples[idx[i]].cqi;
    low_tput += rec.samples[idx[i]].throughput_mbps;
    high_cqi += rec.samples[idx[sinr.size() - 1 - i]].cqi;
    high_tput += rec.samples[idx[sinr.size() - 1 - i]].throughput_mbps;
  }
  EXPECT_GT(high_cqi, low_cqi);
  EXPECT_GT(high_tput, low_tput);
}

TEST_F(DriveTestF, KpiAccessorsMatchFields) {
  Measurement m;
  m.rsrp_dbm = -88.0;
  m.rsrq_db = -11.0;
  m.sinr_db = 7.5;
  m.cqi = 9;
  m.serving_cell = 42;
  m.throughput_mbps = 12.5;
  m.per = 0.01;
  EXPECT_DOUBLE_EQ(m.kpi(Kpi::kRsrp), -88.0);
  EXPECT_DOUBLE_EQ(m.kpi(Kpi::kRsrq), -11.0);
  EXPECT_DOUBLE_EQ(m.kpi(Kpi::kSinr), 7.5);
  EXPECT_DOUBLE_EQ(m.kpi(Kpi::kCqi), 9.0);
  EXPECT_DOUBLE_EQ(m.kpi(Kpi::kServingCell), 42.0);
  EXPECT_DOUBLE_EQ(m.kpi(Kpi::kThroughput), 12.5);
  EXPECT_DOUBLE_EQ(m.kpi(Kpi::kPer), 0.01);
}

TEST_F(DriveTestF, SimulatorExportsServingLoad) {
  const DriveTestRecord rec = sim_->run(walk_traj(4), Scenario::kWalk, 4);
  ASSERT_FALSE(rec.samples.empty());
  for (const auto& m : rec.samples) {
    EXPECT_GE(m.serving_load, 0.0);
    EXPECT_LE(m.serving_load, 1.0);
    EXPECT_DOUBLE_EQ(m.kpi(Kpi::kCellLoad), m.serving_load);
  }
}

TEST_F(DriveTestF, EmptyTrajectoryYieldsEmptyRecord) {
  DriveTestRecord rec = sim_->run(geo::Trajectory{}, Scenario::kWalk, 1);
  EXPECT_TRUE(rec.samples.empty());
  EXPECT_DOUBLE_EQ(rec.avg_serving_cell_duration_s(), 0.0);
}

TEST(DatasetBuilders, DatasetAHasThreeScenarios) {
  DatasetScale scale;
  scale.train_duration_s = 120.0;
  scale.test_duration_s = 60.0;
  scale.records_per_scenario = 1;
  Dataset a = make_dataset_a(scale);
  EXPECT_EQ(a.train.size(), 3u);
  EXPECT_EQ(a.test.size(), 3u);
  EXPECT_EQ(a.kpis.size(), 4u);
  EXPECT_GT(a.total_samples(), 300u);
}

TEST(DatasetBuilders, DatasetBHasFourScenariosAndTwoKpis) {
  DatasetScale scale;
  scale.train_duration_s = 120.0;
  scale.test_duration_s = 60.0;
  scale.records_per_scenario = 1;
  Dataset b = make_dataset_b(scale);
  EXPECT_EQ(b.train.size(), 4u);
  EXPECT_EQ(b.test.size(), 4u);
  EXPECT_EQ(b.kpis.size(), 2u);
}

TEST(DatasetBuilders, LongComplexRecordHasRequestedDuration) {
  DatasetScale scale;
  scale.train_duration_s = 60.0;
  scale.test_duration_s = 30.0;
  scale.records_per_scenario = 1;
  Dataset b = make_dataset_b(scale);
  DriveTestRecord lc = make_long_complex_record(b, 600.0);
  ASSERT_GT(lc.samples.size(), 50u);
  EXPECT_GT(lc.samples.back().t - lc.samples.front().t, 400.0);
}

TEST(DatasetBuilders, GeographicSubsetsAreDisjointInSpace) {
  DatasetScale scale;
  scale.train_duration_s = 400.0;
  scale.test_duration_s = 30.0;
  scale.records_per_scenario = 2;
  Dataset b = make_dataset_b(scale);
  auto subsets = geographic_subsets(b, 12);
  EXPECT_GE(subsets.size(), 4u);
  size_t total = 0;
  for (const auto& s : subsets) {
    EXPECT_FALSE(s.empty());
    for (const auto& rec : s) total += rec.samples.size();
  }
  EXPECT_GT(total, 100u);
}

}  // namespace
}  // namespace gendt::sim
