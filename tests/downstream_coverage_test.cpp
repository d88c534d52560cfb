// Contract of downstream::generate_coverage_grid, the one coverage-map path
// (`gendt covermap` calls it): row-major grid over the central 80% of the
// region, point p on RNG stream derive_stream_seed(gen_seed, p), and the
// result bitwise identical at every thread count and batch size.
#include "gendt/downstream/coverage.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "gendt/sim/dataset.h"

namespace gendt::downstream {
namespace {

void expect_grids_bitwise_equal(const CoverageGrid& ref, const CoverageGrid& got,
                                const std::string& what) {
  ASSERT_EQ(ref.channels, got.channels) << what;
  EXPECT_EQ(ref.windows, got.windows) << what;
  EXPECT_EQ(ref.errors.size(), got.errors.size()) << what;
  ASSERT_EQ(ref.positions.size(), got.positions.size()) << what;
  for (size_t p = 0; p < ref.positions.size(); ++p) {
    EXPECT_EQ(std::bit_cast<uint64_t>(ref.positions[p].lat),
              std::bit_cast<uint64_t>(got.positions[p].lat))
        << what << " point " << p;
    EXPECT_EQ(std::bit_cast<uint64_t>(ref.positions[p].lon),
              std::bit_cast<uint64_t>(got.positions[p].lon))
        << what << " point " << p;
  }
  ASSERT_EQ(ref.means.size(), got.means.size()) << what;
  for (size_t i = 0; i < ref.means.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(ref.means[i]), std::bit_cast<uint64_t>(got.means[i]))
        << what << " flat index " << i << ": " << ref.means[i] << " vs " << got.means[i];
  }
}

class CoverageGridF : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::DatasetScale scale;
    scale.train_duration_s = 60.0;
    scale.test_duration_s = 30.0;
    scale.records_per_scenario = 1;
    ds_ = new sim::Dataset(sim::make_dataset_a(scale));
    norm_ = new context::KpiNorm(context::fit_kpi_norm(ds_->train, ds_->kpis));
    context::ContextConfig ccfg;
    ccfg.window_len = 20;
    ccfg.max_cells = 5;
    builder_ = new context::ContextBuilder(ds_->world, ccfg, *norm_, ds_->kpis);
    // Untrained: the grid contract is about which stream each point runs
    // on, not about fidelity, so the fixture skips training.
    core::GenDTConfig mcfg;
    mcfg.num_channels = static_cast<int>(ds_->kpis.size());
    mcfg.hidden = 16;
    gen_ = new core::GenDTGenerator(mcfg, core::TrainConfig{}, *norm_);
    gen_->set_kpis(ds_->kpis);
  }
  static void TearDownTestSuite() {
    delete gen_;
    delete builder_;
    delete norm_;
    delete ds_;
    gen_ = nullptr;
    builder_ = nullptr;
    norm_ = nullptr;
    ds_ = nullptr;
  }

  static CoverageGrid map(long w, long h, int batch, int threads, uint64_t gen_seed = 9) {
    const CoverageGridConfig cfg{.width = w,
                                 .height = h,
                                 .batch = batch,
                                 .gen_seed = gen_seed,
                                 .parallelism = {.threads = threads}};
    return generate_coverage_grid(*gen_, *builder_, ds_->world.projection(),
                                  ds_->world.region.extent_m, cfg);
  }

  static sim::Dataset* ds_;
  static context::KpiNorm* norm_;
  static context::ContextBuilder* builder_;
  static core::GenDTGenerator* gen_;
};
sim::Dataset* CoverageGridF::ds_ = nullptr;
context::KpiNorm* CoverageGridF::norm_ = nullptr;
context::ContextBuilder* CoverageGridF::builder_ = nullptr;
core::GenDTGenerator* CoverageGridF::gen_ = nullptr;

TEST_F(CoverageGridF, GridShapeAndPointPositions) {
  const long w = 5, h = 3;
  const CoverageGrid g = map(w, h, 8, 1);
  const int nch = static_cast<int>(ds_->kpis.size());
  ASSERT_EQ(g.channels, nch);
  ASSERT_EQ(g.positions.size(), static_cast<size_t>(w * h));
  ASSERT_EQ(g.means.size(), static_cast<size_t>(w * h * nch));
  EXPECT_TRUE(g.errors.empty());
  EXPECT_EQ(g.windows, w * h);  // one window_len stationary trajectory per point

  // Row-major lattice spanning [-0.8, 0.8] x extent on both axes.
  const geo::LocalProjection& proj = ds_->world.projection();
  const double extent = ds_->world.region.extent_m;
  for (long p = 0; p < w * h; ++p) {
    const long ix = p % w, iy = p / w;
    const geo::Enu e = proj.to_enu(g.positions[static_cast<size_t>(p)]);
    EXPECT_NEAR(e.east, -0.8 * extent + 1.6 * extent * static_cast<double>(ix) / (w - 1), 1e-6)
        << "point " << p;
    EXPECT_NEAR(e.north, -0.8 * extent + 1.6 * extent * static_cast<double>(iy) / (h - 1), 1e-6)
        << "point " << p;
  }
  for (double m : g.means) EXPECT_TRUE(std::isfinite(m));

  // A single point sits at the region's centre.
  const CoverageGrid one = map(1, 1, 8, 1);
  ASSERT_EQ(one.positions.size(), 1u);
  const geo::Enu c = proj.to_enu(one.positions[0]);
  EXPECT_NEAR(c.east, 0.0, 1e-9);
  EXPECT_NEAR(c.north, 0.0, 1e-9);

  EXPECT_THROW(map(0, 3, 8, 1), std::invalid_argument);
  EXPECT_THROW(map(3, 3, 0, 1), std::invalid_argument);
  EXPECT_THROW(map(65536, 65536, 8, 1), std::invalid_argument);  // 2^32 points
}

TEST_F(CoverageGridF, EachPointMatchesItsOwnStreamAlone) {
  const uint64_t gen_seed = 9;
  const CoverageGrid g = map(4, 3, 8, 3, gen_seed);
  const size_t nch = static_cast<size_t>(g.channels);
  const int wlen = builder_->config().window_len;
  for (size_t p = 0; p < g.positions.size(); ++p) {
    std::vector<geo::TrajectoryPoint> pts;
    for (int t = 0; t < wlen; ++t) pts.push_back({static_cast<double>(t), g.positions[p]});
    const std::vector<context::Window> windows =
        builder_->generation_windows(geo::Trajectory(pts));
    const std::vector<core::GenerateBatchResult> alone = gen_->generate_batch(
        {{.windows = &windows, .seed = runtime::derive_stream_seed(gen_seed, p)}});
    ASSERT_EQ(alone.size(), 1u);
    ASSERT_TRUE(alone[0].ok) << alone[0].error;
    ASSERT_EQ(alone[0].series.channels.size(), nch);
    for (size_t ch = 0; ch < nch; ++ch) {
      const std::vector<double>& series = alone[0].series.channels[ch];
      ASSERT_FALSE(series.empty());
      double sum = 0.0;
      for (double v : series) sum += v;
      const double mean = sum / static_cast<double>(series.size());
      EXPECT_EQ(std::bit_cast<uint64_t>(g.means[p * nch + ch]), std::bit_cast<uint64_t>(mean))
          << "point " << p << " channel " << ch << ": " << g.means[p * nch + ch] << " vs "
          << mean;
    }
  }
}

TEST_F(CoverageGridF, BitwiseIdenticalAcrossThreadsAndBatch) {
  // 15 and 14 points: neither is a multiple of 8, and 14 is not one of 3,
  // so the last block is ragged.
  for (const auto& [w, h] : {std::pair<long, long>{5, 3}, std::pair<long, long>{7, 2}}) {
    const CoverageGrid ref = map(w, h, 1, 1);
    ASSERT_TRUE(ref.errors.empty());
    for (int threads : {1, 3}) {
      for (int batch : {1, 3, 8}) {
        if (threads == 1 && batch == 1) continue;
        expect_grids_bitwise_equal(ref, map(w, h, batch, threads),
                                   std::to_string(w) + "x" + std::to_string(h) + " threads=" +
                                       std::to_string(threads) +
                                       " batch=" + std::to_string(batch));
      }
    }
  }
}

}  // namespace
}  // namespace gendt::downstream
