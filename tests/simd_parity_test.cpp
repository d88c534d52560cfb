// Contracts of the runtime kernel dispatch (gendt/nn/simd.h):
//
//  * Each route is individually deterministic: same inputs -> same bits at
//    every thread count and seed. The scalar route is the cross-release
//    bitwise anchor (gen_parity_test pins it); here we assert the avx2
//    route honours the same within-route stability.
//  * The avx2 route tracks the scalar route within a documented tolerance
//    (FMA + vector transcendentals round differently, they don't drift):
//    per-kernel bounds are tight (~1e-12 relative); whole generation
//    rollouts get a wider gate because the autoregressive LSTM amplifies
//    one-ulp differences step over step. Both bounds live in
//    docs/ARCHITECTURE.md "SIMD dispatch & weight arena".
//  * The avx512 route is BITWISE identical to avx2 — it only swaps the
//    row-GEMM for a zmm-blocked kernel with the same per-element FMA
//    sequence, and FMA rounding is independent of vector grouping. Pinned
//    per-kernel and on whole rollouts below.
//  * Route selection is overridable and honest: set_route refuses routes
//    the build/CPU cannot run.
#include "gendt/nn/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "gendt/core/batched_infer_session.h"
#include "gendt/nn/infer.h"
#include "gendt/nn/layers.h"
#include "gendt/sim/dataset.h"

namespace gendt::core {
namespace {

using nn::Mat;
using nn::simd::Route;
using nn::simd::ScopedRoute;

// Tolerance gate, avx2 vs scalar. |a - b| <= atol + rtol * max(|a|, |b|).
constexpr double kKernelAtol = 1e-13;   // one kernel call (matmul, gates)
constexpr double kKernelRtol = 1e-12;
constexpr double kRolloutAtol = 1e-7;   // full multi-window generation rollout
constexpr double kRolloutRtol = 1e-5;

bool avx2_here() { return nn::simd::route_supported(Route::kAvx2); }
bool avx512_here() { return nn::simd::route_supported(Route::kAvx512); }

void expect_near_mixed(const Mat& a, const Mat& b, double atol, double rtol, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    const double bound = atol + rtol * std::max(std::abs(a[i]), std::abs(b[i]));
    ASSERT_LE(std::abs(a[i] - b[i]), bound)
        << what << " flat index " << i << ": " << a[i] << " vs " << b[i];
  }
}

void expect_bits_equal(const Mat& a, const Mat& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << what << " flat index " << i << ": " << a[i] << " vs " << b[i];
  }
}

// ---- Route selection ------------------------------------------------------

TEST(SimdDispatch, ScalarAlwaysSupportedAndSettable) {
  EXPECT_TRUE(nn::simd::route_supported(Route::kScalar));
  const Route before = nn::simd::active_route();
  {
    ScopedRoute pin(Route::kScalar);
    ASSERT_TRUE(pin.ok());
    EXPECT_EQ(nn::simd::active_route(), Route::kScalar);
  }
  EXPECT_EQ(nn::simd::active_route(), before);
}

TEST(SimdDispatch, Avx2SetRouteHonestAboutSupport) {
  const Route before = nn::simd::active_route();
  const bool accepted = nn::simd::set_route(Route::kAvx2);
  EXPECT_EQ(accepted, avx2_here());
  if (!accepted) {
    EXPECT_EQ(nn::simd::active_route(), before);
  }
  nn::simd::set_route(before);
}

TEST(SimdDispatch, Avx512SetRouteHonestAboutSupport) {
  const Route before = nn::simd::active_route();
  const bool accepted = nn::simd::set_route(Route::kAvx512);
  EXPECT_EQ(accepted, avx512_here());
  if (!accepted) {
    EXPECT_EQ(nn::simd::active_route(), before);
  }
  nn::simd::set_route(before);
}

TEST(SimdDispatch, RouteNamesAreStable) {
  EXPECT_STREQ(nn::simd::route_name(Route::kScalar), "scalar");
  EXPECT_STREQ(nn::simd::route_name(Route::kAvx2), "avx2");
  EXPECT_STREQ(nn::simd::route_name(Route::kAvx512), "avx512");
}

// ---- Kernel-level tolerance (matmul family) -------------------------------

// Shapes straddle both tile boundaries (kDepthTile=64, kColTile=128) so the
// comparison covers full tiles, partial tiles, and the vector tail.
class SimdKernelF : public ::testing::Test {
 protected:
  static Mat random_mat(int rows, int cols, uint64_t seed) {
    std::mt19937_64 rng(seed);
    Mat m = Mat::randn(rows, cols, rng, 1.0);
    // Sprinkle exact zeros: both routes skip a == 0.0 multiplies, and the
    // skip must not desynchronize their results.
    std::uniform_int_distribution<int> pick(0, 9);
    for (size_t i = 0; i < m.size(); ++i)
      if (pick(rng) == 0) m[i] = 0.0;
    return m;
  }
};

TEST_F(SimdKernelF, MatmulAvx2MatchesScalarWithinTolerance) {
  if (!avx2_here()) GTEST_SKIP() << "no avx2 route on this build/CPU";
  const Mat a = random_mat(37, 300, 1);
  const Mat b = random_mat(300, 210, 2);
  Mat scalar_c, avx2_c;
  {
    ScopedRoute pin(Route::kScalar);
    scalar_c = matmul(a, b);
  }
  {
    ScopedRoute pin(Route::kAvx2);
    avx2_c = matmul(a, b);
  }
  expect_near_mixed(scalar_c, avx2_c, kKernelAtol, kKernelRtol, "matmul");
}

// The avx512 route is DEFINED as the avx2 table with only the row-GEMM
// widened to zmm, so its matmul must equal avx2 BITWISE (not within
// tolerance): vector width regroups j elements per instruction but leaves
// every element's single ascending-k FMA chain untouched. Row counts sweep
// the 4-row zmm block, the leftover-row loop, and (via odd cols) the masked
// column tail; the fixture's sprinkled zeros exercise the skip on both
// sides.
TEST_F(SimdKernelF, MatmulAvx512BitwiseEqualsAvx2) {
  if (!avx512_here()) GTEST_SKIP() << "no avx512 route on this build/CPU";
  for (int rows : {1, 2, 3, 4, 5, 8, 11}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    const Mat a = random_mat(rows, 300, 100 + static_cast<uint64_t>(rows));
    const Mat b = random_mat(300, 210, 2);
    Mat avx2_c, avx512_c;
    {
      ScopedRoute pin(Route::kAvx2);
      avx2_c = matmul(a, b);
    }
    {
      ScopedRoute pin(Route::kAvx512);
      avx512_c = matmul(a, b);
    }
    expect_bits_equal(avx2_c, avx512_c, "matmul avx512 vs avx2");
  }
}

TEST_F(SimdKernelF, MatmulNtAvx2MatchesScalarWithinTolerance) {
  if (!avx2_here()) GTEST_SKIP() << "no avx2 route on this build/CPU";
  const Mat a = random_mat(37, 300, 3);
  const Mat b = random_mat(210, 300, 4);  // B^T: [300 x 210]
  Mat scalar_c, avx2_c;
  {
    ScopedRoute pin(Route::kScalar);
    scalar_c = matmul_nt(a, b);
  }
  {
    ScopedRoute pin(Route::kAvx2);
    avx2_c = matmul_nt(a, b);
  }
  expect_near_mixed(scalar_c, avx2_c, kKernelAtol, kKernelRtol, "matmul_nt");
}

TEST_F(SimdKernelF, MatmulTnAvx2MatchesScalarWithinTolerance) {
  if (!avx2_here()) GTEST_SKIP() << "no avx2 route on this build/CPU";
  const Mat a = random_mat(300, 37, 5);  // A^T: [37 x 300]
  const Mat b = random_mat(300, 210, 6);
  Mat scalar_c, avx2_c;
  {
    ScopedRoute pin(Route::kScalar);
    scalar_c = matmul_tn(a, b);
  }
  {
    ScopedRoute pin(Route::kAvx2);
    avx2_c = matmul_tn(a, b);
  }
  expect_near_mixed(scalar_c, avx2_c, kKernelAtol, kKernelRtol, "matmul_tn");
}

TEST_F(SimdKernelF, MatmulNtAvx2BitwiseEqualsMatmulOfExplicitTranspose) {
  if (!avx2_here()) GTEST_SKIP() << "no avx2 route on this build/CPU";
  // NN and NT share one per-element operation sequence (tile_rows) on the
  // avx2 route, exactly like the scalar pair — bitwise, not tolerance.
  const Mat a = random_mat(19, 150, 7);
  const Mat b = random_mat(130, 150, 8);
  ScopedRoute pin(Route::kAvx2);
  const Mat nt = matmul_nt(a, b);
  const Mat nn_ref = matmul(a, b.transpose());
  expect_bits_equal(nt, nn_ref, "matmul_nt vs matmul(a, b^T)");
}

// ---- Kernel-level tolerance (LSTM gates + fused affine2) ------------------

TEST(SimdLstmGates, Avx2MatchesScalarAcrossWidthsAndSaturation) {
  if (!avx2_here()) GTEST_SKIP() << "no avx2 route on this build/CPU";
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> mid(-6.0, 6.0);
  for (int H : {1, 3, 4, 7, 12, 19}) {
    SCOPED_TRACE("H=" + std::to_string(H));
    Mat gates(1, 4 * H);
    for (size_t i = 0; i < gates.size(); ++i) gates[i] = mid(rng);
    // Saturated extremes: the avx2 exp clamps at +-709.4, scalar overflows
    // to inf and the sigmoid/tanh still land on {0, 1, -1} — results must
    // agree to atol.
    gates[0] = 800.0;
    if (H > 1) gates[1] = -800.0;
    Mat c0(1, H), h_scalar(1, H), c_scalar(1, H), h_avx2(1, H), c_avx2(1, H);
    for (int j = 0; j < H; ++j) c0(0, j) = mid(rng) / 3.0;

    for (size_t i = 0; i < c0.size(); ++i) {
      c_scalar[i] = c0[i];
      c_avx2[i] = c0[i];
    }
    {
      ScopedRoute pin(Route::kScalar);
      nn::simd::kernels().lstm_gates(gates.data().data(), h_scalar.data().data(),
                                     c_scalar.data().data(), H);
    }
    {
      ScopedRoute pin(Route::kAvx2);
      nn::simd::kernels().lstm_gates(gates.data().data(), h_avx2.data().data(),
                                     c_avx2.data().data(), H);
    }
    expect_near_mixed(c_scalar, c_avx2, kKernelAtol, kKernelRtol, "lstm c'");
    expect_near_mixed(h_scalar, h_avx2, kKernelAtol, kKernelRtol, "lstm h'");
  }
}

TEST(SimdAffine2, FusedRowMatchesGenericPathWithinTolerance) {
  if (!avx2_here()) GTEST_SKIP() << "no avx2 route on this build/CPU";
  std::mt19937_64 rng(13);
  for (int n : {1, 5, 48, 130}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Mat x1 = Mat::randn(1, 9, rng);
    const Mat w1 = Mat::randn(9, n, rng);
    const Mat x2 = Mat::randn(1, 12, rng);
    const Mat w2 = Mat::randn(12, n, rng);
    const Mat b = Mat::randn(1, n, rng);
    Mat y_scalar(1, n), y_avx2(1, n);
    {
      ScopedRoute pin(Route::kScalar);
      nn::infer::affine2_fwd(x1, w1, x2, w2, b, y_scalar);
    }
    {
      ScopedRoute pin(Route::kAvx2);
      nn::infer::affine2_fwd(x1, w1, x2, w2, b, y_avx2);
    }
    expect_near_mixed(y_scalar, y_avx2, kKernelAtol, kKernelRtol, "affine2");
  }
}

// ---- Whole-rollout contracts ----------------------------------------------

class SimdRolloutF : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::DatasetScale scale;
    scale.train_duration_s = 260.0;
    scale.test_duration_s = 130.0;
    scale.records_per_scenario = 1;
    ds_ = new sim::Dataset(sim::make_dataset_a(scale));
    norm_ = new context::KpiNorm(context::fit_kpi_norm(ds_->train, ds_->kpis));
    context::ContextConfig cfg;
    cfg.window_len = 25;
    cfg.train_step = 10;
    cfg.max_cells = 5;
    builder_ = new context::ContextBuilder(ds_->world, cfg, *norm_, ds_->kpis);
    gen_windows_ = new std::vector<context::Window>(builder_->generation_windows(ds_->test[0]));
  }
  static void TearDownTestSuite() {
    delete gen_windows_;
    delete builder_;
    delete norm_;
    delete ds_;
    gen_windows_ = nullptr;
    builder_ = nullptr;
    norm_ = nullptr;
    ds_ = nullptr;
  }

  static GenDTConfig small_config(int threads) {
    GenDTConfig c;
    c.num_channels = 4;
    c.hidden = 12;
    c.resgen_hidden = 16;
    c.init_seed = 3;
    c.parallelism.threads = threads;
    return c;
  }

  // One lane (R=1) through the rollout engine.
  static std::vector<WindowSample> run_one(const GenDTModel& model, uint64_t seed) {
    BatchedInferenceSession session(model);
    BatchLane lane;
    lane.windows = *gen_windows_;
    lane.seed = seed;
    return std::move(session.run({lane})[0].samples);
  }

  static std::vector<WindowSample> run_route(Route route, int threads, uint64_t seed) {
    ScopedRoute pin(route);
    GenDTModel model(small_config(threads));
    return run_one(model, seed);
  }

  static sim::Dataset* ds_;
  static context::KpiNorm* norm_;
  static context::ContextBuilder* builder_;
  static std::vector<context::Window>* gen_windows_;
};
sim::Dataset* SimdRolloutF::ds_ = nullptr;
context::KpiNorm* SimdRolloutF::norm_ = nullptr;
context::ContextBuilder* SimdRolloutF::builder_ = nullptr;
std::vector<context::Window>* SimdRolloutF::gen_windows_ = nullptr;

// Reference-route anchor: bits must not depend on thread count or repetition
// (gen_parity_test already pins the graph-parity side of this contract).
TEST_F(SimdRolloutF, ScalarRouteBitwiseStableAcrossThreads) {
  for (uint64_t seed : {7u, 41u, 1234u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto serial = run_route(Route::kScalar, 1, seed);
    const auto threaded = run_route(Route::kScalar, 4, seed);
    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < serial.size(); ++i)
      expect_bits_equal(serial[i].output, threaded[i].output, "scalar output");
  }
}

// Within-route determinism of the avx2 route: the whole-row parallel split
// never reorders any element's arithmetic, so bits match across thread
// counts here too — only ACROSS routes is the match tolerance-based.
TEST_F(SimdRolloutF, Avx2RouteBitwiseStableAcrossThreads) {
  if (!avx2_here()) GTEST_SKIP() << "no avx2 route on this build/CPU";
  for (uint64_t seed : {7u, 41u, 1234u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto serial = run_route(Route::kAvx2, 1, seed);
    const auto threaded = run_route(Route::kAvx2, 4, seed);
    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < serial.size(); ++i)
      expect_bits_equal(serial[i].output, threaded[i].output, "avx2 output");
  }
}

// Product-level spelling of the same contract: a whole generation rollout
// on the avx512 route reproduces the avx2 route's bits exactly.
TEST_F(SimdRolloutF, Avx512RolloutBitwiseEqualsAvx2) {
  if (!avx512_here()) GTEST_SKIP() << "no avx512 route on this build/CPU";
  for (uint64_t seed : {7u, 41u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto avx2 = run_route(Route::kAvx2, 2, seed);
    const auto avx512 = run_route(Route::kAvx512, 2, seed);
    ASSERT_EQ(avx2.size(), avx512.size());
    for (size_t i = 0; i < avx2.size(); ++i)
      expect_bits_equal(avx2[i].output, avx512[i].output, "avx512 rollout output");
  }
}

TEST_F(SimdRolloutF, Avx2RouteTracksScalarWithinRolloutTolerance) {
  if (!avx2_here()) GTEST_SKIP() << "no avx2 route on this build/CPU";
  double max_dev = 0.0;
  for (uint64_t seed : {7u, 41u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto scalar = run_route(Route::kScalar, 2, seed);
    const auto avx2 = run_route(Route::kAvx2, 2, seed);
    ASSERT_EQ(scalar.size(), avx2.size());
    for (size_t i = 0; i < scalar.size(); ++i) {
      expect_near_mixed(scalar[i].output, avx2[i].output, kRolloutAtol, kRolloutRtol,
                        "rollout output");
      for (size_t j = 0; j < scalar[i].output.size(); ++j)
        max_dev = std::max(max_dev, std::abs(scalar[i].output[j] - avx2[i].output[j]));
    }
  }
  // Recorded so tolerance drift shows up in test logs before it bites.
  ::testing::Test::RecordProperty("max_abs_deviation", std::to_string(max_dev));
}

// The graph route also dispatches its matmuls, so graph-vs-fast parity holds
// WITHIN the avx2 route for every op that is not a fast-path-only fused
// kernel. The rollout uses those fused kernels, so graph-vs-fast under avx2
// is tolerance-bounded — same gate as scalar-vs-avx2.
TEST_F(SimdRolloutF, Avx2GraphVsFastWithinRolloutTolerance) {
  if (!avx2_here()) GTEST_SKIP() << "no avx2 route on this build/CPU";
  ScopedRoute pin(Route::kAvx2);
  GenDTModel model(small_config(2));
  const auto graph = model.sample_windows(*gen_windows_, 41);
  const auto fast = run_one(model, 41);
  ASSERT_EQ(graph.size(), fast.size());
  for (size_t i = 0; i < graph.size(); ++i)
    expect_near_mixed(graph[i].output, fast[i].output, kRolloutAtol, kRolloutRtol,
                      "graph vs fast (avx2)");
}

}  // namespace
}  // namespace gendt::core
