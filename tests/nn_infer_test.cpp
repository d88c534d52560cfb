// Workspace lifecycle guards + kernel-level parity of the tape-free forward
// ops against their Tensor-graph counterparts. Window-level parity of the
// whole rollout lives in gen_parity_test.
#include "gendt/nn/infer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "gendt/nn/checks.h"
#include "gendt/nn/layers.h"
#include "gendt/nn/simd.h"
#include "gendt/nn/tensor.h"

namespace gendt::nn::infer {
namespace {

// Kernel-vs-graph bitwise parity holds on the scalar route only (the avx2
// route's fast-path-only fused kernels match within tolerance instead —
// simd_parity_test). Pin it for the whole binary.
[[maybe_unused]] const bool g_scalar_route = [] {
  return simd::set_route(simd::Route::kScalar);
}();

void expect_bits_equal(const Mat& a, const Mat& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i])) << "flat " << i;
}

// ---- Workspace lifecycle --------------------------------------------------

TEST(Workspace, ReusesBufferForSameShape) {
  Workspace ws;
  Mat* first = &ws.checkout(0, 4, 8);
  EXPECT_EQ(ws.allocations(), 1u);
  ws.release(0);
  Mat* second = &ws.checkout(0, 4, 8);
  EXPECT_EQ(first, second);  // same slot object, no realloc
  EXPECT_EQ(ws.allocations(), 1u);
  ws.release(0);
}

TEST(Workspace, ReallocatesOnlyOnCapacityGrowth) {
  Workspace ws;
  ws.checkout(2, 3, 3);  // 9 elements: first allocation
  ws.release(2);
  ws.checkout(2, 5, 1);  // 5 fits the high-water mark: reshape, no alloc
  ws.release(2);
  EXPECT_EQ(ws.allocations(), 1u);
  ws.checkout(2, 4, 4);  // 16 grows it: second allocation
  ws.release(2);
  ws.checkout(2, 3, 3);  // back under the mark: none
  ws.release(2);
  EXPECT_EQ(ws.allocations(), 2u);
}

TEST(Workspace, CheckedOutTracksLease) {
  Workspace ws;
  EXPECT_FALSE(ws.checked_out(1));
  {
    Lease lease(ws, 1, 2, 2);
    EXPECT_TRUE(ws.checked_out(1));
    lease.mat().fill(3.0);
  }
  EXPECT_FALSE(ws.checked_out(1));  // released on scope exit
}

TEST(Workspace, LeaseMoveTransfersOwnership) {
  Workspace ws;
  Lease a(ws, 0, 1, 4);
  Lease b(std::move(a));
  EXPECT_TRUE(ws.checked_out(0));
  {
    Lease c = std::move(b);
    EXPECT_TRUE(ws.checked_out(0));
  }
  EXPECT_FALSE(ws.checked_out(0));  // released exactly once, by c
}

using WorkspaceDeathTest = ::testing::Test;

TEST(WorkspaceDeathTest, DoubleCheckoutAborts) {
  set_debug_checks(true);
  Workspace ws;
  ws.checkout(3, 2, 2);
  EXPECT_DEATH(ws.checkout(3, 2, 2), "checked out twice");
  ws.release(3);
  set_debug_checks(false);
}

TEST(WorkspaceDeathTest, ReleaseOfUnheldSlotAborts) {
  set_debug_checks(true);
  Workspace ws;
  EXPECT_DEATH(ws.release(7), "not checked out");
  set_debug_checks(false);
}

// ---- Kernel parity against the Tensor graph -------------------------------

TEST(InferKernels, LinearFwdMatchesGraphBits) {
  std::mt19937_64 rng(5);
  Linear layer(6, 3, rng);
  const Mat x = Mat::randn(1, 6, rng);
  const Tensor ref = layer.forward(Tensor::constant(x));
  Mat y(1, 3);
  linear_fwd(x, layer, y);
  expect_bits_equal(ref.value(), y);
}

TEST(InferKernels, LstmStepMatchesGraphBits) {
  std::mt19937_64 rng(6);
  LstmCell cell(5, 7, rng);
  const StochasticConfig stoch{.enabled = true, .a_h = 1.2, .a_c = 1.2};
  const Mat x0 = Mat::randn(1, 5, rng);
  const Mat x1 = Mat::randn(1, 5, rng);

  // Graph path: two steps so the perturbation (active once state is nonzero)
  // is exercised too.
  std::mt19937_64 graph_rng(21);
  auto st = cell.initial_state();
  st = cell.step(Tensor::constant(x0), st, stoch, graph_rng);
  st = cell.step(Tensor::constant(x1), st, stoch, graph_rng);

  // The R-row kernel at R=1: one lane, one rng.
  std::mt19937_64 fast_rng(21);
  std::mt19937_64* rngs[1] = {&fast_rng};
  Mat h(1, 7), c(1, 7), gates(1, 28), scratch(1, 7);
  lstm_step_fwd_batch(cell, x0, stoch, rngs, h, c, gates, scratch);
  lstm_step_fwd_batch(cell, x1, stoch, rngs, h, c, gates, scratch);

  expect_bits_equal(st.h.value(), h);
  expect_bits_equal(st.c.value(), c);
}

TEST(InferKernels, MlpFwdMatchesGraphBitsWithDropout) {
  std::mt19937_64 rng(7);
  Mlp mlp({.layer_sizes = {9, 11, 11, 4}, .leaky_slope = 0.01, .dropout_p = 0.25}, rng);
  const Mat x = Mat::randn(1, 9, rng);
  for (bool training : {false, true}) {
    std::mt19937_64 graph_rng(31);
    const Tensor ref = mlp.forward(Tensor::constant(x), graph_rng, training);
    std::mt19937_64 fast_rng(31);
    std::mt19937_64* rngs[1] = {&fast_rng};
    Workspace ws;
    Mat y(1, 4);
    mlp_fwd_batch(mlp, x, rngs, training, ws, 0, y);
    expect_bits_equal(ref.value(), y);
    EXPECT_FALSE(ws.checked_out(0));  // scratch slots returned
  }
}

TEST(InferKernels, StochasticPerturbMatchesGraphBits) {
  std::mt19937_64 rng(8);
  Mat s = Mat::randn(1, 16, rng);
  const Mat orig = s;
  std::mt19937_64 graph_rng(41);
  const Tensor ref = stochastic_perturb(Tensor::constant(orig), 1.2, graph_rng);
  std::mt19937_64 fast_rng(41);
  Mat noise(1, 16);
  stochastic_perturb_row(s.data().data(), 16, 1.2, fast_rng, noise.data().data());
  expect_bits_equal(ref.value(), s);
}

// ---- Packed NT matmul -----------------------------------------------------

// The packed mm_nt kernel must agree with the naive definition, including
// sizes that straddle the depth/column tiles and accumulation into a
// non-zero C.
TEST(MatmulNT, PackedKernelMatchesNaiveAcrossTileBoundaries) {
  std::mt19937_64 rng(9);
  for (auto [m, k, n] : {std::tuple{1, 5, 3}, {3, 64, 128}, {7, 65, 129}, {4, 130, 257}}) {
    const Mat a = Mat::randn(m, k, rng);
    const Mat b = Mat::randn(n, k, rng);
    Mat c = Mat::randn(m, n, rng);
    Mat expected = c;
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < n; ++j) {
        double acc = expected(i, j);
        for (int kk = 0; kk < k; ++kk) acc += a(i, kk) * b(j, kk);
        expected(i, j) = acc;
      }
    matmul_nt_acc(a, b, c);
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < n; ++j)
        EXPECT_NEAR(c(i, j), expected(i, j), 1e-12 * std::max(1.0, std::abs(expected(i, j))))
            << m << "x" << k << "x" << n << " at (" << i << "," << j << ")";
  }
}

// From a zero C the packed kernel is bitwise identical to multiplying by the
// materialized transpose (same ascending-k summation order) — the property
// the graph's NT users rely on.
TEST(MatmulNT, PackedKernelBitwiseEqualsTransposedMatmulFromZero) {
  std::mt19937_64 rng(10);
  const Mat a = Mat::randn(5, 97, rng);
  const Mat b = Mat::randn(131, 97, rng);
  expect_bits_equal(matmul(a, b.transpose()), matmul_nt(a, b));
}

}  // namespace
}  // namespace gendt::nn::infer
