// AVX2/FMA kernel route. This is the ONLY translation unit in the tree that
// may use vector intrinsics directly (tools/gendt_lint.py enforces it);
// everything else reaches these kernels through the gendt::nn::simd dispatch
// table. Compiled with -mavx2 -mfma on x86 builds (see src/nn/CMakeLists.txt)
// and empty elsewhere.
//
// Determinism contract (same as the scalar route, minus cross-route bit
// equality): every output element accumulates its products in ascending-k
// order with a fixed operation sequence — one FMA per (k, element) — so
// results are bitwise identical at every tile split, row pairing, and thread
// count. What differs from the scalar route is the rounding itself: FMA
// rounds a*b+c once where the scalar kernels round the product and the sum
// separately, and the gate nonlinearity uses a vector exp/tanh instead of
// libm. Both deltas are covered by the tolerance gate in simd_parity_test.
#include "kernels_internal.h"

#ifdef GENDT_HAVE_AVX2_KERNELS

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace gendt::nn::detail {

namespace {

// y[0:n) += a * x[0:n) — 4-wide FMA body with a scalar-FMA tail. Ascending j;
// each element sees exactly one fma(a, x[j], y[j]).
inline void axpy1(double a, const double* __restrict x, double* __restrict y, int n) {
  const __m256d va = _mm256_set1_pd(a);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d vy = _mm256_fmadd_pd(va, _mm256_loadu_pd(x + j), _mm256_loadu_pd(y + j));
    _mm256_storeu_pd(y + j, vy);
  }
  for (; j < n; ++j) y[j] = std::fma(a, x[j], y[j]);
}

// Two-row variant sharing the x loads: y0 += a0*x, y1 += a1*x. Per-element
// arithmetic is identical to two axpy1 calls — pairing only improves the
// flops-per-byte of the B row — so results do not depend on how rows pair.
inline void axpy2(double a0, double a1, const double* __restrict x, double* __restrict y0,
                  double* __restrict y1, int n) {
  const __m256d va0 = _mm256_set1_pd(a0);
  const __m256d va1 = _mm256_set1_pd(a1);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d vx = _mm256_loadu_pd(x + j);
    _mm256_storeu_pd(y0 + j, _mm256_fmadd_pd(va0, vx, _mm256_loadu_pd(y0 + j)));
    _mm256_storeu_pd(y1 + j, _mm256_fmadd_pd(va1, vx, _mm256_loadu_pd(y1 + j)));
  }
  for (; j < n; ++j) {
    y0[j] = std::fma(a0, x[j], y0[j]);
    y1[j] = std::fma(a1, x[j], y1[j]);
  }
}

// Row-paired tile body shared by the NN and (packed) NT kernels. The zero
// skip mirrors the scalar kernels: a zero A element contributes nothing,
// never a 0*x FMA (which would turn an Inf/NaN in x into a NaN the scalar
// route does not produce).
//
// The main body register-blocks C: a 2-row x 16-column block lives in 8 ymm
// accumulators for the whole depth tile, so C memory traffic drops from one
// load+store per (k, row) to one per tile — that, not the FMA count, is what
// the plain axpy sweep was bound on. Per element the arithmetic is the same
// single ascending-k FMA chain as the axpy path, so the blocking changes no
// bits, only where the partial sums live.
inline void tile_rows(const double* __restrict a, const double* __restrict brows,
                      double* __restrict c, long r0, long r1, int K, int N, int kk, int kend,
                      int jj, int jw, long brow_stride, int brow_base) {
  long i = r0;
  for (; i + 2 <= r1; i += 2) {
    const double* __restrict arow0 = a + i * K;
    const double* __restrict arow1 = arow0 + K;
    double* __restrict crow0 = c + i * N + jj;
    double* __restrict crow1 = crow0 + N;
    int j = 0;
    for (; j + 16 <= jw; j += 16) {
      __m256d c00 = _mm256_loadu_pd(crow0 + j);
      __m256d c01 = _mm256_loadu_pd(crow0 + j + 4);
      __m256d c02 = _mm256_loadu_pd(crow0 + j + 8);
      __m256d c03 = _mm256_loadu_pd(crow0 + j + 12);
      __m256d c10 = _mm256_loadu_pd(crow1 + j);
      __m256d c11 = _mm256_loadu_pd(crow1 + j + 4);
      __m256d c12 = _mm256_loadu_pd(crow1 + j + 8);
      __m256d c13 = _mm256_loadu_pd(crow1 + j + 12);
      for (int k = kk; k < kend; ++k) {
        const double a0 = arow0[k];
        const double a1 = arow1[k];
        if (a0 == 0.0 && a1 == 0.0) continue;
        const double* __restrict x = brows + static_cast<long>(k - brow_base) * brow_stride + j;
        const __m256d x0 = _mm256_loadu_pd(x);
        const __m256d x1 = _mm256_loadu_pd(x + 4);
        const __m256d x2 = _mm256_loadu_pd(x + 8);
        const __m256d x3 = _mm256_loadu_pd(x + 12);
        if (a0 != 0.0) {
          const __m256d va0 = _mm256_set1_pd(a0);
          c00 = _mm256_fmadd_pd(va0, x0, c00);
          c01 = _mm256_fmadd_pd(va0, x1, c01);
          c02 = _mm256_fmadd_pd(va0, x2, c02);
          c03 = _mm256_fmadd_pd(va0, x3, c03);
        }
        if (a1 != 0.0) {
          const __m256d va1 = _mm256_set1_pd(a1);
          c10 = _mm256_fmadd_pd(va1, x0, c10);
          c11 = _mm256_fmadd_pd(va1, x1, c11);
          c12 = _mm256_fmadd_pd(va1, x2, c12);
          c13 = _mm256_fmadd_pd(va1, x3, c13);
        }
      }
      _mm256_storeu_pd(crow0 + j, c00);
      _mm256_storeu_pd(crow0 + j + 4, c01);
      _mm256_storeu_pd(crow0 + j + 8, c02);
      _mm256_storeu_pd(crow0 + j + 12, c03);
      _mm256_storeu_pd(crow1 + j, c10);
      _mm256_storeu_pd(crow1 + j + 4, c11);
      _mm256_storeu_pd(crow1 + j + 8, c12);
      _mm256_storeu_pd(crow1 + j + 12, c13);
    }
    if (j < jw) {
      for (int k = kk; k < kend; ++k) {
        const double a0 = arow0[k];
        const double a1 = arow1[k];
        const double* __restrict x =
            brows + static_cast<long>(k - brow_base) * brow_stride + j;
        if (a0 != 0.0 && a1 != 0.0) {
          axpy2(a0, a1, x, crow0 + j, crow1 + j, jw - j);
        } else if (a0 != 0.0) {
          axpy1(a0, x, crow0 + j, jw - j);
        } else if (a1 != 0.0) {
          axpy1(a1, x, crow1 + j, jw - j);
        }
      }
    }
  }
  if (i < r1) {
    const double* __restrict arow = a + i * K;
    double* __restrict crow = c + i * N + jj;
    for (int k = kk; k < kend; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      axpy1(aik, brows + static_cast<long>(k - brow_base) * brow_stride, crow, jw);
    }
  }
}

}  // namespace

void mm_rows_avx2(const double* a, const double* b, double* c, long r0, long r1, int K, int N) {
  for (int kk = 0; kk < K; kk += kDepthTile) {
    const int kend = std::min(K, kk + kDepthTile);
    for (int jj = 0; jj < N; jj += kColTile) {
      const int jend = std::min(N, jj + kColTile);
      // brows = B offset to the tile's column window; stride N walks k rows.
      tile_rows(a, b + jj, c, r0, r1, K, N, kk, kend, jj, jend - jj, N, 0);
    }
  }
}

void mm_nt_rows_avx2(const double* a, const double* b, double* c, long r0, long r1, int K,
                     int N) {
  // Same tile packing as the scalar NT kernel: each [k x j] tile of B^T is
  // relocated into a contiguous buffer so the inner loop is a unit-stride
  // axpy. Packing moves values, never reorders any element's k-summation.
  thread_local std::vector<double> pack;
  pack.resize(static_cast<size_t>(kDepthTile) * kColTile);
  double* __restrict pk = pack.data();
  for (int kk = 0; kk < K; kk += kDepthTile) {
    const int kend = std::min(K, kk + kDepthTile);
    for (int jj = 0; jj < N; jj += kColTile) {
      const int jend = std::min(N, jj + kColTile);
      const int jw = jend - jj;
      for (int j = jj; j < jend; ++j) {
        const double* __restrict brow = b + static_cast<long>(j) * K;
        for (int k = kk; k < kend; ++k)
          pk[static_cast<size_t>(k - kk) * static_cast<size_t>(jw) + static_cast<size_t>(j - jj)] =
              brow[k];
      }
      tile_rows(a, pk, c, r0, r1, K, N, kk, kend, jj, jw, jw, kk);
    }
  }
}

void mm_tn_rows_avx2(const double* a, const double* b, double* c, long r0, long r1, int K, int M,
                     int N) {
  for (int jj = 0; jj < N; jj += kColTile) {
    const int jend = std::min(N, jj + kColTile);
    const int jw = jend - jj;
    long i = r0;
    for (; i + 2 <= r1; i += 2) {
      double* __restrict crow0 = c + i * N + jj;
      double* __restrict crow1 = crow0 + N;
      for (int k = 0; k < K; ++k) {
        const double* __restrict apair = a + static_cast<long>(k) * M + i;
        const double a0 = apair[0];
        const double a1 = apair[1];
        const double* __restrict brow = b + static_cast<long>(k) * N + jj;
        if (a0 != 0.0 && a1 != 0.0) {
          axpy2(a0, a1, brow, crow0, crow1, jw);
        } else if (a0 != 0.0) {
          axpy1(a0, brow, crow0, jw);
        } else if (a1 != 0.0) {
          axpy1(a1, brow, crow1, jw);
        }
      }
    }
    if (i < r1) {
      double* __restrict crow = c + i * N + jj;
      for (int k = 0; k < K; ++k) {
        const double aki = a[static_cast<long>(k) * M + i];
        if (aki == 0.0) continue;
        axpy1(aki, b + static_cast<long>(k) * N + jj, crow, jw);
      }
    }
  }
}

// ---- Vector transcendentals ----------------------------------------------
//
// Cephes-style exp for 4 doubles (~1 ulp): range-reduce by log2(e), evaluate
// the P/Q rational on the residual, scale by 2^n through the exponent bits.
// tanh and sigmoid derive from it; both saturate correctly for large |x|
// because exp's input clamp keeps 2^n representable.

namespace {

const __m256d kOne = _mm256_set1_pd(1.0);

inline __m256d exp256(__m256d x) {
  const __m256d hi = _mm256_set1_pd(709.437);
  const __m256d lo = _mm256_set1_pd(-709.436139303);
  x = _mm256_min_pd(_mm256_max_pd(x, lo), hi);

  // n = floor(x * log2(e) + 0.5)
  __m256d n = _mm256_floor_pd(
      _mm256_fmadd_pd(x, _mm256_set1_pd(1.4426950408889634073599), _mm256_set1_pd(0.5)));
  // r = x - n*ln(2), split high/low for accuracy.
  x = _mm256_fnmadd_pd(n, _mm256_set1_pd(6.93145751953125e-1), x);
  x = _mm256_fnmadd_pd(n, _mm256_set1_pd(1.42860682030941723212e-6), x);

  const __m256d xx = _mm256_mul_pd(x, x);
  __m256d px = _mm256_set1_pd(1.26177193074810590878e-4);
  px = _mm256_fmadd_pd(px, xx, _mm256_set1_pd(3.02994407707441961300e-2));
  px = _mm256_fmadd_pd(px, xx, _mm256_set1_pd(9.99999999999999999910e-1));
  px = _mm256_mul_pd(px, x);
  __m256d qx = _mm256_set1_pd(3.00198505138664455042e-6);
  qx = _mm256_fmadd_pd(qx, xx, _mm256_set1_pd(2.52448340349684104192e-3));
  qx = _mm256_fmadd_pd(qx, xx, _mm256_set1_pd(2.27265548208155028766e-1));
  qx = _mm256_fmadd_pd(qx, xx, _mm256_set1_pd(2.00000000000000000005e0));
  __m256d e = _mm256_div_pd(px, _mm256_sub_pd(qx, px));
  e = _mm256_fmadd_pd(e, _mm256_set1_pd(2.0), kOne);

  // e *= 2^n via the exponent field. |n| <= 1023 after the input clamp.
  const __m128i n32 = _mm256_cvtpd_epi32(n);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i pow2 =
      _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(e, _mm256_castsi256_pd(pow2));
}

inline __m256d sigmoid256(__m256d x) {
  const __m256d e = exp256(_mm256_sub_pd(_mm256_setzero_pd(), x));
  return _mm256_div_pd(kOne, _mm256_add_pd(kOne, e));
}

inline __m256d tanh256(__m256d x) {
  // sign-symmetric: tanh(x) = sign(x) * (1 - e) / (1 + e), e = exp(-2|x|).
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d sign = _mm256_and_pd(x, sign_mask);
  const __m256d ax = _mm256_andnot_pd(sign_mask, x);
  const __m256d e = exp256(_mm256_mul_pd(ax, _mm256_set1_pd(-2.0)));
  const __m256d r = _mm256_div_pd(_mm256_sub_pd(kOne, e), _mm256_add_pd(kOne, e));
  return _mm256_or_pd(r, sign);
}

}  // namespace

void lstm_gates_avx2(const double* g, double* h, double* c, int H) {
  int j = 0;
  for (; j + 4 <= H; j += 4) {
    const __m256d ig = sigmoid256(_mm256_loadu_pd(g + j));
    const __m256d fg = sigmoid256(_mm256_loadu_pd(g + H + j));
    const __m256d gg = tanh256(_mm256_loadu_pd(g + 2 * H + j));
    const __m256d og = sigmoid256(_mm256_loadu_pd(g + 3 * H + j));
    const __m256d cn = _mm256_fmadd_pd(ig, gg, _mm256_mul_pd(fg, _mm256_loadu_pd(c + j)));
    _mm256_storeu_pd(c + j, cn);
    _mm256_storeu_pd(h + j, _mm256_mul_pd(og, tanh256(cn)));
  }
  // libm tail: H is fixed per model, so which elements take the tail is a
  // pure function of the architecture — still deterministic per route.
  for (; j < H; ++j) {
    const double ig = 1.0 / (1.0 + std::exp(-g[j]));
    const double fg = 1.0 / (1.0 + std::exp(-g[H + j]));
    const double gg = std::tanh(g[2 * H + j]);
    const double og = 1.0 / (1.0 + std::exp(-g[3 * H + j]));
    const double cn = std::fma(ig, gg, fg * c[j]);
    c[j] = cn;
    h[j] = og * std::tanh(cn);
  }
}

void affine2_row_avx2(const double* x1, const double* w1, int k1, const double* x2,
                      const double* w2, int k2, const double* b, double* y, int n) {
  std::copy(b, b + n, y);
  for (int k = 0; k < k1; ++k) {
    const double a = x1[k];
    if (a != 0.0) axpy1(a, w1 + static_cast<long>(k) * n, y, n);
  }
  for (int k = 0; k < k2; ++k) {
    const double a = x2[k];
    if (a != 0.0) axpy1(a, w2 + static_cast<long>(k) * n, y, n);
  }
}

}  // namespace gendt::nn::detail

#else  // !GENDT_HAVE_AVX2_KERNELS

// Portable builds compile this TU empty; keep one symbol so ranlib stays quiet.
namespace gendt::nn::detail {
void kernels_avx2_unavailable() {}
}  // namespace gendt::nn::detail

#endif
