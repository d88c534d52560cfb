// Internal kernel declarations shared by mat.cpp / infer.cpp (scalar route),
// kernels_avx2.cpp (AVX2 route) and simd.cpp (the dispatch table). Not
// installed: everything here is an implementation detail of the dispatch in
// gendt/nn/simd.h.
//
// Contract for every kernel pair: given the same inputs, each route is
// individually deterministic — the per-element floating-point operation
// order is a pure function of the shapes, never of the tile split, the
// thread count, or neighbouring rows. The scalar kernels additionally match
// the autograd graph bit-for-bit (no FMA contraction); the avx2 kernels use
// FMA and vector transcendentals and only match within tolerance.
#pragma once

#include <cstdint>

namespace gendt::nn::detail {

// Tiling shared by both routes: k-tile keeps the A panel hot, j-tile keeps a
// 1 KiB C/B row segment in L1.
inline constexpr int kDepthTile = 64;
inline constexpr int kColTile = 128;

// ---- scalar route (mat.cpp; infer.cpp for the gate kernel) ----------------

// C[r0:r1, :] += A[r0:r1, :] * B with A [M x K], B [K x N].
void mm_rows_scalar(const double* a, const double* b, double* c, long r0, long r1, int K, int N);
// C[r0:r1, :] += A[r0:r1, :] * B^T with A [M x K], B [N x K].
void mm_nt_rows_scalar(const double* a, const double* b, double* c, long r0, long r1, int K,
                       int N);
// C[r0:r1, :] += (A^T)[r0:r1, :] * B with A [K x M], B [K x N]; the row
// range indexes columns of A.
void mm_tn_rows_scalar(const double* a, const double* b, double* c, long r0, long r1, int K,
                       int M, int N);
// LSTM gate nonlinearity over a packed [i f g o] gate row `g` of width 4*H:
// c' = sigmoid(f)*c + sigmoid(i)*tanh(g), h' = sigmoid(o)*tanh(c').
// Defined in infer.cpp so it keeps that TU's -ffp-contract=off.
void lstm_gates_scalar(const double* g, double* h, double* c, int H);
// out[i] = scale * (canonical(w[i]) * (hi - 0.0) + 0.0) with the plain
// u64 -> double cast — the uniform_real_distribution replay every route's
// uniform_words entry must equal bit for bit. Defined in infer.cpp.
void uniform_words_scalar(const std::uint64_t* w, int n, double hi, double scale, double* out);

// ---- avx2 route (kernels_avx2.cpp; only built on x86 builds with
// GENDT_SIMD != off) --------------------------------------------------------

#ifdef GENDT_HAVE_AVX2_KERNELS
void mm_rows_avx2(const double* a, const double* b, double* c, long r0, long r1, int K, int N);
void mm_nt_rows_avx2(const double* a, const double* b, double* c, long r0, long r1, int K, int N);
void mm_tn_rows_avx2(const double* a, const double* b, double* c, long r0, long r1, int K, int M,
                     int N);
void lstm_gates_avx2(const double* g, double* h, double* c, int H);
// Fused y = b + x1*W1 + x2*W2 for a single row (the shape every LSTM step
// feeds affine2 with): x1 [1 x k1], W1 [k1 x n], x2 [1 x k2], W2 [k2 x n],
// b/y [1 x n].
void affine2_row_avx2(const double* x1, const double* w1, int k1, const double* x2,
                      const double* w2, int k2, const double* b, double* y, int n);
// uniform_words_scalar's bits, four words at a time through a branch-free
// exact u64 -> double split.
void uniform_words_avx2(const std::uint64_t* w, int n, double hi, double scale, double* out);
#endif

// ---- avx512 route (kernels_avx512.cpp) ------------------------------------
//
// Widens only the NN row-GEMM to zmm; the route's other table entries reuse
// the avx2 kernels. Per-element operation order and rounding are identical
// to mm_rows_avx2 (one ascending-k FMA per element, same zero skip), so the
// avx512 route is bitwise identical to the avx2 route.

#ifdef GENDT_HAVE_AVX512_KERNELS
void mm_rows_avx512(const double* a, const double* b, double* c, long r0, long r1, int K,
                    int N);
#endif

}  // namespace gendt::nn::detail
