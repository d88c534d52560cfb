// Runtime kernel dispatch. The nn library ships three kernel routes:
//
//   kScalar  the blocked scalar kernels (mat.cpp / infer.cpp) — the bitwise
//            determinism anchor. Graph and fast-path outputs are bit-equal,
//            thread-count invariant, and stable across releases.
//   kAvx2    AVX2/FMA kernels (kernels_avx2.cpp) — each route is itself
//            deterministic (fixed per-element operation order, whole-row
//            parallel split), but FMA rounds mul+add once, so avx2 results
//            differ from the scalar route within a small relative bound
//            (see docs/ARCHITECTURE.md "SIMD dispatch & weight arena").
//   kAvx512  the avx2 table with the row-GEMM widened to zmm registers
//            (kernels_avx512.cpp). Bitwise identical to kAvx2 — vector width
//            regroups j elements per instruction without touching any
//            element's single ascending-k FMA chain — so it inherits the
//            avx2 tolerance bound against scalar. Exists for lane-batched
//            rollouts, whose multi-row GEMM is instruction-bound on ymm.
//
// The route is chosen once, lazily, from the GENDT_SIMD environment variable
// ("off"/"scalar", "avx2", "avx512", or "auto" — the default, also settable
// at build time with -DGENDT_SIMD=...) gated by CPUID: a vector route is only
// ever selected when the CPU reports the matching ISA (AVX2+FMA, plus
// AVX-512F for kAvx512). Tests and benchmarks may override the live
// route with set_route()/ScopedRoute; callers must not flip the route while
// kernels are executing on other threads.
#pragma once

#include <cstdint>
#include <string>

namespace gendt::nn::simd {

enum class Route {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// "scalar", "avx2", or "avx512".
const char* route_name(Route r);

/// True when this build has the route's kernels AND the CPU supports them.
bool route_supported(Route r);

/// Space-separated feature list detected at runtime (e.g. "avx2 fma
/// avx512f"), empty on non-x86 hosts. Purely informational (--version,
/// serve startup log).
std::string cpu_feature_string();

/// The route every dispatched kernel currently uses. First call resolves
/// GENDT_SIMD + CPUID and caches the result.
Route active_route();

/// Force the route (tests/benches). Returns false — and changes nothing —
/// when the route is unsupported on this build/CPU.
bool set_route(Route r);

/// RAII route override: restores the previous route on destruction.
/// `ok()` is false when the requested route is unsupported (route left
/// unchanged) — callers should skip rather than silently measure scalar.
class ScopedRoute {
 public:
  explicit ScopedRoute(Route r) : prev_(active_route()), ok_(set_route(r)) {}
  ~ScopedRoute() { set_route(prev_); }
  ScopedRoute(const ScopedRoute&) = delete;
  ScopedRoute& operator=(const ScopedRoute&) = delete;
  bool ok() const { return ok_; }

 private:
  Route prev_;
  bool ok_;
};

// Kernel signatures dispatched through the table below. The mm_* kernels
// compute C[r0:r1, :] += op(A, B) row ranges (see mat.cpp for the exact
// shapes); lstm_gates applies the LSTM gate nonlinearity to a packed
// [i f g o] gate row; affine2_row is an optional fused y = b + x1*W1 + x2*W2
// single-row kernel (null on the scalar route — the generic path is used).
// uniform_words(words, n, hi, scale, out) maps n raw mt19937_64 words to
// out[i] = scale * (c_i * (hi - 0.0) + 0.0), c_i = min(double(words[i]) *
// 2^-64, nextafter(1, 0)) — libstdc++'s uniform_real_distribution<double>
// (0, hi) bits. Unlike the GEMMs this entry is bitwise equal on every route:
// each step is exact or one correctly rounded op.
using MmRowsFn = void (*)(const double*, const double*, double*, long, long, int, int);
using MmTnRowsFn = void (*)(const double*, const double*, double*, long, long, int, int, int);
using LstmGatesFn = void (*)(const double*, double*, double*, int);
using Affine2RowFn = void (*)(const double*, const double*, int, const double*, const double*,
                              int, const double*, double*, int);
using UniformWordsFn = void (*)(const std::uint64_t*, int, double, double, double*);

struct KernelTable {
  MmRowsFn mm_rows;
  MmRowsFn mm_nt_rows;
  MmTnRowsFn mm_tn_rows;
  LstmGatesFn lstm_gates;
  Affine2RowFn affine2_row;  // may be null (no fused variant for the route)
  UniformWordsFn uniform_words;
};

/// The kernel table for the active route.
const KernelTable& kernels();

}  // namespace gendt::nn::simd
