#include "gendt/nn/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "kernels_internal.h"

namespace gendt::nn::simd {

namespace {

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

// Build-time default route, overridable per process with GENDT_SIMD. Set by
// src/nn/CMakeLists.txt from the GENDT_SIMD cache option.
#ifndef GENDT_SIMD_BUILD_DEFAULT
#define GENDT_SIMD_BUILD_DEFAULT "auto"
#endif

bool avx2_available() {
#ifdef GENDT_HAVE_AVX2_KERNELS
  return cpu_has_avx2_fma();
#else
  return false;
#endif
}

bool avx512_available() {
  // The avx512 table reuses the avx2 gate/affine kernels, so it needs both
  // TUs in the build and both ISAs on the CPU.
#if defined(GENDT_HAVE_AVX512_KERNELS) && defined(GENDT_HAVE_AVX2_KERNELS)
  return cpu_has_avx2_fma() && __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

Route detect_route() {
  // Startup-time config read: detect_route() runs once, inside the guarded
  // static initialization of the route cell, and nothing in the process
  // calls setenv — the concurrency-mt-unsafe hazard cannot occur.
  const char* env = std::getenv("GENDT_SIMD");  // NOLINT(concurrency-mt-unsafe)
  const std::string pref = env != nullptr ? env : GENDT_SIMD_BUILD_DEFAULT;
  if (pref == "off" || pref == "scalar") return Route::kScalar;
  if (pref == "avx512") {
    if (avx512_available()) return Route::kAvx512;
    std::fprintf(stderr,
                 "gendt: GENDT_SIMD=avx512 requested but this %s — falling back\n",
#ifdef GENDT_HAVE_AVX512_KERNELS
                 "CPU lacks AVX-512F"
#else
                 "build has no AVX-512 kernels"
#endif
    );
    return avx2_available() ? Route::kAvx2 : Route::kScalar;
  }
  if (pref == "avx2") {
    if (avx2_available()) return Route::kAvx2;
    std::fprintf(stderr,
                 "gendt: GENDT_SIMD=avx2 requested but this %s — using scalar kernels\n",
#ifdef GENDT_HAVE_AVX2_KERNELS
                 "CPU lacks AVX2+FMA"
#else
                 "build has no AVX2 kernels"
#endif
    );
    return Route::kScalar;
  }
  if (pref != "auto" && !pref.empty()) {
    std::fprintf(stderr,
                 "gendt: unknown GENDT_SIMD value '%s' (expected off, avx2, avx512, or "
                 "auto) — using auto\n",
                 pref.c_str());
  }
  if (avx512_available()) return Route::kAvx512;
  return avx2_available() ? Route::kAvx2 : Route::kScalar;
}

std::atomic<Route>& route_cell() {
  static std::atomic<Route> cell{detect_route()};
  return cell;
}

constexpr KernelTable kScalarTable = {
    &detail::mm_rows_scalar, &detail::mm_nt_rows_scalar, &detail::mm_tn_rows_scalar,
    &detail::lstm_gates_scalar,
    nullptr,  // no fused affine2: the generic bias-seed + matmul_acc path is the anchor
    &detail::uniform_words_scalar,
};

#ifdef GENDT_HAVE_AVX2_KERNELS
constexpr KernelTable kAvx2Table = {
    &detail::mm_rows_avx2,    &detail::mm_nt_rows_avx2,    &detail::mm_tn_rows_avx2,
    &detail::lstm_gates_avx2, &detail::affine2_row_avx2, &detail::uniform_words_avx2,
};
#endif

#if defined(GENDT_HAVE_AVX512_KERNELS) && defined(GENDT_HAVE_AVX2_KERNELS)
// avx2 table with only the row-GEMM swapped: bitwise identical by design
// (simd_parity_test pins it), just fewer instructions per flop on zmm.
constexpr KernelTable kAvx512Table = {
    &detail::mm_rows_avx512,  &detail::mm_nt_rows_avx2,  &detail::mm_tn_rows_avx2,
    &detail::lstm_gates_avx2, &detail::affine2_row_avx2, &detail::uniform_words_avx2,
};
#endif

}  // namespace

const char* route_name(Route r) {
  switch (r) {
    case Route::kAvx512: return "avx512";
    case Route::kAvx2: return "avx2";
    case Route::kScalar: break;
  }
  return "scalar";
}

bool route_supported(Route r) {
  return r == Route::kScalar || (r == Route::kAvx2 && avx2_available()) ||
         (r == Route::kAvx512 && avx512_available());
}

std::string cpu_feature_string() {
  std::string s;
#if defined(__x86_64__) || defined(__i386__)
  const auto add = [&s](const char* name, bool have) {
    if (!have) return;
    if (!s.empty()) s += ' ';
    s += name;
  };
  add("sse4.2", __builtin_cpu_supports("sse4.2"));
  add("avx", __builtin_cpu_supports("avx"));
  add("avx2", __builtin_cpu_supports("avx2"));
  add("fma", __builtin_cpu_supports("fma"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
#endif
  return s;
}

Route active_route() { return route_cell().load(std::memory_order_relaxed); }

bool set_route(Route r) {
  if (!route_supported(r)) return false;
  route_cell().store(r, std::memory_order_relaxed);
  return true;
}

const KernelTable& kernels() {
#if defined(GENDT_HAVE_AVX512_KERNELS) && defined(GENDT_HAVE_AVX2_KERNELS)
  if (active_route() == Route::kAvx512) return kAvx512Table;
#endif
#ifdef GENDT_HAVE_AVX2_KERNELS
  if (active_route() == Route::kAvx2) return kAvx2Table;
#endif
  return kScalarTable;
}

}  // namespace gendt::nn::simd
