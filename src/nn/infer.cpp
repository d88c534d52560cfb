// Tape-free forward kernels. This file compiles with -ffp-contract=off (see
// src/nn/CMakeLists.txt): the Tensor graph rounds every mul and add
// separately, so letting GCC fuse a*b + c into an FMA here would silently
// break the bitwise-parity contract gen_parity_test enforces.
#include "gendt/nn/infer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "gendt/nn/checks.h"
#include "gendt/nn/simd.h"
#include "kernels_internal.h"

namespace gendt::nn::detail {

// Scalar LSTM gate kernel (simd::Route::kScalar). Lives in this TU so it
// keeps -ffp-contract=off; the body is the bitwise anchor the avx2 variant
// is tolerance-tested against.
void lstm_gates_scalar(const double* __restrict gp, double* __restrict hp, double* __restrict cp,
                       int H) {
  for (int j = 0; j < H; ++j) {
    const double ig = 1.0 / (1.0 + std::exp(-gp[j]));
    const double fg = 1.0 / (1.0 + std::exp(-gp[H + j]));
    const double gg = std::tanh(gp[2 * H + j]);
    const double og = 1.0 / (1.0 + std::exp(-gp[3 * H + j]));
    // c' = f*c + i*g, h' = o*tanh(c'): mul/mul/add rounded separately
    // (-ffp-contract=off), exactly like the graph's hadamard + add ops.
    const double cn = fg * cp[j] + ig * gg;
    cp[j] = cn;
    hp[j] = og * std::tanh(cn);
  }
}

namespace {

// generate_canonical<double, 53> over one mt19937_64 word, as libstdc++
// computes it: (0.0 + double(x) * 1.0) / 2^64, which equals the exact
// double(x) * 2^-64, then the >= 1 clamp (words from 2^64 - 1024 up round
// to 2^64).
inline double canonical_of(std::uint64_t x) {
  const double u = static_cast<double>(x) * 0x1p-64;
  return u >= 1.0 ? 0x1.fffffffffffffp-1 : u;
}

}  // namespace

void uniform_words_scalar(const std::uint64_t* w, int n, double hi, double scale, double* out) {
  // uniform_real_distribution<double>(0, hi): c * (b - a) + a, then the
  // caller's scale — each op rounded separately (-ffp-contract=off).
  const double range = hi - 0.0;
  for (int i = 0; i < n; ++i) out[i] = scale * (canonical_of(w[i]) * range + 0.0);
}

}  // namespace gendt::nn::detail

namespace gendt::nn::infer {

void uniform_fill(std::mt19937_64& rng, int n, double hi, double scale, double* out) {
  // Words are pulled in call order into a stack chunk, then converted in bulk
  // by the route's kernel; the engine sees the same n calls as n draws.
  constexpr int kChunk = 128;
  std::uint64_t words[kChunk];
  const simd::UniformWordsFn convert = simd::kernels().uniform_words;
  for (int i = 0; i < n; i += kChunk) {
    const int m = std::min(kChunk, n - i);
    for (int k = 0; k < m; ++k) words[k] = rng();
    convert(words, m, hi, scale, out + i);
  }
}

double PolarNormal::operator()(std::mt19937_64& rng) {
  // libstdc++'s normal_distribution: the polar loop below, then
  // ret * stddev + mean with stddev 1 and mean 0.
  double ret;
  if (saved_available_) {
    saved_available_ = false;
    ret = saved_;
  } else {
    double x, y, r2;
    do {
      x = 2.0 * detail::canonical_of(rng()) - 1.0;
      y = 2.0 * detail::canonical_of(rng()) - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2 * std::log(r2) / r2);
    saved_ = x * mult;
    saved_available_ = true;
    ret = y * mult;
  }
  return ret * 1.0 + 0.0;
}

bool bernoulli(std::mt19937_64& rng, double p) { return detail::canonical_of(rng()) < p; }

Mat& Workspace::checkout(int key, int rows, int cols) {
  assert(key >= 0 && rows >= 0 && cols >= 0);
  if (key >= static_cast<int>(slots_.size())) slots_.resize(static_cast<size_t>(key) + 1);
  Slot& s = slots_[static_cast<size_t>(key)];
  GENDT_CHECK(!s.out, "workspace slot " + std::to_string(key) +
                          " checked out twice without release");
  assert(!s.out);
  const size_t need = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  if (s.buf == nullptr) {
    s.buf = std::make_unique<Mat>(rows, cols);
    s.capacity = need;
    ++allocations_;
  } else if (s.buf->rows() != rows || s.buf->cols() != cols) {
    // Reshape in place; only growth beyond the slot's high-water mark costs
    // (and counts as) an allocation, so alternating window lengths reuse the
    // same storage after warmup.
    if (need > s.capacity) {
      s.capacity = need;
      ++allocations_;
    }
    s.buf->resize(rows, cols);
  }
  s.out = true;
  return *s.buf;
}

void Workspace::release(int key) {
  const bool live = key >= 0 && key < static_cast<int>(slots_.size()) &&
                    slots_[static_cast<size_t>(key)].out;
  GENDT_CHECK(live, "workspace release of slot " + std::to_string(key) +
                        " that is not checked out");
  assert(live);
  if (live) slots_[static_cast<size_t>(key)].out = false;
}

bool Workspace::checked_out(int key) const {
  return key >= 0 && key < static_cast<int>(slots_.size()) &&
         slots_[static_cast<size_t>(key)].out;
}

size_t Workspace::peak_bytes() const {
  size_t bytes = 0;
  for (const Slot& s : slots_) bytes += s.capacity * sizeof(double);
  return bytes;
}

void affine2_fwd(const Mat& x1, const Mat& w1, const Mat& x2, const Mat& w2, const Mat& b,
                 Mat& y) {
  GENDT_CHECK(x1.rows() == x2.rows() && x1.cols() == w1.rows() && x2.cols() == w2.rows() &&
                  w1.cols() == w2.cols() && w1.cols() == b.cols() && b.rows() == 1 &&
                  y.rows() == x1.rows() && y.cols() == w1.cols(),
              "affine2_fwd shape mismatch: x1 " + shape_str(x1) + " w1 " + shape_str(w1) +
                  " x2 " + shape_str(x2) + " w2 " + shape_str(w2) + " b " + shape_str(b) +
                  " -> y " + shape_str(y));
  assert(y.rows() == x1.rows() && y.cols() == w1.cols());
  const int rows = y.rows(), cols = y.cols();
  // Fused single-row kernel when the active route provides one (the LSTM
  // step always lands here with rows == 1); otherwise bias-seed + two
  // accumulating matmuls — the graph-parity reference order.
  const simd::Affine2RowFn fused = simd::kernels().affine2_row;
  if (fused != nullptr && rows == 1) {
    fused(x1.data().data(), w1.data().data(), x1.cols(), x2.data().data(), w2.data().data(),
          x2.cols(), b.data().data(), y.data().data(), cols);
  } else {
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c) y(r, c) = b(0, c);
    matmul_acc(x1, w1, y);
    matmul_acc(x2, w2, y);
  }
  check_finite(y, "affine2_fwd");
}

void linear_fwd(const Mat& x, const Linear& layer, Mat& y) {
  const Mat& w = layer.weight_value();
  const Mat& b = layer.bias_value();
  GENDT_CHECK(x.cols() == w.rows() && y.rows() == x.rows() && y.cols() == w.cols(),
              "linear_fwd shape mismatch: x " + shape_str(x) + " * W " + shape_str(w) +
                  " -> y " + shape_str(y));
  assert(x.cols() == w.rows() && y.rows() == x.rows() && y.cols() == w.cols());
  // matmul(x, W) + b: zero-init then accumulate, bias added as its own pass
  // (the graph rounds the product before the bias add — keep that order).
  y.set_zero();
  matmul_acc(x, w, y);
  for (int r = 0; r < y.rows(); ++r)
    for (int c = 0; c < y.cols(); ++c) y(r, c) += b(0, c);
  check_finite(y, "linear_fwd");
}

void stochastic_perturb_row(double* s, int n, double intensity, std::mt19937_64& rng,
                            double* noise) {
  if (intensity <= 0.0) return;
  assert(n > 0);
  double mean_abs = 0.0;
  for (int i = 0; i < n; ++i) mean_abs += std::abs(s[i]);
  mean_abs /= static_cast<double>(n);
  if (mean_abs <= 0.0) return;

  uniform_fill(rng, n, mean_abs, intensity, noise);

  // Ascending accumulation, matching Mat::sum on a one-row state mat.
  double sum_before = 0.0;
  for (int i = 0; i < n; ++i) sum_before += s[i];
  double noise_sum = 0.0;
  for (int i = 0; i < n; ++i) noise_sum += noise[i];
  const double sum_after = sum_before + noise_sum;
  double scale = (std::abs(sum_after) > 1e-12) ? sum_before / sum_after : 1.0;
  scale = std::clamp(scale, 0.5, 2.0);
  // (s + noise) * scale: the graph's add and scale are distinct ops.
  for (int i = 0; i < n; ++i) s[i] = (s[i] + noise[i]) * scale;
}

void leaky_relu_inplace(Mat& h, double negative_slope) {
  for (size_t i = 0; i < h.size(); ++i) h[i] = h[i] > 0.0 ? h[i] : negative_slope * h[i];
}

void lstm_step_fwd_batch(const LstmCell& cell, const Mat& x, const StochasticConfig& stoch,
                         std::mt19937_64* const* rngs, Mat& h, Mat& c, Mat& gates, Mat& scratch) {
  const int H = cell.hidden_size();
  const int R = x.rows();
  GENDT_CHECK(x.cols() == cell.input_size() && h.rows() == R && h.cols() == H && c.rows() == R &&
                  c.cols() == H && gates.rows() == R && gates.cols() == 4 * H &&
                  scratch.rows() == R && scratch.cols() == H,
              "lstm_step_fwd_batch shape mismatch: x " + shape_str(x) + " h " + shape_str(h) +
                  " gates " + shape_str(gates));
  assert(x.cols() == cell.input_size() && h.rows() == R && c.rows() == R && scratch.rows() == R);
  // Per-lane SRNN perturbation first (exactly LstmCell::step's order:
  // perturb h, then c, then the affine reads the perturbed h). Each live lane
  // draws only from its own stream, so lane bits are independent of who else
  // rides in the batch.
  if (stoch.enabled) {
    for (int r = 0; r < R; ++r) {
      if (rngs[r] == nullptr) continue;  // retired row: no draws, no update
      stochastic_perturb_row(h.data().data() + static_cast<size_t>(r) * static_cast<size_t>(H), H,
                             stoch.a_h, *rngs[r],
                             scratch.data().data() + static_cast<size_t>(r) * static_cast<size_t>(H));
      stochastic_perturb_row(c.data().data() + static_cast<size_t>(r) * static_cast<size_t>(H), H,
                             stoch.a_c, *rngs[r],
                             scratch.data().data() + static_cast<size_t>(r) * static_cast<size_t>(H));
    }
  }
  // One batched affine2 for the whole lane block: rows never interact inside
  // the blocked kernels, and each output element accumulates along ascending
  // k with separately-rounded FMAs on both routes — the identical per-element
  // chain the rows==1 fused path walks, so lane bits match a one-lane call
  // while B lanes amortize one pass over Wx/Wh.
  affine2_fwd(x, cell.wx_value(), h, cell.wh_value(), cell.bias_value(), gates);

  for (int r = 0; r < R; ++r) {
    if (rngs[r] == nullptr) continue;  // retired row: state stays put
    simd::kernels().lstm_gates(
        gates.data().data() + static_cast<size_t>(r) * static_cast<size_t>(4 * H),
        h.data().data() + static_cast<size_t>(r) * static_cast<size_t>(H),
        c.data().data() + static_cast<size_t>(r) * static_cast<size_t>(H), H);
  }
  check_finite(h, "lstm_step_fwd_batch");
}

namespace {

// In-place inverted dropout of one row, replaying the Tensor dropout's mask
// path: one keep-with-probability-(1 - p) draw per element in order, and a
// dropped element computes h[i] * 0.0 (not an assignment of 0.0), so signed
// zeros match the graph too.
void dropout_row(double* h, int n, double p, std::mt19937_64& rng) {
  assert(p > 0.0 && p < 1.0);
  const double keep = 1.0 - p;
  const double scale = 1.0 / (1.0 - p);
  for (int i = 0; i < n; ++i) h[i] *= bernoulli(rng, keep) ? scale : 0.0;
}

}  // namespace

void mlp_fwd_batch(const Mlp& mlp, const Mat& x, std::mt19937_64* const* rngs, bool training,
                   Workspace& ws, int key_base, Mat& out) {
  const std::vector<Linear>& layers = mlp.layers();
  GENDT_CHECK(!layers.empty(), "mlp_fwd_batch on an empty Mlp");
  assert(!layers.empty());
  const size_t n = layers.size();
  const double p = mlp.config().dropout_p;
  const bool drop = p > 0.0 && training;
  const int R = x.rows();

  Mat* cur = nullptr;  // last hidden activation (null = still the input x)
  for (size_t i = 0; i + 1 < n; ++i) {
    const Mat& in = cur != nullptr ? *cur : x;
    Mat& y = ws.checkout(key_base + static_cast<int>(i), in.rows(), layers[i].out_features());
    linear_fwd(in, layers[i], y);
    leaky_relu_inplace(y, mlp.config().leaky_slope);
    cur = &y;
  }
  bool copied_input = false;
  if (drop) {
    if (cur == nullptr) {  // single-layer MLP: dropout applies to the input
      Mat& cp = ws.checkout(key_base + static_cast<int>(n), x.rows(), x.cols());
      std::copy(x.data().begin(), x.data().end(), cp.data().begin());
      cur = &cp;
      copied_input = true;
    }
    // Per-lane masks: row r's bernoulli draws come from lane r's own stream,
    // exactly where the graph's Mlp::forward draws them (between z1 and eps).
    const int cols = cur->cols();
    for (int r = 0; r < R; ++r) {
      if (rngs[r] == nullptr) continue;
      dropout_row(cur->data().data() + static_cast<size_t>(r) * static_cast<size_t>(cols), cols, p,
                  *rngs[r]);
    }
  }
  linear_fwd(cur != nullptr ? *cur : x, layers[n - 1], out);

  for (size_t i = 0; i + 1 < n; ++i) ws.release(key_base + static_cast<int>(i));
  if (copied_input) ws.release(key_base + static_cast<int>(n));
}

}  // namespace gendt::nn::infer
