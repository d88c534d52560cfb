// Tape-free inference kernels: the raw-Mat fast path underneath generation
// serving.
//
// The autograd Tensor graph pays one shared_ptr<Node> plus a fresh heap Mat
// per op — per timestep, per cell — even though inference never calls
// backward. The kernels here compute the SAME forward math directly on
// caller-owned Mat buffers:
//
//   Workspace      an arena of keyed, reusable Mat slots. checkout(key, r, c)
//                  hands out slot `key`, reallocating only on a shape change
//                  (never after warmup); release(key) returns it. A double
//                  checkout without release is a lifecycle bug and aborts
//                  under GENDT_CHECK. allocations() counts buffer
//                  (re)allocations so tests can assert steady-state reuse.
//   affine2_fwd    y = x1*W1 + x2*W2 + b into a caller buffer.
//   linear_fwd     y = x*W + b into a caller buffer.
//   lstm_step_fwd_batch  one LSTM step in place over R lane rows (h, c
//                  updated), including the SRNN stochastic perturbation.
//   mlp_fwd_batch  the ResGen MLP trunk over R lane rows with optional MC
//                  dropout.
// A single lane is simply R = 1 with a one-entry `rngs` array.
//
// Parity contract (enforced by gen_parity_test): every kernel replays the
// exact FP operation sequence and RNG draw order of its Tensor counterpart,
// so fast-path outputs are BITWISE identical to the graph path. Three rules
// keep that true — do not "optimize" them away:
//   1. Matrix products go through the shared blocked matmul_acc kernels (the
//      same code the Tensor ops call), never a reordered local loop.
//   2. Elementwise chains keep the graph's op boundaries: e.g. Linear is
//      zero-init + matmul_acc + separate bias add (matmul(x,W) + b), NOT a
//      bias-seeded accumulate — the rounding differs. affine2 IS bias-seeded
//      because the affine2 graph op is.
//   3. infer.cpp compiles with -ffp-contract=off: GCC must not contract
//      a*b + c into an FMA here, because the graph computes the mul and the
//      add as separate ops (separately rounded).
#pragma once

#include <memory>
#include <random>

#include "gendt/nn/layers.h"
#include "gendt/nn/mat.h"

namespace gendt::nn::infer {

/// Arena of reusable Mat buffers addressed by small integer keys. Not
/// thread-safe: concurrent users each own a Workspace (the inference session
/// keeps one per G^n row block so the per-cell rollout can fan out).
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// Borrow slot `key` shaped [rows x cols]. Contents are stale — callers
  /// overwrite. The slot's storage is reused whenever the request fits its
  /// high-water capacity (shape changes reshape in place); only growth
  /// beyond it allocates (counted). Checking out a slot that is already out
  /// aborts under GENDT_CHECK — the double-use guard the reuse tests lean on.
  Mat& checkout(int key, int rows, int cols);

  /// Return slot `key`. The buffer and its contents survive for the next
  /// checkout; only the borrowed flag is cleared.
  void release(int key);

  /// True while slot `key` is borrowed.
  bool checked_out(int key) const;

  /// Number of Mat (re)allocations ever performed. Steady state after
  /// warmup means this stops moving — see the rollout session tests.
  size_t allocations() const { return allocations_; }

  /// High-water memory footprint in bytes: the sum of every slot's capacity
  /// (element high-water mark) times sizeof(double). Monotone; constant after
  /// warmup. This is what makes the batched session's linear-in-B memory
  /// scaling assertable in tests and visible in serve startup logs.
  size_t peak_bytes() const;

 private:
  // Each buffer lives behind a unique_ptr so the Mat& a checkout hands out
  // stays valid when a LATER checkout of a higher key grows slots_ (the
  // vector relocates Slot objects, not the Mats they point to).
  struct Slot {
    std::unique_ptr<Mat> buf;
    size_t capacity = 0;  // high-water element count; growth beyond it counts
    bool out = false;
  };
  std::vector<Slot> slots_;
  size_t allocations_ = 0;
};

/// RAII checkout: releases the slot when it leaves scope.
class Lease {
 public:
  Lease(Workspace& ws, int key, int rows, int cols)
      : ws_(&ws), key_(key), mat_(&ws.checkout(key, rows, cols)) {}
  Lease(Lease&& o) noexcept : ws_(o.ws_), key_(o.key_), mat_(o.mat_) { o.ws_ = nullptr; }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  Lease& operator=(Lease&&) = delete;
  ~Lease() {
    if (ws_ != nullptr) ws_->release(key_);
  }
  Mat& mat() { return *mat_; }
  const Mat& mat() const { return *mat_; }

 private:
  Workspace* ws_;
  int key_;
  Mat* mat_;
};

/// y = x1*W1 + x2*W2 + b (broadcast bias), overwriting y. Bitwise identical
/// to the autograd affine2 forward: y seeded with the bias row, then both
/// products accumulated through the shared blocked kernels.
void affine2_fwd(const Mat& x1, const Mat& w1, const Mat& x2, const Mat& w2, const Mat& b,
                 Mat& y);

/// y = x*W + b, overwriting y. Bitwise identical to Linear::forward:
/// zero-init, matmul_acc, then a separate elementwise bias add.
void linear_fwd(const Mat& x, const Linear& layer, Mat& y);

/// In-place leaky ReLU.
void leaky_relu_inplace(Mat& h, double negative_slope);

// ---------------------------------------------------------------------------
// Lane-batched kernels: the same fused forward math over a [B x d] lane-major
// activation layout, so B independent rollouts share one pass through the
// blocked/AVX2 matmul kernels (one weight-tile load amortized across lanes)
// instead of B matrix-vector products.
//
// Batched parity contract (enforced by gen_batch_parity_test): row r of every
// batched kernel computes EXACTLY the bits the same kernel computes for that
// lane alone (R = 1), because (a) the blocked matmul kernels accumulate each
// output element along ascending k with one separately-rounded FMA per term
// — the identical per-element chain the rows==1 fused affine2 path uses —
// and rows never interact, and (b) every RNG draw comes from the lane's own
// stream in the lane's own order (`rngs[r]`).
//
// `rngs[r] == nullptr` marks lane r RETIRED for this step: the row still
// rides in the shared matmul (rows cannot be carved out of a GEMM) but
// consumes no RNG draws and its h/c state is not advanced — its stale values
// are dead weight until the caller compacts the batch at the next window
// boundary.
// ---------------------------------------------------------------------------

/// In-place sum-preserving SRNN perturbation of the n-element state row `s`,
/// replaying stochastic_perturb's draw order and FP sequence; `noise` is
/// same-length scratch. No-op (and no draws) when intensity <= 0 or
/// mean|s| <= 0.
void stochastic_perturb_row(double* s, int n, double intensity, std::mt19937_64& rng,
                            double* noise);

/// Lane-batched LSTM step: x is [B x in], h/c/scratch are [B x H], gates is
/// [B x 4H]. Gate pre-activations for all live lanes come from ONE batched
/// affine2 (bias-seed + two accumulating matmuls); the per-lane SRNN
/// perturbation and gate nonlinearities run row-wise with lane RNG streams.
/// `rngs` has B entries; a null entry skips that lane (see above).
void lstm_step_fwd_batch(const LstmCell& cell, const Mat& x, const StochasticConfig& stoch,
                         std::mt19937_64* const* rngs, Mat& h, Mat& c, Mat& gates, Mat& scratch);

/// Lane-batched MLP forward over x [B x d] (Linear -> LeakyReLU trunk,
/// optional dropout before the last layer, matching Mlp::forward): trunk
/// Linears and LeakyReLU run on the full batch (shared GEMMs); the
/// MC-dropout mask before the head is drawn row-wise from each lane's own
/// stream, replaying the Tensor dropout's bernoulli draw order and
/// per-element mask multiply. Hidden activations live in `ws` slots
/// [key_base, key_base + n_layers]; the head lands in `out`. `training`
/// keeps dropout sampling on (MC dropout). Null `rngs` entries skip that
/// lane's dropout draws (the row still rides in the GEMMs).
void mlp_fwd_batch(const Mlp& mlp, const Mat& x, std::mt19937_64* const* rngs, bool training,
                   Workspace& ws, int key_base, Mat& out);

}  // namespace gendt::nn::infer
