// Tape-free generation: BatchedInferenceSession runs GenDTModel's whole
// rollout (per-cell G^n, aggregation LSTM, autoregressive ResGen) on
// reusable Workspace buffers (gendt/nn/infer.h) instead of the autograd
// Tensor graph, for B independent trajectories ("lanes") in LOCKSTEP, so
// the hot loop's products are real [B x d] GEMMs through the blocked/SIMD
// matmul kernels instead of B matrix-vector ops. It is the one production
// rollout engine: a single request is simply a one-lane run.
//
// Guarantees:
//  * Graph parity: on the scalar kernel route, a lane's samples are the
//    exact bits of GenDTModel::sample_windows(windows, seed, mc_dropout) at
//    every thread count. The kernels replay the graph's FP op sequence and
//    RNG draw order (enforced by gen_parity_test).
//  * Lane-bitwise parity: lane l's samples do not depend on batch
//    composition, lane count, or thread count, on every kernel route
//    (enforced by gen_batch_parity_test). Every RNG draw for a lane comes
//    from that lane's own stream in the one-lane order, and the batched
//    matmul computes each row with the identical per-element accumulation
//    chain whatever the row count.
//  * Lane retirement/compaction at window boundaries: lanes march window
//    round by window round. A lane whose window list is exhausted (or whose
//    cancel token tripped) retires at the round boundary and the batch
//    compacts; within a round, ragged window LENGTHS are handled by marking
//    finished rows retired (null lane RNG) — they ride dead in the shared
//    GEMMs but draw nothing and their state stays put.
//  * No steady-state allocation: repeating a run over same-shaped lanes
//    reuses every workspace buffer — allocations() stops moving and
//    peak_bytes() (linear in B) is constant. Only the returned WindowSample
//    Mats are freshly allocated (they are the product).
//  * Per-lane cancellation: lanes[l].cancel is polled before every window.
//    A tripped lane retires with cancelled=true, keeping every window it DID
//    produce (bit-identical to an uncancelled run's prefix); the other lanes
//    are unaffected. Nothing throws for per-lane trips — one-lane callers
//    that want the CancelledError contract rethrow via
//    runtime::check_cancel.
//
// A session is single-user (not thread-safe) but cheap to pool:
// GenDTGenerator keeps one pool of sessions and leases one per call.
#pragma once

#include <random>
#include <span>

#include "gendt/core/model.h"
#include "gendt/nn/infer.h"

namespace gendt::core {

/// The cross-window generation state of a windowed rollout: the
/// autoregressive ResGen tail (last m KPI rows) plus the window-level RNG.
/// The per-cell and aggregation LSTM h/c states are zeroed at every window
/// boundary, so this struct IS the complete carried state — copying it
/// snapshots a stream at a chunk boundary, and restoring the copy replays
/// the remainder bit-for-bit. That is the contract core::StreamSession
/// builds seam-free RESUME on.
struct InferStreamState {
  std::mt19937_64 rng{0};  // placeholder seed; reset() seeds it for real
  nn::Mat tail;            // [m x nch]; meaningful once have_tail
  bool have_tail = false;

  /// Rewind to the start-of-stream state for `seed`.
  void reset(uint64_t seed) {
    rng.seed(seed);
    have_tail = false;
  }
};

/// One lane of a batched rollout: an independent trajectory's window chain
/// plus where its RNG stream starts (callers fan a grid out with
/// runtime::derive_stream_seed(seed, lane_index)).
struct BatchLane {
  std::span<const context::Window> windows;
  uint64_t seed = 0;
  /// Optional per-lane cancellation; polled at window boundaries.
  const runtime::CancelToken* cancel = nullptr;
  /// Optional carried state. Null: the lane starts from reset(seed).
  /// Non-null: the lane continues from *state (seed unused) and leaves it
  /// at the boundary after its last produced window — also on
  /// cancellation. Splitting a window chain across any number of runs this
  /// way yields exactly the bits of one run over the whole chain.
  InferStreamState* state = nullptr;
};

/// Per-lane result, keyed by the original lane index.
struct BatchLaneResult {
  std::vector<WindowSample> samples;  ///< windows produced before retirement
  bool cancelled = false;             ///< lane retired early on its token
};

class BatchedInferenceSession {
 public:
  /// The model must outlive the session; weights are read, never copied.
  explicit BatchedInferenceSession(const GenDTModel& model) : model_(&model) {}

  /// Run every lane to completion (or cancellation) in lockstep window
  /// rounds. results[l] corresponds to lanes[l].
  std::vector<BatchLaneResult> run(const std::vector<BatchLane>& lanes, bool mc_dropout = false);

  /// Total workspace Mat (re)allocations across all internal workspaces.
  /// Constant across repeat run() calls on same-shaped lane sets (and the
  /// same GenDTConfig::parallelism).
  size_t allocations() const;

  /// High-water workspace bytes across all internal workspaces — linear in
  /// the lane count (see Workspace::peak_bytes).
  size_t peak_bytes() const;

 private:
  struct LaneCtx;  // defined in the .cpp: per-lane rollout state

  void run_round(const std::vector<LaneCtx*>& act, bool mc_dropout);

  const GenDTModel* model_;
  nn::infer::Workspace ws_;         // fixed batch-wide slots + MLP trunk
  std::vector<nn::infer::Workspace> gn_ws_;  // one per G^n row block
  nn::infer::Workspace hist_ws_;    // per-(lane,cell) hidden histories
  nn::infer::Workspace havg_ws_;    // per-lane pooled hidden states
  nn::infer::Workspace aggout_ws_;  // per-lane aggregation outputs
  nn::infer::Workspace recent_ws_;  // per-lane ResGen lookback
};

/// Fast-path model uncertainty (paper §6.2.1): the exact bits of
/// model_uncertainty(), computed by running all MC-dropout passes as lanes
/// of ONE batched rollout instead of mc_samples independent sample_windows
/// fan-outs. First concrete step toward fleet-scale candidate scoring
/// (ROADMAP item 5). Defined in model.cpp so the reduction shares the
/// reference reduction's code and FP compilation flags.
double model_uncertainty_fast(const GenDTModel& model, const std::vector<context::Window>& windows,
                              int mc_samples = 5, uint64_t seed = 1);

}  // namespace gendt::core
