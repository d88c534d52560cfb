// BatchedInferenceSession: the lane-batched tape-free rollout. This file
// compiles with -ffp-contract=off (src/core/CMakeLists.txt) for the same
// reason as src/nn/infer.cpp — the residual combine below must round its
// mul and adds exactly like the graph's separate hadamard/add ops, or the
// graph-parity contract breaks.
//
// Structure of one window ROUND (all active lanes, lockstep):
//   1. per lane, in lane order: draw the per-cell seeds off the lane stream
//      (cell order), exactly like GenDTModel::forward's prologue.
//   2. G^n over ALL (lane, cell) pairs as [P x *] batches: per timestep,
//      live pairs fill their input row (attrs + z0 draws from the pair's
//      private rng) and one lstm_step_fwd_batch advances every live pair.
//      The P rows split into contiguous blocks over GenDTConfig::parallelism
//      (one fork-join per round, a private workspace per block); rows never
//      interact, so the split changes no bits.
//   3. per lane: pool its own cells' histories in cell order (h_avg).
//   4. G^a over the active lanes as one [L x *] batch: perturbation draws
//      come from each lane's window stream; the head projects the whole
//      batch in one linear_fwd.
//   5. G^r lockstep: per timestep, live lanes assemble u rows (env ++ z1 ++
//      recent), one mlp_fwd_batch runs the trunk with per-lane dropout
//      masks, then each live lane reparameterizes and advances its recent
//      tail.
//   6. per lane: update the cross-window tail state, emit the WindowSample.
//
// Ragged lengths inside a round: a row whose lane's window is shorter than
// the round's longest simply rides retired (null rng) in the shared GEMMs —
// no draws, no state updates, values dead. Ragged window COUNTS compact at
// round boundaries: exhausted/cancelled lanes leave the active set.
#include "gendt/core/batched_infer_session.h"

#include <algorithm>
#include <cmath>

#include "gendt/nn/checks.h"
#include "gendt/runtime/cancel.h"
#include "gendt/sim/landuse.h"

namespace gendt::core {

using nn::Mat;
using nn::infer::Lease;

namespace {

// Per-block G^n workspace slots (gn_ws_[b]), over the block's rows.
enum GnSlot : int {
  kGnX = 0,      // [rows x node_in] per-(lane,cell) G^n inputs
  kGnH,          // [rows x H]
  kGnC,          // [rows x H]
  kGnGates,      // [rows x 4H]
  kGnScratch,    // [rows x H]
};

// Fixed batch-wide workspace slots in ws_. The ResGen trunk uses
// [kMlpBase, kMlpBase + L] so kMlpBase must stay last.
enum BatchSlot : int {
  kAggH = 0,     // [L x H]
  kAggC,         // [L x H]
  kAggX,         // [L x H] pooled rows fed to the aggregation cell
  kAggGates,     // [L x 4H]
  kAggScratch,   // [L x H]
  kHeadRows,     // [L x nch] batched head projection
  kU,            // [L x res_in] ResGen input rows
  kResHead,      // [L x 2*nch] ResGen head (mu ++ raw log_sigma)
  kEps,          // [L x nch] reparameterization noise
  kMlpBase,      // first MLP activation slot
};

// Fresh standard-normal draws, replaying model.cpp's gaussian_noise (a new
// distribution per call — no cached polar-method value carries over).
void gaussian_fill(double* dst, int n, std::mt19937_64& rng) {
  std::normal_distribution<double> g(0.0, 1.0);
  for (int i = 0; i < n; ++i) dst[i] = g(rng);
}

}  // namespace

// Per-lane rollout state for one run(): the carried stream state (rng +
// autoregressive tail — the lane's own InferStreamState when it brought one,
// else `fresh`) plus result bookkeeping.
struct BatchedInferenceSession::LaneCtx {
  const BatchLane* lane = nullptr;
  InferStreamState fresh;
  InferStreamState* state = nullptr;
  BatchLaneResult* result = nullptr;
  // Round-scoped: the window being generated and its in-progress sample.
  const context::Window* w = nullptr;
  WindowSample sample;
};

size_t BatchedInferenceSession::allocations() const {
  size_t n = ws_.allocations() + hist_ws_.allocations() + havg_ws_.allocations() +
             aggout_ws_.allocations() + recent_ws_.allocations();
  for (const auto& gws : gn_ws_) n += gws.allocations();
  return n;
}

size_t BatchedInferenceSession::peak_bytes() const {
  size_t bytes = ws_.peak_bytes() + hist_ws_.peak_bytes() + havg_ws_.peak_bytes() +
                 aggout_ws_.peak_bytes() + recent_ws_.peak_bytes();
  for (const auto& gws : gn_ws_) bytes += gws.peak_bytes();
  return bytes;
}

std::vector<BatchLaneResult> BatchedInferenceSession::run(const std::vector<BatchLane>& lanes,
                                                          bool mc_dropout) {
  const GenDTConfig& cfg = model_->config();
  const int m = cfg.resgen_lookback;
  const int nch = cfg.num_channels;

  std::vector<BatchLaneResult> results(lanes.size());
  std::vector<LaneCtx> ctx(lanes.size());
  std::vector<LaneCtx*> act;
  act.reserve(lanes.size());
  for (size_t l = 0; l < lanes.size(); ++l) {
    LaneCtx& lc = ctx[l];
    lc.lane = &lanes[l];
    if (lanes[l].state != nullptr) {
      lc.state = lanes[l].state;
    } else {
      lc.state = &lc.fresh;
      lc.fresh.reset(lanes[l].seed);
    }
    // The tail lives in the state (not a workspace lease) so a struct copy
    // of the state is a complete chunk-boundary snapshot.
    if (lc.state->tail.rows() != m || lc.state->tail.cols() != nch)
      lc.state->tail = Mat::zeros(m, nch);
    lc.result = &results[l];
    lc.result->samples.reserve(lanes[l].windows.size());
    act.push_back(&lc);
  }

  for (size_t round = 0; !act.empty(); ++round) {
    // Window-boundary retirement/compaction, in lane order: an exhausted
    // lane retires done; otherwise its token is polled before the window.
    // Retired lanes keep what they produced.
    std::vector<LaneCtx*> live;
    live.reserve(act.size());
    for (LaneCtx* lc : act) {
      if (round >= lc->lane->windows.size()) continue;
      if (lc->lane->cancel != nullptr && lc->lane->cancel->cancelled()) {
        lc->result->cancelled = true;
        continue;
      }
      lc->w = &lc->lane->windows[round];
      live.push_back(lc);
    }
    act.swap(live);
    if (act.empty()) break;

    run_round(act, mc_dropout);

    // Cross-window tail update (from this window's end, exactly like
    // sample_windows) + sample emission, per lane.
    for (LaneCtx* lc : act) {
      const int len = lc->w->len;
      for (int i = 0; i < m; ++i) {
        const int src = std::max(0, len - m + i);
        for (int ch = 0; ch < nch; ++ch) lc->state->tail(i, ch) = lc->sample.output(src, ch);
      }
      lc->state->have_tail = true;
      lc->result->samples.push_back(std::move(lc->sample));
      lc->sample = WindowSample{};
    }
  }
  return results;
}

void BatchedInferenceSession::run_round(const std::vector<LaneCtx*>& act, bool mc_dropout) {
  const GenDTConfig& cfg = model_->config();
  const int L = static_cast<int>(act.size());
  const int H = cfg.hidden;
  const int nch = cfg.num_channels;
  const int m = cfg.resgen_lookback;
  const int node_in = context::kCellAttrs + cfg.noise_dim_node;

  int max_len = 0;
  for (const LaneCtx* lc : act) max_len = std::max(max_len, lc->w->len);

  // ---- Per-cell seed draws, lane order / cell order ----------------------
  // Matches GenDTModel::forward's prologue exactly: each lane's seeds come
  // off its own window stream in cell order before any rollout work.
  struct Pair {
    LaneCtx* lc;
    int ci;
    std::mt19937_64 rng;  // gendt-lint: allow(unseeded-mt19937) aggregate-constructed from the lane stream
    std::normal_distribution<double> g01{0.0, 1.0};  // persists across steps
  };
  std::vector<Pair> pairs;
  for (LaneCtx* lc : act) {
    const int n_cells = static_cast<int>(lc->w->cell_attrs.size());
    for (int ci = 0; ci < n_cells; ++ci) {
      pairs.push_back(Pair{lc, ci, std::mt19937_64{lc->state->rng()}});
    }
  }
  const int P = static_cast<int>(pairs.size());

  // ---- G^n: all (lane, cell) pairs as [P x *] row blocks ----------------
  // Histories outlive the blocks (pooled below), so they are checked out up
  // front on this thread; each block leases only its own step buffers.
  std::vector<Lease> hists;
  hists.reserve(pairs.size());
  for (int p = 0; p < P; ++p) hists.emplace_back(hist_ws_, p, pairs[static_cast<size_t>(p)].lc->w->len, H);

  const int blocks = std::min(P, cfg.parallelism.resolved());
  if (static_cast<int>(gn_ws_.size()) < blocks) gn_ws_.resize(static_cast<size_t>(blocks));
  std::vector<std::mt19937_64*> gn_rngs(pairs.size());
  const nn::LstmCell& node = model_->node_cell();
  runtime::parallel_tasks(cfg.parallelism, blocks, [&](int b) {
    // Larger blocks first (like runtime::parallel_for's chunks): a worker
    // that finishes early then only ever picks up a smaller block.
    const int lo = b * (P / blocks) + std::min(b, P % blocks);
    const int hi = lo + P / blocks + (b < P % blocks ? 1 : 0);
    const int rows = hi - lo;
    nn::infer::Workspace& gws = gn_ws_[static_cast<size_t>(b)];
    Lease x(gws, kGnX, rows, node_in);
    Lease h(gws, kGnH, rows, H);
    Lease c(gws, kGnC, rows, H);
    Lease gates(gws, kGnGates, rows, 4 * H);
    Lease scratch(gws, kGnScratch, rows, H);
    h.mat().set_zero();
    c.mat().set_zero();
    x.mat().set_zero();  // retired rows must stay finite in the shared GEMM

    std::mt19937_64** rngs = gn_rngs.data() + lo;
    int block_len = 0;
    for (int p = lo; p < hi; ++p)
      block_len = std::max(block_len, pairs[static_cast<size_t>(p)].lc->w->len);
    for (int t = 0; t < block_len; ++t) {
      for (int r = 0; r < rows; ++r) {
        Pair& pr = pairs[static_cast<size_t>(lo + r)];
        if (t >= pr.lc->w->len) {
          rngs[r] = nullptr;  // rides dead this step
          continue;
        }
        rngs[r] = &pr.rng;
        const Mat& attrs = pr.lc->w->cell_attrs[static_cast<size_t>(pr.ci)];
        for (int a = 0; a < context::kCellAttrs; ++a) x.mat()(r, a) = attrs(t, a);
        for (int a = 0; a < cfg.noise_dim_node; ++a)
          x.mat()(r, context::kCellAttrs + a) = cfg.noise_scale_node * pr.g01(pr.rng);
      }
      nn::infer::lstm_step_fwd_batch(node, x.mat(), cfg.stochastic, rngs, h.mat(), c.mat(),
                                     gates.mat(), scratch.mat());
      for (int r = 0; r < rows; ++r) {
        if (rngs[r] == nullptr) continue;
        const double* hp = h.mat().data().data() + static_cast<size_t>(r) * static_cast<size_t>(H);
        Mat& hist = hists[static_cast<size_t>(lo + r)].mat();
        for (int j = 0; j < H; ++j) hist(t, j) = hp[j];
      }
    }
  });

  // ---- Graph pooling per lane: h_avg = mean over its cells, cell order ---
  std::vector<Lease> havgs;
  havgs.reserve(act.size());
  for (int li = 0; li < L; ++li) havgs.emplace_back(havg_ws_, li, act[static_cast<size_t>(li)]->w->len, H);
  {
    int pair_base = 0;
    for (int li = 0; li < L; ++li) {
      LaneCtx* lc = act[static_cast<size_t>(li)];
      const int len = lc->w->len;
      const int n_cells = static_cast<int>(lc->w->cell_attrs.size());
      Mat& havg = havgs[static_cast<size_t>(li)].mat();
      if (n_cells == 0) {
        havg.set_zero();
      } else {
        const double inv = 1.0 / static_cast<double>(n_cells);
        for (int t = 0; t < len; ++t) {
          for (int j = 0; j < H; ++j) {
            double sum = hists[static_cast<size_t>(pair_base)].mat()(t, j);
            for (int ci = 1; ci < n_cells; ++ci)
              sum += hists[static_cast<size_t>(pair_base + ci)].mat()(t, j);
            havg(t, j) = sum * inv;
          }
        }
      }
      pair_base += n_cells;
    }
  }
  hists.clear();  // release the per-pair histories

  // ---- G^a: aggregation LSTM + head over the [L x *] lane batch ----------
  std::vector<Lease> agg_outs;
  agg_outs.reserve(act.size());
  for (int li = 0; li < L; ++li)
    agg_outs.emplace_back(aggout_ws_, li, act[static_cast<size_t>(li)]->w->len, nch);
  {
    Lease ah(ws_, kAggH, L, H);
    Lease ac(ws_, kAggC, L, H);
    Lease ax(ws_, kAggX, L, H);
    Lease agates(ws_, kAggGates, L, 4 * H);
    Lease ascratch(ws_, kAggScratch, L, H);
    Lease head_rows(ws_, kHeadRows, L, nch);
    ah.mat().set_zero();
    ac.mat().set_zero();
    ax.mat().set_zero();

    const nn::LstmCell& agg_cell = model_->agg_net().cell();
    const nn::Linear& agg_head = model_->agg_net().head();
    std::vector<std::mt19937_64*> rngs(act.size());
    for (int t = 0; t < max_len; ++t) {
      for (int li = 0; li < L; ++li) {
        LaneCtx* lc = act[static_cast<size_t>(li)];
        if (t >= lc->w->len) {
          rngs[static_cast<size_t>(li)] = nullptr;
          continue;
        }
        rngs[static_cast<size_t>(li)] = &lc->state->rng;
        const Mat& havg = havgs[static_cast<size_t>(li)].mat();
        for (int j = 0; j < H; ++j) ax.mat()(li, j) = havg(t, j);
      }
      nn::infer::lstm_step_fwd_batch(agg_cell, ax.mat(), cfg.stochastic, rngs.data(), ah.mat(),
                                     ac.mat(), agates.mat(), ascratch.mat());
      // The head consumes no RNG, so projecting the whole batch per step
      // (one GEMM) leaves both the streams and the values untouched.
      nn::infer::linear_fwd(ah.mat(), agg_head, head_rows.mat());
      for (int li = 0; li < L; ++li) {
        if (rngs[static_cast<size_t>(li)] == nullptr) continue;
        Mat& agg_out = agg_outs[static_cast<size_t>(li)].mat();
        for (int ch = 0; ch < nch; ++ch) agg_out(t, ch) = head_rows.mat()(li, ch);
      }
    }
  }
  havgs.clear();

  // ---- G^r: autoregressive residual, lockstep over lanes -----------------
  for (int li = 0; li < L; ++li) {
    LaneCtx* lc = act[static_cast<size_t>(li)];
    const int len = lc->w->len;
    lc->sample.output = Mat(len, nch);
    lc->sample.mean = Mat(len, nch);
    lc->sample.res_mu = Mat::zeros(len, nch);
    lc->sample.res_sigma = Mat::zeros(len, nch);
  }

  if (!cfg.use_resgen) {
    for (int li = 0; li < L; ++li) {
      LaneCtx* lc = act[static_cast<size_t>(li)];
      const Mat& agg_out = agg_outs[static_cast<size_t>(li)].mat();
      for (int t = 0; t < lc->w->len; ++t) {
        for (int ch = 0; ch < nch; ++ch) {
          lc->sample.output(t, ch) = agg_out(t, ch);
          lc->sample.mean(t, ch) = lc->sample.output(t, ch);
        }
      }
    }
    return;
  }

  const nn::Mlp& resgen = model_->resgen();
  const int res_in = sim::kNumEnvAttributes + cfg.noise_dim_res + m * nch;
  std::vector<Lease> recents;
  recents.reserve(act.size());
  for (int li = 0; li < L; ++li) {
    recents.emplace_back(recent_ws_, li, m, nch);
    Mat& recent = recents[static_cast<size_t>(li)].mat();
    recent.set_zero();
    LaneCtx* lc = act[static_cast<size_t>(li)];
    if (lc->state->have_tail) {
      for (int i = 0; i < m; ++i)
        for (int ch = 0; ch < nch; ++ch) recent(i, ch) = lc->state->tail(i, ch);
    }
  }

  Lease u(ws_, kU, L, res_in);
  Lease head(ws_, kResHead, L, 2 * nch);
  Lease eps(ws_, kEps, L, nch);
  u.mat().set_zero();
  std::vector<std::mt19937_64*> rngs(act.size());
  for (int t = 0; t < max_len; ++t) {
    for (int li = 0; li < L; ++li) {
      LaneCtx* lc = act[static_cast<size_t>(li)];
      if (t >= lc->w->len) {
        rngs[static_cast<size_t>(li)] = nullptr;
        continue;
      }
      rngs[static_cast<size_t>(li)] = &lc->state->rng;
      const Mat& recent = recents[static_cast<size_t>(li)].mat();
      double* urow = u.mat().data().data() + static_cast<size_t>(li) * static_cast<size_t>(res_in);
      int col = 0;
      for (int a = 0; a < sim::kNumEnvAttributes; ++a) urow[col++] = lc->w->env(t, a);
      gaussian_fill(urow + col, cfg.noise_dim_res, lc->state->rng);  // z1
      col += cfg.noise_dim_res;
      for (int r = 0; r < m; ++r)
        for (int ch = 0; ch < nch; ++ch) urow[col++] = recent(r, ch);
    }
    // Per-lane draw order per step matches forward(): z1 (above), the
    // dropout mask (inside, per row, MC dropout only), then eps (below).
    nn::infer::mlp_fwd_batch(resgen, u.mat(), rngs.data(), /*training=*/mc_dropout, ws_, kMlpBase,
                             head.mat());
    for (int li = 0; li < L; ++li) {
      if (rngs[static_cast<size_t>(li)] == nullptr) continue;
      LaneCtx* lc = act[static_cast<size_t>(li)];
      WindowSample& s = lc->sample;
      for (int ch = 0; ch < nch; ++ch) {
        const double mu = head.mat()(li, ch);
        // log_sigma = tanh(raw * 0.25) * 4.0, sigma = exp(log_sigma) — the
        // graph's scale / tanh / scale / exp ops, in order.
        const double log_sigma = std::tanh(head.mat()(li, nch + ch) * 0.25) * 4.0;
        s.res_mu(t, ch) = mu;
        s.res_sigma(t, ch) = std::exp(log_sigma);
      }
      double* erow = eps.mat().data().data() + static_cast<size_t>(li) * static_cast<size_t>(nch);
      gaussian_fill(erow, nch, lc->state->rng);
      const Mat& agg_out = agg_outs[static_cast<size_t>(li)].mat();
      Mat& recent = recents[static_cast<size_t>(li)].mat();
      for (int ch = 0; ch < nch; ++ch) {
        const double agg_v = agg_out(t, ch);
        // out = (agg + mu) + sigma*eps; mean = agg + mu (same adds as the
        // graph's left-associated `out_t + mu + sigma * eps`).
        const double mean_v = agg_v + s.res_mu(t, ch);
        s.mean(t, ch) = mean_v;
        s.output(t, ch) = mean_v + s.res_sigma(t, ch) * erow[ch];
      }
      for (int r = 0; r + 1 < m; ++r)
        for (int ch = 0; ch < nch; ++ch) recent(r, ch) = recent(r + 1, ch);
      for (int ch = 0; ch < nch; ++ch) recent(m - 1, ch) = s.output(t, ch);
    }
  }
}

}  // namespace gendt::core
