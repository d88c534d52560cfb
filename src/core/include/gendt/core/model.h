// The GenDT conditional generative model (paper §4).
//
// Generator (Fig. 6):
//   G^n  — GNN-node network: one LSTM, weights shared across cells, run over
//          each visible cell's [attributes ++ noise z0] series.
//   G^a  — aggregation network: LSTM over the mean of the node hidden
//          states, projecting to the Nch KPI channels.
//   G^r  — ResGen (Fig. 7): an autoregressive MLP over
//          [env context ++ noise z1 ++ last m KPI values] with dropout
//          before the head, emitting a Gaussian (mu, log sigma) per channel;
//          a reparameterized sample is the residual added to G^a's output.
// Both LSTMs carry SRNN-style stochastic layers (§4.3.4, Appendix A.2).
//
// Discriminator: single-layer LSTM over [x_t ++ h_avg_t] -> logit
// (§4.3.5); trained adversarially, with overall generator loss
// L = L_MSE + lambda * L_GAN.
//
// Ablation flags reproduce Table 12's variants: no ResGen / no SRNN /
// no GAN loss / no batching.
#pragma once

#include <functional>
#include <memory>

#include "gendt/core/generator.h"
#include "gendt/nn/layers.h"
#include "gendt/nn/optim.h"
#include "gendt/nn/pack.h"
#include "gendt/nn/serialize.h"
#include "gendt/runtime/thread_pool.h"

namespace gendt::core {

struct GenDTConfig {
  int num_channels = 4;       // Nch: KPI count
  int hidden = 32;            // H (paper uses 100; smaller trains CPU-fast)
  int noise_dim_node = 4;     // Nz0
  double noise_scale_node = 0.3;  // std of z0 (de-noising aid, not variation)
  int noise_dim_res = 4;      // Nz1
  int resgen_lookback = 3;    // m: autoregressive KPI history fed to ResGen
  /// Scheduled sampling: probability of feeding the model's own output
  /// (instead of the teacher-forced real value) into ResGen's recent-value
  /// tail during training. Counters exposure bias at generation time.
  double feedback_prob = 0.25;
  int resgen_hidden = 48;
  double resgen_dropout = 0.25;
  nn::StochasticConfig stochastic{.enabled = true, .a_h = 1.2, .a_c = 1.2};
  bool use_resgen = true;     // ablation: "No ResGen"
  bool use_gan = true;        // ablation: "No GAN loss"
  double lambda_gan = 0.1;
  /// Weight of the Gaussian NLL that calibrates ResGen's (mu, sigma) to the
  /// observed residual (target minus aggregation output). This is what makes
  /// the generated series' dispersion match the data.
  double nll_weight = 0.5;
  uint64_t init_seed = 1;
  /// Worker threads for inference-side fan-out: the per-cell G^n rollout
  /// (inside forward() and as row blocks in BatchedInferenceSession),
  /// MC-dropout uncertainty passes, and per-trajectory generation. 0 = all hardware threads, 1 = serial. Results are bitwise
  /// identical at every setting: every parallel unit draws from its own
  /// index-derived RNG stream and is reduced in index order.
  runtime::Parallelism parallelism{.threads = 0};
};

/// Output of one generated window in normalized units, plus the ResGen
/// distribution parameters (used for the uncertainty measure).
struct WindowSample {
  nn::Mat output;     // [len x Nch] sampled series (stochastic)
  nn::Mat mean;       // [len x Nch] noise-free expectation: G^a + ResGen mu
  nn::Mat res_mu;     // [len x Nch]
  nn::Mat res_sigma;  // [len x Nch]
};

class GenDTModel {
 public:
  explicit GenDTModel(const GenDTConfig& cfg);

  const GenDTConfig& config() const { return cfg_; }

  /// Raw sub-network views for the tape-free BatchedInferenceSession
  /// (read-only; the rollout engine shares weights with the graph path,
  /// never copies them).
  const nn::LstmCell& node_cell() const { return node_cell_; }
  const nn::LstmNetwork& agg_net() const { return agg_net_; }
  const nn::Mlp& resgen() const { return resgen_; }

  /// All trainable generator parameters.
  std::vector<nn::NamedParam> generator_params() const;
  /// Discriminator parameters.
  std::vector<nn::NamedParam> discriminator_params() const;

  /// Forward pass over one window.
  ///
  /// `prev_kpis` is the [m x Nch] tail of KPI values preceding the window
  /// (zeros at a trajectory start) — this is what makes generation
  /// autoregressive *across* batches. During training, teacher forcing uses
  /// the real target for ResGen's recent-value input; during generation the
  /// model's own output is fed back.
  ///
  /// `mc_dropout` keeps ResGen's dropout active (uncertainty sampling).
  struct Forward {
    std::vector<nn::Tensor> outputs;  // per step [1 x Nch]
    std::vector<nn::Tensor> h_avg;    // per step [1 x H] (discriminator context)
    nn::Mat res_mu;                   // [len x Nch]
    nn::Mat res_sigma;                // [len x Nch]
    // Graph handles used by the training losses (empty without ResGen):
    std::vector<nn::Tensor> agg_out_t;        // per step [1 x Nch]
    std::vector<nn::Tensor> res_mu_t;         // per step [1 x Nch]
    std::vector<nn::Tensor> res_log_sigma_t;  // per step [1 x Nch]
  };
  Forward forward(const context::Window& window, const nn::Mat& prev_kpis,
                  std::mt19937_64& rng, bool training, bool mc_dropout = false) const;

  /// Discriminator logit for a KPI-window sequence given the h_avg context
  /// sequence (the high-dimensional representation of c, per §4.3.5).
  nn::Tensor discriminate(const std::vector<nn::Tensor>& x_rows,
                          const std::vector<nn::Tensor>& h_avg,
                          std::mt19937_64& rng) const;

  /// Generate normalized KPI series over consecutive windows, carrying the
  /// autoregressive tail across window boundaries. Windows form one
  /// autoregressive chain, so they are generated in order; parallelism
  /// applies inside each forward (per-cell rollout).
  ///
  /// This is the Tensor-graph reference oracle: production generation runs
  /// on BatchedInferenceSession, which reproduces these bits on the scalar
  /// kernel route (gen_parity_test).
  ///
  /// A non-null `cancel` token is polled before every window — the rollout's
  /// natural work boundary — and unwinds with runtime::CancelledError when it
  /// trips, so an expired/abandoned serve request stops paying for windows
  /// nobody will read. Cancellation never alters produced values: every
  /// window that IS generated has the same bits as in an uncancelled run.
  std::vector<WindowSample> sample_windows(const std::vector<context::Window>& windows,
                                           uint64_t seed, bool mc_dropout = false,
                                           const runtime::CancelToken* cancel = nullptr) const;

  /// Request-level fan-out: generate several independent trajectories (each
  /// a window chain) on the worker pool. Trajectory i uses the RNG stream
  /// derive_stream_seed(seed, i), so results match a serial run bitwise and
  /// do not depend on the thread count. `cancel` is polled per trajectory
  /// and per window; on trip the first observing task throws
  /// runtime::CancelledError, which the fork-join rethrows here.
  std::vector<std::vector<WindowSample>> sample_trajectories(
      const std::vector<std::vector<context::Window>>& trajectories, uint64_t seed,
      bool mc_dropout = false, const runtime::CancelToken* cancel = nullptr) const;

  /// Atomic whole-model checkpoint (nn::save_checkpoint under the hood).
  bool save(const std::string& path) const;
  /// Transactional load: on any failure the model is untouched and the
  /// result says exactly what was wrong (bad magic, truncation, CRC
  /// mismatch, unknown param, shape mismatch, duplicate name, ...).
  nn::LoadResult load(const std::string& path, nn::LoadMode mode = nn::LoadMode::kStrict);

 private:
  GenDTConfig cfg_;
  nn::LstmCell node_cell_;       // G^n (shared across cells)
  nn::LstmNetwork agg_net_;      // G^a
  nn::Mlp resgen_;               // G^r trunk -> [mu, log_sigma] x Nch
  nn::LstmNetwork disc_net_;     // discriminator trunk
  nn::Linear disc_head_;         // final logit
};

/// Resumable training state emitted at every epoch boundary: the cursor and
/// the Adam slots for both optimizers (records named "adam.gen/..." and
/// "adam.disc/..."). Together with the model parameters this is everything
/// a fresh process needs to continue the run bit-for-bit (each epoch runs
/// on its own derive_stream_seed(seed, epoch) RNG stream, so no generator
/// internals need to be persisted).
struct TrainCheckpoint {
  int epochs_done = 0;  ///< epochs completed; resume with start_epoch = this
  std::vector<nn::TensorRecord> opt_state;
};

/// GenDT training (alternating generator / discriminator updates).
struct TrainConfig {
  int epochs = 12;
  int windows_per_step = 8;  // gradient accumulation
  double lr_gen = 2e-3;
  double lr_disc = 1e-3;
  uint64_t seed = 99;
  bool verbose = false;
  /// Worker threads for the per-window forward/backward of each
  /// accumulation step (0 = all hardware threads, 1 = serial). Each worker
  /// owns a full model replica and gradient buffer; per-window gradients are
  /// reduced into the shared parameters in window order, and every window
  /// runs on its own RNG stream — training is bitwise identical at any
  /// thread count.
  runtime::Parallelism parallelism{.threads = 0};
  /// First epoch to run (resume cursor). Epoch e always draws from the RNG
  /// stream derive_stream_seed(seed, e), so running epochs [k, epochs) on a
  /// restored model + optimizer state is bitwise identical to the tail of
  /// an uninterrupted [0, epochs) run.
  int start_epoch = 0;
  /// Adam slots from a prior TrainCheckpoint ("adam.gen/..." +
  /// "adam.disc/..." records). Empty = fresh optimizers.
  std::vector<nn::TensorRecord> resume_opt_state = {};
  /// Called after every completed epoch with the state needed to resume
  /// from that boundary; the CLI uses this to write a checkpoint per epoch.
  std::function<void(const TrainCheckpoint&)> on_epoch_end = {};
};

struct TrainStats {
  std::vector<double> mse_per_epoch;
  std::vector<double> gan_per_epoch;
  /// Non-empty when training refused to start (malformed resume state).
  std::string error;
};

TrainStats train_gendt(GenDTModel& model, const std::vector<context::Window>& windows,
                       const TrainConfig& cfg);

/// Model uncertainty U(G_theta) (§6.2.1): MC-dropout std of ResGen's
/// Gaussian parameters, averaged over time and channels.
double model_uncertainty(const GenDTModel& model, const std::vector<context::Window>& windows,
                         int mc_samples = 5, uint64_t seed = 1);

/// Normalized samples -> physical units: per-channel inverse normalization,
/// plus the integer snap of discrete KPIs (CQI) for channels whose meaning
/// `kpis` declares (empty = plain denormalization, the `gendt generate` CSV
/// path). The one conversion behind GenDTGenerator::generate/generate_batch,
/// StreamSession chunks and the CLI, so their "same bits" claims cover it.
GeneratedSeries denormalize_samples(const std::vector<WindowSample>& samples,
                                    const context::KpiNorm& norm,
                                    const std::vector<sim::Kpi>& kpis, int nch);

// gendt/core/batched_infer_session.h
class BatchedInferenceSession;
struct BatchLane;
struct BatchLaneResult;

/// One request of a batched GenDTGenerator::generate_batch() call: an
/// independent window list + seed (+ optional cancellation), exactly the
/// arguments of one generate() call.
struct GenerateBatchItem {
  const std::vector<context::Window>* windows = nullptr;
  uint64_t seed = 0;
  const runtime::CancelToken* cancel = nullptr;
};

/// Per-item result of generate_batch(), keyed by the item's index.
struct GenerateBatchResult {
  GeneratedSeries series;  ///< valid only when ok
  bool ok = false;
  std::string error;  ///< failure reason when !ok (cancellation included)
};

/// TimeSeriesGenerator adapter around GenDTModel (fits + denormalizes).
///
/// generate() and generate_batch() run on the tape-free
/// BatchedInferenceSession (bitwise identical to the Tensor graph on the
/// scalar kernel route — see batched_infer_session.h); sessions are pooled
/// so concurrent serve requests reuse warm workspaces instead of
/// re-allocating per call.
class GenDTGenerator final : public TimeSeriesGenerator {
 public:
  // Both out-of-line: BatchedInferenceSession is incomplete here, and member
  // construction/destruction must see its definition.
  GenDTGenerator(GenDTConfig model_cfg, TrainConfig train_cfg, context::KpiNorm norm);
  ~GenDTGenerator() override;

  /// Declare the KPI meaning of each channel. Discrete KPIs (CQI) are
  /// snapped to their integer grid after denormalization — the paper notes
  /// CQI generation is really a classification over 1..15.
  void set_kpis(std::vector<sim::Kpi> kpis) { kpis_ = std::move(kpis); }
  /// Channel semantics declared via set_kpis (empty when never declared —
  /// denormalization then applies no per-KPI snapping).
  const std::vector<sim::Kpi>& kpis() const { return kpis_; }

  std::string name() const override { return "GenDT"; }
  void fit(const std::vector<context::Window>& train_windows) override {
    train_gendt(model_, train_windows, train_cfg_);
  }
  GeneratedSeries generate(const std::vector<context::Window>& windows,
                           uint64_t seed) const override;
  /// Cancellable path: one lane on a pooled session, polling `cancel`
  /// before every window; a trip unwinds with runtime::CancelledError.
  GeneratedSeries generate(const std::vector<context::Window>& windows, uint64_t seed,
                           const runtime::CancelToken* cancel) const override;
  /// Lane-batched generation on a pooled session: all items roll out in
  /// lockstep so the hot loop runs [B x d] GEMMs, and every item gets the
  /// exact bits of its single-item generate() call (per-lane RNG streams —
  /// see batched_infer_session.h). Never throws for per-item failures: each
  /// item carries its own ok/error. If the batched rollout fails as a whole,
  /// the items are re-run one generate() call each.
  std::vector<GenerateBatchResult> generate_batch(
      const std::vector<GenerateBatchItem>& items) const;

  GenDTModel& model() { return model_; }
  const GenDTModel& model() const { return model_; }
  const context::KpiNorm& norm() const { return norm_; }

  /// Grow the warm-session pool to `count` sessions so the first `count`
  /// concurrent calls skip session construction. The serving layer calls
  /// this when a model is (hot-)loaded into the registry, so a freshly
  /// swapped-in version answers its first requests from warm state instead
  /// of paying cold-start under traffic.
  void prewarm(size_t count) GENDT_EXCLUDES(session_mu_);

  /// Point the model's parameters at a mapped GDTPACK1 weight arena
  /// (zero-copy read-only views — see gendt/nn/pack.h). On success the
  /// generator takes ownership of the mapping (the views alias it) and
  /// becomes inference-only: fit() on packed weights asserts in debug
  /// builds. On failure the model is untouched.
  nn::LoadResult load_packed(nn::PackedModel pack) GENDT_EXCLUDES(session_mu_);
  bool packed() const { return pack_ != nullptr; }

  /// High-water workspace bytes pinned by the warm session pool — what the
  /// serve layer logs at startup so the memory cost of prewarming and lane
  /// batching is visible.
  size_t warm_peak_bytes() const GENDT_EXCLUDES(session_mu_);

 private:
  /// Lease a warm session (building one on first use), run `lanes` on it,
  /// and return it to the pool — also when the rollout throws. Takes
  /// session_mu_ only for the lease/return, never across the rollout.
  std::vector<BatchLaneResult> run_pooled(const std::vector<BatchLane>& lanes) const
      GENDT_EXCLUDES(session_mu_);

  GenDTModel model_;
  TrainConfig train_cfg_;
  context::KpiNorm norm_;
  std::vector<sim::Kpi> kpis_;  // optional channel semantics
  // Non-null after load_packed(): the mapping the parameter views alias.
  // Held for the generator's whole lifetime; Mat destructors never touch a
  // view's bytes, so member destruction order is not load-bearing.
  std::unique_ptr<nn::PackedModel> pack_;
  // Warm sessions, leased one per in-flight generate()/generate_batch()
  // call. Both are const and called from many threads at once (serve
  // workers, covermap lane blocks), hence the mutable pool + its own lock.
  mutable runtime::Mutex session_mu_;
  mutable std::vector<std::unique_ptr<BatchedInferenceSession>> sessions_
      GENDT_GUARDED_BY(session_mu_);
};

}  // namespace gendt::core
