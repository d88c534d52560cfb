#include "gendt/core/model.h"

#include <algorithm>

#include "gendt/core/batched_infer_session.h"
#include <atomic>
#include <cmath>
#include <memory>

namespace gendt::core {

using nn::Mat;
using nn::Tensor;

GeneratedSeries real_series(const std::vector<context::Window>& windows,
                            const context::KpiNorm& norm) {
  GeneratedSeries out;
  if (windows.empty()) return out;
  const int nch = windows.front().target.cols();
  out.channels.assign(static_cast<size_t>(nch), {});
  for (const auto& w : windows) {
    for (int t = 0; t < w.len; ++t) {
      for (int ch = 0; ch < nch; ++ch) {
        out.channels[static_cast<size_t>(ch)].push_back(norm.denormalize(ch, w.target(t, ch)));
      }
    }
  }
  return out;
}

namespace {
constexpr int kCellAttrs = context::kCellAttrs;

Mat gaussian_noise(int rows, int cols, std::mt19937_64& rng) {
  Mat m(rows, cols);
  std::normal_distribution<double> g(0.0, 1.0);
  for (size_t i = 0; i < m.size(); ++i) m[i] = g(rng);
  return m;
}
}  // namespace

GenDTModel::GenDTModel(const GenDTConfig& cfg) : cfg_(cfg) {
  std::mt19937_64 rng(cfg.init_seed);
  node_cell_ = nn::LstmCell(kCellAttrs + cfg.noise_dim_node, cfg.hidden, rng, "gendt.node");
  agg_net_ = nn::LstmNetwork(cfg.hidden, cfg.hidden, cfg.num_channels, rng, "gendt.agg");
  const int res_in = sim::kNumEnvAttributes + cfg.noise_dim_res +
                     cfg.resgen_lookback * cfg.num_channels;
  resgen_ = nn::Mlp({.layer_sizes = {res_in, cfg.resgen_hidden, cfg.resgen_hidden,
                                     2 * cfg.num_channels},
                     .leaky_slope = 0.01,
                     .dropout_p = cfg.resgen_dropout},
                    rng, "gendt.resgen");
  // Start the residual noise small: the head's log_sigma outputs get a low
  // bias so sigma ~ exp(-2) of a (normalized) KPI std. Training then grows
  // it where the data demands stochasticity, instead of having to fight an
  // O(1)-sigma residual down with the MSE term.
  for (auto& p : resgen_.params()) {
    if (p.name.ends_with("fc2.bias")) {
      nn::Mat& b = p.tensor.mutable_value();
      for (int ch = 0; ch < cfg.num_channels; ++ch) b(0, cfg.num_channels + ch) = -2.0;
    }
  }
  disc_net_ = nn::LstmNetwork(cfg.num_channels + cfg.hidden, cfg.hidden, cfg.hidden, rng,
                              "gendt.disc");
  disc_head_ = nn::Linear(cfg.hidden, 1, rng, "gendt.disc_head");
}

std::vector<nn::NamedParam> GenDTModel::generator_params() const {
  std::vector<nn::NamedParam> out = node_cell_.params();
  for (auto& p : agg_net_.params()) out.push_back(p);
  if (cfg_.use_resgen)
    for (auto& p : resgen_.params()) out.push_back(p);
  return out;
}

std::vector<nn::NamedParam> GenDTModel::discriminator_params() const {
  std::vector<nn::NamedParam> out = disc_net_.params();
  for (auto& p : disc_head_.params()) out.push_back(p);
  return out;
}

GenDTModel::Forward GenDTModel::forward(const context::Window& window, const Mat& prev_kpis,
                                        std::mt19937_64& rng, bool training,
                                        bool mc_dropout) const {
  Forward fwd;
  const int len = window.len;
  const int nch = cfg_.num_channels;
  const int n_cells = static_cast<int>(window.cell_attrs.size());

  // ---- G^n: shared node LSTM over each cell's attribute series ----------
  // Hidden states per step per cell; averaged into h_avg (graph pooling).
  // Cells are independent given the (read-only) shared weights, so their
  // rollouts fan out across the worker pool. Each cell runs on its own RNG
  // stream, seeded from the window stream in cell order — the math is
  // bitwise identical at every thread count.
  std::vector<std::vector<Tensor>> cell_hidden(static_cast<size_t>(std::max(n_cells, 0)));
  std::vector<uint64_t> cell_seed(static_cast<size_t>(std::max(n_cells, 0)));
  for (int ci = 0; ci < n_cells; ++ci) cell_seed[static_cast<size_t>(ci)] = rng();
  runtime::parallel_tasks(cfg_.parallelism, n_cells, [&](int ci) {
    std::mt19937_64 cell_rng(cell_seed[static_cast<size_t>(ci)]);
    std::normal_distribution<double> g01(0.0, 1.0);
    nn::LstmCell::State st = node_cell_.initial_state();
    auto& hs = cell_hidden[static_cast<size_t>(ci)];
    hs.reserve(static_cast<size_t>(len));
    for (int t = 0; t < len; ++t) {
      // Noise is sampled straight into the input row (no z0 temporary).
      Mat x(1, kCellAttrs + cfg_.noise_dim_node);
      for (int a = 0; a < kCellAttrs; ++a)
        x(0, a) = window.cell_attrs[static_cast<size_t>(ci)](t, a);
      for (int a = 0; a < cfg_.noise_dim_node; ++a)
        x(0, kCellAttrs + a) = cfg_.noise_scale_node * g01(cell_rng);
      st = node_cell_.step(Tensor::constant(std::move(x)), st, cfg_.stochastic, cell_rng);
      hs.push_back(st.h);
    }
  });

  fwd.h_avg.reserve(static_cast<size_t>(len));
  for (int t = 0; t < len; ++t) {
    if (n_cells == 0) {
      fwd.h_avg.push_back(Tensor::zeros(1, cfg_.hidden));
      continue;
    }
    Tensor sum = cell_hidden[0][static_cast<size_t>(t)];
    for (int ci = 1; ci < n_cells; ++ci) sum = sum + cell_hidden[static_cast<size_t>(ci)][static_cast<size_t>(t)];
    fwd.h_avg.push_back(sum * (1.0 / static_cast<double>(n_cells)));
  }

  // ---- G^a: aggregation LSTM over h_avg ----------------------------------
  std::vector<Tensor> agg_out = agg_net_.forward(fwd.h_avg, cfg_.stochastic, rng);

  // ---- G^r: autoregressive residual generator ----------------------------
  fwd.res_mu = Mat::zeros(len, nch);
  fwd.res_sigma = Mat::zeros(len, nch);
  fwd.outputs.reserve(static_cast<size_t>(len));

  // Rolling window of the last m KPI rows (constant inputs to ResGen).
  std::vector<Mat> recent;
  for (int i = 0; i < cfg_.resgen_lookback; ++i) {
    Mat row(1, nch);
    if (!prev_kpis.empty()) {
      const int src = prev_kpis.rows() - cfg_.resgen_lookback + i;
      if (src >= 0)
        for (int ch = 0; ch < nch; ++ch) row(0, ch) = prev_kpis(src, ch);
    }
    recent.push_back(std::move(row));
  }

  for (int t = 0; t < len; ++t) {
    Tensor out_t = agg_out[static_cast<size_t>(t)];
    if (cfg_.use_resgen) {
      Mat u(1, sim::kNumEnvAttributes + cfg_.noise_dim_res + cfg_.resgen_lookback * nch);
      int col = 0;
      for (int a = 0; a < sim::kNumEnvAttributes; ++a) u(0, col++) = window.env(t, a);
      const Mat z1 = gaussian_noise(1, cfg_.noise_dim_res, rng);
      for (int a = 0; a < cfg_.noise_dim_res; ++a) u(0, col++) = z1(0, a);
      for (const auto& r : recent)
        for (int ch = 0; ch < nch; ++ch) u(0, col++) = r(0, ch);

      const Tensor head = resgen_.forward(Tensor::constant(std::move(u)), rng,
                                          training || mc_dropout);
      const Tensor mu = nn::slice_cols(head, 0, nch);
      // Bound log_sigma smoothly to (-4, 4): keeps exp() finite whatever the
      // optimizer does to the head weights mid-training.
      const Tensor log_sigma = nn::tanh_t(nn::slice_cols(head, nch, 2 * nch) * 0.25) * 4.0;
      const Tensor sigma = nn::exp_t(log_sigma);
      // Reparameterized residual sample.
      const Tensor eps = Tensor::constant(gaussian_noise(1, nch, rng));
      fwd.agg_out_t.push_back(out_t);
      fwd.res_mu_t.push_back(mu);
      fwd.res_log_sigma_t.push_back(log_sigma);
      out_t = out_t + mu + sigma * eps;

      for (int ch = 0; ch < nch; ++ch) {
        fwd.res_mu(t, ch) = mu.value()(0, ch);
        fwd.res_sigma(t, ch) = sigma.value()(0, ch);
      }
    }
    fwd.outputs.push_back(out_t);

    // Advance the autoregressive tail: teacher forcing during training,
    // except for scheduled-sampling steps that rehearse generation-time
    // feedback (exposure-bias mitigation).
    Mat next_row(1, nch);
    bool use_real = training && !window.target.empty();
    if (use_real && cfg_.feedback_prob > 0.0) {
      std::bernoulli_distribution feed_back(cfg_.feedback_prob);
      if (feed_back(rng)) use_real = false;
    }
    if (use_real) {
      for (int ch = 0; ch < nch; ++ch) next_row(0, ch) = window.target(t, ch);
    } else {
      for (int ch = 0; ch < nch; ++ch) next_row(0, ch) = out_t.value()(0, ch);
    }
    recent.erase(recent.begin());
    recent.push_back(std::move(next_row));
  }
  return fwd;
}

Tensor GenDTModel::discriminate(const std::vector<Tensor>& x_rows,
                                const std::vector<Tensor>& h_avg,
                                std::mt19937_64& rng) const {
  assert(x_rows.size() == h_avg.size());
  std::vector<Tensor> inputs;
  inputs.reserve(x_rows.size());
  for (size_t t = 0; t < x_rows.size(); ++t) {
    // Context enters as a constant: the discriminator judges x given c and
    // must not backprop into the generator's context representation.
    inputs.push_back(nn::concat_cols(x_rows[t], nn::detach(h_avg[t])));
  }
  const auto hs = disc_net_.hidden_sequence(inputs, nn::StochasticConfig{}, rng);
  return disc_head_.forward(hs.back());
}

std::vector<std::vector<WindowSample>> GenDTModel::sample_trajectories(
    const std::vector<std::vector<context::Window>>& trajectories, uint64_t seed,
    bool mc_dropout, const runtime::CancelToken* cancel) const {
  std::vector<std::vector<WindowSample>> out(trajectories.size());
  runtime::parallel_tasks(
      cfg_.parallelism, static_cast<int>(trajectories.size()),
      [&](int ti) {
        out[static_cast<size_t>(ti)] = sample_windows(
            trajectories[static_cast<size_t>(ti)],
            runtime::derive_stream_seed(seed, static_cast<uint64_t>(ti)), mc_dropout, cancel);
      },
      cancel);
  // Skipped tasks produce no exception; surface the cancellation uniformly.
  runtime::check_cancel(cancel);
  return out;
}

std::vector<WindowSample> GenDTModel::sample_windows(const std::vector<context::Window>& windows,
                                                     uint64_t seed, bool mc_dropout,
                                                     const runtime::CancelToken* cancel) const {
  std::mt19937_64 rng(seed);
  std::vector<WindowSample> out;
  out.reserve(windows.size());
  Mat tail;  // last m generated rows, carried across windows
  for (const auto& w : windows) {
    runtime::check_cancel(cancel);
    Forward fwd = forward(w, tail, rng, /*training=*/false, mc_dropout);
    WindowSample s;
    s.output = Mat(w.len, cfg_.num_channels);
    s.mean = Mat(w.len, cfg_.num_channels);
    for (int t = 0; t < w.len; ++t) {
      for (int ch = 0; ch < cfg_.num_channels; ++ch) {
        s.output(t, ch) = fwd.outputs[static_cast<size_t>(t)].value()(0, ch);
        s.mean(t, ch) =
            fwd.agg_out_t.empty()
                ? s.output(t, ch)
                : fwd.agg_out_t[static_cast<size_t>(t)].value()(0, ch) + fwd.res_mu(t, ch);
      }
    }
    s.res_mu = std::move(fwd.res_mu);
    s.res_sigma = std::move(fwd.res_sigma);

    // Update the autoregressive tail from this window's end.
    const int m = cfg_.resgen_lookback;
    tail = Mat(m, cfg_.num_channels);
    for (int i = 0; i < m; ++i) {
      const int src = std::max(0, w.len - m + i);
      for (int ch = 0; ch < cfg_.num_channels; ++ch) tail(i, ch) = s.output(src, ch);
    }
    out.push_back(std::move(s));
  }
  return out;
}

bool GenDTModel::save(const std::string& path) const {
  auto params = generator_params();
  for (auto& p : discriminator_params()) params.push_back(p);
  if (!cfg_.use_resgen)  // keep checkpoints complete regardless of ablation
    for (auto& p : resgen_.params()) params.push_back(p);
  return nn::save_params(params, path);
}

nn::LoadResult GenDTModel::load(const std::string& path, nn::LoadMode mode) {
  auto params = generator_params();
  for (auto& p : discriminator_params()) params.push_back(p);
  if (!cfg_.use_resgen)
    for (auto& p : resgen_.params()) params.push_back(p);
  return nn::load_params(params, path, mode);
}

namespace {

// One training worker: a full model replica whose parameter nodes act as the
// private gradient buffer for the windows this worker processes. Replicas
// share nothing with the master model, so per-window backward passes never
// race on the master's grad buffers.
struct TrainWorker {
  explicit TrainWorker(const GenDTConfig& cfg)
      : model(cfg),
        gen_params(model.generator_params()),
        disc_params(model.discriminator_params()) {}

  GenDTModel model;
  std::vector<nn::NamedParam> gen_params;
  std::vector<nn::NamedParam> disc_params;

  // Overwrite this replica's parameter values with the master's (same param
  // order by construction — both sides enumerate the same module tree).
  void sync_from(const std::vector<nn::NamedParam>& master_gen,
                 const std::vector<nn::NamedParam>& master_disc) {
    assert(gen_params.size() == master_gen.size());
    assert(disc_params.size() == master_disc.size());
    for (size_t i = 0; i < master_gen.size(); ++i)
      gen_params[i].tensor.mutable_value() = master_gen[i].tensor.value();
    for (size_t i = 0; i < master_disc.size(); ++i)
      disc_params[i].tensor.mutable_value() = master_disc[i].tensor.value();
  }
};

void snapshot_grads(const std::vector<nn::NamedParam>& params, std::vector<Mat>& out) {
  out.resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) out[i] = params[i].tensor.grad();
}

// Ordered reduction: master grads = sum of per-window snapshots in window
// index order. The order is what pins the FP rounding sequence — summing in
// completion order would make results depend on thread scheduling.
void reduce_grads(const std::vector<nn::NamedParam>& params,
                  const std::vector<std::vector<Mat>>& snapshots, int count) {
  for (auto& p : params) p.tensor.zero_grad();
  for (int i = 0; i < count; ++i) {
    const auto& snap = snapshots[static_cast<size_t>(i)];
    for (size_t j = 0; j < params.size(); ++j)
      if (!snap[j].empty()) params[j].tensor.accumulate_grad(snap[j]);
  }
}

}  // namespace

TrainStats train_gendt(GenDTModel& model, const std::vector<context::Window>& windows,
                       const TrainConfig& cfg) {
  TrainStats stats;
  if (windows.empty()) return stats;

  nn::Adam gen_opt({.lr = cfg.lr_gen, .clip_norm = 5.0});
  nn::Adam disc_opt({.lr = cfg.lr_disc, .clip_norm = 5.0});
  const auto gen_params = model.generator_params();
  const auto disc_params = model.discriminator_params();
  if (!cfg.resume_opt_state.empty()) {
    // Transactional restore of both optimizers' Adam slots; a malformed
    // record set refuses to train rather than silently restarting Adam
    // from step 0 (which would break resume determinism).
    if (!gen_opt.import_state(gen_params, "adam.gen", cfg.resume_opt_state) ||
        !disc_opt.import_state(disc_params, "adam.disc", cfg.resume_opt_state)) {
      stats.error = "malformed resume optimizer state (adam.gen/adam.disc records)";
      return stats;
    }
  }
  const bool use_gan = model.config().use_gan;
  const double lambda = model.config().lambda_gan;
  const int nch = model.config().num_channels;

  // Every thread count — including 1 — runs the same replica / snapshot /
  // ordered-reduction path. A serial "fast path" accumulating directly into
  // the master grads would produce a *different* FP rounding sequence
  // (addition is not associative), breaking bitwise equality across thread
  // counts, which runtime_determinism_test enforces.
  const int batch_cap = std::max(1, cfg.windows_per_step);
  const int pool_width = std::min(cfg.parallelism.resolved(), batch_cap);
  const runtime::Parallelism train_par{.threads = pool_width};
  std::vector<std::unique_ptr<TrainWorker>> workers;
  workers.reserve(static_cast<size_t>(pool_width));
  for (int i = 0; i < pool_width; ++i)
    workers.push_back(std::make_unique<TrainWorker>(model.config()));

  std::vector<size_t> order(windows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Per-window slots for the current accumulation step. Workers write only
  // their own windows' slots; the main thread reads them after the join.
  std::vector<uint64_t> win_seed(static_cast<size_t>(batch_cap));
  std::vector<std::vector<Mat>> win_grads(static_cast<size_t>(batch_cap));
  std::vector<double> win_mse(static_cast<size_t>(batch_cap), 0.0);
  std::vector<double> win_gan(static_cast<size_t>(batch_cap), 0.0);

  for (int epoch = cfg.start_epoch; epoch < cfg.epochs; ++epoch) {
    // Every epoch runs on its own derived RNG stream: the shuffle order and
    // all per-window seeds below are a pure function of (seed, epoch), so a
    // run resumed at an epoch boundary replays the remaining epochs
    // bit-for-bit without persisting any generator internals.
    std::mt19937_64 rng(runtime::derive_stream_seed(cfg.seed, static_cast<uint64_t>(epoch)));
    // Re-derive the permutation from identity so it depends only on this
    // epoch's stream, not on how many epochs ran before in this process.
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    double mse_sum = 0.0, gan_sum = 0.0;
    int steps = 0;

    for (size_t start = 0; start < order.size(); start += static_cast<size_t>(batch_cap)) {
      const size_t end = std::min(order.size(), start + static_cast<size_t>(batch_cap));
      const int batch = static_cast<int>(end - start);
      const double inv_batch = 1.0 / static_cast<double>(batch);

      // ---- Generator update -------------------------------------------
      // Per-window seeds come off the master stream on this thread, in
      // window order, before any parallel work starts: the stream consumed
      // by each window is a pure function of (cfg.seed, step, index).
      for (int i = 0; i < batch; ++i) win_seed[static_cast<size_t>(i)] = rng();
      for (auto& wk : workers) wk->sync_from(gen_params, disc_params);
      {
        // Replicas hold identical values, so which replica serves which
        // chunk cannot affect the math — checkout order is free to race.
        std::atomic<int> next_worker{0};
        runtime::parallel_for(train_par, batch, [&](long lo, long hi) {
          TrainWorker& wk = *workers[static_cast<size_t>(next_worker.fetch_add(1))];
          for (long i = lo; i < hi; ++i) {
            const context::Window& w = windows[order[start + static_cast<size_t>(i)]];
            std::mt19937_64 wrng(win_seed[static_cast<size_t>(i)]);
            for (auto& p : wk.gen_params) p.tensor.zero_grad();
            auto fwd = wk.model.forward(w, Mat{}, wrng, /*training=*/true);
            std::vector<Tensor> rows = fwd.outputs;
            Tensor pred = nn::concat_rows(rows);
            Tensor target = Tensor::constant(w.target);
            Tensor loss = nn::mse_loss(pred, target);
            win_mse[static_cast<size_t>(i)] = loss.item();
            win_gan[static_cast<size_t>(i)] = 0.0;
            if (!fwd.res_mu_t.empty() && wk.model.config().nll_weight > 0.0) {
              // Calibrate ResGen's Gaussian to the residual the aggregation
              // network leaves behind: residual target = x - G^a(c), with
              // the aggregation output detached so the NLL only shapes
              // ResGen.
              std::vector<Tensor> resid;
              resid.reserve(rows.size());
              for (int t = 0; t < w.len; ++t) {
                Mat row(1, nch);
                for (int ch = 0; ch < nch; ++ch) row(0, ch) = w.target(t, ch);
                resid.push_back(Tensor::constant(std::move(row)) -
                                nn::detach(fwd.agg_out_t[static_cast<size_t>(t)]));
              }
              Tensor nll = nn::gaussian_nll(nn::concat_rows(fwd.res_mu_t),
                                            nn::concat_rows(fwd.res_log_sigma_t),
                                            nn::concat_rows(resid));
              loss = loss + nll * wk.model.config().nll_weight;
            }
            if (use_gan) {
              Tensor fake_logit = wk.model.discriminate(rows, fwd.h_avg, wrng);
              // Non-saturating generator loss: push fake towards "real".
              Tensor ones = Tensor::constant(Mat::ones(1, 1));
              Tensor g_gan = nn::bce_with_logits(fake_logit, ones);
              win_gan[static_cast<size_t>(i)] = g_gan.item();
              loss = loss + g_gan * lambda;
            }
            loss = loss * inv_batch;
            loss.backward();
            snapshot_grads(wk.gen_params, win_grads[static_cast<size_t>(i)]);
          }
        });
      }
      reduce_grads(gen_params, win_grads, batch);
      gen_opt.step(gen_params);

      double batch_mse = 0.0, batch_gan = 0.0;
      for (int i = 0; i < batch; ++i) {
        batch_mse += win_mse[static_cast<size_t>(i)];
        batch_gan += win_gan[static_cast<size_t>(i)];
      }

      // ---- Discriminator update ----------------------------------------
      if (use_gan) {
        for (int i = 0; i < batch; ++i) win_seed[static_cast<size_t>(i)] = rng();
        // Re-sync: the generator step above changed the master's gen params.
        for (auto& wk : workers) wk->sync_from(gen_params, disc_params);
        std::atomic<int> next_worker{0};
        runtime::parallel_for(train_par, batch, [&](long lo, long hi) {
          TrainWorker& wk = *workers[static_cast<size_t>(next_worker.fetch_add(1))];
          for (long i = lo; i < hi; ++i) {
            const context::Window& w = windows[order[start + static_cast<size_t>(i)]];
            std::mt19937_64 wrng(win_seed[static_cast<size_t>(i)]);
            for (auto& p : wk.disc_params) p.tensor.zero_grad();
            auto fwd = wk.model.forward(w, Mat{}, wrng, /*training=*/true);
            // Fake sequence, detached so only D updates here.
            std::vector<Tensor> fake_rows;
            fake_rows.reserve(fwd.outputs.size());
            for (const auto& o : fwd.outputs) fake_rows.push_back(nn::detach(o));
            std::vector<Tensor> real_rows;
            real_rows.reserve(static_cast<size_t>(w.len));
            for (int t = 0; t < w.len; ++t) {
              Mat row(1, nch);
              for (int ch = 0; ch < nch; ++ch) row(0, ch) = w.target(t, ch);
              real_rows.push_back(Tensor::constant(std::move(row)));
            }
            Tensor real_logit = wk.model.discriminate(real_rows, fwd.h_avg, wrng);
            Tensor fake_logit = wk.model.discriminate(fake_rows, fwd.h_avg, wrng);
            Tensor ones = Tensor::constant(Mat::ones(1, 1));
            Tensor zeros = Tensor::constant(Mat::zeros(1, 1));
            Tensor d_loss = (nn::bce_with_logits(real_logit, ones) +
                             nn::bce_with_logits(fake_logit, zeros)) *
                            (0.5 * inv_batch);
            d_loss.backward();
            snapshot_grads(wk.disc_params, win_grads[static_cast<size_t>(i)]);
          }
        });
        reduce_grads(disc_params, win_grads, batch);
        disc_opt.step(disc_params);
      }

      mse_sum += batch_mse * inv_batch;
      gan_sum += batch_gan * inv_batch;
      ++steps;
    }
    stats.mse_per_epoch.push_back(mse_sum / std::max(1, steps));
    stats.gan_per_epoch.push_back(gan_sum / std::max(1, steps));
    if (cfg.verbose) {
      std::fprintf(stderr, "[gendt] epoch %d mse=%.4f gan=%.4f\n", epoch,
                   stats.mse_per_epoch.back(), stats.gan_per_epoch.back());
    }
    if (cfg.on_epoch_end) {
      TrainCheckpoint tc;
      tc.epochs_done = epoch + 1;
      gen_opt.export_state(gen_params, "adam.gen", tc.opt_state);
      disc_opt.export_state(disc_params, "adam.disc", tc.opt_state);
      cfg.on_epoch_end(tc);
    }
  }
  return stats;
}

namespace {

// Shared MC-dropout reduction behind model_uncertainty and
// model_uncertainty_fast. Both variants MUST reduce through this one
// function, in this TU (default FP flags): the fast variant's bitwise-parity
// claim covers the reduction as well as the passes.
double uncertainty_reduce(const std::vector<std::vector<WindowSample>>& passes,
                          const std::vector<context::Window>& windows, int nch, int mc_samples) {
  double acc = 0.0;
  long count = 0;
  for (size_t wi = 0; wi < windows.size(); ++wi) {
    const int len = windows[wi].len;
    for (int t = 0; t < len; ++t) {
      for (int ch = 0; ch < nch; ++ch) {
        double mu_s = 0.0, mu_s2 = 0.0, sg_s = 0.0, sg_s2 = 0.0;
        for (int s = 0; s < mc_samples; ++s) {
          const double mu = passes[static_cast<size_t>(s)][wi].res_mu(t, ch);
          const double sg = passes[static_cast<size_t>(s)][wi].res_sigma(t, ch);
          mu_s += mu;
          mu_s2 += mu * mu;
          sg_s += sg;
          sg_s2 += sg * sg;
        }
        const double n = static_cast<double>(mc_samples);
        const double mu_var = std::max(0.0, mu_s2 / n - (mu_s / n) * (mu_s / n));
        const double sg_var = std::max(0.0, sg_s2 / n - (sg_s / n) * (sg_s / n));
        acc += std::sqrt(mu_var) + std::sqrt(sg_var);
        ++count;
      }
    }
  }
  return count > 0 ? acc / static_cast<double>(count) : 0.0;
}

}  // namespace

double model_uncertainty(const GenDTModel& model, const std::vector<context::Window>& windows,
                         int mc_samples, uint64_t seed) {
  if (windows.empty() || mc_samples < 2 || !model.config().use_resgen) return 0.0;
  const int nch = model.config().num_channels;

  // Collect ResGen parameters across MC-dropout passes. Passes are mutually
  // independent (each gets its own seed and writes its own slot), so they
  // fan out across the worker pool; the reduction below reads the slots in
  // index order either way.
  std::vector<std::vector<WindowSample>> passes(static_cast<size_t>(mc_samples));
  runtime::parallel_tasks(model.config().parallelism, mc_samples, [&](int s) {
    passes[static_cast<size_t>(s)] = model.sample_windows(
        windows, seed + static_cast<uint64_t>(s) * 7919, /*mc_dropout=*/true);
  });

  return uncertainty_reduce(passes, windows, nch, mc_samples);
}

double model_uncertainty_fast(const GenDTModel& model, const std::vector<context::Window>& windows,
                              int mc_samples, uint64_t seed) {
  if (windows.empty() || mc_samples < 2 || !model.config().use_resgen) return 0.0;
  const int nch = model.config().num_channels;

  // Every MC-dropout pass is one lane of a single batched rollout: lane s
  // runs on the same derived seed as the reference pass s, and lane-bitwise
  // + graph parity (batched_infer_session.h) make each lane's samples the
  // exact bits of that sample_windows call — so this returns
  // model_uncertainty()'s exact value with the hot loop on [mc_samples x d]
  // GEMMs instead of mc_samples independent rollouts.
  std::vector<BatchLane> lanes(static_cast<size_t>(mc_samples));
  for (int s = 0; s < mc_samples; ++s) {
    lanes[static_cast<size_t>(s)].windows = windows;
    lanes[static_cast<size_t>(s)].seed = seed + static_cast<uint64_t>(s) * 7919;
  }
  BatchedInferenceSession session(model);
  std::vector<BatchLaneResult> lane_results = session.run(lanes, /*mc_dropout=*/true);

  std::vector<std::vector<WindowSample>> passes(static_cast<size_t>(mc_samples));
  for (int s = 0; s < mc_samples; ++s)
    passes[static_cast<size_t>(s)] = std::move(lane_results[static_cast<size_t>(s)].samples);
  return uncertainty_reduce(passes, windows, nch, mc_samples);
}

GenDTGenerator::GenDTGenerator(GenDTConfig model_cfg, TrainConfig train_cfg,
                               context::KpiNorm norm)
    : model_(model_cfg), train_cfg_(train_cfg), norm_(std::move(norm)) {}

GenDTGenerator::~GenDTGenerator() = default;

void GenDTGenerator::prewarm(size_t count) {
  runtime::MutexLock lock(session_mu_);
  while (sessions_.size() < count)
    sessions_.push_back(std::make_unique<BatchedInferenceSession>(model_));
}

nn::LoadResult GenDTGenerator::load_packed(nn::PackedModel pack) {
  std::vector<nn::NamedParam> params = model_.generator_params();
  for (auto& p : model_.discriminator_params()) params.push_back(p);
  nn::LoadResult res = nn::apply_packed(params, pack, nn::LoadMode::kStrict);
  if (!res.ok()) return res;  // transactional: nothing was modified
  pack_ = std::make_unique<nn::PackedModel>(std::move(pack));
  // Drop warm sessions: no session may straddle a weight swap.
  runtime::MutexLock lock(session_mu_);
  sessions_.clear();
  return res;
}

size_t GenDTGenerator::warm_peak_bytes() const {
  runtime::MutexLock lock(session_mu_);
  size_t bytes = 0;
  for (const auto& s : sessions_) bytes += s->peak_bytes();
  return bytes;
}

std::vector<BatchLaneResult> GenDTGenerator::run_pooled(const std::vector<BatchLane>& lanes) const {
  std::unique_ptr<BatchedInferenceSession> session;
  {
    runtime::MutexLock lock(session_mu_);
    if (!sessions_.empty()) {
      session = std::move(sessions_.back());
      sessions_.pop_back();
    }
  }
  if (!session) session = std::make_unique<BatchedInferenceSession>(model_);
  auto pool_return = [this, &session]() {
    runtime::MutexLock lock(session_mu_);
    sessions_.push_back(std::move(session));
  };
  try {
    std::vector<BatchLaneResult> results = session->run(lanes, /*mc_dropout=*/false);
    pool_return();
    return results;
  } catch (...) {
    pool_return();
    throw;
  }
}

GeneratedSeries GenDTGenerator::generate(const std::vector<context::Window>& windows,
                                         uint64_t seed) const {
  return generate(windows, seed, nullptr);
}

GeneratedSeries denormalize_samples(const std::vector<WindowSample>& samples,
                                    const context::KpiNorm& norm,
                                    const std::vector<sim::Kpi>& kpis, int nch) {
  GeneratedSeries out;
  out.channels.assign(static_cast<size_t>(nch), {});
  for (const auto& s : samples) {
    for (int t = 0; t < s.output.rows(); ++t) {
      for (int ch = 0; ch < nch; ++ch) {
        double v = norm.denormalize(ch, s.output(t, ch));
        if (static_cast<size_t>(ch) < kpis.size() && kpis[static_cast<size_t>(ch)] == sim::Kpi::kCqi) {
          v = std::clamp(std::round(v), static_cast<double>(radio::kCqiMin),
                         static_cast<double>(radio::kCqiMax));
        }
        out.channels[static_cast<size_t>(ch)].push_back(v);
      }
    }
  }
  return out;
}

GeneratedSeries GenDTGenerator::generate(const std::vector<context::Window>& windows,
                                         uint64_t seed,
                                         const runtime::CancelToken* cancel) const {
  BatchLane lane;
  lane.windows = windows;
  lane.seed = seed;
  lane.cancel = cancel;
  std::vector<BatchLaneResult> results = run_pooled({lane});
  if (results[0].cancelled) runtime::check_cancel(cancel);
  return denormalize_samples(results[0].samples, norm_, kpis_, model_.config().num_channels);
}

std::vector<GenerateBatchResult> GenDTGenerator::generate_batch(
    const std::vector<GenerateBatchItem>& items) const {
  std::vector<BatchLane> lanes(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    lanes[i].windows = *items[i].windows;
    lanes[i].seed = items[i].seed;
    lanes[i].cancel = items[i].cancel;
  }

  std::vector<BatchLaneResult> lane_results;
  try {
    lane_results = run_pooled(lanes);
  } catch (...) {
    // A whole-batch failure (e.g. a malformed window tripping a shape check)
    // must not fail innocent items: re-run serially so each item carries its
    // own ok/error — and the survivors still get their exact generate() bits.
    return TimeSeriesGenerator::generate_batch(items);
  }

  const int nch = model_.config().num_channels;
  std::vector<GenerateBatchResult> results(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (lane_results[i].cancelled) {
      results[i].error = "cancelled";
      continue;
    }
    results[i].series = denormalize_samples(lane_results[i].samples, norm_, kpis_, nch);
    results[i].ok = true;
  }
  return results;
}

}  // namespace gendt::core
