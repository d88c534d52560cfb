// Bitwise parity contract of the tape-free rollout engine: for every
// (seed, mc_dropout, thread count), one lane of BatchedInferenceSession::run
// returns the exact bits of GenDTModel::sample_windows. This is what lets
// serving run on the engine with zero behavioral risk — any FP reordering,
// RNG draw-order slip or FMA contraction in the kernels fails these tests.
#include "gendt/core/batched_infer_session.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "gendt/nn/simd.h"
#include "gendt/sim/dataset.h"

namespace gendt::core {
namespace {

// Graph/fast bitwise parity is a property of the REFERENCE (scalar) kernel
// route: the avx2 route's fused LSTM-gate and affine2 kernels use FMA and
// vector transcendentals on the fast path only, so it matches the graph
// within tolerance, not bits (simd_parity_test covers that contract). Pin
// the route for this whole binary, overriding any ambient GENDT_SIMD.
[[maybe_unused]] const bool g_scalar_route = [] {
  return nn::simd::set_route(nn::simd::Route::kScalar);
}();

// Bit-exact Mat comparison (registers -0.0 vs 0.0 and distinct NaNs too).
void expect_bits_equal(const nn::Mat& a, const nn::Mat& b, const char* what, int wi) {
  ASSERT_EQ(a.rows(), b.rows()) << what << " window " << wi;
  ASSERT_EQ(a.cols(), b.cols()) << what << " window " << wi;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << what << " window " << wi << " flat index " << i << ": " << a[i] << " vs " << b[i];
  }
}

// One lane through the engine: the production single-request path.
BatchLaneResult run_one(BatchedInferenceSession& session,
                        const std::vector<context::Window>& windows, uint64_t seed,
                        bool mc_dropout = false, const runtime::CancelToken* cancel = nullptr) {
  BatchLane lane;
  lane.windows = windows;
  lane.seed = seed;
  lane.cancel = cancel;
  return std::move(session.run({lane}, mc_dropout)[0]);
}

std::vector<WindowSample> run_one_samples(BatchedInferenceSession& session,
                                          const std::vector<context::Window>& windows,
                                          uint64_t seed, bool mc_dropout = false) {
  return run_one(session, windows, seed, mc_dropout).samples;
}

void expect_samples_equal(const std::vector<WindowSample>& ref,
                          const std::vector<WindowSample>& fast) {
  ASSERT_EQ(ref.size(), fast.size());
  for (size_t wi = 0; wi < ref.size(); ++wi) {
    const int i = static_cast<int>(wi);
    expect_bits_equal(ref[wi].output, fast[wi].output, "output", i);
    expect_bits_equal(ref[wi].mean, fast[wi].mean, "mean", i);
    expect_bits_equal(ref[wi].res_mu, fast[wi].res_mu, "res_mu", i);
    expect_bits_equal(ref[wi].res_sigma, fast[wi].res_sigma, "res_sigma", i);
  }
}

class GenParityF : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::DatasetScale scale;
    scale.train_duration_s = 260.0;
    scale.test_duration_s = 130.0;
    scale.records_per_scenario = 1;
    ds_ = new sim::Dataset(sim::make_dataset_a(scale));
    norm_ = new context::KpiNorm(context::fit_kpi_norm(ds_->train, ds_->kpis));
    context::ContextConfig cfg;
    cfg.window_len = 25;
    cfg.train_step = 10;
    cfg.max_cells = 5;
    builder_ = new context::ContextBuilder(ds_->world, cfg, *norm_, ds_->kpis);
    gen_windows_ = new std::vector<context::Window>(builder_->generation_windows(ds_->test[0]));
  }
  static void TearDownTestSuite() {
    delete gen_windows_;
    delete builder_;
    delete norm_;
    delete ds_;
    gen_windows_ = nullptr;
    builder_ = nullptr;
    norm_ = nullptr;
    ds_ = nullptr;
  }

  // Untrained (random-init) weights: parity is about the op sequence, not
  // the values, so skipping training keeps the sweep fast.
  static GenDTConfig small_config(int threads) {
    GenDTConfig c;
    c.num_channels = 4;
    c.hidden = 12;
    c.resgen_hidden = 16;
    c.init_seed = 3;
    c.parallelism.threads = threads;
    return c;
  }

  static sim::Dataset* ds_;
  static context::KpiNorm* norm_;
  static context::ContextBuilder* builder_;
  static std::vector<context::Window>* gen_windows_;
};
sim::Dataset* GenParityF::ds_ = nullptr;
context::KpiNorm* GenParityF::norm_ = nullptr;
context::ContextBuilder* GenParityF::builder_ = nullptr;
std::vector<context::Window>* GenParityF::gen_windows_ = nullptr;

TEST_F(GenParityF, FastPathMatchesGraphBitwise) {
  for (int threads : {1, 4}) {
    GenDTModel model(small_config(threads));
    BatchedInferenceSession session(model);
    for (uint64_t seed : {7u, 41u, 1234u}) {
      for (bool mc : {false, true}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " seed=" + std::to_string(seed) +
                     " mc=" + std::to_string(mc));
        const auto ref = model.sample_windows(*gen_windows_, seed, mc);
        const auto fast = run_one_samples(session, *gen_windows_, seed, mc);
        expect_samples_equal(ref, fast);
      }
    }
  }
}

TEST_F(GenParityF, ThreadCountDoesNotChangeFastPathBits) {
  GenDTModel serial(small_config(1));
  GenDTModel parallel(small_config(4));
  BatchedInferenceSession s1(serial), s4(parallel);
  const auto a = run_one_samples(s1, *gen_windows_, 99);
  const auto b = run_one_samples(s4, *gen_windows_, 99);
  expect_samples_equal(a, b);
}

TEST_F(GenParityF, NoResgenAblationParity) {
  GenDTConfig cfg = small_config(2);
  cfg.use_resgen = false;
  GenDTModel model(cfg);
  BatchedInferenceSession session(model);
  const auto ref = model.sample_windows(*gen_windows_, 11);
  const auto fast = run_one_samples(session, *gen_windows_, 11);
  expect_samples_equal(ref, fast);
}

TEST_F(GenParityF, NoStochasticAblationParity) {
  GenDTConfig cfg = small_config(2);
  cfg.stochastic.enabled = false;
  GenDTModel model(cfg);
  BatchedInferenceSession session(model);
  const auto ref = model.sample_windows(*gen_windows_, 12, /*mc_dropout=*/true);
  const auto fast = run_one_samples(session, *gen_windows_, 12, /*mc_dropout=*/true);
  expect_samples_equal(ref, fast);
}

// A warm session allocates no new workspace buffers: the second run over the
// same windows — and further MC-dropout runs, which reuse the same shapes —
// leave the allocation counter untouched.
TEST_F(GenParityF, SessionAllocatesNothingAfterWarmup) {
  GenDTModel model(small_config(2));
  BatchedInferenceSession session(model);
  (void)run_one(session, *gen_windows_, 5);
  const size_t warm = session.allocations();
  EXPECT_GT(warm, 0u);
  (void)run_one(session, *gen_windows_, 6);
  (void)run_one(session, *gen_windows_, 7, /*mc_dropout=*/true);
  EXPECT_EQ(session.allocations(), warm);
}

// Session reuse must not leak state between runs: a reused session gives the
// same bits as a fresh one.
TEST_F(GenParityF, ReusedSessionMatchesFreshSession) {
  GenDTModel model(small_config(2));
  BatchedInferenceSession reused(model);
  (void)run_one(reused, *gen_windows_, 1, /*mc_dropout=*/true);
  const auto again = run_one_samples(reused, *gen_windows_, 2);
  BatchedInferenceSession fresh(model);
  const auto first = run_one_samples(fresh, *gen_windows_, 2);
  expect_samples_equal(first, again);
}

// The generator adapter (pooled engine) emits exactly the denormalized
// series of the graph oracle plus the shared denormalization.
TEST_F(GenParityF, GeneratorFastAndReferencePathsMatch) {
  TrainConfig tc;  // untrained: fit() never called
  GenDTGenerator gen(small_config(2), tc, *norm_);
  gen.set_kpis(ds_->kpis);
  const GeneratedSeries fast = gen.generate(*gen_windows_, 17);
  const GeneratedSeries ref =
      denormalize_samples(gen.model().sample_windows(*gen_windows_, 17), *norm_, ds_->kpis,
                          gen.model().config().num_channels);
  ASSERT_EQ(fast.channels.size(), ref.channels.size());
  for (size_t ch = 0; ch < ref.channels.size(); ++ch) {
    ASSERT_EQ(fast.channels[ch].size(), ref.channels[ch].size());
    for (size_t t = 0; t < ref.channels[ch].size(); ++t) {
      ASSERT_EQ(std::bit_cast<uint64_t>(fast.channels[ch][t]),
                std::bit_cast<uint64_t>(ref.channels[ch][t]))
          << "channel " << ch << " t " << t;
    }
  }
}

// Cancellation: an already-tripped token retires the lane before any
// window (and the generator rethrows it as CancelledError, as
// sample_windows throws), while a clean token changes nothing.
TEST_F(GenParityF, FastPathHonorsCancellation) {
  GenDTModel model(small_config(1));
  BatchedInferenceSession session(model);
  runtime::CancelToken token;
  token.cancel();
  const BatchLaneResult tripped = run_one(session, *gen_windows_, 3, false, &token);
  EXPECT_TRUE(tripped.cancelled);
  EXPECT_TRUE(tripped.samples.empty());

  GenDTGenerator gen(small_config(1), TrainConfig{}, *norm_);
  EXPECT_THROW((void)gen.generate(*gen_windows_, 3, &token), runtime::CancelledError);

  runtime::CancelToken clean;
  const BatchLaneResult with_token = run_one(session, *gen_windows_, 3, false, &clean);
  EXPECT_FALSE(with_token.cancelled);
  const auto without = run_one_samples(session, *gen_windows_, 3);
  expect_samples_equal(without, with_token.samples);
}

}  // namespace
}  // namespace gendt::core
