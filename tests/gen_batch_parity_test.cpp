// Bitwise parity contract of the lane-batched rollout: for every batch
// composition (lane count, ragged window chains, thread count, MC dropout,
// SIMD route), lane l of BatchedInferenceSession::run returns the exact bits
// of the same lane run alone (B=1) with the same windows and seed.
// This is what makes lane batching a pure throughput move: the serve layer,
// covermap, and the fast uncertainty scorer can pack work into GEMM batches
// with zero behavioral risk.
#include "gendt/core/batched_infer_session.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "gendt/nn/simd.h"
#include "gendt/sim/dataset.h"

namespace gendt::core {
namespace {

using nn::simd::Route;
using nn::simd::ScopedRoute;

bool route_here(Route r) { return nn::simd::route_supported(r); }

void expect_bits_equal(const nn::Mat& a, const nn::Mat& b, const char* what, int wi) {
  ASSERT_EQ(a.rows(), b.rows()) << what << " window " << wi;
  ASSERT_EQ(a.cols(), b.cols()) << what << " window " << wi;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << what << " window " << wi << " flat index " << i << ": " << a[i] << " vs " << b[i];
  }
}

void expect_samples_equal(const std::vector<WindowSample>& ref,
                          const std::vector<WindowSample>& got) {
  ASSERT_EQ(ref.size(), got.size());
  for (size_t wi = 0; wi < ref.size(); ++wi) {
    const int i = static_cast<int>(wi);
    expect_bits_equal(ref[wi].output, got[wi].output, "output", i);
    expect_bits_equal(ref[wi].mean, got[wi].mean, "mean", i);
    expect_bits_equal(ref[wi].res_mu, got[wi].res_mu, "res_mu", i);
    expect_bits_equal(ref[wi].res_sigma, got[wi].res_sigma, "res_sigma", i);
  }
}

class GenBatchParityF : public ::testing::Test {
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
    windows_ = new std::vector<context::Window>(builder_->generation_windows(ds_->test[0]));
    ASSERT_GE(windows_->size(), 2u) << "fixture needs at least two windows for ragged lanes";
    // Ragged variants: lanes retire at different window rounds, exercising
    // batch compaction mid-run.
    short_ = new std::vector<context::Window>(windows_->begin(), windows_->begin() + 1);
    mid_ = new std::vector<context::Window>(windows_->begin(),
                                            windows_->begin() +
                                                static_cast<long>((windows_->size() + 1) / 2));
  }
  static void TearDownTestSuite() {
    delete mid_;
    delete short_;
    delete windows_;
    delete builder_;
    delete norm_;
    delete ds_;
    mid_ = nullptr;
    short_ = nullptr;
    windows_ = nullptr;
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

  // A ragged lane set of size B cycling through the three window chains,
  // each lane on its own derived seed.
  static std::vector<BatchLane> make_lanes(int b, uint64_t seed0) {
    const std::vector<context::Window>* chains[3] = {windows_, short_, mid_};
    std::vector<BatchLane> lanes(static_cast<size_t>(b));
    for (int l = 0; l < b; ++l) {
      lanes[static_cast<size_t>(l)].windows = *chains[l % 3];
      lanes[static_cast<size_t>(l)].seed = seed0 + static_cast<uint64_t>(l) * 13;
    }
    return lanes;
  }

  static sim::Dataset* ds_;
  static context::KpiNorm* norm_;
  static context::ContextBuilder* builder_;
  static std::vector<context::Window>* windows_;
  static std::vector<context::Window>* short_;
  static std::vector<context::Window>* mid_;
};
sim::Dataset* GenBatchParityF::ds_ = nullptr;
context::KpiNorm* GenBatchParityF::norm_ = nullptr;
context::ContextBuilder* GenBatchParityF::builder_ = nullptr;
std::vector<context::Window>* GenBatchParityF::windows_ = nullptr;
std::vector<context::Window>* GenBatchParityF::short_ = nullptr;
std::vector<context::Window>* GenBatchParityF::mid_ = nullptr;

// The acceptance sweep: lanes {2,8} x threads {1,4} x mc_dropout, every
// lane bitwise against the same lane run alone at B=1 — on every kernel
// route (batching must not change the per-row accumulation chain of any of
// them; avx512 additionally crosses code paths: the aggregation and ResGen
// phases of the one-lane side run the ymm rows==1 affine2 fast path while
// the batched side runs the zmm row-GEMM).
TEST_F(GenBatchParityF, LanesMatchSingleLaneBitwiseAcrossRoutes) {
  for (Route route : {Route::kScalar, Route::kAvx2, Route::kAvx512}) {
    if (!route_here(route)) continue;
    ScopedRoute pin(route);
    ASSERT_TRUE(pin.ok());
    for (int threads : {1, 4}) {
      GenDTModel model(small_config(threads));
      BatchedInferenceSession single(model);
      BatchedInferenceSession batched(model);
      for (int b : {2, 8}) {
        for (bool mc : {false, true}) {
          SCOPED_TRACE("route=" + std::string(nn::simd::route_name(route)) +
                       " threads=" + std::to_string(threads) + " B=" + std::to_string(b) +
                       " mc=" + std::to_string(mc));
          const auto lanes = make_lanes(b, 1000 + static_cast<uint64_t>(b));
          const auto results = batched.run(lanes, mc);
          ASSERT_EQ(results.size(), lanes.size());
          for (size_t l = 0; l < lanes.size(); ++l) {
            SCOPED_TRACE("lane " + std::to_string(l));
            EXPECT_FALSE(results[l].cancelled);
            const auto ref = single.run({lanes[l]}, mc);
            EXPECT_FALSE(ref[0].cancelled);
            expect_samples_equal(ref[0].samples, results[l].samples);
          }
        }
      }
    }
  }
}

// Batch composition must not leak between lanes: the same (windows, seed)
// lane yields identical bits whether it shares the batch with 0 or 7 others.
TEST_F(GenBatchParityF, BatchCompositionDoesNotChangeLaneBits) {
  GenDTModel model(small_config(1));
  BatchedInferenceSession batched(model);
  BatchLane probe{*windows_, 77};
  const auto solo = batched.run({probe});
  auto lanes = make_lanes(8, 5000);
  lanes[3] = probe;
  const auto crowd = batched.run(lanes);
  expect_samples_equal(solo[0].samples, crowd[3].samples);
}

// A warm batched session allocates no new workspace buffers, and its
// high-water memory is assertable: repeat runs leave allocations() and
// peak_bytes() untouched, and B=8 pins more memory than B=1 (> 0).
TEST_F(GenBatchParityF, ZeroAllocationAfterWarmupAndPeakBytesScale) {
  GenDTModel model(small_config(1));
  BatchedInferenceSession b1(model);
  (void)b1.run(make_lanes(1, 1));
  const size_t peak1 = b1.peak_bytes();
  EXPECT_GT(peak1, 0u);

  BatchedInferenceSession b8(model);
  const auto lanes = make_lanes(8, 1);
  (void)b8.run(lanes, /*mc_dropout=*/false);
  const size_t warm = b8.allocations();
  const size_t peak8 = b8.peak_bytes();
  EXPECT_GT(warm, 0u);
  EXPECT_GT(peak8, peak1);
  (void)b8.run(lanes, /*mc_dropout=*/false);
  (void)b8.run(lanes, /*mc_dropout=*/true);  // dropout reuses the same shapes
  EXPECT_EQ(b8.allocations(), warm);
  EXPECT_EQ(b8.peak_bytes(), peak8);
}

// Per-lane cancellation: a pre-tripped lane retires before producing any
// window and reports cancelled; every other lane's bits are unaffected. A
// lane with no window left is done, not cancelled — the token is only
// polled before a window, as sample_windows polls it.
TEST_F(GenBatchParityF, PreCancelledLaneRetiresWithoutDisturbingOthers) {
  GenDTModel model(small_config(1));
  BatchedInferenceSession batched(model);
  runtime::CancelToken tripped;
  tripped.cancel();
  auto lanes = make_lanes(4, 9000);
  lanes[1].cancel = &tripped;
  lanes.push_back(BatchLane{{}, 1, &tripped});
  const auto with_cancel = batched.run(lanes);
  EXPECT_TRUE(with_cancel[1].cancelled);
  EXPECT_TRUE(with_cancel[1].samples.empty());
  EXPECT_FALSE(with_cancel[4].cancelled);
  EXPECT_TRUE(with_cancel[4].samples.empty());
  auto clean = make_lanes(4, 9000);
  const auto without = batched.run(clean);
  for (size_t l : {size_t{0}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE("lane " + std::to_string(l));
    EXPECT_FALSE(with_cancel[l].cancelled);
    expect_samples_equal(without[l].samples, with_cancel[l].samples);
  }
}

// The fast uncertainty scorer (all MC passes as lanes of one rollout) must
// return model_uncertainty()'s exact value — active learning selection
// decisions depend on strict comparisons of these scores.
TEST_F(GenBatchParityF, ModelUncertaintyFastMatchesReferenceBitwise) {
  GenDTModel model(small_config(2));
  for (uint64_t seed : {1u, 42u}) {
    const double ref = model_uncertainty(model, *windows_, /*mc_samples=*/3, seed);
    const double fast = model_uncertainty_fast(model, *windows_, /*mc_samples=*/3, seed);
    EXPECT_EQ(std::bit_cast<uint64_t>(ref), std::bit_cast<uint64_t>(fast))
        << "seed " << seed << ": " << ref << " vs " << fast;
  }
}

// The generator adapter: generate_batch lane i carries the exact bits of
// generate() on the same (windows, seed) — through the batched rollout and
// through the serial default implementation (the whole-batch fallback).
TEST_F(GenBatchParityF, GeneratorBatchMatchesSerialGenerateBitwise) {
  TrainConfig tc;  // untrained: fit() never called
  GenDTGenerator gen(small_config(2), tc, *norm_);
  gen.set_kpis(ds_->kpis);
  std::vector<GenerateBatchItem> items(3);
  items[0] = {windows_, 21, nullptr};
  items[1] = {short_, 22, nullptr};
  items[2] = {mid_, 23, nullptr};
  for (bool lane_batched : {true, false}) {
    SCOPED_TRACE(lane_batched ? "batched rollout" : "serial default");
    const auto batch = lane_batched ? gen.generate_batch(items)
                                    : gen.TimeSeriesGenerator::generate_batch(items);
    ASSERT_EQ(batch.size(), items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      SCOPED_TRACE("item " + std::to_string(i));
      ASSERT_TRUE(batch[i].ok) << batch[i].error;
      const GeneratedSeries serial = gen.generate(*items[i].windows, items[i].seed);
      ASSERT_EQ(batch[i].series.channels.size(), serial.channels.size());
      for (size_t ch = 0; ch < serial.channels.size(); ++ch) {
        ASSERT_EQ(batch[i].series.channels[ch].size(), serial.channels[ch].size());
        for (size_t t = 0; t < serial.channels[ch].size(); ++t) {
          ASSERT_EQ(std::bit_cast<uint64_t>(batch[i].series.channels[ch][t]),
                    std::bit_cast<uint64_t>(serial.channels[ch][t]))
              << "channel " << ch << " t " << t;
        }
      }
    }
  }
}

// A cancelled item in generate_batch resolves to ok=false/"cancelled"
// without failing innocent neighbours.
TEST_F(GenBatchParityF, GeneratorBatchIsolatesCancelledItems) {
  TrainConfig tc;
  GenDTGenerator gen(small_config(1), tc, *norm_);
  gen.set_kpis(ds_->kpis);
  runtime::CancelToken tripped;
  tripped.cancel();
  std::vector<GenerateBatchItem> items(2);
  items[0] = {windows_, 31, &tripped};
  items[1] = {windows_, 32, nullptr};
  const auto batch = gen.generate_batch(items);
  EXPECT_FALSE(batch[0].ok);
  ASSERT_TRUE(batch[1].ok) << batch[1].error;
  const GeneratedSeries serial = gen.generate(*windows_, 32);
  ASSERT_EQ(batch[1].series.channels.size(), serial.channels.size());
  for (size_t ch = 0; ch < serial.channels.size(); ++ch)
    for (size_t t = 0; t < serial.channels[ch].size(); ++t)
      ASSERT_EQ(std::bit_cast<uint64_t>(batch[1].series.channels[ch][t]),
                std::bit_cast<uint64_t>(serial.channels[ch][t]));
}

}  // namespace
}  // namespace gendt::core
