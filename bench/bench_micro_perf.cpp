// Microbenchmarks (google-benchmark) for the library's hot paths: DTW,
// Wasserstein, matmul kernels (pre-blocking reference vs the blocked
// library kernel), LSTM stepping, context-window extraction, simulator
// sample rate, GenDT window generation, and the parallel training step at
// several thread counts. These guard against performance regressions rather
// than reproducing a paper result.
//
// Unless --benchmark_out is given, results are also written to
// BENCH_micro_perf.json (committed to the repo so the perf trajectory is
// tracked PR over PR).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "gendt/context/context.h"
#include "gendt/core/batched_infer_session.h"
#include "gendt/core/model.h"
#include "gendt/metrics/metrics.h"
#include "gendt/nn/infer.h"
#include "gendt/nn/pack.h"
#include "gendt/nn/serialize.h"
#include "gendt/nn/simd.h"
#include "gendt/serve/engine.h"
#include "gendt/sim/dataset.h"

using namespace gendt;

namespace {

std::vector<double> random_series(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(-90.0, 10.0);
  std::vector<double> v(n);
  for (auto& x : v) x = g(rng);
  return v;
}

void BM_DtwUnbanded(benchmark::State& state) {
  const auto a = random_series(static_cast<size_t>(state.range(0)), 1);
  const auto b = random_series(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) benchmark::DoNotOptimize(metrics::dtw(a, b));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DtwUnbanded)->Arg(128)->Arg(512)->Arg(1024)->Complexity(benchmark::oNSquared);

void BM_DtwBanded(benchmark::State& state) {
  const auto a = random_series(static_cast<size_t>(state.range(0)), 1);
  const auto b = random_series(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) benchmark::DoNotOptimize(metrics::dtw(a, b, 40));
}
BENCHMARK(BM_DtwBanded)->Arg(512)->Arg(2048);

void BM_Wasserstein(benchmark::State& state) {
  const auto a = random_series(static_cast<size_t>(state.range(0)), 3);
  const auto b = random_series(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) benchmark::DoNotOptimize(metrics::wasserstein1(a, b));
}
BENCHMARK(BM_Wasserstein)->Arg(1024)->Arg(8192);

// The seed's matmul kernel (i-k-j with zero-skip, no tiling), kept here as
// the fixed reference the blocked library kernel is measured against.
nn::Mat naive_matmul(const nn::Mat& a, const nn::Mat& b) {
  nn::Mat c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

void BM_MatmulNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(21);
  const nn::Mat a = nn::Mat::randn(n, n, rng);
  const nn::Mat b = nn::Mat::randn(n, n, rng);
  for (auto _ : state) benchmark::DoNotOptimize(naive_matmul(a, b)(0, 0));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2LL * n * n * n);
}
BENCHMARK(BM_MatmulNaive)->Arg(32)->Arg(128)->Arg(512);

// Pinned to the scalar route: this is the committed-baseline number tracked
// PR over PR, and the scalar kernels are the cross-release anchor. The SIMD
// route gets its own series (BM_MatmulSimd) so the two trend independently.
void BM_MatmulBlocked(benchmark::State& state) {
  const nn::simd::ScopedRoute pin(nn::simd::Route::kScalar);
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(21);
  const nn::Mat a = nn::Mat::randn(n, n, rng);
  const nn::Mat b = nn::Mat::randn(n, n, rng);
  for (auto _ : state) benchmark::DoNotOptimize(nn::matmul(a, b)(0, 0));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2LL * n * n * n);
}
BENCHMARK(BM_MatmulBlocked)->Arg(32)->Arg(128)->Arg(512);

void BM_MatmulBlockedNT(benchmark::State& state) {
  const nn::simd::ScopedRoute pin(nn::simd::Route::kScalar);
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(22);
  const nn::Mat a = nn::Mat::randn(n, n, rng);
  const nn::Mat b = nn::Mat::randn(n, n, rng);
  for (auto _ : state) benchmark::DoNotOptimize(nn::matmul_nt(a, b)(0, 0));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2LL * n * n * n);
}
BENCHMARK(BM_MatmulBlockedNT)->Arg(128)->Arg(512);

// The AVX2/FMA route over the same shapes as BM_MatmulBlocked — the ratio
// between the two series is the headline SIMD speedup.
void BM_MatmulSimd(benchmark::State& state) {
  const nn::simd::ScopedRoute pin(nn::simd::Route::kAvx2);
  if (!pin.ok()) {
    state.SkipWithError("avx2 route unsupported on this build/CPU");
    return;
  }
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(21);
  const nn::Mat a = nn::Mat::randn(n, n, rng);
  const nn::Mat b = nn::Mat::randn(n, n, rng);
  for (auto _ : state) benchmark::DoNotOptimize(nn::matmul(a, b)(0, 0));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2LL * n * n * n);
}
BENCHMARK(BM_MatmulSimd)->Arg(128)->Arg(512);

// The fused single-row y = b + x1*W1 + x2*W2 kernel (avx2 only), at the
// shape every LSTM step issues: gate pre-activations from input + recurrent
// weights. The scalar route's generic path is the implicit baseline via
// BM_LstmStep.
void BM_Affine2Simd(benchmark::State& state) {
  const nn::simd::ScopedRoute pin(nn::simd::Route::kAvx2);
  if (!pin.ok()) {
    state.SkipWithError("avx2 route unsupported on this build/CPU");
    return;
  }
  std::mt19937_64 rng(23);
  const nn::Mat x1 = nn::Mat::randn(1, 9, rng);
  const nn::Mat w1 = nn::Mat::randn(9, 112, rng);
  const nn::Mat x2 = nn::Mat::randn(1, 28, rng);
  const nn::Mat w2 = nn::Mat::randn(28, 112, rng);
  const nn::Mat b = nn::Mat::randn(1, 112, rng);
  nn::Mat y(1, 112);
  for (auto _ : state) {
    nn::infer::affine2_fwd(x1, w1, x2, w2, b, y);
    benchmark::DoNotOptimize(y(0, 0));
  }
}
BENCHMARK(BM_Affine2Simd);

void BM_LstmStep(benchmark::State& state) {
  std::mt19937_64 rng(5);
  nn::LstmCell cell(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)), rng);
  nn::Tensor x = nn::Tensor::constant(nn::Mat::randn(1, static_cast<int>(state.range(0)), rng));
  auto st = cell.initial_state();
  for (auto _ : state) {
    auto next = cell.step(x, st);
    benchmark::DoNotOptimize(next.h.value()(0, 0));
  }
}
BENCHMARK(BM_LstmStep)->Args({9, 28})->Args({9, 100})->Args({31, 100});

// The same recurrent step through the tape-free kernel (one lane, R=1) on
// the avx2 route: fused affine2 gate pre-activations + vectorized gate
// nonlinearities.
void BM_LstmStepSimd(benchmark::State& state) {
  const nn::simd::ScopedRoute pin(nn::simd::Route::kAvx2);
  if (!pin.ok()) {
    state.SkipWithError("avx2 route unsupported on this build/CPU");
    return;
  }
  const int in = static_cast<int>(state.range(0));
  const int hidden = static_cast<int>(state.range(1));
  std::mt19937_64 rng(5);
  nn::LstmCell cell(in, hidden, rng);
  const nn::Mat x = nn::Mat::randn(1, in, rng);
  nn::Mat h(1, hidden), c(1, hidden), gates(1, 4 * hidden), scratch(1, hidden);
  std::mt19937_64 step_rng(7);
  std::mt19937_64* rngs[1] = {&step_rng};
  for (auto _ : state) {
    nn::infer::lstm_step_fwd_batch(cell, x, nn::StochasticConfig{}, rngs, h, c, gates, scratch);
    benchmark::DoNotOptimize(h(0, 0));
  }
}
BENCHMARK(BM_LstmStepSimd)->Args({9, 28})->Args({9, 100});

void BM_LstmWindowBackward(benchmark::State& state) {
  std::mt19937_64 rng(6);
  nn::LstmNetwork net(9, 28, 4, rng);
  std::vector<nn::Tensor> xs;
  for (int t = 0; t < 50; ++t) xs.push_back(nn::Tensor::constant(nn::Mat::randn(1, 9, rng)));
  for (auto _ : state) {
    auto ys = net.forward(xs, nn::StochasticConfig{}, rng);
    nn::Tensor loss = nn::sum(nn::square(nn::concat_rows(ys)));
    net.zero_grad();
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_LstmWindowBackward);

// Cold-start cost of the two model-file formats over the same ~25 MB of
// weights: GDTCKPT2 (full parse + per-tensor copy + CRC) vs a GDTPACK1 map
// (one mmap + directory walk; kStructural is the serve path, kFull adds the
// payload CRC pass). The structural/ckpt ratio is the headline instant-load
// number.
struct LoadFixtures {
  std::string ckpt_path;
  std::string pack_path;

  LoadFixtures() {
    nn::Checkpoint ck;
    ck.meta.set_string("bench", "model-load");
    std::mt19937_64 rng(31);
    for (int i = 0; i < 12; ++i)
      ck.params.push_back({"layer" + std::to_string(i) + "/w", nn::Mat::randn(512, 512, rng)});
    const auto dir = std::filesystem::temp_directory_path();
    ckpt_path = (dir / "gendt_bench_load.ckpt").string();
    pack_path = (dir / "gendt_bench_load.gdtpack").string();
    nn::save_checkpoint(ck, ckpt_path);
    nn::write_packed(ck, pack_path);
  }
  static LoadFixtures& get() {
    static LoadFixtures f;
    return f;
  }
};

void BM_CkptModelLoad(benchmark::State& state) {
  auto& f = LoadFixtures::get();
  for (auto _ : state) {
    nn::Checkpoint ck;
    const nn::LoadResult res = nn::read_checkpoint(f.ckpt_path, ck);
    if (!res.ok()) {
      state.SkipWithError(res.message().c_str());
      return;
    }
    benchmark::DoNotOptimize(ck.params.size());
  }
}
BENCHMARK(BM_CkptModelLoad);

void BM_PackedModelLoad(benchmark::State& state) {
  auto& f = LoadFixtures::get();
  const nn::PackVerify verify =
      state.range(0) != 0 ? nn::PackVerify::kFull : nn::PackVerify::kStructural;
  for (auto _ : state) {
    nn::PackedModel pack;
    const nn::LoadResult res = pack.map(f.pack_path, verify);
    if (!res.ok()) {
      state.SkipWithError(res.message().c_str());
      return;
    }
    benchmark::DoNotOptimize(pack.tensors().size());
  }
  state.counters["full_verify"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_PackedModelLoad)->Arg(0)->Arg(1);

struct SimFixtures {
  sim::Dataset ds;
  std::unique_ptr<sim::DriveTestSimulator> sim;
  geo::Trajectory traj;
  std::unique_ptr<context::ContextBuilder> builder;
  std::unique_ptr<core::GenDTModel> model;
  std::vector<context::Window> windows;

  SimFixtures() {
    sim::DatasetScale scale;
    scale.train_duration_s = 200.0;
    scale.test_duration_s = 100.0;
    scale.records_per_scenario = 1;
    ds = sim::make_dataset_a(scale);
    sim = std::make_unique<sim::DriveTestSimulator>(ds.world, ds.sim_config);
    std::mt19937_64 rng(9);
    traj = sim::scenario_trajectory(ds.world.region, sim::Scenario::kWalk, 120.0, rng);
    context::KpiNorm norm = context::fit_kpi_norm(ds.train, ds.kpis);
    context::ContextConfig ccfg;
    ccfg.window_len = 50;
    ccfg.max_cells = 6;
    builder = std::make_unique<context::ContextBuilder>(ds.world, ccfg, norm, ds.kpis);
    core::GenDTConfig mcfg;
    mcfg.num_channels = 4;
    mcfg.hidden = 28;
    model = std::make_unique<core::GenDTModel>(mcfg);
    windows = builder->generation_windows(traj);
  }
  static SimFixtures& get() {
    static SimFixtures f;
    return f;
  }
};

void BM_SimulatorRun(benchmark::State& state) {
  auto& f = SimFixtures::get();
  uint64_t seed = 0;
  for (auto _ : state) {
    auto rec = f.sim->run(f.traj, sim::Scenario::kWalk, ++seed);
    benchmark::DoNotOptimize(rec.samples.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.traj.size()));
}
BENCHMARK(BM_SimulatorRun);

void BM_ContextWindowBuild(benchmark::State& state) {
  auto& f = SimFixtures::get();
  for (auto _ : state) {
    auto w = f.builder->generation_windows(f.traj);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_ContextWindowBuild);

void BM_GenDTWindowGeneration(benchmark::State& state) {
  auto& f = SimFixtures::get();
  uint64_t seed = 0;
  for (auto _ : state) {
    auto s = f.model->sample_windows(f.windows, ++seed);
    benchmark::DoNotOptimize(s.size());
  }
  int64_t samples = 0;
  for (const auto& w : f.windows) samples += w.len;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * samples);
}
BENCHMARK(BM_GenDTWindowGeneration);

// Same rollout as one lane of the tape-free rollout engine
// (bitwise-identical output, enforced by gen_parity_test). The session
// persists across iterations, so steady-state runs allocate nothing — the
// comparison against BM_GenDTWindowGeneration is the engine's headline
// number.
void BM_GenDTWindowGenerationFast(benchmark::State& state) {
  auto& f = SimFixtures::get();
  core::BatchedInferenceSession session(*f.model);
  core::BatchLane lane;
  lane.windows = f.windows;
  for (auto _ : state) {
    ++lane.seed;
    auto r = session.run({lane});
    benchmark::DoNotOptimize(r[0].samples.size());
  }
  int64_t samples = 0;
  for (const auto& w : f.windows) samples += w.len;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * samples);
}
// The fixture model runs at threads = 0, so its G^n cell rows split across
// the shared pool: time the wall clock, not this thread's CPU.
BENCHMARK(BM_GenDTWindowGenerationFast)->UseRealTime();

// The lane-batched LSTM step at B lanes vs one lane (B=1):
// gate pre-activations for all lanes come from ONE [B x 4H] affine2 GEMM, so
// the per-step weight traffic (the matvec bottleneck at inference batch 1)
// is amortized across lanes. Items processed = lane-steps, so the B=8/B=1
// items_per_second ratio is the per-step GEMM win.
void BM_BatchedLstmStep(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  constexpr int kIn = 9;
  constexpr int kHidden = 512;
  std::mt19937_64 rng(5);
  nn::LstmCell cell(kIn, kHidden, rng);
  const nn::Mat x = nn::Mat::randn(b, kIn, rng);
  nn::Mat h(b, kHidden), c(b, kHidden), gates(b, 4 * kHidden), scratch(b, kHidden);
  std::vector<std::mt19937_64> lane_rngs(static_cast<size_t>(b));
  std::vector<std::mt19937_64*> rngs(static_cast<size_t>(b));
  for (int l = 0; l < b; ++l) {
    lane_rngs[static_cast<size_t>(l)].seed(static_cast<uint64_t>(7 + l));
    rngs[static_cast<size_t>(l)] = &lane_rngs[static_cast<size_t>(l)];
  }
  for (auto _ : state) {
    nn::infer::lstm_step_fwd_batch(cell, x, nn::StochasticConfig{}, rngs.data(), h, c, gates,
                                   scratch);
    benchmark::DoNotOptimize(h(0, 0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * b);
  state.counters["lanes"] = b;
}
BENCHMARK(BM_BatchedLstmStep)->Arg(1)->Arg(8);

// The coverage-grid workload (`gendt covermap`): 8 stationary trajectories
// rolled out single-threaded at a serving-sized hidden width. B=1 is the
// single-request path — 8 one-lane runs, every aggregation/ResGen step a
// [1 x K] matvec that re-streams the weights — and B=8 packs the same 8
// trajectories into ONE run, where each step is a multi-row GEMM (bits
// identical per lane, pinned by gen_batch_parity_test).
// Items processed = windows, so items_per_second is windows/sec and the
// B=8/B=1 ratio is the headline lane-batching speedup (gated >= 3x by the
// issue's acceptance).
void BM_CovermapThroughput(benchmark::State& state) {
  auto& f = SimFixtures::get();
  static core::GenDTModel* model = [] {
    core::GenDTConfig mcfg;
    mcfg.num_channels = 4;
    mcfg.hidden = 512;
    mcfg.resgen_hidden = 512;
    mcfg.parallelism = {.threads = 1};
    return new core::GenDTModel(mcfg);
  }();
  const int b = static_cast<int>(state.range(0));
  constexpr int kLanes = 8;
  core::BatchedInferenceSession session(*model);
  uint64_t round = 0;
  for (auto _ : state) {
    ++round;
    size_t windows_done = 0;
    for (int lo = 0; lo < kLanes; lo += b) {
      const int hi = std::min(kLanes, lo + b);
      std::vector<core::BatchLane> lanes(static_cast<size_t>(hi - lo));
      for (int l = lo; l < hi; ++l) {
        lanes[static_cast<size_t>(l - lo)].windows = f.windows;
        lanes[static_cast<size_t>(l - lo)].seed =
            runtime::derive_stream_seed(round, static_cast<uint64_t>(l));
      }
      const auto results = session.run(lanes);
      for (const auto& r : results) windows_done += r.samples.size();
    }
    benchmark::DoNotOptimize(windows_done);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kLanes * f.windows.size()));
  state.counters["lane_batch"] = b;
}
// Hidden-512 matmuls split rows across the shared pool above the FLOP
// threshold, so time the wall clock, not this thread's CPU.
BENCHMARK(BM_CovermapThroughput)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// End-to-end serving throughput: 8 requests through GenerationEngine with 2
// workers, each popping one request at a time.
void BM_ServeBatchThroughput(benchmark::State& state) {
  auto& f = SimFixtures::get();
  static core::GenDTGenerator* generator = [] {
    auto& fx = SimFixtures::get();
    core::GenDTConfig mcfg;
    mcfg.num_channels = 4;
    mcfg.hidden = 28;
    auto* g = new core::GenDTGenerator(mcfg, core::TrainConfig{},
                                       context::fit_kpi_norm(fx.ds.train, fx.ds.kpis));
    g->set_kpis(fx.ds.kpis);
    return g;
  }();

  constexpr int kRequests = 8;
  serve::EngineConfig cfg;
  cfg.backpressure = serve::EngineConfig::Backpressure::kBlock;
  cfg.workers = 2;
  cfg.expected_channels = 4;
  serve::GenerationEngine engine(*generator, cfg);
  std::vector<serve::Request> requests(kRequests);
  for (int r = 0; r < kRequests; ++r) {
    requests[r].windows = f.windows;
    requests[r].seed = 100 + static_cast<uint64_t>(r);
  }
  for (auto _ : state) {
    auto responses = engine.serve(requests);
    benchmark::DoNotOptimize(responses.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRequests);
}
// Work runs on engine workers, so time the wall clock, not this thread's CPU.
BENCHMARK(BM_ServeBatchThroughput)->Unit(benchmark::kMillisecond)->UseRealTime();

// One generator+discriminator training epoch at a given worker-thread
// count. The trained numbers are bitwise identical across the Arg values
// (runtime_determinism_test enforces it); only the wall-clock may differ.
void BM_GenDTTrainEpochByThreads(benchmark::State& state) {
  static std::vector<context::Window>* train_windows = [] {
    auto* w = new std::vector<context::Window>();
    auto& fx = SimFixtures::get();
    context::KpiNorm norm = context::fit_kpi_norm(fx.ds.train, fx.ds.kpis);
    context::ContextConfig ccfg;
    ccfg.window_len = 25;
    ccfg.train_step = 25;
    ccfg.max_cells = 5;
    context::ContextBuilder b(fx.ds.world, ccfg, norm, fx.ds.kpis);
    for (const auto& rec : fx.ds.train) {
      auto ws = b.training_windows(rec);
      w->insert(w->end(), ws.begin(), ws.end());
      if (w->size() >= 8) break;
    }
    if (w->size() > 8) w->resize(8);
    return w;
  }();

  const int threads = static_cast<int>(state.range(0));
  core::GenDTConfig mcfg;
  mcfg.num_channels = 4;
  mcfg.hidden = 28;
  mcfg.parallelism = {.threads = threads};
  core::TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.windows_per_step = 4;
  tcfg.parallelism = {.threads = threads};
  for (auto _ : state) {
    core::GenDTModel model(mcfg);
    auto stats = core::train_gendt(model, *train_windows, tcfg);
    benchmark::DoNotOptimize(stats.mse_per_epoch.back());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(train_windows->size()));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_GenDTTrainEpochByThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2)
    ->UseRealTime();

}  // namespace

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to the committed
// BENCH_micro_perf.json so every run leaves a machine-readable record.
// The emitted JSON's context.library_build_type reports how the BENCHMARK
// LIBRARY was compiled — and the distro-packaged google-benchmark is itself
// a debug build, so the field says "debug" no matter how this binary and the
// gendt kernels were built. tools/bench_compare.py hard-fails on debug-built
// results, and what that gate actually cares about is the kernels' build
// mode, so rewrite the field from this TU's own NDEBUG after the run.
void patch_library_build_type(const std::string& path) {
  if (path.empty() || path == "/dev/null") return;
  std::ifstream in(path);
  if (!in) return;
  std::stringstream buf;
  buf << in.rdbuf();
  in.close();
  std::string s = buf.str();
  const std::string key = "\"library_build_type\":";
  const size_t k = s.find(key);
  if (k == std::string::npos) return;
  const size_t q0 = s.find('"', k + key.size());
  const size_t q1 = q0 == std::string::npos ? std::string::npos : s.find('"', q0 + 1);
  if (q1 == std::string::npos) return;
#ifdef NDEBUG
  s.replace(q0 + 1, q1 - q0 - 1, "release");
#else
  s.replace(q0 + 1, q1 - q0 - 1, "debug");
#endif
  std::ofstream out(path, std::ios::trunc);
  out << s;
}

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_path = "BENCH_micro_perf.json";
  bool has_out_flag = false;  // any --benchmark_out* flag on the command line
  bool has_out_path = false;  // an explicit --benchmark_out=<path>
  for (int i = 1; i < argc; ++i) {
    const std::string a(argv[i]);
    if (a.rfind("--benchmark_out=", 0) == 0) {
      has_out_flag = has_out_path = true;
      out_path = a.substr(std::string("--benchmark_out=").size());
    } else if (a.rfind("--benchmark_out", 0) == 0) {
      has_out_flag = true;  // e.g. --benchmark_out_format: caller manages output
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_perf.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out_flag) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Format-only invocations (--benchmark_out_format without --benchmark_out)
  // write no file, so there is nothing to patch.
  patch_library_build_type(has_out_flag && !has_out_path ? "" : out_path);
  return 0;
}
