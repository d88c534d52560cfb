// serve-batch: closed-loop batches of ragged simulated user trajectories
// through ModelRouter::serve, configured the way `gendt serve` configures
// it: two registered packed models (requests alternate between them), an
// FDaS fallback fitted on the simulated campaign, kBlock backpressure and
// every other EngineConfig field at its default. The next batch is issued
// when the previous serve() call returns.
#include <algorithm>
#include <numeric>
#include <random>
#include <unordered_map>
#include <utility>

#include "gendt/baselines/baselines.h"
#include "gendt/runtime/thread_pool.h"
#include "gendt/serve/registry.h"
#include "gendt/serve/replay.h"
#include "gendt/serve/router.h"
#include "harness.h"

namespace perfbench {

namespace {

// Engine workers; with the harness thread this is nproc = 4.
constexpr int kWorkers = 3;
constexpr int kBatch = 24;
const std::vector<std::string> kModelIds = {"m1", "m2"};

// Windows per request in the mix, kPerLength requests of each length. The
// lengths are fixed so every seed serves the same ragged mix; the seed picks
// the trajectories.
constexpr size_t kLengths[] = {1, 2, 3, 5, 8, 12, 16, 22};
constexpr int kPerLength = 12;

/// Where a generate() call on a worker thread belongs: set by the harness
/// thread before each serve() call.
struct BatchContext {
  std::atomic<bool> traced{false};
  std::atomic<uint64_t> parent{0};
};

/// Completion stamps of the current batch, keyed by request seed.
class Completions {
 public:
  struct Stamp {
    uint64_t seed;
    int thread;
    double t;
  };
  void add(uint64_t seed, double t) GENDT_EXCLUDES(mu_) {
    runtime::MutexLock lock(mu_);
    stamps_.push_back({seed, thread_tag(), t});
  }
  std::vector<Stamp> take() GENDT_EXCLUDES(mu_) {
    runtime::MutexLock lock(mu_);
    return std::exchange(stamps_, {});
  }

 private:
  runtime::Mutex mu_;
  std::vector<Stamp> stamps_ GENDT_GUARDED_BY(mu_);
};

/// Benchmark-owned decorator registered in place of a model: forwards every
/// call, stamps each completion, and records a span when the batch is traced.
class TimedGenerator final : public core::TimeSeriesGenerator {
 public:
  TimedGenerator(std::unique_ptr<core::TimeSeriesGenerator> inner, uint32_t span,
                 const BatchContext& ctx, Completions& done)
      : inner_(std::move(inner)), span_(span), ctx_(ctx), done_(done) {}

  std::string name() const override { return inner_->name(); }
  void fit(const std::vector<context::Window>& train_windows) override {
    inner_->fit(train_windows);
  }
  core::GeneratedSeries generate(const std::vector<context::Window>& windows,
                                 uint64_t seed) const override {
    return generate(windows, seed, nullptr);
  }
  core::GeneratedSeries generate(const std::vector<context::Window>& windows, uint64_t seed,
                                 const runtime::CancelToken* cancel) const override {
    core::GeneratedSeries out;
    {
      SpanScope span(ctx_.traced.load(), span_, ctx_.parent.load(), seed);
      span.set_counts(1, static_cast<uint32_t>(windows.size()));
      out = inner_->generate(windows, seed, cancel);
    }
    done_.add(seed, now_s());
    return out;
  }

 private:
  std::unique_ptr<core::TimeSeriesGenerator> inner_;
  uint32_t span_;
  const BatchContext& ctx_;
  Completions& done_;
};

struct Sample {
  size_t model = 0;
  size_t request = 0;  // index into the pool
  uint64_t seed = 0;
  core::GeneratedSeries series;
};

}  // namespace

int run_serve_batch(const Options& opt, Result& r) {
  // ---- inputs (untimed): model files and the ragged request pool ----------
  std::vector<std::vector<context::Window>> pool;
  {
    const sim::Dataset ds0 = sim::make_dataset_a(cli_dataset_scale());
    for (size_t m = 0; m < kModelIds.size(); ++m)
      write_model_pack(ds0, m + 1, opt.workdir + "/" + kModelIds[m] + ".gdtpack");
    const context::ContextBuilder builder0(ds0.world, cli_context(),
                                           context::fit_kpi_norm(ds0.train, ds0.kpis), ds0.kpis);
    uint64_t call = 0;
    for (const size_t length : kLengths) {
      for (int kept = 0; kept < kPerLength;) {
        if (call > 64 * std::size(kLengths))
          throw std::runtime_error("serve-batch: cannot build the request mix");
        // A few users per call keeps the memory of the discarded windows small.
        serve::TraceConfig tc;
        tc.num_requests = 7;  // sim_trace cycles through up to 7 scenarios
        tc.seed = runtime::derive_stream_seed(opt.seed, call++);
        // Long enough for `length` windows at the slowest scenario's ~4 s
        // sampling; each request keeps the trajectory's first `length` windows.
        tc.trajectory_duration_s = 4.0 * (50.0 + 25.0 * static_cast<double>(length)) + 60.0;
        tc.model_ids = kModelIds;
        for (serve::TraceRequest& req : serve::sim_trace(builder0, ds0.world.region, tc).requests) {
          if (req.windows.size() < length || kept == kPerLength) continue;
          req.windows.resize(length);
          pool.push_back(std::move(req.windows));
          ++kept;
        }
      }
    }
  }
  std::mt19937_64 rng(runtime::derive_stream_seed(opt.seed, 0xBA7C4));
  std::shuffle(pool.begin(), pool.end(), rng);
  pool.resize(pool.size() / kBatch * kBatch);
  if (pool.empty()) throw std::runtime_error("serve-batch: request pool is empty");
  uint64_t pool_cells = 0, pool_windows = 0;
  for (const auto& windows : pool)
    for (const auto& w : windows) {
      pool_cells += w.cell_attrs.size();
      ++pool_windows;
    }

  // ---- set-up: dataset, pack loads, prewarm, FDaS fit, router ----------------
  BatchContext ctx;
  Completions done;
  serve::EngineConfig cfg;
  cfg.backpressure = serve::EngineConfig::Backpressure::kBlock;
  cfg.workers = kWorkers;
  // Members in teardown order: the router before the registry it routes to.
  struct Live {
    std::unique_ptr<sim::Dataset> ds;
    std::unique_ptr<serve::ModelRegistry> registry;
    std::vector<const core::GenDTGenerator*> gens;
    std::unique_ptr<TimedGenerator> fallback;
    std::unique_ptr<serve::ModelRouter> router;
  };
  const auto set_up = [&](size_t k) {
    const PinnedToCpu pin(k);
    Live l;
    const double t0 = now_s();
    l.ds = std::make_unique<sim::Dataset>(sim::make_dataset_a(cli_dataset_scale()));
    const double t1 = now_s();
    cfg.expected_channels = static_cast<int>(l.ds->kpis.size());
    l.registry = std::make_unique<serve::ModelRegistry>();
    double load_s = 0.0;
    context::KpiNorm first_norm;
    for (size_t m = 0; m < kModelIds.size(); ++m) {
      const double tl = now_s();
      std::unique_ptr<core::GenDTGenerator> gen =
          load_pack(opt.workdir + "/" + kModelIds[m] + ".gdtpack", *l.ds, m + 1);
      load_s += now_s() - tl;
      if (m == 0) first_norm = gen->norm();
      gen->prewarm(static_cast<size_t>(kWorkers));
      l.gens.push_back(gen.get());
      l.registry->add(kModelIds[m],
                      std::make_unique<TimedGenerator>(std::move(gen), kCoreGenerate, ctx, done));
    }
    const context::ContextBuilder builder(l.ds->world, cli_context(), first_norm, l.ds->kpis);
    std::vector<context::Window> train_windows;
    for (const auto& rec : l.ds->train) {
      auto w = builder.training_windows(rec);
      train_windows.insert(train_windows.end(), w.begin(), w.end());
    }
    auto fdas = std::make_unique<baselines::FDaS>(first_norm);
    const double tf = now_s();
    fdas->fit(train_windows);
    const double fit_s = now_s() - tf;
    l.fallback = std::make_unique<TimedGenerator>(std::move(fdas), kBaselinesGenerate, ctx, done);
    l.router = std::make_unique<serve::ModelRouter>(*l.registry, cfg);
    l.router->set_fallback(l.fallback.get());
    const double t2 = now_s();
    r.setup_s.push_back(t2 - t0);
    r.dataset_s.push_back(t1 - t0);
    r.pack_load_ms.push_back(1e3 * load_s);
    r.fdas_fit_ms.push_back(1e3 * fit_s);
    return l;
  };
  const Live live = set_up(0);
  const auto& registry = live.registry;
  const auto& gens = live.gens;
  const auto& router = live.router;
  add_param_shapes(gens.front()->model(), r);

  // ---- the closed loop -------------------------------------------------------
  // Every pass over the pool deals the requests into batches in a fresh
  // seeded order, so no run depends on one arrangement of long and short
  // requests. Requests move in and out of the batch; no windows are copied.
  const size_t n_batches = pool.size() / kBatch;
  std::vector<serve::RoutedRequest> requests(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) requests[i].request.windows = std::move(pool[i]);
  std::vector<size_t> order(requests.size());
  std::vector<serve::RoutedRequest> batch;
  std::map<std::string, uint64_t> routed;
  std::vector<Sample> samples;
  uint64_t issued = 0;

  struct BatchOut {
    double wall_s = 0.0;
    uint64_t windows = 0;
    uint64_t ok = 0;
  };
  const auto run_batch = [&](size_t batch_no, bool traced, bool record) {
    if (batch_no % n_batches == 0) {
      std::iota(order.begin(), order.end(), size_t{0});
      std::mt19937_64 deal(runtime::derive_stream_seed(opt.seed ^ 0xDEA1u, batch_no / n_batches));
      std::shuffle(order.begin(), order.end(), deal);
    }
    const size_t* slot = &order[(batch_no % n_batches) * kBatch];
    batch.clear();
    std::unordered_map<uint64_t, size_t> by_seed;
    for (size_t i = 0; i < static_cast<size_t>(kBatch); ++i) {
      batch.push_back(std::move(requests[slot[i]]));
      batch[i].model_id = kModelIds[i % kModelIds.size()];  // round-robin
      batch[i].request.seed = runtime::derive_stream_seed(opt.seed ^ 0x5E4EB47Cu, issued++);
      by_seed[batch[i].request.seed] = i;
      ++routed[batch[i].model_id];
    }
    const size_t sample_slot =
        runtime::derive_stream_seed(opt.seed ^ 0x5A3B1Eu, batch_no) % batch.size();
    BatchOut out;
    std::vector<serve::Response> responses;
    SpanScope batch_span(traced, kBenchBatch, 0);
    const double t_call = now_s();
    {
      SpanScope router_span(traced, kServeRouter, batch_span.id());
      ctx.traced = traced;
      ctx.parent = router_span.id();
      responses = router->serve(batch);
    }
    out.wall_s = now_s() - t_call;
    std::vector<Completions::Stamp> stamps = done.take();
    for (size_t i = 0; i < responses.size(); ++i) {
      if (responses[i].outcome != serve::Outcome::kOk) continue;
      ++out.ok;
      out.windows += batch[i].request.windows.size();
      if (i == sample_slot)
        samples.push_back({i % kModelIds.size(), slot[i], batch[i].request.seed,
                           responses[i].series});
    }
    if (record) {
      // Time to first chunk: serve() call -> the request's generation done.
      // Chunk gap: successive completions on one engine worker.
      std::vector<Op> ops(batch.size());
      std::map<int, double> last_done;
      std::sort(stamps.begin(), stamps.end(),
                [](const auto& a, const auto& b) { return a.t < b.t; });
      for (const auto& s : stamps) {
        const auto it = by_seed.find(s.seed);
        if (it == by_seed.end()) continue;
        Op& op = ops[it->second];
        op.ttfc_ms = 1e3 * (s.t - t_call);
        const auto prev = last_done.find(s.thread);
        if (prev != last_done.end()) r.gap_ms.push_back(1e3 * (s.t - prev->second));
        last_done[s.thread] = s.t;
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        ops[i].ok = responses[i].outcome == serve::Outcome::kOk;
        if (ops[i].ok) r.ttfc_ms.push_back(ops[i].ttfc_ms);
        r.ops.push_back(ops[i]);
      }
    }
    for (size_t i = 0; i < batch.size(); ++i) requests[slot[i]] = std::move(batch[i]);
    return out;
  };

  size_t batch_no = 0;
  const double warm_start = now_s();
  while (batch_no < n_batches || now_s() - warm_start < kWarmupS)
    run_batch(batch_no++, false, false);
  samples.clear();

  SetupSchedule setups(opt.seconds);
  double steady = 0.0;
  for (size_t i = 0; steady < opt.seconds; ++i) {
    if (setups.due(steady)) set_up(setups.take());  // timed, then discarded
    const bool traced = opt.trace && i % 2 == 1;
    const double cpu0 = cpu_s();
    const BatchOut out = run_batch(batch_no++, traced, !traced);
    r.cpu_s += cpu_s() - cpu0;
    steady += out.wall_s;
    (traced ? r.traced_wall_s : r.wall_s) += out.wall_s;
    (traced ? r.traced_windows : r.windows) += out.windows;
    r.units += kBatch;
    r.units_ok += out.ok;
  }
  r.counters["cells_per_window"] =
      static_cast<double>(pool_cells) / static_cast<double>(std::max<uint64_t>(1, pool_windows));
  r.counters["threads"] = kWorkers;
  double warm = 0.0;
  for (const auto* g : gens) warm += static_cast<double>(g->warm_peak_bytes());
  r.counters["warm_peak_bytes"] = warm;
  const serve::GenerationEngine::Stats es = router->engine().stats();
  r.counters["retries"] = static_cast<double>(es.retries);

  // ---- output check (untimed) ---------------------------------------------
  uint64_t degraded = 0, shed = 0;
  for (const auto& id : registry->ids()) {
    const serve::ModelStats ms = registry->stats(id);
    degraded += ms.degraded;
    shed += ms.shed;
    if (ms.ok + ms.degraded + ms.failed + ms.shed != routed[id])
      r.problem("model " + id + ": ok+degraded+failed+shed != requests routed");
  }
  r.counters["degraded"] = static_cast<double>(degraded);
  r.counters["shed"] = static_cast<double>(shed);

  std::mt19937_64 pick(runtime::derive_stream_seed(opt.seed, 0xC4EC));
  std::shuffle(samples.begin(), samples.end(), pick);
  samples.resize(std::min<size_t>(samples.size(), 8));
  if (samples.empty()) r.problem("no serve-batch response sampled for the output check");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const core::GenDTGenerator& g = *gens[s.model];
    const std::vector<context::Window>& windows = requests[s.request].request.windows;
    check_output(r, "serve-batch request " + std::to_string(s.seed), s.series,
                 g.generate(windows, s.seed),
                 oracle_series(g.model(), g.norm(), g.kpis(), windows, s.seed),
                 opt.corrupt && i == 0);
  }
  return 0;
}

}  // namespace perfbench
