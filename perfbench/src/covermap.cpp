// covermap: repeated coverage-map passes, driven the way `gendt covermap`
// drives one. A pass is the CLI's default 16x16 lattice of stationary
// points, one window each, built per point inside lane blocks of 8 and
// rolled out through GenDTGenerator::generate_batch on
// runtime::parallel_tasks. Each pass shifts the lattice by a seeded
// sub-cell offset and uses its own generation seed, so no two passes
// repeat work.
#include <algorithm>
#include <cmath>
#include <random>

#include "gendt/geo/geo.h"
#include "gendt/runtime/thread_pool.h"
#include "harness.h"

namespace perfbench {

namespace {

constexpr long kGridW = 16;
constexpr long kGridH = 16;
constexpr long kPoints = kGridW * kGridH;
constexpr int kBatch = 8;  // `gendt covermap` default --batch
constexpr long kBlocks = (kPoints + kBatch - 1) / kBatch;
// Pool threads doing work; with the harness thread this is nproc = 4.
constexpr int kThreads = 3;

struct PassPlan {
  double fx = 0.0;  // lattice offset, fraction of one spacing
  double fy = 0.0;
  uint64_t gen_seed = 0;
};

struct Sample {
  size_t plan = 0;
  long point = 0;
  core::GeneratedSeries series;
};

}  // namespace

int run_covermap(const Options& opt, Result& r) {
  // ---- inputs (untimed): the model file and the per-pass plans ------------
  const std::string pack = opt.workdir + "/model1.gdtpack";
  {
    const sim::Dataset ds0 = sim::make_dataset_a(cli_dataset_scale());
    write_model_pack(ds0, 1, pack);
  }
  std::mt19937_64 rng(runtime::derive_stream_seed(opt.seed, 0xC0DE));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<PassPlan> plans(1024);
  for (size_t i = 0; i < plans.size(); ++i)
    plans[i] = {unit(rng), unit(rng), runtime::derive_stream_seed(opt.seed, i)};

  // ---- set-up: dataset build + pack load ----------------------------------
  struct Live {
    std::unique_ptr<sim::Dataset> ds;
    std::unique_ptr<core::GenDTGenerator> gen;
    std::unique_ptr<context::ContextBuilder> builder;
  };
  const auto set_up = [&](size_t k) {
    const PinnedToCpu pin(k);
    Live l;
    const double t0 = now_s();
    l.ds = std::make_unique<sim::Dataset>(sim::make_dataset_a(cli_dataset_scale()));
    const double t1 = now_s();
    l.gen = load_pack(pack, *l.ds, 1);
    const double t2 = now_s();
    l.builder = std::make_unique<context::ContextBuilder>(l.ds->world, cli_context(),
                                                          l.gen->norm(), l.ds->kpis);
    const double t3 = now_s();
    r.setup_s.push_back(t3 - t0);
    r.dataset_s.push_back(t1 - t0);
    r.pack_load_ms.push_back(1e3 * (t2 - t1));
    return l;
  };
  const Live live = set_up(0);
  const auto& ds = live.ds;
  const auto& gen = live.gen;
  const auto& builder = live.builder;
  add_param_shapes(gen->model(), r);

  const int wlen = cli_context().window_len;
  const int nch = static_cast<int>(ds->kpis.size());
  const double extent = ds->world.region.extent_m;
  const double spacing = 1.6 * extent / static_cast<double>(kGridW);
  const auto point_windows = [&](const PassPlan& plan, long p) {
    const geo::Enu enu{-0.8 * extent + (static_cast<double>(p % kGridW) + plan.fx) * spacing,
                       -0.8 * extent + (static_cast<double>(p / kGridW) + plan.fy) * spacing};
    const geo::LatLon pos = ds->world.projection().to_latlon(enu);
    std::vector<geo::TrajectoryPoint> pts;
    pts.reserve(static_cast<size_t>(wlen));
    for (int t = 0; t < wlen; ++t) pts.push_back({static_cast<double>(t), pos});
    return builder->generation_windows(geo::Trajectory(pts));
  };

  const runtime::Parallelism par{.threads = kThreads};
  std::vector<double> means(static_cast<size_t>(kPoints * nch));  // the map: KPI means per point
  std::vector<double> block_done(static_cast<size_t>(kBlocks));
  std::vector<int> block_thread(static_cast<size_t>(kBlocks));
  std::vector<Sample> samples;
  std::atomic<uint64_t> cells{0}, built_windows{0};

  struct PassOut {
    double wall_s = 0.0;
    uint64_t windows = 0;
    uint64_t ok_points = 0;
  };
  // One pass over the lattice; returns its wall time and output count, and
  // appends its latency record when `record` is set.
  const auto run_pass = [&](size_t pass, bool traced, bool record) {
    const PassPlan& plan = plans[pass % plans.size()];
    const long sample_point =
        static_cast<long>(runtime::derive_stream_seed(opt.seed ^ 0x5A3B1Eu, pass) % kPoints);
    std::atomic<uint64_t> windows_done{0}, ok_points{0};
    Sample sample;
    PassOut out;
    SpanScope pass_span(traced, kBenchPass, 0, plan.gen_seed);
    const double t_start = now_s();
    {
      SpanScope tasks_span(traced, kRuntimeParallelTasks, pass_span.id());
      runtime::parallel_tasks(par, static_cast<int>(kBlocks), [&](int block) {
        SpanScope task(traced, kRuntimeTask, tasks_span.id());
        const long lo = static_cast<long>(block) * kBatch;
        const long hi = std::min(kPoints, lo + kBatch);
        std::vector<std::vector<context::Window>> windows(static_cast<size_t>(hi - lo));
        std::vector<core::GenerateBatchItem> items(static_cast<size_t>(hi - lo));
        uint32_t block_windows = 0;
        for (long p = lo; p < hi; ++p) {
          auto& w = windows[static_cast<size_t>(p - lo)];
          {
            SpanScope ctx(traced, kContextWindows, task.id());
            w = point_windows(plan, p);
            ctx.set_counts(1, static_cast<uint32_t>(w.size()));
          }
          for (const auto& win : w) cells.fetch_add(win.cell_attrs.size());
          built_windows.fetch_add(w.size());
          block_windows += static_cast<uint32_t>(w.size());
          items[static_cast<size_t>(p - lo)] = {
              .windows = &w,
              .seed = runtime::derive_stream_seed(plan.gen_seed, static_cast<uint64_t>(p))};
        }
        std::vector<core::GenerateBatchResult> results;
        {
          SpanScope core_span(traced, kCoreGenerateBatch, task.id());
          results = gen->generate_batch(items);
          core_span.set_counts(static_cast<uint32_t>(items.size()), block_windows);
        }
        for (long p = lo; p < hi; ++p) {
          const core::GenerateBatchResult& res = results[static_cast<size_t>(p - lo)];
          bool finite = res.ok;
          for (int ch = 0; res.ok && ch < nch; ++ch) {
            const std::vector<double>& series = res.series.channels[static_cast<size_t>(ch)];
            double sum = 0.0;
            for (double v : series) sum += v;
            const double mean = series.empty() ? 0.0 : sum / static_cast<double>(series.size());
            finite = finite && std::isfinite(mean);
            means[static_cast<size_t>(p * nch + ch)] = mean;
          }
          if (!finite) continue;
          ok_points.fetch_add(1);
          windows_done.fetch_add(windows[static_cast<size_t>(p - lo)].size());
          if (p == sample_point) sample = {pass % plans.size(), p, res.series};
        }
        task.set_counts(static_cast<uint32_t>(hi - lo), block_windows);
        block_done[static_cast<size_t>(block)] = now_s();
        block_thread[static_cast<size_t>(block)] = thread_tag();
      });
    }
    const double t_end = now_s();
    out.wall_s = t_end - t_start;
    out.windows = windows_done.load();
    out.ok_points = ok_points.load();
    if (!sample.series.channels.empty()) samples.push_back(std::move(sample));
    if (record) {
      // Time to first chunk: pass start -> first lane block done. Chunk gap:
      // successive block completions on one pool thread.
      Op op;
      op.ok = out.ok_points == static_cast<uint64_t>(kPoints);
      op.ttfc_ms = 1e3 * (*std::min_element(block_done.begin(), block_done.end()) - t_start);
      r.ttfc_ms.push_back(op.ttfc_ms);
      std::map<int, double> last_done;
      for (long b = 0; b < kBlocks; ++b) {
        const auto it = last_done.find(block_thread[static_cast<size_t>(b)]);
        if (it != last_done.end()) {
          const double gap = 1e3 * (block_done[static_cast<size_t>(b)] - it->second);
          r.gap_ms.push_back(gap);
          op.max_gap_ms = std::max(op.max_gap_ms, gap);
        }
        last_done[block_thread[static_cast<size_t>(b)]] = block_done[static_cast<size_t>(b)];
      }
      r.ops.push_back(op);
    }
    return out;
  };

  // ---- warm-up, then the steady phase --------------------------------------
  size_t pass = 0;
  const double warm_start = now_s();
  while (pass < 2 || now_s() - warm_start < kWarmupS) run_pass(pass++, false, false);
  samples.clear();
  cells = 0;
  built_windows = 0;

  SetupSchedule setups(opt.seconds);
  double steady = 0.0;
  for (size_t i = 0; steady < opt.seconds; ++i) {
    if (setups.due(steady)) set_up(setups.take());  // timed, then discarded
    // Traced runs alternate traced and untraced passes, so the tracing
    // overhead is measured against interleaved untraced work.
    const bool traced = opt.trace && i % 2 == 1;
    const double cpu0 = cpu_s();
    const PassOut out = run_pass(pass++, traced, !traced);
    r.cpu_s += cpu_s() - cpu0;
    steady += out.wall_s;
    (traced ? r.traced_wall_s : r.wall_s) += out.wall_s;
    (traced ? r.traced_windows : r.windows) += out.windows;
    r.units += kPoints;
    r.units_ok += out.ok_points;
  }
  r.counters["cells_per_window"] =
      static_cast<double>(cells.load()) / static_cast<double>(std::max<uint64_t>(1, built_windows));
  r.counters["threads"] = kThreads;
  r.counters["warm_peak_bytes"] = static_cast<double>(gen->warm_peak_bytes());

  // ---- output check (untimed): seeded sample vs the graph oracle ----------
  std::mt19937_64 pick(runtime::derive_stream_seed(opt.seed, 0xC4EC));
  std::shuffle(samples.begin(), samples.end(), pick);
  samples.resize(std::min<size_t>(samples.size(), 8));
  if (samples.empty()) r.problem("no covermap point sampled for the output check");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const PassPlan& plan = plans[s.plan];
    const std::vector<context::Window> windows = point_windows(plan, s.point);
    const uint64_t seed = runtime::derive_stream_seed(plan.gen_seed, static_cast<uint64_t>(s.point));
    check_output(r, "covermap point " + std::to_string(s.point), s.series,
                 gen->generate(windows, seed),
                 oracle_series(gen->model(), gen->norm(), gen->kpis(), windows, seed),
                 opt.corrupt && i == 0);
  }
  return 0;
}

}  // namespace perfbench
