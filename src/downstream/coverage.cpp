#include "gendt/downstream/coverage.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>

namespace gendt::downstream {

CoverageGrid generate_coverage_grid(const core::GenDTGenerator& generator,
                                    const context::ContextBuilder& builder,
                                    const geo::LocalProjection& projection, double extent_m,
                                    const CoverageGridConfig& cfg) {
  if (cfg.width < 1 || cfg.height < 1 || cfg.batch < 1)
    throw std::invalid_argument("generate_coverage_grid: width, height and batch must be >= 1");
  // Point and block indices are ints (parallel_tasks counts tasks in int).
  if (cfg.width > std::numeric_limits<int>::max() / cfg.height)
    throw std::invalid_argument("generate_coverage_grid: width * height exceeds INT_MAX points");
  const long gw = cfg.width, gh = cfg.height;
  const long batch = cfg.batch;
  const int wlen = builder.config().window_len;
  const int nch = builder.num_channels();
  const long n_points = gw * gh;
  const long n_blocks = (n_points + batch - 1) / batch;

  const auto grid_enu = [&](long ix, long iy) {
    const double east = gw > 1 ? -0.8 * extent_m + static_cast<double>(ix) *
                                                       (1.6 * extent_m / static_cast<double>(gw - 1))
                               : 0.0;
    const double north = gh > 1 ? -0.8 * extent_m + static_cast<double>(iy) *
                                                        (1.6 * extent_m / static_cast<double>(gh - 1))
                                : 0.0;
    return geo::Enu{east, north};
  };

  CoverageGrid grid;
  grid.channels = nch;
  grid.positions.resize(static_cast<size_t>(n_points));
  grid.means.assign(static_cast<size_t>(n_points) * static_cast<size_t>(nch), 0.0);
  // Each block writes only its own points' slots and its own error list, so
  // blocks share nothing but the window counter.
  std::vector<std::vector<CoveragePointError>> block_errors(static_cast<size_t>(n_blocks));
  std::atomic<long> windows_done{0};

  runtime::parallel_tasks(cfg.parallelism, static_cast<int>(n_blocks), [&](int block) {
    const long lo = static_cast<long>(block) * batch;
    const long hi = std::min(n_points, lo + batch);
    // Window contexts are per-point state; build them here so blocks stay
    // independent, then roll all lanes of the block out in one GEMM batch.
    std::vector<std::vector<context::Window>> windows(static_cast<size_t>(hi - lo));
    std::vector<core::GenerateBatchItem> items(static_cast<size_t>(hi - lo));
    for (long p = lo; p < hi; ++p) {
      const geo::LatLon pos = projection.to_latlon(grid_enu(p % gw, p / gw));
      grid.positions[static_cast<size_t>(p)] = pos;
      std::vector<geo::TrajectoryPoint> pts;
      pts.reserve(static_cast<size_t>(wlen));
      for (int t = 0; t < wlen; ++t) pts.push_back({static_cast<double>(t), pos});
      windows[static_cast<size_t>(p - lo)] = builder.generation_windows(geo::Trajectory(pts));
      items[static_cast<size_t>(p - lo)] = {
          .windows = &windows[static_cast<size_t>(p - lo)],
          .seed = runtime::derive_stream_seed(cfg.gen_seed, static_cast<uint64_t>(p))};
    }
    const std::vector<core::GenerateBatchResult> results = generator.generate_batch(items);
    for (long p = lo; p < hi; ++p) {
      const core::GenerateBatchResult& r = results[static_cast<size_t>(p - lo)];
      if (!r.ok) {
        block_errors[static_cast<size_t>(block)].push_back({p, r.error});
        continue;
      }
      for (int ch = 0; ch < nch; ++ch) {
        const std::vector<double>& series = r.series.channels[static_cast<size_t>(ch)];
        double sum = 0.0;
        for (double v : series) sum += v;
        grid.means[static_cast<size_t>(p) * static_cast<size_t>(nch) + static_cast<size_t>(ch)] =
            series.empty() ? 0.0 : sum / static_cast<double>(series.size());
      }
      windows_done.fetch_add(static_cast<long>(windows[static_cast<size_t>(p - lo)].size()));
    }
  });

  grid.windows = windows_done.load();
  for (auto& errs : block_errors)
    grid.errors.insert(grid.errors.end(), errs.begin(), errs.end());
  return grid;
}

}  // namespace gendt::downstream
