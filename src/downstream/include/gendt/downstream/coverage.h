// Coverage mapping from generated data: the classic drive-test product
// (paper §2.1 relates GenDT to coverage-mapping work). A GenDT model is
// rolled out at every point of a W×H lattice of stationary trajectories
// over the region; each point's per-channel mean KPI forms the map without
// any field measurement. `gendt covermap` is a thin front end over this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gendt/context/context.h"
#include "gendt/core/model.h"
#include "gendt/runtime/thread_pool.h"

namespace gendt::downstream {

struct CoverageGridConfig {
  long width = 16;   // lattice points along east
  long height = 16;  // lattice points along north
  int batch = 8;     // lanes per generate_batch call
  uint64_t gen_seed = 1;
  runtime::Parallelism parallelism;
};

struct CoveragePointError {
  long point = 0;  // iy * width + ix
  std::string message;
};

/// Point p = iy * width + ix is row-major throughout.
struct CoverageGrid {
  std::vector<geo::LatLon> positions;        // one per point
  std::vector<double> means;                 // [point * channels + channel]
  int channels = 0;
  long windows = 0;                          // windows generated, all points
  std::vector<CoveragePointError> errors;    // ascending by point
};

/// Map the central 80% of the world's square of half-side `extent_m`
/// (the margin avoids projecting outside the land-use raster). Points roll
/// out in blocks of `batch` lanes through generate_batch, blocks spread over
/// `parallelism`. Point p always runs on RNG stream
/// derive_stream_seed(gen_seed, p) — never on its lane slot or the thread
/// that picked its block up — so the result is bitwise identical at every
/// thread count and batch size. A failed point keeps zero means and is
/// listed in `errors`. Throws std::invalid_argument unless width, height and
/// batch are >= 1 and width * height fits in an int.
CoverageGrid generate_coverage_grid(const core::GenDTGenerator& generator,
                                    const context::ContextBuilder& builder,
                                    const geo::LocalProjection& projection, double extent_m,
                                    const CoverageGridConfig& cfg);

}  // namespace gendt::downstream
