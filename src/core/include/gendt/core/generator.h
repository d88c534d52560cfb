// Common interface for conditional KPI time-series generators — GenDT and
// every baseline implement it, so the evaluation harness treats them
// uniformly.
#pragma once

#include <string>
#include <vector>

#include "gendt/context/context.h"
#include "gendt/runtime/cancel.h"

namespace gendt::core {

/// Generated multi-KPI series in physical (denormalized) units.
struct GeneratedSeries {
  /// channels[ch][t] — one series per KPI channel, aligned with the input
  /// windows' sample order.
  std::vector<std::vector<double>> channels;

  size_t length() const { return channels.empty() ? 0 : channels.front().size(); }
};

/// A trained conditional generator: maps context windows for a target
/// trajectory to synthetic KPI series.
class TimeSeriesGenerator {
 public:
  virtual ~TimeSeriesGenerator() = default;

  virtual std::string name() const = 0;

  /// Fit on training windows (targets must be present).
  virtual void fit(const std::vector<context::Window>& train_windows) = 0;

  /// Generate series for the given (non-overlapping) generation windows.
  /// `seed` controls the sampling noise; different seeds give different
  /// stochastic realizations.
  virtual GeneratedSeries generate(const std::vector<context::Window>& windows,
                                   uint64_t seed) const = 0;

  /// Cancellable generation: implementations that can stop mid-series poll
  /// `cancel` at window granularity and unwind with runtime::CancelledError
  /// once it trips (GenDT does; see GenDTModel::sample_windows). The default
  /// checks once up front and then runs the plain generate() to completion —
  /// correct for cheap baselines whose whole pass is one "window" of work.
  /// A null `cancel` is the plain uncancellable call.
  virtual GeneratedSeries generate(const std::vector<context::Window>& windows, uint64_t seed,
                                   const runtime::CancelToken* cancel) const {
    runtime::check_cancel(cancel);
    return generate(windows, seed);
  }
};

/// Extract the real (denormalized) KPI series aligned with the given
/// generation windows — the ground truth for fidelity metrics.
GeneratedSeries real_series(const std::vector<context::Window>& windows,
                            const context::KpiNorm& norm);

}  // namespace gendt::core
