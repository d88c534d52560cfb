#include "gendt/core/stream_session.h"

#include <algorithm>

#include "gendt/runtime/cancel.h"

namespace gendt::core {

StreamSession::StreamSession(const GenDTModel& model, context::KpiNorm norm,
                             std::vector<sim::Kpi> kpis, std::vector<context::Window> windows,
                             uint64_t seed, int chunk_windows)
    : model_(&model),
      norm_(std::move(norm)),
      kpis_(std::move(kpis)),
      windows_(std::move(windows)),
      chunk_windows_(std::max(1, chunk_windows)),
      session_(model) {
  state_.reset(seed);
}

GeneratedSeries StreamSession::next_chunk(const runtime::CancelToken* cancel) {
  const int nch = model_->config().num_channels;
  if (done()) return denormalize_samples({}, norm_, kpis_, nch);

  const size_t take =
      std::min(static_cast<size_t>(chunk_windows_), windows_.size() - next_window_);

  // Roll forward on a copy; commit only on success. A drain/deadline cancel
  // mid-chunk must leave the session at the pre-chunk boundary so a later
  // RESUME regenerates the identical chunk.
  InferStreamState st = state_;
  BatchLane lane;
  lane.windows = std::span<const context::Window>(windows_).subspan(next_window_, take);
  lane.cancel = cancel;
  lane.state = &st;
  std::vector<BatchLaneResult> results = session_.run({lane});
  if (results[0].cancelled) runtime::check_cancel(cancel);

  // Denormalization replicates GenDTGenerator::generate bit-for-bit; with
  // kpis_ empty it is exactly the `gendt generate` CSV path.
  GeneratedSeries out = denormalize_samples(results[0].samples, norm_, kpis_, nch);

  state_ = std::move(st);
  next_window_ += take;
  ++next_chunk_;
  return out;
}

}  // namespace gendt::core
