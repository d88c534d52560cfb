// StreamSession: chunked, seam-free, resumable generation.
//
// The paper's windowed generator stitches windows naively and pays ~2x seam
// discontinuities at the boundaries (EXPERIMENTS.md Table 8). A
// StreamSession instead carries the full cross-window state — the ResGen
// autoregressive tail and the rollout RNG, i.e. core::InferStreamState —
// across chunk boundaries, so a stream emitted chunk-by-chunk is bitwise
// identical to one long generate() over the same windows: seam-free by
// construction, not by smoothing.
//
// snapshot()/restore() capture that state at a chunk boundary. The serving
// layer snapshots after every ACKed chunk; a client that disconnects and
// RESUMEs replays from the snapshot and receives exactly the bytes the
// uninterrupted stream would have carried (stream_server_test pins all
// three equalities: resumed == uninterrupted == single-shot generate).
//
// Each chunk is a one-lane BatchedInferenceSession run that starts from the
// carried state. A session is single-user, like the rollout session it owns.
// next_chunk() is transactional: on cancellation (drain, deadline) the
// session state is untouched, so the chunk can be regenerated or resumed
// later.
#pragma once

#include "gendt/core/batched_infer_session.h"
#include "gendt/core/model.h"

namespace gendt::core {

class StreamSession {
 public:
  /// Chunk-boundary state: everything needed to regenerate the remainder of
  /// the stream bit-for-bit. Plain value type — copy to snapshot.
  struct Snapshot {
    InferStreamState state;
    size_t next_window = 0;
    uint64_t next_chunk = 0;
  };

  /// The model must outlive the session. `kpis` (optional, may be empty)
  /// declares channel semantics for denormalization: with it, values are
  /// denormalized + snapped exactly like GenDTGenerator::generate; without
  /// it, plain denormalization — the `gendt generate` CSV path.
  StreamSession(const GenDTModel& model, context::KpiNorm norm, std::vector<sim::Kpi> kpis,
                std::vector<context::Window> windows, uint64_t seed, int chunk_windows);

  /// Generate the next up-to-chunk_windows windows, denormalized to
  /// physical units. Transactional: a CancelledError (or any throw) leaves
  /// the session exactly at the pre-call boundary.
  GeneratedSeries next_chunk(const runtime::CancelToken* cancel = nullptr);

  bool done() const { return next_window_ >= windows_.size(); }
  size_t next_window() const { return next_window_; }
  uint64_t next_chunk_index() const { return next_chunk_; }
  int chunk_windows() const { return chunk_windows_; }
  size_t total_windows() const { return windows_.size(); }
  int num_channels() const { return model_->config().num_channels; }

  Snapshot snapshot() const { return Snapshot{state_, next_window_, next_chunk_}; }
  void restore(const Snapshot& snap) {
    state_ = snap.state;
    next_window_ = snap.next_window;
    next_chunk_ = snap.next_chunk;
  }

 private:
  const GenDTModel* model_;
  context::KpiNorm norm_;
  std::vector<sim::Kpi> kpis_;
  std::vector<context::Window> windows_;
  int chunk_windows_;
  BatchedInferenceSession session_;
  InferStreamState state_;
  size_t next_window_ = 0;
  uint64_t next_chunk_ = 0;
};

}  // namespace gendt::core
