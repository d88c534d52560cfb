// Shared pieces of the benchmark runner: the fixed model/dataset
// configuration (mirrors the `gendt` CLI defaults), GDTPACK1 model files,
// the graph-oracle output check, clocks, the span recorder used by traced
// runs, and the raw result every workload fills in.
//
// The runner measures and records; it computes no statistics. It writes a
// raw JSON result that run.py turns into the reported metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gendt/context/context.h"
#include "gendt/core/model.h"
#include "gendt/runtime/mutex.h"
#include "gendt/sim/dataset.h"

namespace perfbench {

using namespace gendt;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Flip one bit of one checked output before the check (proves the check
  /// fails the run).
  bool corrupt = false;
  std::string out;      ///< raw result JSON path
  std::string workdir;  ///< working directory for model packs and the socket
};

/// Set-ups timed per run (setup_s is their median) and the warm-up before
/// the steady phase, for every workload: two set-ups per CPU of a 4-CPU
/// host (see PinnedToCpu).
inline constexpr int kSetupReps = 8;
inline constexpr double kWarmupS = 1.5;

/// Steady clock, seconds since process start.
double now_s();
/// A small dense id of the calling thread.
int thread_tag();
/// Process user+sys CPU seconds, all threads.
double cpu_s();
/// Process high-water resident set, MiB.
double peak_rss_mb();

/// `gendt` CLI defaults: dataset A at --seed 42 --train-s 600, the context
/// window it builds, and the deterministic-init hidden=48 GenDT.
sim::DatasetScale cli_dataset_scale();
context::ContextConfig cli_context();
core::GenDTConfig model_config(int num_channels, uint64_t model_seed);

/// Write the deterministic-init model `model_seed` with the dataset's KPI
/// norm as a GDTPACK1 file (what `gendt train` + `gendt pack` publish).
void write_model_pack(const sim::Dataset& ds, uint64_t model_seed, const std::string& path);

/// Load a pack the way `gendt serve` does: structural-verify map, norm from
/// the metadata, set_kpis, load_packed. Throws on failure.
std::unique_ptr<core::GenDTGenerator> load_pack(const std::string& path, const sim::Dataset& ds,
                                                uint64_t model_seed);

/// The graph oracle: GenDTModel::sample_windows, denormalized like
/// GenDTGenerator::generate (CQI snapped when `kpis` is non-empty).
core::GeneratedSeries oracle_series(const core::GenDTModel& model, const context::KpiNorm& norm,
                                    const std::vector<sim::Kpi>& kpis,
                                    const std::vector<context::Window>& windows, uint64_t seed);

/// Pins the calling thread to the k-th (modulo) CPU the process may use
/// and restores the previous CPU mask on destruction. The vCPUs of a shared
/// host run at different speeds (a fixed loop took 0.12 s on one and 0.17 s
/// on another of the same VM), so set-ups run on each CPU in turn and the
/// stream event loop moves on every half second. A run then samples every
/// vCPU alike instead of whichever one the scheduler picked.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(size_t k);
  ~PinnedToCpu();
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  std::vector<int> previous_;
};

/// When the set-ups after the first one run. They are spread over the steady
/// phase, one at the start of each of kSetupReps - 1 equal slices of steady
/// time, so their median sees the same host as the steady-phase metrics.
class SetupSchedule {
 public:
  explicit SetupSchedule(double steady_s) : slice_s_(steady_s / (kSetupReps - 1)) {}
  /// True when the next set-up is due after `steady_elapsed` seconds.
  bool due(double steady_elapsed) const {
    return done_ < kSetupReps && steady_elapsed >= slice_s_ * (done_ - 1);
  }
  /// Counts a set-up; returns its index (the first one, before the steady
  /// phase, is 0).
  size_t take() { return static_cast<size_t>(done_++); }
  double slice_s() const { return slice_s_; }

 private:
  double slice_s_;
  int done_ = 1;
};

// ---- spans -----------------------------------------------------------------

/// Span names. The layer of a span is its name up to the last '.'; `bench`
/// spans are the roots (one per traced operation) and their self time is the
/// unattributed remainder.
enum SpanName : uint32_t {
  kBenchPass,
  kBenchBatch,
  kBenchSlice,
  kRuntimeParallelTasks,
  kRuntimeTask,
  kContextWindows,
  kCoreGenerateBatch,
  kServeRouter,
  kCoreGenerate,
  kBaselinesGenerate,
  kStreamOpen,
  kCoreNextChunk,
  kStreamSnapshot,
  kNumSpanNames,
};
const char* span_name(uint32_t name);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint32_t name = 0;
  uint64_t key = 0;      ///< request / session id (its generation seed)
  uint64_t aux = 0;      ///< chunk index for next_chunk spans
  uint32_t lanes = 0;    ///< items handled by the call
  uint32_t windows = 0;  ///< windows produced or built by the call
  double t0 = 0.0;
  double t1 = 0.0;
};

/// In-memory span store; written out when the run ends.
class Tracer {
 public:
  uint64_t next_id() { return next_.fetch_add(1, std::memory_order_relaxed); }
  void record(const Span& s) GENDT_EXCLUDES(mu_);
  std::vector<Span> take() GENDT_EXCLUDES(mu_);

 private:
  std::atomic<uint64_t> next_{1};
  runtime::Mutex mu_;
  std::vector<Span> spans_ GENDT_GUARDED_BY(mu_);
};
Tracer& tracer();

/// Records one span over its lifetime when `on`; free when off.
class SpanScope {
 public:
  SpanScope(bool on, uint32_t name, uint64_t parent, uint64_t key = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint64_t id() const { return span_.id; }
  void set_counts(uint32_t lanes, uint32_t windows) {
    span_.lanes = lanes;
    span_.windows = windows;
  }
  void set_aux(uint64_t aux) { span_.aux = aux; }

 private:
  bool on_;
  Span span_;
};

// ---- raw result --------------------------------------------------------------

/// One latency-bearing operation (map pass, request, session) for the SLO.
struct Op {
  bool ok = false;
  double ttfc_ms = 0.0;
  double max_gap_ms = 0.0;  ///< 0 when the operation had a single output
};

/// A stream chunk as the client saw it, for joining with server spans.
struct ChunkSeen {
  uint64_t session = 0;
  uint64_t index = 0;
  double gap_ms = 0.0;  ///< ACK sent -> this chunk received
  uint64_t wire_bytes = 0;
};

struct Result {
  // Set-up, one entry per repetition.
  std::vector<double> setup_s, dataset_s, pack_load_ms, fdas_fit_ms;

  // Steady phase. With tracing, `wall_s`/`windows` cover the untraced
  // operations and `traced_*` the traced ones.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t windows = 0;
  double traced_wall_s = 0.0;
  uint64_t traced_windows = 0;

  // ok_frac units: grid points, requests or sessions issued in the steady phase.
  uint64_t units = 0;
  uint64_t units_ok = 0;

  std::vector<double> ttfc_ms;
  std::vector<double> gap_ms;
  std::vector<Op> ops;

  // Output check.
  uint64_t checked = 0;
  uint64_t mismatched = 0;
  std::vector<std::string> problems;

  std::map<std::string, double> counters;
  struct Param {
    std::string name;
    int rows = 0;
    int cols = 0;
  };
  std::vector<Param> params;
  std::vector<Span> spans;
  std::vector<ChunkSeen> chunks;
  double peak_rss_mb = 0.0;

  void problem(const std::string& what) { problems.push_back(what); }
};

/// Check one sampled output, outside the timed phase. `got` is what the
/// front end delivered; `rerun` is the same request through the
/// production single-request call, which must match bit for bit; `oracle`
/// is oracle_series(), which must match bit for bit on the scalar kernel
/// route and within the SIMD rollout tolerance of simd_parity_test
/// (1e-7 + 1e-5 relative) on the AVX routes, where the fused fast-path
/// kernels round differently from the graph's. A failed check counts the
/// operation as failed. `corrupt` flips one bit of `got` first.
void check_output(Result& r, const std::string& what, core::GeneratedSeries got,
                  const core::GeneratedSeries& rerun, const core::GeneratedSeries& oracle,
                  bool corrupt);

/// Generator parameter shapes of the served model, for the FLOP estimate.
void add_param_shapes(const core::GenDTModel& model, Result& r);

int run_covermap(const Options& opt, Result& r);
int run_serve_batch(const Options& opt, Result& r);
int run_stream(const Options& opt, Result& r);

/// Serialize the raw result.
bool write_result(const Options& opt, const Result& r, const std::string& path);

}  // namespace perfbench
