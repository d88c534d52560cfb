// gendt — command-line front end for the GenDT library.
//
//   gendt simulate --out DIR [--dataset a|b] [--seed N] [--train-s SEC]
//       Simulate a drive-test campaign; writes per-scenario train/test
//       record CSVs plus the deployment's cells.csv.
//
//   gendt train --out MODEL.ckpt [--dataset a|b] [--seed N] [--epochs E]
//               [--threads N] [--resume] [--record FILE]...
//       Train a GenDT model. Records come from --record CSVs, or from a
//       fresh simulation of the dataset when none are given. After every
//       epoch the full training state — parameters, Adam slots, epoch
//       cursor, KPI normalization — is written atomically to MODEL.ckpt
//       (GDTCKPT2: CRC-protected, norm stats in header metadata). A run
//       killed mid-way resumes with --resume and finishes bitwise
//       identical to an uninterrupted run, at any --threads setting.
//
//   gendt generate --model MODEL.ckpt --trajectory TRAJ.csv --out OUT.csv
//                  [--dataset a|b] [--seed N] [--gen-seed N] [--threads N]
//       Generate KPI series for a trajectory (no measurements needed).
//       Reads GDTCKPT2 checkpoints and legacy GDTCKPT1 files (which carried
//       the norm stats as two fake parameter rows).
//
//   gendt eval --real FILE.csv --generated FILE.csv
//       Fidelity metrics (MAE/DTW/HWD) per channel between two series CSVs.
//
//   gendt pack --in MODEL.ckpt --out MODEL.gdtpack
//       Convert a checkpoint into a GDTPACK1 zero-copy weight arena:
//       parameters + metadata laid out 64-byte aligned for one-mmap loading
//       (trainer state is dropped — a pack is an inference artifact).
//       generate and serve accept either format and detect it by magic.
//
//   gendt serve --requests FILE (--model MODEL.ckpt | --models id=PATH,...)
//               --out DIR [--deadline-ms N] [--max-queue N] [--shed]
//               [--model-budget N] [--threads N] [--dataset a|b] [--seed N]
//       Batch-serve generation requests through the fault-tolerant serving
//       stack: a ModelRegistry of named models routed by request model id,
//       bounded admission with per-model budgets, per-request deadlines,
//       retry-with-backoff, and graceful degradation to an FDaS fallback.
//       FILE lists one request per line: `trajectory.csv [gen-seed]
//       [deadline-ms] [model-id]` ('#' starts a comment; the model id
//       defaults to the first --models entry). Exits non-zero iff any
//       request ends in a structured error or was shed (degraded responses
//       are successes — that is the point of the fallback).
//
//   gendt serve --stream --socket PATH --model MODEL.{ckpt,gdtpack}
//               [--chunk-windows N] [--idle-timeout-ms N] [--drain-deadline-ms N]
//               [--threads N] [--dataset a|b] [--seed N]
//       Streaming daemon: GDTSTRM1 sessions over a Unix-domain socket.
//       Each OPEN carries a trajectory; the server answers in ACK-paced
//       chunks (one in flight per session, so a stalled reader exerts
//       backpressure), keeps a resume snapshot at every ACK, and survives
//       disconnects: a RESUME continues from the last ACKed chunk with the
//       stream bitwise identical to an uninterrupted one — and to `gendt
//       generate` on the same trajectory. SIGINT/SIGTERM drains gracefully:
//       in-flight chunks finish (or cancel at --drain-deadline-ms), every
//       session closes cleanly, final stats partition exactly.
//
//   gendt stream-client --socket PATH --trajectory TRAJ.csv --out OUT.csv
//               [--gen-seed N] [--chunk-windows N]
//               [--kill-after-chunks K --state FILE] [--resume --state FILE]
//       Blocking client for the streaming daemon: opens a session, receives
//       and ACKs chunks, writes the series CSV. --kill-after-chunks drops
//       the connection mid-stream and saves the session credentials plus
//       received values to --state; a later --resume --state run reconnects,
//       RESUMEs, and finishes the identical CSV.
//
//   gendt replay --out BENCH.json (--scripted N | --models id=PATH,...)
//               [--requests N] [--rate-hz R] [--seed N] [--deadline-ms N]
//               [--sim-workers W] [--budget B] [--threads T] [--swap-at MS]
//       Trace-replay load harness: generate a request trace (synthetic
//       windows against N scripted models, or simulated user trajectories
//       against real checkpoints), replay it against the model registry on
//       virtual time, and write per-model p50/p99 latency + shed rate as
//       google-benchmark JSON (tools/bench_compare.py format). Outcomes are
//       bitwise deterministic at any --threads value and any --swap-at
//       timing; --swap-at hot-swaps the first model to identically-loaded
//       weights mid-replay to prove it.
//
// The world (cells + environment context) is reconstructed from
// --dataset/--seed; operators with real data would adapt sim::World to
// their cell table and land-use sources.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gendt/baselines/baselines.h"
#include "gendt/core/batched_infer_session.h"
#include "gendt/core/model.h"
#include "gendt/geo/geo.h"
#include "gendt/io/csv.h"
#include "gendt/metrics/metrics.h"
#include "gendt/nn/pack.h"
#include "gendt/nn/simd.h"
#include "gendt/runtime/signal.h"
#include "gendt/runtime/thread_pool.h"
#include "gendt/serve/engine.h"
#include "gendt/serve/fault.h"
#include "gendt/serve/registry.h"
#include "gendt/serve/replay.h"
#include "gendt/serve/router.h"
#include "gendt/serve/stream/client.h"
#include "gendt/serve/stream/server.h"
#include "gendt/sim/dataset.h"

using namespace gendt;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> records;

  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  bool flag(const std::string& key) const { return options.count(key) != 0; }
  // Exits with a usage error on a malformed value rather than letting
  // std::stol's exception escape to std::terminate.
  long get_long(const std::string& key, long fallback) const {
    const std::string v = get(key);
    if (v.empty()) return fallback;
    try {
      size_t pos = 0;
      const long parsed = std::stol(v, &pos);
      if (pos != v.size()) throw std::invalid_argument(v);
      return parsed;
    } catch (const std::exception&) {
      std::fprintf(stderr, "error: --%s expects an integer, got '%s'\n", key.c_str(), v.c_str());
      std::exit(2);
    }
  }
};

// Per-command vocabulary: anything else is a hard usage error, not a silent
// skip — a typoed `--thread 4` must not quietly run serial.
const std::map<std::string, std::set<std::string>>& command_options() {
  static const std::map<std::string, std::set<std::string>> kOptions = {
      {"simulate", {"out", "dataset", "seed", "train-s"}},
      {"train", {"out", "dataset", "seed", "train-s", "epochs", "threads", "resume", "record"}},
      {"generate",
       {"model", "trajectory", "out", "dataset", "seed", "train-s", "gen-seed", "threads",
        "fast", "reference"}},
      {"eval", {"real", "generated"}},
      {"pack", {"in", "out"}},
      {"serve",
       {"requests", "model", "models", "model-budget", "out", "dataset", "seed", "train-s",
        "deadline-ms", "max-queue", "shed", "threads", "batch-max", "lane-batch",
        // --stream daemon options
        "stream", "socket", "chunk-windows", "idle-timeout-ms", "drain-deadline-ms",
        "stream-sessions", "idle-exit-ms"}},
      {"stream-client",
       {"socket", "trajectory", "out", "gen-seed", "chunk-windows", "kill-after-chunks",
        "state", "resume"}},
      {"replay",
       {"out", "scripted", "models", "requests", "rate-hz", "seed", "deadline-ms",
        "sim-workers", "budget", "threads", "window-cost-ms", "windows", "window-len",
        "swap-at", "duration-s", "dataset", "train-s"}},
      {"covermap",
       {"out", "grid", "batch", "threads", "seed", "gen-seed", "train-s", "dataset", "model",
        "bench-out"}},
  };
  return kOptions;
}

bool is_help(const std::string& command) {
  return command == "--help" || command == "-h" || command == "help";
}

bool is_version(const std::string& command) {
  return command == "--version" || command == "-V" || command == "version";
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc >= 2) a.command = argv[1];
  if (a.command.empty() || is_help(a.command) || is_version(a.command)) return a;
  const auto cmd = command_options().find(a.command);
  if (cmd == command_options().end()) {
    std::fprintf(stderr,
                 "error: unknown command '%s' (expected simulate, train, generate, eval, "
                 "pack, serve, stream-client, replay, or covermap; see 'gendt --help')\n",
                 a.command.c_str());
    std::exit(2);
  }
  static const std::set<std::string> kBoolFlags = {"resume", "shed", "fast", "reference",
                                                   "stream", "lane-batch"};
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: unexpected argument '%s' (options start with --)\n",
                   arg.c_str());
      std::exit(2);
    }
    const std::string key = arg.substr(2);
    if (cmd->second.count(key) == 0) {
      std::fprintf(stderr, "error: unknown option '--%s' for command '%s'\n", key.c_str(),
                   a.command.c_str());
      std::exit(2);
    }
    if (kBoolFlags.count(key) != 0) {  // boolean flags take no value
      a.options[key] = "1";
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: option '--%s' expects a value\n", key.c_str());
      std::exit(2);
    }
    if (key == "record") {
      a.records.emplace_back(argv[++i]);
    } else {
      a.options[key] = argv[++i];
    }
  }
  return a;
}

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: gendt <simulate|train|generate|eval|pack|serve|stream-client|replay"
               "|covermap> [options]\n"
               "  simulate --out DIR [--dataset a|b] [--seed N] [--train-s SEC]\n"
               "  train    --out MODEL.ckpt [--dataset a|b] [--seed N] [--epochs E]"
               " [--threads N] [--resume] [--record FILE]...\n"
               "  generate --model MODEL.ckpt --trajectory TRAJ.csv --out OUT.csv"
               " [--dataset a|b] [--seed N] [--gen-seed N] [--threads N] [--fast|--reference]\n"
               "  eval     --real FILE.csv --generated FILE.csv\n"
               "  pack     --in MODEL.ckpt --out MODEL.gdtpack\n"
               "  serve    --requests FILE (--model MODEL.ckpt | --models id=PATH,...)"
               " --out DIR [--deadline-ms N] [--max-queue N] [--shed] [--model-budget N]"
               " [--threads N] [--batch-max N] [--lane-batch] [--dataset a|b] [--seed N]\n"
               "  serve    --stream --socket PATH --model MODEL [--chunk-windows N]"
               " [--idle-timeout-ms N] [--drain-deadline-ms N] [--threads N]"
               " [--dataset a|b] [--seed N]\n"
               "  stream-client --socket PATH --trajectory TRAJ.csv --out OUT.csv"
               " [--gen-seed N] [--chunk-windows N] [--kill-after-chunks K] [--state FILE]"
               " [--resume]\n"
               "  replay   --out BENCH.json (--scripted N | --models id=PATH,...)"
               " [--requests N] [--rate-hz R] [--seed N] [--deadline-ms N] [--sim-workers W]"
               " [--budget B] [--threads T] [--swap-at MS]\n"
               "  covermap --out MAP.csv [--grid WxH] [--batch B] [--threads N]"
               " [--model MODEL] [--gen-seed N] [--bench-out BENCH.json]"
               " [--dataset a|b] [--seed N]\n"
               "--threads N sets the worker-thread count (0 = all hardware threads,\n"
               "1 = serial). Results are bitwise identical at every setting.\n"
               "train writes an atomic checkpoint after every epoch; --resume\n"
               "continues a killed run bit-for-bit from the last epoch boundary.\n"
               "serve reads one request per line from --requests ('trajectory.csv\n"
               "[gen-seed] [deadline-ms] [model-id]'), routes by model id through a\n"
               "multi-model registry (--models id=PATH,... with per-model\n"
               "--model-budget admission), enforces deadlines cooperatively, and\n"
               "degrades to an FDaS fallback instead of failing when it can.\n"
               "replay load-tests the registry on virtual time and writes per-model\n"
               "p50/p99 latency + shed rate as bench_compare.py-compatible JSON.\n"
               "generate runs the tape-free fast path by default; --reference runs\n"
               "the autograd graph instead — outputs are bitwise identical.\n"
               "serve --batch-max N lets each worker drain up to N queued requests\n"
               "and fan them out on the shared pool; responses are bitwise\n"
               "independent of batch composition. --lane-batch additionally packs\n"
               "each drained batch's compatible requests into one lane-batched\n"
               "GEMM rollout — same bits, higher throughput.\n"
               "covermap generates a KPI coverage map (ROADMAP 4b): a --grid WxH\n"
               "lattice of stationary trajectories over the region, rolled out in\n"
               "lane batches of --batch through the batched inference session.\n"
               "Point (ix,iy) always runs on RNG stream derive_stream_seed(\n"
               "gen-seed, iy*W+ix), so the CSV is byte-identical at every\n"
               "--threads/--batch setting; --bench-out writes throughput JSON.\n"
               "serve --stream runs the GDTSTRM1 streaming daemon on a Unix socket:\n"
               "chunked generation with ACK-paced backpressure, seam-free RESUME\n"
               "from the last ACKed chunk, and graceful drain on SIGINT/SIGTERM.\n"
               "stream-client consumes one stream into a series CSV;\n"
               "--kill-after-chunks K drops the connection after K chunks (saving\n"
               "--state) and --resume continues from the state file — the resumed\n"
               "CSV is byte-identical to an uninterrupted stream and to generate.\n"
               "pack converts a GDTCKPT2 checkpoint into a GDTPACK1 weight arena\n"
               "that generate/serve load with one mmap and zero tensor copies;\n"
               "GENDT_SIMD=off|avx2|auto selects the kernel route (gendt --version\n"
               "shows the CPU features and the route in effect).\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

sim::Dataset build_dataset(const Args& a) {
  sim::DatasetScale scale;
  scale.seed = static_cast<uint64_t>(a.get_long("seed", 42));
  scale.train_duration_s = static_cast<double>(a.get_long("train-s", 600));
  scale.test_duration_s = scale.train_duration_s / 2.0;
  scale.records_per_scenario = 1;
  return a.get("dataset", "a") == "b" ? sim::make_dataset_b(scale) : sim::make_dataset_a(scale);
}

context::ContextConfig default_context() {
  context::ContextConfig cfg;
  cfg.window_len = 50;
  cfg.train_step = 10;
  cfg.max_cells = 6;
  return cfg;
}

// Legacy GDTCKPT1 checkpoints carried the norm stats as two fake parameter
// rows; v2 files keep them in header metadata instead. This helper exists
// only for the v1 read path in cmd_generate.
std::vector<nn::NamedParam> legacy_norm_params(nn::Tensor& mean, nn::Tensor& stddev) {
  return {{"kpi_norm.mean", mean}, {"kpi_norm.std", stddev}};
}

int cmd_simulate(const Args& a) {
  const std::string out_dir = a.get("out");
  if (out_dir.empty()) return usage();
  std::filesystem::create_directories(out_dir);
  sim::Dataset ds = build_dataset(a);

  if (!io::write_cells_csv(ds.world.cells, out_dir + "/cells.csv")) {
    std::fprintf(stderr, "error: cannot write %s/cells.csv\n", out_dir.c_str());
    return 1;
  }
  auto dump = [&](const std::vector<sim::DriveTestRecord>& recs, const char* tag) {
    for (const auto& rec : recs) {
      std::string name{sim::scenario_name(rec.scenario)};
      for (auto& c : name)
        if (c == ' ') c = '_';
      const std::string path = out_dir + "/" + tag + "_" + name + ".csv";
      if (!io::write_record_csv(rec, path)) return false;
      std::printf("wrote %s (%zu samples)\n", path.c_str(), rec.samples.size());
    }
    return true;
  };
  if (!dump(ds.train, "train") || !dump(ds.test, "test")) {
    std::fprintf(stderr, "error: failed writing record CSVs\n");
    return 1;
  }
  std::printf("wrote %s/cells.csv (%zu cells)\n", out_dir.c_str(), ds.world.cells.size());
  return 0;
}

int cmd_train(const Args& a) {
  const std::string out = a.get("out");
  if (out.empty()) return usage();
  const bool resume = a.flag("resume");
  const std::string dataset = a.get("dataset", "a");
  sim::Dataset ds = build_dataset(a);

  std::vector<sim::DriveTestRecord> records;
  if (a.records.empty()) {
    records = ds.train;
    std::printf("no --record given: training on a simulated %s-style campaign "
                "(%zu records)\n",
                dataset.c_str(), records.size());
  } else {
    for (const auto& path : a.records) {
      auto rec = io::read_record_csv(path);
      if (!rec) {
        std::fprintf(stderr, "error: %s\n", io::last_error().c_str());
        return 1;
      }
      records.push_back(std::move(*rec));
    }
  }

  core::TrainConfig tcfg;
  tcfg.epochs = static_cast<int>(a.get_long("epochs", 12));
  tcfg.seed = static_cast<uint64_t>(a.get_long("seed", 42));
  tcfg.verbose = true;
  const int threads = static_cast<int>(a.get_long("threads", 0));
  tcfg.parallelism = {.threads = threads};

  // On --resume, the checkpoint is the source of truth for the norm stats
  // and the training cursor; it is read (and fully validated) before the
  // windows are built, because the norm shapes every window's target.
  nn::Checkpoint ckpt;
  context::KpiNorm norm = context::fit_kpi_norm(records, ds.kpis);
  if (resume) {
    const nn::LoadResult r = nn::read_checkpoint(out, ckpt);
    if (!r.ok()) {
      std::fprintf(stderr, "error: cannot resume from %s: %s\n", out.c_str(),
                   r.message().c_str());
      return 1;
    }
    if (r.version < 2) {
      std::fprintf(stderr,
                   "error: %s is a legacy GDTCKPT1 checkpoint with no training state; "
                   "retrain without --resume\n",
                   out.c_str());
      return 1;
    }
    uint64_t saved_seed = 0, epochs_done = 0;
    if (!ckpt.meta.get_u64("train.seed", saved_seed) ||
        !ckpt.meta.get_u64("train.epochs_done", epochs_done)) {
      std::fprintf(stderr, "error: %s carries no resume cursor (not written by 'gendt train')\n",
                   out.c_str());
      return 1;
    }
    if (saved_seed != tcfg.seed) {
      std::fprintf(stderr,
                   "error: checkpoint was trained with --seed %llu, not %llu — resuming would "
                   "not reproduce the uninterrupted run\n",
                   static_cast<unsigned long long>(saved_seed),
                   static_cast<unsigned long long>(tcfg.seed));
      return 1;
    }
    std::string saved_dataset;
    if (ckpt.meta.get_string("train.dataset", saved_dataset) && saved_dataset != dataset) {
      std::fprintf(stderr, "error: checkpoint was trained on dataset '%s', not '%s'\n",
                   saved_dataset.c_str(), dataset.c_str());
      return 1;
    }
    std::vector<double> mean, stddev;
    if (!ckpt.meta.get_f64s("kpi_norm.mean", mean) ||
        !ckpt.meta.get_f64s("kpi_norm.std", stddev) || mean.size() != ds.kpis.size() ||
        stddev.size() != ds.kpis.size()) {
      std::fprintf(stderr, "error: %s has no usable kpi_norm metadata\n", out.c_str());
      return 1;
    }
    norm.mean = std::move(mean);
    norm.stddev = std::move(stddev);
    tcfg.start_epoch = static_cast<int>(epochs_done);
  }

  context::ContextBuilder builder(ds.world, default_context(), norm, ds.kpis);
  std::vector<context::Window> windows;
  for (const auto& rec : records) {
    auto w = builder.training_windows(rec);
    windows.insert(windows.end(), w.begin(), w.end());
  }
  if (windows.empty()) {
    std::fprintf(stderr, "error: no training windows (records too short?)\n");
    return 1;
  }

  core::GenDTConfig mcfg;
  mcfg.num_channels = static_cast<int>(ds.kpis.size());
  mcfg.hidden = 48;
  mcfg.parallelism = {.threads = threads};
  core::GenDTModel model(mcfg);

  auto params = model.generator_params();
  for (auto& p : model.discriminator_params()) params.push_back(p);

  if (resume) {
    uint64_t saved_windows = 0;
    if (ckpt.meta.get_u64("train.windows", saved_windows) && saved_windows != windows.size()) {
      std::fprintf(stderr,
                   "error: checkpoint was trained on %llu windows, this invocation built %zu — "
                   "the training set changed\n",
                   static_cast<unsigned long long>(saved_windows), windows.size());
      return 1;
    }
    const nn::LoadResult r = nn::apply_params(params, ckpt, nn::LoadMode::kStrict);
    if (!r.ok()) {
      std::fprintf(stderr, "error: cannot resume from %s: %s\n", out.c_str(),
                   r.message().c_str());
      return 1;
    }
    tcfg.resume_opt_state = std::move(ckpt.state);
    if (tcfg.start_epoch >= tcfg.epochs) {
      std::printf("%s already holds %d trained epochs (requested %d) — nothing to resume\n",
                  out.c_str(), tcfg.start_epoch, tcfg.epochs);
      return 0;
    }
    std::printf("resuming %s at epoch %d/%d\n", out.c_str(), tcfg.start_epoch, tcfg.epochs);
  }

  // Metadata shared by every epoch's checkpoint: the norm stats (formerly
  // smuggled as two fake parameter rows) plus the resume cursor inputs.
  nn::CkptMeta meta;
  meta.set_f64s("kpi_norm.mean", norm.mean);
  meta.set_f64s("kpi_norm.std", norm.stddev);
  meta.set_string("train.dataset", dataset);
  meta.set_u64("train.seed", tcfg.seed);
  meta.set_u64("train.total_epochs", static_cast<uint64_t>(tcfg.epochs));
  meta.set_u64("train.windows", windows.size());

  auto write_checkpoint = [&](int epochs_done, std::vector<nn::TensorRecord> opt_state) {
    nn::Checkpoint ck;
    ck.meta = meta;
    ck.meta.set_u64("train.epochs_done", static_cast<uint64_t>(epochs_done));
    ck.params.reserve(params.size());
    for (const auto& p : params) ck.params.push_back({p.name, p.tensor.value()});
    ck.state = std::move(opt_state);
    if (!nn::save_checkpoint(ck, out)) {
      std::fprintf(stderr, "warning: failed to write checkpoint %s\n", out.c_str());
      return false;
    }
    return true;
  };
  tcfg.on_epoch_end = [&](const core::TrainCheckpoint& tc) {
    write_checkpoint(tc.epochs_done, tc.opt_state);
  };

  std::printf("training on %zu windows for %d epochs...\n", windows.size(),
              tcfg.epochs - tcfg.start_epoch);
  const core::TrainStats stats = core::train_gendt(model, windows, tcfg);
  if (!stats.error.empty()) {
    std::fprintf(stderr, "error: %s\n", stats.error.c_str());
    return 1;
  }
  if (tcfg.epochs <= tcfg.start_epoch) {
    // Zero-epoch run: still publish a checkpoint so generate works.
    if (!write_checkpoint(tcfg.start_epoch, {})) return 1;
  }
  std::printf("saved %s\n", out.c_str());
  return 0;
}

int cmd_generate(const Args& a) {
  const std::string model_path = a.get("model");
  const std::string traj_path = a.get("trajectory");
  const std::string out = a.get("out");
  if (model_path.empty() || traj_path.empty() || out.empty()) return usage();

  sim::Dataset ds = build_dataset(a);
  core::GenDTConfig mcfg;
  mcfg.num_channels = static_cast<int>(ds.kpis.size());
  mcfg.hidden = 48;
  mcfg.parallelism = {.threads = static_cast<int>(a.get_long("threads", 0))};
  core::GenDTModel model(mcfg);

  context::KpiNorm norm;
  norm.mean.assign(ds.kpis.size(), 0.0);
  norm.stddev.assign(ds.kpis.size(), 1.0);
  // Declared at function scope: when the model is a GDTPACK1 arena, the live
  // parameters are views into this mapping for the rest of the command.
  nn::PackedModel pack;
  if (nn::sniff_packed(model_path)) {
    const nn::LoadResult r = pack.map(model_path);  // kFull: one-shot command
    if (!r.ok()) {
      std::fprintf(stderr, "error: cannot load %s: %s\n", model_path.c_str(),
                   r.message().c_str());
      return 1;
    }
    std::vector<double> mean, stddev;
    if (!pack.meta().get_f64s("kpi_norm.mean", mean) ||
        !pack.meta().get_f64s("kpi_norm.std", stddev) || mean.size() != ds.kpis.size() ||
        stddev.size() != ds.kpis.size()) {
      std::fprintf(stderr, "error: %s has no usable kpi_norm metadata\n", model_path.c_str());
      return 1;
    }
    norm.mean = std::move(mean);
    norm.stddev = std::move(stddev);
    auto params = model.generator_params();
    for (auto& p : model.discriminator_params()) params.push_back(p);
    const nn::LoadResult applied = nn::apply_packed(params, pack, nn::LoadMode::kStrict);
    if (!applied.ok()) {
      std::fprintf(stderr, "error: cannot load %s: %s (config mismatch?)\n", model_path.c_str(),
                   applied.message().c_str());
      return 1;
    }
  } else {
    nn::Checkpoint ckpt;
    const nn::LoadResult r = nn::read_checkpoint(model_path, ckpt);
    if (!r.ok()) {
      std::fprintf(stderr, "error: cannot load %s: %s\n", model_path.c_str(),
                   r.message().c_str());
      return 1;
    }
    auto params = model.generator_params();
    for (auto& p : model.discriminator_params()) params.push_back(p);
    if (r.version >= 2) {
      // v2: norm stats live in header metadata.
      std::vector<double> mean, stddev;
      if (!ckpt.meta.get_f64s("kpi_norm.mean", mean) ||
          !ckpt.meta.get_f64s("kpi_norm.std", stddev) || mean.size() != ds.kpis.size() ||
          stddev.size() != ds.kpis.size()) {
        std::fprintf(stderr, "error: %s has no usable kpi_norm metadata\n", model_path.c_str());
        return 1;
      }
      norm.mean = std::move(mean);
      norm.stddev = std::move(stddev);
      const nn::LoadResult applied = nn::apply_params(params, ckpt, nn::LoadMode::kStrict);
      if (!applied.ok()) {
        std::fprintf(stderr, "error: cannot load %s: %s (config mismatch?)\n",
                     model_path.c_str(), applied.message().c_str());
        return 1;
      }
    } else {
      // v1: norm stats ride along as two fake parameter rows.
      nn::Tensor mean(nn::Mat::zeros(1, static_cast<int>(ds.kpis.size())), false);
      nn::Tensor stddev(nn::Mat::ones(1, static_cast<int>(ds.kpis.size())), false);
      for (auto& p : legacy_norm_params(mean, stddev)) params.push_back(p);
      const nn::LoadResult applied = nn::apply_params(params, ckpt, nn::LoadMode::kStrict);
      if (!applied.ok()) {
        std::fprintf(stderr, "error: cannot load %s: %s (config mismatch?)\n",
                     model_path.c_str(), applied.message().c_str());
        return 1;
      }
      for (size_t ch = 0; ch < ds.kpis.size(); ++ch) {
        norm.mean[ch] = mean.value()(0, static_cast<int>(ch));
        norm.stddev[ch] = stddev.value()(0, static_cast<int>(ch));
      }
    }
  }

  auto traj = io::read_trajectory_csv(traj_path);
  if (!traj) {
    std::fprintf(stderr, "error: %s\n", io::last_error().c_str());
    return 1;
  }

  context::ContextBuilder builder(ds.world, default_context(), norm, ds.kpis);
  auto windows = builder.generation_windows(*traj);
  if (windows.empty()) {
    std::fprintf(stderr, "error: trajectory too short for one window\n");
    return 1;
  }

  // --fast (default) runs one lane through the tape-free rollout engine;
  // --reference runs the autograd Tensor graph. Outputs are bitwise
  // identical (the gen-parity suite enforces it); --reference exists for A/B
  // checks of exactly that.
  if (a.flag("fast") && a.flag("reference")) {
    std::fprintf(stderr, "error: --fast and --reference are mutually exclusive\n");
    return 2;
  }
  const uint64_t gen_seed = static_cast<uint64_t>(a.get_long("gen-seed", 1));
  std::vector<core::WindowSample> samples;
  if (a.flag("reference")) {
    samples = model.sample_windows(windows, gen_seed);
  } else {
    core::BatchLane lane;
    lane.windows = windows;
    lane.seed = gen_seed;
    core::BatchedInferenceSession session(model);
    samples = std::move(session.run({lane})[0].samples);
  }
  const core::GeneratedSeries series =
      core::denormalize_samples(samples, norm, {}, static_cast<int>(ds.kpis.size()));

  std::vector<std::string> names;
  for (auto k : ds.kpis) names.emplace_back(sim::kpi_name(k));
  const double period =
      traj->size() > 1 ? (*traj)[1].t - (*traj)[0].t : 1.0;
  if (!io::write_series_csv(series, names, out, traj->front().t, period)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu samples x %zu KPIs)\n", out.c_str(), series.length(),
              series.channels.size());
  return 0;
}

int cmd_eval(const Args& a) {
  auto real = io::read_series_csv(a.get("real"));
  auto gen = io::read_series_csv(a.get("generated"));
  if (!real || !gen) {
    std::fprintf(stderr, "error: %s\n", io::last_error().c_str());
    return 1;
  }
  if (real->channels.size() != gen->channels.size()) {
    std::fprintf(stderr, "error: channel count mismatch (%zu vs %zu)\n", real->channels.size(),
                 gen->channels.size());
    return 1;
  }
  std::printf("%-10s %10s %10s %10s\n", "channel", "MAE", "DTW", "HWD");
  for (size_t ch = 0; ch < real->channels.size(); ++ch) {
    const size_t n = std::min(real->channels[ch].size(), gen->channels[ch].size());
    std::vector<double> r(real->channels[ch].begin(),
                          real->channels[ch].begin() + static_cast<long>(n));
    std::vector<double> g(gen->channels[ch].begin(),
                          gen->channels[ch].begin() + static_cast<long>(n));
    std::printf("%-10zu %10.3f %10.3f %10.3f\n", ch, metrics::mae(r, g),
                metrics::dtw(r, g, 40), metrics::hwd(r, g));
  }
  return 0;
}

int cmd_pack(const Args& a) {
  const std::string in = a.get("in");
  const std::string out = a.get("out");
  if (in.empty() || out.empty()) return usage();

  nn::Checkpoint ckpt;
  const nn::LoadResult r = nn::read_checkpoint(in, ckpt);
  if (!r.ok()) {
    std::fprintf(stderr, "error: cannot read %s: %s\n", in.c_str(), r.message().c_str());
    return 1;
  }
  if (!nn::write_packed(ckpt, out)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  // Self-verify the published file end to end (kFull reads every byte back
  // through the real loader) before reporting success.
  nn::PackedModel pack;
  const nn::LoadResult v = pack.map(out, nn::PackVerify::kFull);
  if (!v.ok()) {
    std::fprintf(stderr, "error: %s failed verification after packing: %s\n", out.c_str(),
                 v.message().c_str());
    return 1;
  }
  std::printf("packed %s -> %s (%zu tensors, %zu bytes)\n", in.c_str(), out.c_str(),
              pack.tensors().size(), pack.size_bytes());
  if (!ckpt.state.empty())
    std::printf("note: %zu trainer-state tensors dropped (a pack is inference-only; keep the "
                ".ckpt to resume training)\n",
                ckpt.state.size());
  return 0;
}

int cmd_version() {
  std::printf("gendt (GenDT drive-test generation toolkit)\n");
  const std::string features = nn::simd::cpu_feature_string();
  std::printf("cpu features: %s\n", features.empty() ? "(none detected)" : features.c_str());
  std::printf("kernel dispatch: %s%s\n", nn::simd::route_name(nn::simd::active_route()),
              nn::simd::route_supported(nn::simd::Route::kAvx2) ? "" : " (avx2 unavailable)");
  return 0;
}

// One line of a --requests file:
// `trajectory.csv [gen-seed] [deadline-ms] [model-id]`.
struct ServeRequestSpec {
  std::string trajectory;
  uint64_t gen_seed = 1;
  int64_t deadline_ms = -1;  // -1 inherits --deadline-ms
  std::string model_id;      // empty routes to the first loaded model
};

bool parse_requests_file(const std::string& path, std::vector<ServeRequestSpec>& out) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "error: cannot open requests file %s\n", path.c_str());
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    ServeRequestSpec spec;
    if (!(fields >> spec.trajectory)) continue;  // blank / comment-only line
    std::string token;
    try {
      if (fields >> token) {
        size_t pos = 0;
        spec.gen_seed = std::stoull(token, &pos);
        if (pos != token.size()) throw std::invalid_argument(token);
      }
      if (fields >> token) {
        size_t pos = 0;
        spec.deadline_ms = std::stoll(token, &pos);
        if (pos != token.size() || spec.deadline_ms < -1) throw std::invalid_argument(token);
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "error: %s:%d: malformed field '%s' (expected: trajectory.csv"
                   " [gen-seed] [deadline-ms] [model-id])\n",
                   path.c_str(), lineno, token.c_str());
      return false;
    }
    if (fields >> token) spec.model_id = token;
    if (fields >> token) {
      std::fprintf(stderr, "error: %s:%d: trailing field '%s'\n", path.c_str(), lineno,
                   token.c_str());
      return false;
    }
    out.push_back(std::move(spec));
  }
  return true;
}

// Parse --models "id=path[,id=path]..." preserving order (the first entry is
// the default route for request lines that name no model).
bool parse_models_flag(const std::string& value,
                       std::vector<std::pair<std::string, std::string>>& out) {
  std::stringstream ss(value);
  std::string entry;
  while (std::getline(ss, entry, ',')) {
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      std::fprintf(stderr, "error: --models expects id=path[,id=path]..., got '%s'\n",
                   entry.c_str());
      return false;
    }
    const std::string id = entry.substr(0, eq);
    for (const auto& existing : out) {
      if (existing.first == id) {
        std::fprintf(stderr, "error: --models lists model id '%s' twice\n", id.c_str());
        return false;
      }
    }
    out.emplace_back(id, entry.substr(eq + 1));
  }
  if (out.empty()) {
    std::fprintf(stderr, "error: --models lists no models\n");
    return false;
  }
  return true;
}

// Load a GDTCKPT2 checkpoint or GDTPACK1 arena (detected by magic) into a
// ready GenDTGenerator. A pack maps with kStructural (directory CRC only):
// serve cold-start is O(page faults), the payload CRC having been verified
// when `gendt pack` wrote the file. Prints the failure and returns null on
// error.
std::unique_ptr<core::GenDTGenerator> load_generator(const std::string& model_path,
                                                     const sim::Dataset& ds,
                                                     std::string* format_out) {
  core::GenDTConfig mcfg;
  mcfg.num_channels = static_cast<int>(ds.kpis.size());
  mcfg.hidden = 48;
  // Parallelism lives across requests (engine workers), not inside the model.
  mcfg.parallelism = {.threads = 1};

  const bool packed = nn::sniff_packed(model_path);
  nn::PackedModel pack;
  nn::Checkpoint ckpt;
  context::KpiNorm norm;
  if (packed) {
    const nn::LoadResult r = pack.map(model_path, nn::PackVerify::kStructural);
    if (!r.ok()) {
      std::fprintf(stderr, "error: cannot load %s: %s\n", model_path.c_str(),
                   r.message().c_str());
      return nullptr;
    }
    if (!pack.meta().get_f64s("kpi_norm.mean", norm.mean) ||
        !pack.meta().get_f64s("kpi_norm.std", norm.stddev) ||
        norm.mean.size() != ds.kpis.size() || norm.stddev.size() != ds.kpis.size()) {
      std::fprintf(stderr, "error: %s has no usable kpi_norm metadata\n", model_path.c_str());
      return nullptr;
    }
  } else {
    const nn::LoadResult r = nn::read_checkpoint(model_path, ckpt);
    if (!r.ok()) {
      std::fprintf(stderr, "error: cannot load %s: %s\n", model_path.c_str(),
                   r.message().c_str());
      return nullptr;
    }
    if (r.version < 2) {
      std::fprintf(stderr,
                   "error: serve requires a GDTCKPT2 checkpoint; %s is v%d (retrain to upgrade)\n",
                   model_path.c_str(), r.version);
      return nullptr;
    }
    if (!ckpt.meta.get_f64s("kpi_norm.mean", norm.mean) ||
        !ckpt.meta.get_f64s("kpi_norm.std", norm.stddev) || norm.mean.size() != ds.kpis.size() ||
        norm.stddev.size() != ds.kpis.size()) {
      std::fprintf(stderr, "error: %s has no usable kpi_norm metadata\n", model_path.c_str());
      return nullptr;
    }
  }

  auto primary = std::make_unique<core::GenDTGenerator>(mcfg, core::TrainConfig{}, norm);
  primary->set_kpis(ds.kpis);
  if (packed) {
    const nn::LoadResult applied = primary->load_packed(std::move(pack));
    if (!applied.ok()) {
      std::fprintf(stderr, "error: cannot load %s: %s (config mismatch?)\n", model_path.c_str(),
                   applied.message().c_str());
      return nullptr;
    }
  } else {
    auto params = primary->model().generator_params();
    for (auto& p : primary->model().discriminator_params()) params.push_back(p);
    const nn::LoadResult applied = nn::apply_params(params, ckpt, nn::LoadMode::kStrict);
    if (!applied.ok()) {
      std::fprintf(stderr, "error: cannot load %s: %s (config mismatch?)\n", model_path.c_str(),
                   applied.message().c_str());
      return nullptr;
    }
  }
  if (format_out != nullptr) *format_out = packed ? "GDTPACK1 (mmap)" : "GDTCKPT2";
  return primary;
}

int cmd_serve_stream(const Args& a);

int cmd_serve(const Args& a) {
  if (a.flag("stream")) return cmd_serve_stream(a);
  const std::string req_path = a.get("requests");
  const std::string model_path = a.get("model");
  const std::string models_flag = a.get("models");
  const std::string out_dir = a.get("out");
  if (req_path.empty() || out_dir.empty() || (model_path.empty() && models_flag.empty()))
    return usage();
  if (!model_path.empty() && !models_flag.empty()) {
    std::fprintf(stderr, "error: --model and --models are mutually exclusive\n");
    return 2;
  }

  std::vector<ServeRequestSpec> specs;
  if (!parse_requests_file(req_path, specs)) return 1;
  if (specs.empty()) {
    std::fprintf(stderr, "error: %s lists no requests\n", req_path.c_str());
    return 1;
  }

  sim::Dataset ds = build_dataset(a);

  std::vector<std::pair<std::string, std::string>> model_specs;
  if (!models_flag.empty()) {
    if (!parse_models_flag(models_flag, model_specs)) return 2;
  } else {
    model_specs.emplace_back("default", model_path);
  }

  serve::EngineConfig cfg;
  cfg.max_queue = static_cast<int>(a.get_long("max-queue", 64));
  cfg.backpressure = a.flag("shed") ? serve::EngineConfig::Backpressure::kShed
                                    : serve::EngineConfig::Backpressure::kBlock;
  cfg.workers = runtime::Parallelism{.threads = static_cast<int>(a.get_long("threads", 0))}
                    .resolved();
  cfg.default_deadline_ms = a.get_long("deadline-ms", -1);
  cfg.batch_max = static_cast<int>(a.get_long("batch-max", 1));
  if (cfg.batch_max < 1) {
    std::fprintf(stderr, "error: --batch-max must be >= 1\n");
    return 2;
  }
  cfg.lane_batch = a.flag("lane-batch");
  if (cfg.lane_batch && cfg.batch_max < 2) {
    std::fprintf(stderr, "error: --lane-batch requires --batch-max >= 2\n");
    return 2;
  }
  cfg.expected_channels = static_cast<int>(ds.kpis.size());

  // Every model becomes a registry entry with its own warmed session pool
  // and (optional) per-model admission budget; requests route by model id.
  const int model_budget = static_cast<int>(a.get_long("model-budget", -1));
  serve::ModelRegistry registry;
  context::KpiNorm first_norm;
  for (size_t m = 0; m < model_specs.size(); ++m) {
    std::string format;
    std::unique_ptr<core::GenDTGenerator> gen =
        load_generator(model_specs[m].second, ds, &format);
    if (gen == nullptr) return 1;
    if (m == 0) first_norm = gen->norm();
    gen->prewarm(static_cast<size_t>(std::max(1, cfg.workers)));
    // Peak-bytes of the warm session pool: what this model pins in memory
    // before the first request (grows once lane batching warms up).
    std::printf("serve: model '%s' <- %s (%s, budget=%d, warm=%.1f KiB)\n",
                model_specs[m].first.c_str(), model_specs[m].second.c_str(), format.c_str(),
                model_budget, static_cast<double>(gen->warm_peak_bytes()) / 1024.0);
    registry.add(model_specs[m].first, std::move(gen), serve::ModelBudget{model_budget});
  }
  std::printf("serve: kernels=%s cpu=[%s] models=%zu\n",
              nn::simd::route_name(nn::simd::active_route()),
              nn::simd::cpu_feature_string().c_str(), registry.size());

  // Graceful-degradation path: FDaS fitted on the simulated campaign — cheap,
  // unconditionally finite, and honest about being a distribution sample.
  // Request windows carry no KPI-normalized targets, so one builder (first
  // model's norm) serves every model; each model denormalizes with its own.
  context::ContextBuilder builder(ds.world, default_context(), first_norm, ds.kpis);
  std::vector<context::Window> train_windows;
  for (const auto& rec : ds.train) {
    auto w = builder.training_windows(rec);
    train_windows.insert(train_windows.end(), w.begin(), w.end());
  }
  baselines::FDaS fallback(first_norm);
  fallback.fit(train_windows);

  // A spec whose trajectory fails to load keeps an empty window list and
  // resolves through the engine as a structured invalid-request.
  std::vector<serve::RoutedRequest> routed(specs.size());
  std::vector<std::string> notes(specs.size());
  std::vector<double> start_t(specs.size(), 0.0), period(specs.size(), 1.0);
  for (size_t i = 0; i < specs.size(); ++i) {
    routed[i].model_id = specs[i].model_id.empty() ? model_specs[0].first : specs[i].model_id;
    routed[i].request.seed = specs[i].gen_seed;
    routed[i].request.deadline_ms = specs[i].deadline_ms;
    auto traj = io::read_trajectory_csv(specs[i].trajectory);
    if (!traj) {
      notes[i] = io::last_error();
      continue;
    }
    auto windows = builder.generation_windows(*traj);
    if (windows.empty()) {
      notes[i] = specs[i].trajectory + ": trajectory too short for one window";
      continue;
    }
    routed[i].request.windows = std::move(windows);
    start_t[i] = traj->front().t;
    period[i] = traj->size() > 1 ? (*traj)[1].t - (*traj)[0].t : 1.0;
  }

  serve::ModelRouter router(registry, cfg);
  router.set_fallback(&fallback);

  // Ctrl-C / SIGTERM drains instead of killing: every request's token
  // parents the process-wide drain token, so in-flight generations cancel
  // cooperatively and the batch still resolves to a full summary with the
  // ok+degraded+failed+shed partition intact.
  runtime::SignalDrain::install();
  std::vector<runtime::CancelToken> request_tokens(routed.size());
  for (size_t i = 0; i < routed.size(); ++i) {
    request_tokens[i].set_parent(&runtime::SignalDrain::token());
    routed[i].request.cancel = &request_tokens[i];
  }

  std::filesystem::create_directories(out_dir);
  const std::vector<serve::Response> responses = router.serve(routed);
  if (runtime::SignalDrain::draining())
    std::fprintf(stderr, "serve: drain signal received; remaining requests cancelled\n");

  std::vector<std::string> names;
  for (auto k : ds.kpis) names.emplace_back(sim::kpi_name(k));
  int errors = 0;
  uint64_t n_ok = 0, n_degraded = 0, n_failed = 0, n_shed = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    const serve::Response& resp = responses[i];
    if (resp.outcome == serve::Outcome::kError || resp.outcome == serve::Outcome::kShed) {
      ++errors;
      resp.outcome == serve::Outcome::kError ? ++n_failed : ++n_shed;
      std::fprintf(stderr, "request %zu (%s): %s %s: %s%s%s\n", i,
                   specs[i].trajectory.c_str(),
                   std::string(serve::to_string(resp.outcome)).c_str(),
                   std::string(serve::to_string(resp.error.code)).c_str(),
                   resp.error.message.c_str(), notes[i].empty() ? "" : " — ",
                   notes[i].c_str());
      continue;
    }
    resp.outcome == serve::Outcome::kOk ? ++n_ok : ++n_degraded;
    const std::string out_path = out_dir + "/response_" + std::to_string(i) + ".csv";
    if (!io::write_series_csv(resp.series, names, out_path, start_t[i], period[i])) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("request %zu (%s): %s%s%s attempts=%d -> %s\n", i, specs[i].trajectory.c_str(),
                std::string(serve::to_string(resp.outcome)).c_str(),
                resp.outcome == serve::Outcome::kDegraded ? " " : "",
                resp.outcome == serve::Outcome::kDegraded
                    ? ("(" + std::string(serve::to_string(resp.error.code)) + ")").c_str()
                    : "",
                resp.attempts, out_path.c_str());
  }
  for (const std::string& id : registry.ids()) {
    const serve::ModelStats ms = registry.stats(id);
    // The pool is warm now, so the peak-bytes figure reflects what serving
    // this batch actually pinned (lane batching included).
    double warm_kib = 0.0;
    if (const auto lease = registry.acquire(id)) {
      if (const auto* g = dynamic_cast<const core::GenDTGenerator*>(&lease.generator()))
        warm_kib = static_cast<double>(g->warm_peak_bytes()) / 1024.0;
    }
    std::printf("model '%s' (v%llu): %llu routed, %llu ok, %llu degraded, %llu failed, "
                "%llu shed, warm=%.1f KiB\n",
                id.c_str(), static_cast<unsigned long long>(registry.active_version(id)),
                static_cast<unsigned long long>(ms.total()),
                static_cast<unsigned long long>(ms.ok),
                static_cast<unsigned long long>(ms.degraded),
                static_cast<unsigned long long>(ms.failed),
                static_cast<unsigned long long>(ms.shed), warm_kib);
  }
  std::printf("served %zu requests: %llu ok, %llu degraded, %llu failed, %llu shed, "
              "%llu retries\n",
              specs.size(), static_cast<unsigned long long>(n_ok),
              static_cast<unsigned long long>(n_degraded),
              static_cast<unsigned long long>(n_failed),
              static_cast<unsigned long long>(n_shed),
              static_cast<unsigned long long>(router.engine().stats().retries));
  return errors == 0 ? 0 : 1;
}

// ---- Streaming daemon + client ---------------------------------------------

int cmd_serve_stream(const Args& a) {
  const std::string socket_path = a.get("socket");
  const std::string model_path = a.get("model");
  if (socket_path.empty() || model_path.empty()) return usage();

  sim::Dataset ds = build_dataset(a);
  std::string format;
  std::unique_ptr<core::GenDTGenerator> gen = load_generator(model_path, ds, &format);
  if (gen == nullptr) return 1;
  const context::KpiNorm norm = gen->norm();

  context::ContextBuilder builder(ds.world, default_context(), norm, ds.kpis);
  std::vector<std::string> names;
  for (auto k : ds.kpis) names.emplace_back(sim::kpi_name(k));

  serve::stream::StreamServerConfig cfg;
  cfg.chunk_windows = static_cast<int>(a.get_long("chunk-windows", 8));
  cfg.idle_timeout_ms = a.get_long("idle-timeout-ms", 30'000);
  cfg.drain_deadline_ms = a.get_long("drain-deadline-ms", 5'000);
  cfg.parallelism =
      runtime::Parallelism{.threads = static_cast<int>(a.get_long("threads", 0))};
  // Test hooks: exit after N resolved sessions / after sustained idleness,
  // so cli_test can run a real daemon without killing it from outside.
  cfg.exit_after_sessions = static_cast<uint64_t>(a.get_long("stream-sessions", 0));
  cfg.idle_exit_ms = a.get_long("idle-exit-ms", 0);
  runtime::SignalDrain::install();
  cfg.drain = &runtime::SignalDrain::token();

  // The factory runs on the event-loop thread and must not throw: every
  // wire value is validated before it reaches geo::Trajectory (which asserts
  // strictly increasing t).
  const core::GenDTModel& model = gen->model();
  serve::stream::StreamServer server(
      cfg,
      [&builder, &model, &norm, &names](const serve::stream::OpenRequest& open,
                                        serve::stream::StreamErrorCode* code,
                                        std::string* error)
          -> std::unique_ptr<serve::stream::ChunkSource> {
        *code = serve::stream::StreamErrorCode::kInvalidRequest;
        std::vector<geo::TrajectoryPoint> pts;
        pts.reserve(open.points.size());
        for (const auto& p : open.points) {
          if (!std::isfinite(p.t) || !std::isfinite(p.lat) || !std::isfinite(p.lon) ||
              (!pts.empty() && p.t <= pts.back().t)) {
            *error = "trajectory points must be finite and strictly increasing in t";
            return nullptr;
          }
          pts.push_back({p.t, {p.lat, p.lon}});
        }
        if (pts.size() < 2) {
          *error = "trajectory needs at least two points";
          return nullptr;
        }
        const double t0 = pts.front().t;
        const double period = pts[1].t - pts[0].t;
        geo::Trajectory traj(std::move(pts));
        auto windows = builder.generation_windows(traj);
        if (windows.empty()) {
          *error = "trajectory too short for one window";
          return nullptr;
        }
        // Empty KPI list: the stream denormalizes exactly like `gendt
        // generate` (no CQI snap) — the byte-parity the resume tests pin.
        return std::make_unique<serve::stream::GenDTChunkSource>(
            model, norm, std::vector<sim::Kpi>{}, std::move(windows), open.seed,
            static_cast<int>(open.chunk_windows), names, t0, period);
      });

  std::string err;
  if (!server.listen_unix(socket_path, &err)) {
    std::fprintf(stderr, "error: cannot listen on %s: %s\n", socket_path.c_str(), err.c_str());
    return 1;
  }
  std::printf("serve --stream: %s (%s) on %s, chunk=%d windows "
              "(SIGINT/SIGTERM drains gracefully)\n",
              model_path.c_str(), format.c_str(), socket_path.c_str(), cfg.chunk_windows);
  std::fflush(stdout);
  server.run();

  const serve::stream::StreamStats st = server.stats();
  std::printf("stream: %llu sessions: %llu ok, %llu degraded, %llu failed, %llu shed | "
              "%llu chunks, %llu points, %llu resumes, %llu bad frames\n",
              static_cast<unsigned long long>(st.sessions_total),
              static_cast<unsigned long long>(st.sessions_ok),
              static_cast<unsigned long long>(st.sessions_degraded),
              static_cast<unsigned long long>(st.sessions_failed),
              static_cast<unsigned long long>(st.sessions_shed),
              static_cast<unsigned long long>(st.chunks_sent),
              static_cast<unsigned long long>(st.points_sent),
              static_cast<unsigned long long>(st.resumes),
              static_cast<unsigned long long>(st.bad_frames));
  return 0;
}

// Client-side resume state: session credentials plus everything already
// received, with doubles as raw IEEE-754 bit patterns so a resumed run can
// reproduce the uninterrupted CSV byte-for-byte.
struct StreamClientState {
  std::string session_id;
  uint64_t token = 0;
  uint64_t chunks_have = 0;
  std::vector<std::string> channel_names;
  double t0 = 0.0;
  double period_s = 1.0;
  std::vector<double> values;  // row-major [points x channels]
};

uint64_t f64_bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double bits_f64(uint64_t b) {
  double v = 0.0;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

bool write_stream_state(const StreamClientState& s, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "GDTSTRMCLI1\n";
  out << "session " << s.session_id << "\n";
  out << "token " << std::hex << s.token << std::dec << "\n";
  out << "chunks " << s.chunks_have << "\n";
  out << "channels " << s.channel_names.size();
  for (const std::string& n : s.channel_names) out << " " << n;
  out << "\n";
  out << "t0 " << std::hex << f64_bits(s.t0) << "\n";
  out << "period " << f64_bits(s.period_s) << std::dec << "\n";
  out << "values " << s.values.size() << "\n";
  out << std::hex;
  for (size_t i = 0; i < s.values.size(); ++i)
    out << f64_bits(s.values[i]) << ((i + 1) % 8 == 0 ? "\n" : " ");
  out << "\n";
  out.flush();
  return out.good();
}

bool read_stream_state(const std::string& path, StreamClientState& s) {
  std::ifstream in(path);
  if (!in) return false;
  std::string magic, key;
  if (!(in >> magic) || magic != "GDTSTRMCLI1") return false;
  size_t n_channels = 0, n_values = 0;
  if (!(in >> key >> s.session_id) || key != "session") return false;
  if (!(in >> key >> std::hex >> s.token >> std::dec) || key != "token") return false;
  if (!(in >> key >> s.chunks_have) || key != "chunks") return false;
  if (!(in >> key >> n_channels) || key != "channels" || n_channels > 4096) return false;
  s.channel_names.resize(n_channels);
  for (std::string& name : s.channel_names)
    if (!(in >> name)) return false;
  uint64_t bits = 0;
  if (!(in >> key >> std::hex >> bits >> std::dec) || key != "t0") return false;
  s.t0 = bits_f64(bits);
  if (!(in >> key >> std::hex >> bits >> std::dec) || key != "period") return false;
  s.period_s = bits_f64(bits);
  if (!(in >> key >> n_values) || key != "values" || n_values > (1u << 28)) return false;
  s.values.resize(n_values);
  in >> std::hex;
  for (double& v : s.values) {
    if (!(in >> bits)) return false;
    v = bits_f64(bits);
  }
  return true;
}

const char* stream_status_name(serve::stream::StreamClient::Status st) {
  using Status = serve::stream::StreamClient::Status;
  switch (st) {
    case Status::kOk: return "ok";
    case Status::kError: return "server error";
    case Status::kClosed: return "connection closed";
    case Status::kTimeout: return "timeout";
    case Status::kProtocol: return "protocol error";
  }
  return "?";
}

int stream_client_fail(const serve::stream::StreamClient& client,
                       serve::stream::StreamClient::Status st, const char* what) {
  using Status = serve::stream::StreamClient::Status;
  if (st == Status::kError) {
    std::fprintf(stderr, "error: %s: server replied %s: %s\n", what,
                 std::string(serve::stream::to_string(client.last_error().code)).c_str(),
                 client.last_error().message.c_str());
  } else {
    std::fprintf(stderr, "error: %s: %s\n", what, stream_status_name(st));
  }
  return 1;
}

int cmd_stream_client(const Args& a) {
  using Status = serve::stream::StreamClient::Status;
  const std::string socket_path = a.get("socket");
  const std::string out_path = a.get("out");
  const std::string state_path = a.get("state");
  const bool resume = a.flag("resume");
  const long kill_after = a.get_long("kill-after-chunks", -1);
  if (socket_path.empty() || out_path.empty()) return usage();
  if ((resume || kill_after >= 0) && state_path.empty()) {
    std::fprintf(stderr, "error: --resume / --kill-after-chunks need --state FILE\n");
    return 2;
  }

  // Validate local inputs before touching the network: a corrupt state file
  // should fail here, not after a connect that may itself hang or fail.
  StreamClientState st;
  if (resume && !read_stream_state(state_path, st)) {
    std::fprintf(stderr, "error: cannot read state file %s\n", state_path.c_str());
    return 1;
  }

  serve::stream::StreamClient client;
  std::string err;
  if (!client.connect_unix(socket_path, &err)) {
    std::fprintf(stderr, "error: cannot connect to %s: %s\n", socket_path.c_str(),
                 err.c_str());
    return 1;
  }

  if (resume) {
    serve::stream::ResumeRequest req;
    req.session_id = st.session_id;
    req.resume_token = st.token;
    req.chunks_have = st.chunks_have;
    serve::stream::ResumeAck ack;
    const Status s = client.resume(req, &ack);
    if (s != Status::kOk) return stream_client_fail(client, s, "RESUME");
    std::printf("resumed %s at chunk %llu/%u windows\n", st.session_id.c_str(),
                static_cast<unsigned long long>(ack.next_chunk_index), ack.total_windows);
  } else {
    const std::string traj_path = a.get("trajectory");
    if (traj_path.empty()) return usage();
    auto traj = io::read_trajectory_csv(traj_path);
    if (!traj) {
      std::fprintf(stderr, "error: %s\n", io::last_error().c_str());
      return 1;
    }
    serve::stream::OpenRequest req;
    req.seed = static_cast<uint64_t>(a.get_long("gen-seed", 1));
    req.chunk_windows = static_cast<uint32_t>(a.get_long("chunk-windows", 0));
    for (const auto& p : traj->points()) req.points.push_back({p.t, p.pos.lat, p.pos.lon});
    serve::stream::OpenAck ack;
    const Status s = client.open(req, &ack);
    if (s != Status::kOk) return stream_client_fail(client, s, "OPEN");
    st.session_id = ack.session_id;
    st.token = ack.resume_token;
    st.channel_names = ack.channel_names;
    st.t0 = ack.t0;
    st.period_s = ack.period_s;
    std::printf("opened %s: %u windows in chunks of %u, %zu channels\n",
                ack.session_id.c_str(), ack.total_windows, ack.chunk_windows,
                ack.channel_names.size());
  }

  bool saw_last = false;
  while (!saw_last) {
    serve::stream::ChunkMsg chunk;
    bool last = false;
    const Status s = client.recv_chunk(&chunk, &last);
    if (s != Status::kOk) return stream_client_fail(client, s, "CHUNK");
    if (chunk.index != st.chunks_have ||
        chunk.num_channels != st.channel_names.size()) {
      std::fprintf(stderr, "error: unexpected chunk %llu (%u channels), wanted %llu (%zu)\n",
                   static_cast<unsigned long long>(chunk.index), chunk.num_channels,
                   static_cast<unsigned long long>(st.chunks_have),
                   st.channel_names.size());
      return 1;
    }
    st.values.insert(st.values.end(), chunk.values.begin(), chunk.values.end());
    if (!client.ack(chunk.index)) {
      std::fprintf(stderr, "error: connection lost sending ACK\n");
      return 1;
    }
    st.chunks_have = chunk.index + 1;
    saw_last = last;
    if (!saw_last && kill_after >= 0 &&
        st.chunks_have >= static_cast<uint64_t>(kill_after)) {
      if (!write_stream_state(st, state_path)) {
        std::fprintf(stderr, "error: cannot write state file %s\n", state_path.c_str());
        return 1;
      }
      client.kill();
      std::printf("killed connection after %llu chunks; state -> %s "
                  "(continue with --resume --state)\n",
                  static_cast<unsigned long long>(st.chunks_have), state_path.c_str());
      return 0;
    }
  }

  serve::stream::CloseStats close_stats;
  const Status s = client.close_session(&close_stats);
  if (s != Status::kOk) {
    // The stream itself is complete and ACKed; a lost CLOSE handshake does
    // not invalidate the data, so warn instead of failing the run.
    std::fprintf(stderr, "warning: CLOSE handshake failed: %s\n", stream_status_name(s));
  }

  const size_t n_channels = st.channel_names.size();
  const size_t n_points = n_channels == 0 ? 0 : st.values.size() / n_channels;
  core::GeneratedSeries series;
  series.channels.assign(n_channels, std::vector<double>(n_points));
  for (size_t t = 0; t < n_points; ++t)
    for (size_t c = 0; c < n_channels; ++c)
      series.channels[c][t] = st.values[t * n_channels + c];
  if (!io::write_series_csv(series, st.channel_names, out_path, st.t0, st.period_s)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("streamed %llu chunks, %zu points -> %s\n",
              static_cast<unsigned long long>(st.chunks_have), n_points, out_path.c_str());
  return 0;
}

// Serialize a ReplayReport as google-benchmark JSON (the exact shape
// tools/bench_compare.py consumes). Pure function of the report — no
// timestamps, no environment — so identical replays produce identical bytes.
bool write_replay_bench_json(const serve::ReplayReport& report, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  char buf[64];
  os << "{\n  \"context\": {\"harness\": \"gendt replay\"},\n  \"benchmarks\": [\n";
  bool first = true;
  auto emit = [&](const std::string& name, double value) {
    if (!first) os << ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    os << "    {\"name\": \"" << name << "\", \"run_type\": \"iteration\", "
       << "\"iterations\": 1, \"real_time\": " << buf << ", \"cpu_time\": " << buf
       << ", \"time_unit\": \"ms\"}";
  };
  for (const serve::ModelReport& m : report.models) {
    emit("BM_ServeReplay/" + m.id + "/p50_latency_ms", m.p50_latency_ms);
    emit("BM_ServeReplay/" + m.id + "/p99_latency_ms", m.p99_latency_ms);
    emit("BM_ServeReplay/" + m.id + "/shed_rate_pct", 100.0 * m.shed_rate);
  }
  os << "\n  ]\n}\n";
  return static_cast<bool>(os);
}

int cmd_replay(const Args& a) {
  const std::string out_path = a.get("out");
  if (out_path.empty()) return usage();
  const long scripted_n = a.get_long("scripted", 0);
  const std::string models_flag = a.get("models");
  if ((scripted_n > 0) == !models_flag.empty()) {
    std::fprintf(stderr,
                 "error: replay needs exactly one of --scripted N or --models id=path,...\n");
    return 2;
  }

  serve::TraceConfig tcfg;
  tcfg.num_requests = static_cast<int>(a.get_long("requests", 1000));
  tcfg.rate_hz = static_cast<double>(a.get_long("rate-hz", 200));
  tcfg.seed = static_cast<uint64_t>(a.get_long("seed", 1));
  tcfg.deadline_ms = a.get_long("deadline-ms", -1);
  tcfg.windows_per_request = static_cast<int>(a.get_long("windows", 4));
  tcfg.window_len = static_cast<int>(a.get_long("window-len", 10));
  tcfg.trajectory_duration_s = static_cast<double>(a.get_long("duration-s", 60));

  serve::ReplayConfig rcfg;
  rcfg.sim_workers = static_cast<int>(a.get_long("sim-workers", 4));
  rcfg.per_window_cost_ms = a.get_long("window-cost-ms", 1);
  rcfg.threads = runtime::Parallelism{.threads = static_cast<int>(a.get_long("threads", 0))}
                     .resolved();
  const int64_t swap_at = a.get_long("swap-at", -1);
  const int budget = static_cast<int>(a.get_long("budget", -1));

  serve::ModelRegistry registry;
  serve::Trace trace;
  std::vector<serve::SwapScript> swaps;
  std::unique_ptr<core::TimeSeriesGenerator> fallback;

  if (scripted_n > 0) {
    // Scripted mode: N synthetic models whose output is a pure function of
    // (request seed, window, t, channel) and whose virtual per-window cost
    // matches the scheduler's occupancy model — the cheap, deterministic
    // load shape the committed BENCH_serve_replay.json is built from.
    tcfg.model_ids.clear();
    for (long m = 0; m < scripted_n; ++m)
      tcfg.model_ids.push_back("scripted" + std::to_string(m));
    trace = serve::synthetic_trace(tcfg);
    rcfg.engine.expected_channels = 2;
    fallback = std::make_unique<serve::ConstantGenerator>(2, 0.0);
  } else {
    std::vector<std::pair<std::string, std::string>> model_specs;
    if (!parse_models_flag(models_flag, model_specs)) return 2;
    sim::Dataset ds = build_dataset(a);
    context::KpiNorm first_norm;
    for (size_t m = 0; m < model_specs.size(); ++m) {
      std::unique_ptr<core::GenDTGenerator> gen =
          load_generator(model_specs[m].second, ds, nullptr);
      if (gen == nullptr) return 1;
      if (m == 0) first_norm = gen->norm();
      gen->prewarm(static_cast<size_t>(std::max(1, rcfg.threads)));
      registry.add(model_specs[m].first, std::move(gen), serve::ModelBudget{budget});
      tcfg.model_ids = {};
    }
    for (const auto& [id, path] : model_specs) tcfg.model_ids.push_back(id);
    context::ContextBuilder builder(ds.world, default_context(), first_norm, ds.kpis);
    std::printf("replay: generating %d user trajectories through gendt::sim...\n",
                tcfg.num_requests);
    trace = serve::sim_trace(builder, ds.world.region, tcfg);
    rcfg.engine.expected_channels = static_cast<int>(ds.kpis.size());
    std::vector<context::Window> train_windows;
    for (const auto& rec : ds.train) {
      auto w = builder.training_windows(rec);
      train_windows.insert(train_windows.end(), w.begin(), w.end());
    }
    auto fdas = std::make_unique<baselines::FDaS>(first_norm);
    fdas->fit(train_windows);
    fallback = std::move(fdas);
    if (swap_at >= 0) {
      // Hot-swap the first model to a fresh load of the same artifact:
      // identical weights, new arena/session pool — the zero-downtime path.
      std::unique_ptr<core::GenDTGenerator> next =
          load_generator(model_specs[0].second, ds, nullptr);
      if (next == nullptr) return 1;
      next->prewarm(static_cast<size_t>(std::max(1, rcfg.threads)));
      swaps.push_back({swap_at, model_specs[0].first, std::move(next)});
    }
  }

  // Per-request virtual clocks: allocated before the scripted generators
  // bind to them (bindings need stable addresses), started by replay().
  std::vector<runtime::ManualClock> clocks(trace.requests.size());
  if (scripted_n > 0) {
    serve::ScriptedGenerator::Config scfg;
    scfg.num_channels = 2;
    scfg.window_cost_ms = rcfg.per_window_cost_ms;
    const auto make_scripted = [&]() {
      auto gen = std::make_unique<serve::ScriptedGenerator>(
          scfg, serve::FaultPlan{}, static_cast<int>(trace.requests.size()));
      for (size_t i = 0; i < trace.requests.size(); ++i)
        gen->bind_request(trace.requests[i].seed, static_cast<int>(i), &clocks[i]);
      return gen;
    };
    for (const std::string& id : tcfg.model_ids)
      registry.add(id, make_scripted(), serve::ModelBudget{budget});
    if (swap_at >= 0)
      swaps.push_back({swap_at, tcfg.model_ids.front(), make_scripted()});
  }

  const serve::ReplayReport report =
      serve::replay(registry, trace, clocks, rcfg, std::move(swaps), fallback.get());

  for (const serve::ModelReport& m : report.models) {
    std::printf("model '%s': %llu requests, %llu ok, %llu degraded, %llu failed, %llu shed "
                "| p50=%.0fms p99=%.0fms shed=%.2f%%\n",
                m.id.c_str(), static_cast<unsigned long long>(m.requests),
                static_cast<unsigned long long>(m.ok),
                static_cast<unsigned long long>(m.degraded),
                static_cast<unsigned long long>(m.failed),
                static_cast<unsigned long long>(m.shed), m.p50_latency_ms, m.p99_latency_ms,
                100.0 * m.shed_rate);
  }
  std::printf("replay: %zu requests, digest %016llx\n", trace.requests.size(),
              static_cast<unsigned long long>(report.digest));
  if (!write_replay_bench_json(report, out_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// ---- Coverage map ----------------------------------------------------------

// The coverage-grid workload (ROADMAP 4b): a WxH lattice of stationary
// trajectories over the region, rolled out through the lane-batched
// inference session in blocks of --batch. Point (ix,iy) always runs on RNG
// stream derive_stream_seed(gen_seed, iy*W+ix) — never on its lane slot or
// the thread that happened to pick its block up — so the CSV is
// byte-identical at every --threads and --batch setting.
int cmd_covermap(const Args& a) {
  const std::string out_path = a.get("out");
  if (out_path.empty()) return usage();

  const std::string grid = a.get("grid", "16x16");
  long gw = 0, gh = 0;
  {
    const size_t x = grid.find('x');
    try {
      size_t wpos = 0, hpos = 0;
      if (x == std::string::npos) throw std::invalid_argument(grid);
      gw = std::stol(grid.substr(0, x), &wpos);
      gh = std::stol(grid.substr(x + 1), &hpos);
      if (wpos != x || hpos != grid.size() - x - 1) throw std::invalid_argument(grid);
    } catch (const std::exception&) {
      gw = gh = 0;
    }
    if (gw < 1 || gh < 1) {
      std::fprintf(stderr, "error: --grid expects WxH with W,H >= 1, got '%s'\n", grid.c_str());
      return 2;
    }
  }
  const int batch = static_cast<int>(a.get_long("batch", 8));
  if (batch < 1) {
    std::fprintf(stderr, "error: --batch expects a batch size >= 1, got %d\n", batch);
    return 2;
  }
  const uint64_t gen_seed = static_cast<uint64_t>(a.get_long("gen-seed", 1));
  const runtime::Parallelism par{.threads = static_cast<int>(a.get_long("threads", 0))};

  sim::Dataset ds = build_dataset(a);
  const std::string model_path = a.get("model");
  std::unique_ptr<core::GenDTGenerator> gen;
  std::string format;
  if (!model_path.empty()) {
    gen = load_generator(model_path, ds, &format);
    if (gen == nullptr) return 1;
  } else {
    // No model: map the untrained generator (deterministic init_seed
    // weights) under an identity norm — the workload/throughput shape is
    // identical to a trained model's, which is what the benchmark gate and
    // the determinism acceptance run on.
    core::GenDTConfig mcfg;
    mcfg.num_channels = static_cast<int>(ds.kpis.size());
    mcfg.hidden = 48;
    mcfg.parallelism = {.threads = 1};
    context::KpiNorm norm;
    norm.mean.assign(ds.kpis.size(), 0.0);
    norm.stddev.assign(ds.kpis.size(), 1.0);
    gen = std::make_unique<core::GenDTGenerator>(mcfg, core::TrainConfig{}, norm);
    gen->set_kpis(ds.kpis);
    format = "untrained (deterministic init)";
  }

  context::ContextBuilder builder(ds.world, default_context(), gen->norm(), ds.kpis);
  const int wlen = default_context().window_len;
  const int nch = static_cast<int>(ds.kpis.size());
  const long n_points = gw * gh;
  const long n_blocks = (n_points + batch - 1) / batch;

  // Grid point (ix,iy) -> ENU position: the lattice spans the central 80% of
  // the modelled square (cells live inside it; the margin avoids projecting
  // outside the land-use raster).
  const double extent = ds.world.region.extent_m;
  const auto grid_enu = [&](long ix, long iy) {
    const double east = gw > 1 ? -0.8 * extent + static_cast<double>(ix) * (1.6 * extent /
                                                                            static_cast<double>(gw - 1))
                               : 0.0;
    const double north = gh > 1 ? -0.8 * extent + static_cast<double>(iy) * (1.6 * extent /
                                                                             static_cast<double>(gh - 1))
                                : 0.0;
    return geo::Enu{east, north};
  };

  std::vector<geo::LatLon> positions(static_cast<size_t>(n_points));
  std::vector<double> means(static_cast<size_t>(n_points) * static_cast<size_t>(nch), 0.0);
  std::atomic<long> windows_done{0};
  std::atomic<bool> failed{false};

  // The CSV bits are seed-pure; the clock only feeds the throughput stats.
  const auto t_start = std::chrono::steady_clock::now();  // gendt-lint: allow(wallclock) stats only
  runtime::parallel_tasks(par, static_cast<int>(n_blocks), [&](int block) {
    const long lo = static_cast<long>(block) * batch;
    const long hi = std::min(n_points, lo + batch);
    // Window contexts are per-point state; build them here so blocks stay
    // independent, then roll all lanes of the block out in one GEMM batch.
    std::vector<std::vector<context::Window>> windows(static_cast<size_t>(hi - lo));
    std::vector<core::GenerateBatchItem> items(static_cast<size_t>(hi - lo));
    for (long p = lo; p < hi; ++p) {
      const long ix = p % gw, iy = p / gw;
      positions[static_cast<size_t>(p)] = ds.world.projection().to_latlon(grid_enu(ix, iy));
      std::vector<geo::TrajectoryPoint> pts;
      pts.reserve(static_cast<size_t>(wlen));
      for (int t = 0; t < wlen; ++t)
        pts.push_back({static_cast<double>(t), positions[static_cast<size_t>(p)]});
      windows[static_cast<size_t>(p - lo)] = builder.generation_windows(geo::Trajectory(pts));
      items[static_cast<size_t>(p - lo)] = {.windows = &windows[static_cast<size_t>(p - lo)],
                                            .seed = runtime::derive_stream_seed(
                                                gen_seed, static_cast<uint64_t>(p))};
    }
    const std::vector<core::GenerateBatchResult> results = gen->generate_batch(items);
    for (long p = lo; p < hi; ++p) {
      const core::GenerateBatchResult& r = results[static_cast<size_t>(p - lo)];
      if (!r.ok) {
        std::fprintf(stderr, "error: point (%ld,%ld): %s\n", p % gw, p / gw, r.error.c_str());
        failed.store(true);
        continue;
      }
      for (int ch = 0; ch < nch; ++ch) {
        const std::vector<double>& series = r.series.channels[static_cast<size_t>(ch)];
        double sum = 0.0;
        for (double v : series) sum += v;
        means[static_cast<size_t>(p) * static_cast<size_t>(nch) + static_cast<size_t>(ch)] =
            series.empty() ? 0.0 : sum / static_cast<double>(series.size());
      }
      windows_done.fetch_add(
          static_cast<long>(windows[static_cast<size_t>(p - lo)].size()));
    }
  });
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t_start)  // gendt-lint: allow(wallclock) stats only
          .count();
  if (failed.load()) return 1;

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  os << "ix,iy,lat,lon";
  for (auto k : ds.kpis) os << ',' << sim::kpi_name(k) << "_mean";
  os << '\n';
  char buf[64];
  for (long p = 0; p < n_points; ++p) {
    os << (p % gw) << ',' << (p / gw);
    std::snprintf(buf, sizeof(buf), "%.9f", positions[static_cast<size_t>(p)].lat);
    os << ',' << buf;
    std::snprintf(buf, sizeof(buf), "%.9f", positions[static_cast<size_t>(p)].lon);
    os << ',' << buf;
    for (int ch = 0; ch < nch; ++ch) {
      std::snprintf(buf, sizeof(buf), "%.6f",
                    means[static_cast<size_t>(p) * static_cast<size_t>(nch) +
                          static_cast<size_t>(ch)]);
      os << ',' << buf;
    }
    os << '\n';
  }
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }

  const double wps = elapsed_ms > 0.0 ? 1000.0 * static_cast<double>(windows_done.load()) /
                                            elapsed_ms
                                      : 0.0;
  std::printf("covermap: %ldx%ld grid (%s), batch=%d, %ld windows in %.0f ms (%.1f windows/s)"
              " -> %s\n",
              gw, gh, format.c_str(), batch, windows_done.load(), elapsed_ms, wps, out_path.c_str());

  const std::string bench_path = a.get("bench-out");
  if (!bench_path.empty()) {
    std::ofstream bs(bench_path);
    if (!bs) {
      std::fprintf(stderr, "error: cannot write %s\n", bench_path.c_str());
      return 1;
    }
    // google-benchmark JSON, same shape write_replay_bench_json emits; this
    // one carries wall-clock throughput, so it is a local artifact — the
    // committed, bench_compare.py-gated numbers come from bench_micro_perf.
    bs << "{\n  \"context\": {\"harness\": \"gendt covermap\"},\n  \"benchmarks\": [\n";
    std::snprintf(buf, sizeof(buf), "%.6f", elapsed_ms);
    bs << "    {\"name\": \"BM_CovermapRollout/total_ms\", \"run_type\": \"iteration\", "
       << "\"iterations\": 1, \"real_time\": " << buf << ", \"cpu_time\": " << buf
       << ", \"time_unit\": \"ms\"},\n";
    std::snprintf(buf, sizeof(buf), "%.6f", wps);
    bs << "    {\"name\": \"BM_CovermapRollout/windows_per_s\", \"run_type\": \"iteration\", "
       << "\"iterations\": 1, \"real_time\": " << buf << ", \"cpu_time\": " << buf
       << ", \"time_unit\": \"ms\"}\n  ]\n}\n";
    if (!bs) {
      std::fprintf(stderr, "error: cannot write %s\n", bench_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", bench_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (is_help(a.command)) {
    print_usage(stdout);
    return 0;
  }
  if (is_version(a.command)) return cmd_version();
  if (a.command == "simulate") return cmd_simulate(a);
  if (a.command == "train") return cmd_train(a);
  if (a.command == "generate") return cmd_generate(a);
  if (a.command == "eval") return cmd_eval(a);
  if (a.command == "pack") return cmd_pack(a);
  if (a.command == "serve") return cmd_serve(a);
  if (a.command == "stream-client") return cmd_stream_client(a);
  if (a.command == "replay") return cmd_replay(a);
  if (a.command == "covermap") return cmd_covermap(a);
  return usage();  // no command given
}
