#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "gendt/nn/pack.h"
#include "gendt/nn/simd.h"
#include "gendt/nn/serialize.h"
#include "gendt/radio/units.h"

namespace perfbench {

namespace {
const auto kEpoch = std::chrono::steady_clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kEpoch).count();
}

int thread_tag() {
  static std::atomic<int> next{0};
  thread_local const int tag = next.fetch_add(1);
  return tag;
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);  // 0 = the calling thread
}

}  // namespace

PinnedToCpu::PinnedToCpu(size_t k) : previous_(allowed_cpus()) {
  static const std::vector<int> cpus = allowed_cpus();  // the process' mask at start
  if (!cpus.empty()) pin_to({cpus[k % cpus.size()]});
}

PinnedToCpu::~PinnedToCpu() {
  if (!previous_.empty()) pin_to(previous_);
}

sim::DatasetScale cli_dataset_scale() {
  sim::DatasetScale scale;
  scale.seed = 42;
  scale.train_duration_s = 600.0;
  scale.test_duration_s = 300.0;
  scale.records_per_scenario = 1;
  return scale;
}

context::ContextConfig cli_context() {
  context::ContextConfig cfg;
  cfg.window_len = 50;
  cfg.train_step = 10;
  cfg.max_cells = 6;
  return cfg;
}

core::GenDTConfig model_config(int num_channels, uint64_t model_seed) {
  core::GenDTConfig cfg;
  cfg.num_channels = num_channels;
  cfg.hidden = 48;
  cfg.init_seed = model_seed;
  cfg.parallelism = {.threads = 1};
  return cfg;
}

void write_model_pack(const sim::Dataset& ds, uint64_t model_seed, const std::string& path) {
  const context::KpiNorm norm = context::fit_kpi_norm(ds.train, ds.kpis);
  core::GenDTModel model(model_config(static_cast<int>(ds.kpis.size()), model_seed));
  nn::Checkpoint ck;
  ck.meta.set_f64s("kpi_norm.mean", norm.mean);
  ck.meta.set_f64s("kpi_norm.std", norm.stddev);
  for (const auto& p : model.generator_params()) ck.params.push_back({p.name, p.tensor.value()});
  for (const auto& p : model.discriminator_params())
    ck.params.push_back({p.name, p.tensor.value()});
  if (!nn::write_packed(ck, path)) throw std::runtime_error("cannot write " + path);
}

std::unique_ptr<core::GenDTGenerator> load_pack(const std::string& path, const sim::Dataset& ds,
                                                uint64_t model_seed) {
  nn::PackedModel pack;
  const nn::LoadResult r = pack.map(path, nn::PackVerify::kStructural);
  if (!r.ok()) throw std::runtime_error("cannot map " + path + ": " + r.message());
  context::KpiNorm norm;
  if (!pack.meta().get_f64s("kpi_norm.mean", norm.mean) ||
      !pack.meta().get_f64s("kpi_norm.std", norm.stddev))
    throw std::runtime_error(path + " has no kpi_norm metadata");
  auto gen = std::make_unique<core::GenDTGenerator>(
      model_config(static_cast<int>(ds.kpis.size()), model_seed), core::TrainConfig{}, norm);
  gen->set_kpis(ds.kpis);
  const nn::LoadResult applied = gen->load_packed(std::move(pack));
  if (!applied.ok()) throw std::runtime_error("cannot load " + path + ": " + applied.message());
  return gen;
}

core::GeneratedSeries oracle_series(const core::GenDTModel& model, const context::KpiNorm& norm,
                                    const std::vector<sim::Kpi>& kpis,
                                    const std::vector<context::Window>& windows, uint64_t seed) {
  const int nch = model.config().num_channels;
  core::GeneratedSeries out;
  out.channels.assign(static_cast<size_t>(nch), {});
  for (const core::WindowSample& s : model.sample_windows(windows, seed)) {
    for (int t = 0; t < s.output.rows(); ++t) {
      for (int ch = 0; ch < nch; ++ch) {
        double v = norm.denormalize(ch, s.output(t, ch));
        if (static_cast<size_t>(ch) < kpis.size() &&
            kpis[static_cast<size_t>(ch)] == sim::Kpi::kCqi)
          v = std::clamp(std::round(v), static_cast<double>(radio::kCqiMin),
                         static_cast<double>(radio::kCqiMax));
        out.channels[static_cast<size_t>(ch)].push_back(v);
      }
    }
  }
  return out;
}

namespace {

bool same_bits(const core::GeneratedSeries& a, const core::GeneratedSeries& b) {
  if (a.channels.size() != b.channels.size()) return false;
  for (size_t c = 0; c < a.channels.size(); ++c) {
    const auto& x = a.channels[c];
    const auto& y = b.channels[c];
    if (x.size() != y.size()) return false;
    if (!x.empty() && std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

// Largest deviation, or infinity when the shapes differ.
double max_deviation(const core::GeneratedSeries& a, const core::GeneratedSeries& b,
                     bool relative) {
  if (a.channels.size() != b.channels.size()) return INFINITY;
  double dev = 0.0;
  for (size_t c = 0; c < a.channels.size(); ++c) {
    if (a.channels[c].size() != b.channels[c].size()) return INFINITY;
    for (size_t t = 0; t < a.channels[c].size(); ++t) {
      const double x = a.channels[c][t], y = b.channels[c][t];
      double d = std::abs(x - y);
      // simd_parity_test's rollout gate: |x - y| <= 1e-7 + 1e-5 * max(|x|, |y|).
      if (relative) d /= 1e-7 + 1e-5 * std::max(std::abs(x), std::abs(y));
      if (!(d <= dev)) dev = d;  // NaN-propagating max
    }
  }
  return dev;
}

void flip_one_bit(core::GeneratedSeries& s) {
  if (s.channels.empty() || s.channels.front().empty()) return;
  double& v = s.channels.front().front();
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1u;
  std::memcpy(&v, &bits, sizeof bits);
}

}  // namespace

void check_output(Result& r, const std::string& what, core::GeneratedSeries got,
                  const core::GeneratedSeries& rerun, const core::GeneratedSeries& oracle,
                  bool corrupt) {
  if (corrupt) flip_one_bit(got);
  const bool scalar = nn::simd::active_route() == nn::simd::Route::kScalar;
  ++r.checked;
  r.counters["oracle_bitwise"] = scalar ? 1.0 : 0.0;
  const double dev = max_deviation(got, oracle, false);
  r.counters["oracle_max_abs_dev"] = std::max(r.counters["oracle_max_abs_dev"], dev);
  std::string why;
  if (!same_bits(got, rerun))
    why = "differs bit for bit from the same request re-run";
  else if (scalar && !same_bits(got, oracle))
    why = "differs bit for bit from sample_windows";
  else if (!scalar && !(max_deviation(got, oracle, true) <= 1.0))
    why = "deviates from sample_windows beyond the SIMD rollout tolerance";
  if (why.empty()) return;
  ++r.mismatched;
  if (r.units_ok > 0) --r.units_ok;
  r.problem(what + " " + why);
}

const char* span_name(uint32_t name) {
  static const char* kNames[kNumSpanNames] = {
      "bench.pass",           "bench.batch",       "bench.slice",
      "runtime.parallel_tasks", "runtime.task",    "context.generation_windows",
      "core.generate_batch",  "serve.router_serve", "core.generate",
      "baselines.generate",   "serve.stream.open", "core.next_chunk",
      "serve.stream.snapshot",
  };
  return name < kNumSpanNames ? kNames[name] : "?";
}

void Tracer::record(const Span& s) {
  runtime::MutexLock lock(mu_);
  spans_.push_back(s);
}

std::vector<Span> Tracer::take() {
  runtime::MutexLock lock(mu_);
  return std::exchange(spans_, {});
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

SpanScope::SpanScope(bool on, uint32_t name, uint64_t parent, uint64_t key) : on_(on) {
  if (!on_) return;
  span_.id = tracer().next_id();
  span_.parent = parent;
  span_.name = name;
  span_.key = key;
  span_.t0 = now_s();
}

SpanScope::~SpanScope() {
  if (!on_) return;
  span_.t1 = now_s();
  tracer().record(span_);
}

void add_param_shapes(const core::GenDTModel& model, Result& r) {
  r.counters["window_len"] = cli_context().window_len;
  for (const auto& p : model.generator_params())
    r.params.push_back({p.name, p.tensor.value().rows(), p.tensor.value().cols()});
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// JSON has no inf/nan literals; Python's reader accepts NaN.
std::string num(double v) {
  if (!std::isfinite(v)) return "NaN";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void write_doubles(std::ostream& os, const std::vector<double>& v) {
  os << '[';
  for (size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << num(v[i]);
  os << ']';
}

}  // namespace

bool write_result(const Options& opt, const Result& r, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << std::setprecision(17);
  os << "{\"workload\":" << quoted(opt.workload) << ",\"seed\":" << opt.seed
     << ",\"seconds\":" << opt.seconds << ",\"trace\":" << (opt.trace ? 1 : 0);
  os << ",\"setup_s\":";
  write_doubles(os, r.setup_s);
  os << ",\"dataset_s\":";
  write_doubles(os, r.dataset_s);
  os << ",\"pack_load_ms\":";
  write_doubles(os, r.pack_load_ms);
  os << ",\"fdas_fit_ms\":";
  write_doubles(os, r.fdas_fit_ms);
  os << ",\"wall_s\":" << r.wall_s << ",\"cpu_s\":" << r.cpu_s << ",\"windows\":" << r.windows
     << ",\"traced_wall_s\":" << r.traced_wall_s << ",\"traced_windows\":" << r.traced_windows
     << ",\"units\":" << r.units << ",\"units_ok\":" << r.units_ok;
  os << ",\"ttfc_ms\":";
  write_doubles(os, r.ttfc_ms);
  os << ",\"gap_ms\":";
  write_doubles(os, r.gap_ms);
  os << ",\"ops\":[";
  for (size_t i = 0; i < r.ops.size(); ++i)
    os << (i ? "," : "") << '[' << (r.ops[i].ok ? 1 : 0) << ',' << r.ops[i].ttfc_ms << ','
       << r.ops[i].max_gap_ms << ']';
  os << "],\"checked\":" << r.checked << ",\"mismatched\":" << r.mismatched << ",\"problems\":[";
  for (size_t i = 0; i < r.problems.size(); ++i) os << (i ? "," : "") << quoted(r.problems[i]);
  os << "],\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : r.counters) {
    os << (first ? "" : ",") << quoted(k) << ':' << v;
    first = false;
  }
  os << "},\"params\":[";
  for (size_t i = 0; i < r.params.size(); ++i)
    os << (i ? "," : "") << '[' << quoted(r.params[i].name) << ',' << r.params[i].rows << ','
       << r.params[i].cols << ']';
  os << "],\"span_names\":[";
  for (uint32_t n = 0; n < kNumSpanNames; ++n) os << (n ? "," : "") << quoted(span_name(n));
  // [id, parent, name, key, aux, lanes, windows, t0, t1]
  os << "],\"spans\":[";
  for (size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    os << (i ? "," : "") << '[' << s.id << ',' << s.parent << ',' << s.name << ',' << s.key << ','
       << s.aux << ',' << s.lanes << ',' << s.windows << ',' << s.t0 << ',' << s.t1 << ']';
  }
  // [session, chunk index, gap_ms, wire bytes]
  os << "],\"chunks\":[";
  for (size_t i = 0; i < r.chunks.size(); ++i) {
    const ChunkSeen& c = r.chunks[i];
    os << (i ? "," : "") << '[' << c.session << ',' << c.index << ',' << c.gap_ms << ','
       << c.wire_bytes << ']';
  }
  os << "],\"peak_rss_mb\":" << r.peak_rss_mb << "}\n";
  os.flush();
  return os.good();
}

}  // namespace perfbench
