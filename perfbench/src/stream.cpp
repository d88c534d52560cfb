// stream: an in-process StreamServer on a unix socket, built like
// `gendt serve --stream` builds it, with StreamClient threads that each run
// short sessions back to back: connect, OPEN a simulated user trajectory of
// a few windows asking for 1- or 2-window chunks, receive and ACK every
// chunk, CLOSE. The server generates on its event-loop thread (one worker),
// so the process runs the loop plus the clients and nothing else. The
// steady phase runs in slices with a timed set-up between them (Slices).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <random>
#include <thread>

#include "gendt/runtime/thread_pool.h"
#include "gendt/serve/stream/client.h"
#include "gendt/serve/stream/server.h"
#include "gendt/sim/trajectory_gen.h"
#include "harness.h"

namespace perfbench {

namespace {

// Client threads; with the server's event-loop thread this is nproc = 4.
constexpr int kClients = 3;
constexpr size_t kSessionPool = 80;
// The event loop moves to the next CPU this often (see PinnedToCpu).
constexpr double kLoopPinS = 0.5;

/// The steady phase is kSetupReps - 1 slices of equal length. Before each,
/// the clients pause between sessions and the event-loop thread runs one
/// timed set-up. Traced runs trace every other slice.
struct Slices {
  std::atomic<int> current{-1};  // slice in progress; -1 during warm-up
  std::atomic<bool> paused{false};
  std::atomic<bool> stop{false};
  std::atomic<int> idle{0};  // clients waiting at the pause
  bool trace = false;

  static bool traced(bool trace, int k) { return trace && k >= 0 && k % 2 == 1; }
  bool traced_now() const { return traced(trace, current.load()); }
  static uint64_t root_id(int k) { return (uint64_t{1} << 40) + static_cast<uint64_t>(k); }
};

/// Benchmark-owned decorator around the server's chunk source: forwards
/// every call and records next_chunk / snapshot spans in traced slices. It
/// runs on the event-loop thread, which also moves the slices on.
class TracedChunkSource final : public serve::stream::ChunkSource {
 public:
  TracedChunkSource(std::unique_ptr<serve::stream::ChunkSource> inner, uint64_t session,
                    const Slices& slices)
      : inner_(std::move(inner)), session_(session), slices_(slices) {}

  const Meta& meta() const override { return inner_->meta(); }
  bool done() const override { return inner_->done(); }
  uint64_t next_chunk_index() const override { return inner_->next_chunk_index(); }
  serve::stream::ChunkMsg next_chunk(const runtime::CancelToken* cancel) override {
    SpanScope span(slices_.traced_now(), kCoreNextChunk, Slices::root_id(slices_.current),
                   session_);
    span.set_aux(inner_->next_chunk_index());
    serve::stream::ChunkMsg msg = inner_->next_chunk(cancel);
    span.set_counts(1, msg.num_windows);
    return msg;
  }
  std::unique_ptr<serve::stream::SourceSnapshot> snapshot() const override {
    SpanScope span(slices_.traced_now(), kStreamSnapshot, Slices::root_id(slices_.current),
                   session_);
    return inner_->snapshot();
  }
  void restore(const serve::stream::SourceSnapshot& snap) override { inner_->restore(snap); }

 private:
  std::unique_ptr<serve::stream::ChunkSource> inner_;
  uint64_t session_;
  const Slices& slices_;
};

struct SessionOut {
  uint64_t seed = 0;
  size_t spec = 0;
  int slice = -1;  // slice the session was opened in
  uint64_t windows = 0;
  bool ok = false;
  double ttfc_ms = 0.0;
  double max_gap_ms = 0.0;
  std::vector<double> values;  // kept for sampled sessions only
};

struct ClientLog {
  std::vector<SessionOut> sessions;
  std::vector<std::pair<int, ChunkSeen>> gaps;  // with their session's slice
  double idle_since = 0.0;  // when the client last stopped at a pause
};

}  // namespace

int run_stream(const Options& opt, Result& r) {
  using Status = serve::stream::StreamClient::Status;
  const std::string pack = opt.workdir + "/model1.gdtpack";
  const std::string socket_path = opt.workdir + "/stream.sock";

  // ---- inputs (untimed): model file and the session pool -------------------
  std::vector<serve::stream::OpenRequest> specs;  // seed set per session
  {
    const sim::Dataset ds0 = sim::make_dataset_a(cli_dataset_scale());
    write_model_pack(ds0, 1, pack);
    const context::ContextBuilder builder0(ds0.world, cli_context(),
                                           context::fit_kpi_norm(ds0.train, ds0.kpis), ds0.kpis);
    const sim::Scenario scenarios[] = {sim::Scenario::kWalk, sim::Scenario::kBus,
                                       sim::Scenario::kTram, sim::Scenario::kCityDriving1,
                                       sim::Scenario::kCityDriving2};
    const int cities = std::max<int>(1, static_cast<int>(ds0.world.region.cities.size()));
    std::mt19937_64 rng(runtime::derive_stream_seed(opt.seed, 0x57EA));
    // A balanced mix: every combination of 2..6 windows and 1- or
    // 2-window chunks, each a prefix of a seeded simulated trajectory.
    for (size_t i = 0; specs.size() < kSessionPool; ++i) {
      if (i > 100 * kSessionPool) throw std::runtime_error("stream: cannot build the session mix");
      const size_t n = specs.size();
      const size_t want = 2 + n % 5;
      const geo::Trajectory traj = sim::scenario_trajectory(
          ds0.world.region, scenarios[i % std::size(scenarios)], 600.0, rng,
          static_cast<int>(i % static_cast<size_t>(cities)));
      const std::vector<context::Window> all = builder0.generation_windows(traj);
      if (all.size() < want) continue;
      const auto end = traj.points().begin() + all[want - 1].start + all[want - 1].len;
      const geo::Trajectory prefix(std::vector<geo::TrajectoryPoint>(traj.points().begin(), end));
      if (builder0.generation_windows(prefix).size() != want) continue;
      serve::stream::OpenRequest open;
      open.chunk_windows = static_cast<uint32_t>(1 + (n / 5) % 2);
      for (const auto& p : prefix.points()) open.points.push_back({p.t, p.pos.lat, p.pos.lon});
      specs.push_back(std::move(open));
    }
  }

  // ---- set-up: dataset, pack load, server + listen --------------------------
  Slices slices;
  slices.trace = opt.trace;
  uint64_t cells = 0, built_windows = 0;  // touched by the event loop only
  struct Live {
    std::unique_ptr<sim::Dataset> ds;
    std::unique_ptr<core::GenDTGenerator> gen;
    std::unique_ptr<context::ContextBuilder> builder;
    std::vector<std::string> names;
    std::unique_ptr<serve::stream::StreamServer> server;
  };
  const auto set_up = [&](size_t k, const std::string& path) {
    const PinnedToCpu pin(k);
    Live l;
    const double t0 = now_s();
    l.ds = std::make_unique<sim::Dataset>(sim::make_dataset_a(cli_dataset_scale()));
    const double t1 = now_s();
    l.gen = load_pack(pack, *l.ds, 1);
    const double t2 = now_s();
    l.builder = std::make_unique<context::ContextBuilder>(l.ds->world, cli_context(),
                                                          l.gen->norm(), l.ds->kpis);
    for (auto kpi : l.ds->kpis) l.names.emplace_back(sim::kpi_name(kpi));

    serve::stream::StreamServerConfig cfg;
    cfg.parallelism = runtime::Parallelism{.threads = 1};
    // The factory mirrors `gendt serve --stream`'s: validate, build the
    // context windows, wrap them in a GenDTChunkSource.
    const core::GenDTModel& model = l.gen->model();
    const context::KpiNorm& norm = l.gen->norm();
    const context::ContextBuilder* builder = l.builder.get();
    l.server = std::make_unique<serve::stream::StreamServer>(
        cfg,
        [&slices, &cells, &built_windows, &model, &norm, builder, names = l.names](
            const serve::stream::OpenRequest& open, serve::stream::StreamErrorCode* code,
            std::string* error) -> std::unique_ptr<serve::stream::ChunkSource> {
          *code = serve::stream::StreamErrorCode::kInvalidRequest;
          const bool traced = slices.traced_now();
          SpanScope open_span(traced, kStreamOpen, Slices::root_id(slices.current), open.seed);
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
          const double t0p = pts.front().t;
          const double period = pts[1].t - pts[0].t;
          geo::Trajectory traj(std::move(pts));
          std::vector<context::Window> windows;
          {
            SpanScope ctx(traced, kContextWindows, open_span.id(), open.seed);
            windows = builder->generation_windows(traj);
            ctx.set_counts(1, static_cast<uint32_t>(windows.size()));
          }
          if (windows.empty()) {
            *error = "trajectory too short for one window";
            return nullptr;
          }
          for (const auto& w : windows) cells += w.cell_attrs.size();
          built_windows += windows.size();
          open_span.set_counts(1, static_cast<uint32_t>(windows.size()));
          auto source = std::make_unique<serve::stream::GenDTChunkSource>(
              model, norm, std::vector<sim::Kpi>{}, std::move(windows), open.seed,
              static_cast<int>(open.chunk_windows), names, t0p, period);
          return std::make_unique<TracedChunkSource>(std::move(source), open.seed, slices);
        });
    std::string err;
    if (!l.server->listen_unix(path, &err))
      throw std::runtime_error("cannot listen on " + path + ": " + err);
    const double t3 = now_s();
    r.setup_s.push_back(t3 - t0);
    r.dataset_s.push_back(t1 - t0);
    r.pack_load_ms.push_back(1e3 * (t2 - t1));
    return l;
  };
  const Live live = set_up(0, socket_path);
  const auto& gen = live.gen;
  const auto& builder = live.builder;
  const std::vector<std::string>& names = live.names;
  serve::stream::StreamServer& server = *live.server;
  add_param_shapes(gen->model(), r);

  // ---- clients ---------------------------------------------------------------
  std::atomic<uint64_t> next_session{0};
  std::atomic<int> clients_left{kClients};
  std::vector<ClientLog> logs(kClients);

  const auto client_main = [&](int c) {
    ClientLog& log = logs[static_cast<size_t>(c)];
    for (;;) {
      if (slices.paused) {
        log.idle_since = now_s();
        ++slices.idle;
        while (slices.paused && !slices.stop)
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        --slices.idle;
      }
      if (slices.stop) break;
      const uint64_t j = next_session.fetch_add(1);
      SessionOut s;
      s.slice = slices.current;
      s.spec = j % specs.size();
      s.seed = runtime::derive_stream_seed(opt.seed ^ 0x5E5510Du, j);
      const bool traced = Slices::traced(slices.trace, s.slice);
      const bool sampled = runtime::derive_stream_seed(opt.seed ^ 0x5A3B1Eu, j) % 32 == 0;
      serve::stream::OpenRequest req = specs[s.spec];
      req.seed = s.seed;
      serve::stream::StreamClient client;
      std::string err;
      const double t_open = now_s();
      if (!client.connect_unix(socket_path, &err)) {
        log.sessions.push_back(std::move(s));
        continue;
      }
      serve::stream::OpenAck ack;
      bool ok = client.open(req, &ack) == Status::kOk;
      uint64_t expect = 0;
      double t_ack = 0.0;
      bool last = false;
      while (ok && !last) {
        serve::stream::ChunkMsg chunk;
        if (client.recv_chunk(&chunk, &last) != Status::kOk) {
          ok = false;
          break;
        }
        const double t_recv = now_s();
        if (chunk.index != expect || chunk.num_channels != ack.channel_names.size() ||
            chunk.values.size() != static_cast<size_t>(chunk.num_points) * chunk.num_channels) {
          ok = false;
          break;
        }
        s.windows += chunk.num_windows;
        if (expect == 0) {
          s.ttfc_ms = 1e3 * (t_recv - t_open);
        } else {
          const double gap = 1e3 * (t_recv - t_ack);
          s.max_gap_ms = std::max(s.max_gap_ms, gap);
          ChunkSeen seen{s.seed, chunk.index, gap, 0};
          if (traced)
            seen.wire_bytes =
                serve::stream::encode_frame(serve::stream::FrameType::kChunk, 0,
                                            serve::stream::encode_chunk(chunk))
                    .size();
          log.gaps.push_back({s.slice, seen});
        }
        if (sampled) s.values.insert(s.values.end(), chunk.values.begin(), chunk.values.end());
        if (!client.ack(chunk.index)) {
          ok = false;
          break;
        }
        t_ack = now_s();
        ++expect;
      }
      serve::stream::CloseStats close_stats;
      s.ok = ok && s.windows == ack.total_windows &&
             client.close_session(&close_stats) == Status::kOk;
      if (!sampled) s.values.clear();
      log.sessions.push_back(std::move(s));
    }
    if (clients_left.fetch_sub(1) == 1) server.request_drain();
  };

  // ---- the event loop: StreamServer::run() plus the slice schedule ---------
  const int n_slices = kSetupReps - 1;
  const double slice_s = SetupSchedule(opt.seconds).slice_s();
  std::vector<std::pair<double, double>> spans_of(static_cast<size_t>(n_slices));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client_main, c);
  {
    double phase_end = now_s() + kWarmupS;
    double cpu_start = 0.0;
    size_t setup_no = 1;
    std::optional<PinnedToCpu> loop_pin;
    size_t pin_step = 0;
    double next_move = 0.0;
    while (server.poll_once(50)) {
      const double now = now_s();
      if (now >= next_move) {
        loop_pin.reset();
        loop_pin.emplace(pin_step++);
        next_move = now + kLoopPinS;
      }
      if (!slices.paused && now >= phase_end) slices.paused = true;
      if (!slices.paused || slices.stop || slices.idle < kClients) continue;
      // Every client waits between sessions: close the slice, set up, go on.
      const int k = slices.current;
      if (k >= 0) {
        double end = 0.0;
        for (const ClientLog& log : logs) end = std::max(end, log.idle_since);
        spans_of[static_cast<size_t>(k)].second = end;
        r.cpu_s += cpu_s() - cpu_start;
      }
      if (k + 1 == n_slices) {
        slices.stop = true;
        continue;
      }
      set_up(setup_no++, opt.workdir + "/setup.sock");  // timed, then discarded
      spans_of[static_cast<size_t>(k + 1)].first = now_s();
      cpu_start = cpu_s();
      phase_end = spans_of[static_cast<size_t>(k + 1)].first + slice_s;
      slices.current = k + 1;
      slices.paused = false;
    }
  }
  for (auto& t : clients) t.join();

  // ---- tally -----------------------------------------------------------------
  for (int k = 0; k < n_slices; ++k) {
    const auto [a, b] = spans_of[static_cast<size_t>(k)];
    if (!(b > a)) {
      r.problem("stream: slice " + std::to_string(k) + " never ran");
      continue;
    }
    if (!Slices::traced(opt.trace, k)) {
      r.wall_s += b - a;
      continue;
    }
    r.traced_wall_s += b - a;
    Span root;
    root.id = Slices::root_id(k);
    root.name = kBenchSlice;
    root.t0 = a;
    root.t1 = b;
    tracer().record(root);
  }
  for (const ClientLog& log : logs) {
    for (const SessionOut& s : log.sessions) {
      if (s.slice < 0) continue;  // warm-up
      ++r.units;
      if (s.ok) ++r.units_ok;
      if (Slices::traced(opt.trace, s.slice)) {
        r.traced_windows += s.windows;
        continue;
      }
      r.windows += s.windows;
      r.ops.push_back({s.ok, s.ttfc_ms, s.max_gap_ms});
      if (s.ok) r.ttfc_ms.push_back(s.ttfc_ms);
    }
    for (const auto& [slice, seen] : log.gaps) {
      if (opt.trace) r.chunks.push_back(seen);
      if (slice >= 0 && !Slices::traced(opt.trace, slice)) r.gap_ms.push_back(seen.gap_ms);
    }
  }

  const serve::stream::StreamStats st = server.stats();
  if (st.resolved() != st.sessions_total)
    r.problem("stream: ok+degraded+failed+shed != sessions");
  r.counters["bad_frames"] = static_cast<double>(st.bad_frames);
  r.counters["resumes"] = static_cast<double>(st.resumes);
  r.counters["cells_per_window"] =
      static_cast<double>(cells) / static_cast<double>(std::max<uint64_t>(1, built_windows));
  r.counters["warm_peak_bytes"] = static_cast<double>(gen->warm_peak_bytes());

  // ---- output check (untimed): sampled sessions vs the graph oracle --------
  std::vector<const SessionOut*> sampled;
  for (const ClientLog& log : logs)
    for (const SessionOut& s : log.sessions)
      if (s.ok && !s.values.empty() && s.slice >= 0)
        sampled.push_back(&s);
  std::sort(sampled.begin(), sampled.end(),
            [](const SessionOut* a, const SessionOut* b) { return a->seed < b->seed; });
  std::mt19937_64 pick(runtime::derive_stream_seed(opt.seed, 0xC4EC));
  std::shuffle(sampled.begin(), sampled.end(), pick);
  sampled.resize(std::min<size_t>(sampled.size(), 8));
  if (sampled.empty()) r.problem("no stream session sampled for the output check");
  // Chunks carry row-major [points x channels]; series are per channel.
  const auto to_series = [](const std::vector<double>& values, size_t nch) {
    core::GeneratedSeries out;
    out.channels.assign(nch, {});
    for (size_t v = 0; v < values.size(); ++v) out.channels[v % nch].push_back(values[v]);
    return out;
  };
  for (size_t i = 0; i < sampled.size(); ++i) {
    const SessionOut& s = *sampled[i];
    const serve::stream::OpenRequest& open = specs[s.spec];
    std::vector<geo::TrajectoryPoint> pts;
    for (const auto& p : open.points) pts.push_back({p.t, {p.lat, p.lon}});
    const std::vector<context::Window> windows =
        builder->generation_windows(geo::Trajectory(pts));
    // The re-run: a fresh chunk source drained in-process, no socket.
    serve::stream::GenDTChunkSource rerun(gen->model(), gen->norm(), {}, windows, s.seed,
                                          static_cast<int>(open.chunk_windows), names,
                                          pts.front().t, pts[1].t - pts[0].t);
    std::vector<double> values;
    while (!rerun.done()) {
      const serve::stream::ChunkMsg chunk = rerun.next_chunk(nullptr);
      values.insert(values.end(), chunk.values.begin(), chunk.values.end());
    }
    check_output(r, "stream session " + std::to_string(s.seed), to_series(s.values, names.size()),
                 to_series(values, names.size()),
                 oracle_series(gen->model(), gen->norm(), {}, windows, s.seed),
                 opt.corrupt && i == 0);
  }
  return 0;
}

}  // namespace perfbench
