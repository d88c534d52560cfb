// GenerationEngine unit tests: the admission / execute / degrade-or-fail
// state machine, request validation, deadlines, retry-with-backoff,
// fallback degradation, and both backpressure policies.
#include "gendt/serve/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "gendt/serve/fault.h"

namespace gendt::serve {
namespace {

using runtime::CancelToken;
using runtime::ManualClock;

std::vector<context::Window> make_windows(int count, int len) {
  std::vector<context::Window> out(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    out[static_cast<size_t>(i)].start = i * len;
    out[static_cast<size_t>(i)].len = len;
  }
  return out;
}

EngineConfig test_config() {
  EngineConfig cfg;
  cfg.max_queue = 8;
  cfg.backpressure = EngineConfig::Backpressure::kBlock;
  cfg.workers = 2;
  cfg.max_retries = 2;
  cfg.backoff_base_ms = 1;
  cfg.expected_channels = 2;
  return cfg;
}

TEST(ServeError, CodeNames) {
  EXPECT_EQ(to_string(ServeErrorCode::kInvalidRequest), "invalid-request");
  EXPECT_EQ(to_string(ServeErrorCode::kOverloaded), "overloaded");
  EXPECT_EQ(to_string(ServeErrorCode::kDeadlineExceeded), "deadline-exceeded");
  EXPECT_EQ(to_string(ServeErrorCode::kModelFailure), "model-failure");
  EXPECT_EQ(to_string(ServeErrorCode::kCancelled), "cancelled");
  EXPECT_TRUE(retryable(ServeErrorCode::kModelFailure));
  EXPECT_FALSE(retryable(ServeErrorCode::kDeadlineExceeded));
  EXPECT_FALSE(retryable(ServeErrorCode::kInvalidRequest));
  EXPECT_EQ(to_string(Outcome::kOk), "ok");
  EXPECT_EQ(to_string(Outcome::kDegraded), "degraded");
  EXPECT_EQ(to_string(Outcome::kError), "error");
  EXPECT_EQ(to_string(Outcome::kShed), "shed");
}

TEST(GenerationEngine, InvalidRequestsAreRejectedStructurally) {
  ScriptedGenerator gen({.num_channels = 2}, FaultPlan{}, 4);
  GenerationEngine engine(gen, test_config());

  Request empty;  // no windows
  Response r = engine.execute(empty, 0);
  EXPECT_EQ(r.outcome, Outcome::kError);
  EXPECT_EQ(r.error.code, ServeErrorCode::kInvalidRequest);

  Request zero_len;
  zero_len.windows = make_windows(2, 5);
  zero_len.windows[1].len = 0;
  r = engine.execute(zero_len, 1);
  EXPECT_EQ(r.error.code, ServeErrorCode::kInvalidRequest);

  Request bad_deadline;
  bad_deadline.windows = make_windows(1, 5);
  bad_deadline.deadline_ms = -7;
  r = engine.execute(bad_deadline, 2);
  EXPECT_EQ(r.error.code, ServeErrorCode::kInvalidRequest);
}

TEST(GenerationEngine, OkPathReturnsExactScriptedBits) {
  ScriptedGenerator gen({.num_channels = 2}, FaultPlan{}, 1);
  ManualClock clock;
  gen.bind_request(/*seed=*/41, /*request_index=*/0, &clock);
  GenerationEngine engine(gen, test_config());

  Request req;
  req.windows = make_windows(3, 4);
  req.seed = 41;
  req.virtual_clock = &clock;
  const Response r = engine.execute(req, 0);
  ASSERT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_FALSE(r.fallback_used);
  ASSERT_EQ(r.series.channels.size(), 2u);
  ASSERT_EQ(r.series.length(), 12u);
  for (int w = 0; w < 3; ++w)
    for (int t = 0; t < 4; ++t)
      for (int ch = 0; ch < 2; ++ch)
        EXPECT_EQ(r.series.channels[static_cast<size_t>(ch)][static_cast<size_t>(w * 4 + t)],
                  ScriptedGenerator::expected_value(41, w, t, ch))
            << w << "," << t << "," << ch;
}

TEST(GenerationEngine, TransientThrowIsRetriedToSuccess) {
  FaultPlan plan;
  plan.add({Fault::Kind::kThrow, /*request=*/0, /*window=*/1, 0, /*attempts=*/1});
  ScriptedGenerator gen({.num_channels = 2}, plan, 1);
  ManualClock clock;
  gen.bind_request(7, 0, &clock);
  GenerationEngine engine(gen, test_config());

  Request req;
  req.windows = make_windows(3, 4);
  req.seed = 7;
  req.virtual_clock = &clock;
  const Response r = engine.execute(req, 0);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(gen.attempt_count(0), 2);
  EXPECT_EQ(engine.stats().retries, 1u);
}

TEST(GenerationEngine, TransientPoisonIsRetriedToSuccess) {
  FaultPlan plan;
  plan.add({Fault::Kind::kPoison, 0, 2, 0, /*attempts=*/1});
  ScriptedGenerator gen({.num_channels = 2}, plan, 1);
  ManualClock clock;
  gen.bind_request(7, 0, &clock);
  GenerationEngine engine(gen, test_config());

  Request req;
  req.windows = make_windows(3, 4);
  req.seed = 7;
  req.virtual_clock = &clock;
  const Response r = engine.execute(req, 0);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(r.attempts, 2);
}

TEST(GenerationEngine, StickyFailureDegradesToFallback) {
  FaultPlan plan;
  plan.add({Fault::Kind::kThrow, 0, 0, 0, /*attempts=*/std::numeric_limits<int>::max()});
  ScriptedGenerator gen({.num_channels = 2}, plan, 1);
  ManualClock clock;
  gen.bind_request(7, 0, &clock);
  GenerationEngine engine(gen, test_config());
  ConstantGenerator fallback(2, 0.5);
  engine.set_fallback(&fallback);

  Request req;
  req.windows = make_windows(2, 4);
  req.seed = 7;
  req.virtual_clock = &clock;
  const Response r = engine.execute(req, 0);
  ASSERT_EQ(r.outcome, Outcome::kDegraded);
  EXPECT_TRUE(r.fallback_used);
  EXPECT_EQ(r.error.code, ServeErrorCode::kModelFailure);
  EXPECT_EQ(r.attempts, 3);  // 1 + max_retries
  ASSERT_EQ(r.series.length(), 8u);
  EXPECT_EQ(r.series.channels[0][0], 0.5);
  EXPECT_EQ(engine.stats().degraded, 1u);
}

TEST(GenerationEngine, StickyFailureWithoutFallbackIsStructuredError) {
  FaultPlan plan;
  plan.add({Fault::Kind::kPoison, 0, 0, 0, std::numeric_limits<int>::max()});
  ScriptedGenerator gen({.num_channels = 2}, plan, 1);
  ManualClock clock;
  gen.bind_request(7, 0, &clock);
  GenerationEngine engine(gen, test_config());

  Request req;
  req.windows = make_windows(2, 4);
  req.seed = 7;
  req.virtual_clock = &clock;
  const Response r = engine.execute(req, 0);
  EXPECT_EQ(r.outcome, Outcome::kError);
  EXPECT_EQ(r.error.code, ServeErrorCode::kModelFailure);
  EXPECT_NE(r.error.message.find("poisoned"), std::string::npos);
}

TEST(GenerationEngine, DeadlineAgainstSlowModelDegrades) {
  FaultPlan plan;
  plan.add({Fault::Kind::kDelay, 0, 1, /*delay_ms=*/1000, 1});
  ScriptedGenerator gen({.num_channels = 2, .window_cost_ms = 1}, plan, 1);
  ManualClock clock;
  gen.bind_request(7, 0, &clock);
  GenerationEngine engine(gen, test_config());
  ConstantGenerator fallback(2, -1.0);
  engine.set_fallback(&fallback);

  Request req;
  req.windows = make_windows(4, 4);
  req.seed = 7;
  req.deadline_ms = 50;
  req.virtual_clock = &clock;
  const Response r = engine.execute(req, 0);
  ASSERT_EQ(r.outcome, Outcome::kDegraded);
  EXPECT_EQ(r.error.code, ServeErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(r.fallback_used);
  ASSERT_EQ(r.series.length(), 16u);  // fallback still answers the full request
  EXPECT_EQ(engine.stats().deadline_expirations, 1u);
}

TEST(GenerationEngine, DeadlineWithoutFallbackPolicyIsStructuredError) {
  FaultPlan plan;
  plan.add({Fault::Kind::kDelay, 0, 0, 1000, 1});
  ScriptedGenerator gen({.num_channels = 2}, plan, 1);
  ManualClock clock;
  gen.bind_request(7, 0, &clock);
  EngineConfig cfg = test_config();
  cfg.fallback_on_deadline = false;
  GenerationEngine engine(gen, cfg);
  ConstantGenerator fallback(2);
  engine.set_fallback(&fallback);

  Request req;
  req.windows = make_windows(2, 4);
  req.seed = 7;
  req.deadline_ms = 10;
  req.virtual_clock = &clock;
  const Response r = engine.execute(req, 0);
  EXPECT_EQ(r.outcome, Outcome::kError);
  EXPECT_EQ(r.error.code, ServeErrorCode::kDeadlineExceeded);
  EXPECT_FALSE(r.fallback_used);
}

TEST(GenerationEngine, ExplicitCancelIsNeverRescuedByFallback) {
  ScriptedGenerator gen({.num_channels = 2}, FaultPlan{}, 1);
  ManualClock clock;
  gen.bind_request(7, 0, &clock);
  GenerationEngine engine(gen, test_config());
  ConstantGenerator fallback(2);
  engine.set_fallback(&fallback);

  CancelToken token;
  token.cancel();
  Request req;
  req.windows = make_windows(2, 4);
  req.seed = 7;
  req.cancel = &token;
  req.virtual_clock = &clock;
  const Response r = engine.execute(req, 0);
  EXPECT_EQ(r.outcome, Outcome::kError);
  EXPECT_EQ(r.error.code, ServeErrorCode::kCancelled);
  EXPECT_FALSE(r.fallback_used);
  EXPECT_EQ(gen.attempt_count(0), 0);  // never even attempted
}

// Acceptance scenario: one short-deadline request against a slow model must
// resolve as deadline-exceeded/degraded while the engine keeps serving the
// requests behind it.
TEST(GenerationEngine, SlowRequestDoesNotWedgeSubsequentRequests) {
  FaultPlan plan;
  plan.add({Fault::Kind::kDelay, 0, 0, 10000, 1});  // request 0 is pathological
  ScriptedGenerator gen({.num_channels = 2}, plan, 3);
  std::vector<ManualClock> clocks(3);
  for (int r = 0; r < 3; ++r) gen.bind_request(100 + static_cast<uint64_t>(r), r, &clocks[static_cast<size_t>(r)]);

  EngineConfig cfg = test_config();
  cfg.workers = 1;  // even a single executor must not wedge
  GenerationEngine engine(gen, cfg);
  ConstantGenerator fallback(2, 9.0);
  engine.set_fallback(&fallback);

  std::vector<Request> reqs(3);
  for (int r = 0; r < 3; ++r) {
    reqs[static_cast<size_t>(r)].windows = make_windows(2, 4);
    reqs[static_cast<size_t>(r)].seed = 100 + static_cast<uint64_t>(r);
    reqs[static_cast<size_t>(r)].virtual_clock = &clocks[static_cast<size_t>(r)];
  }
  reqs[0].deadline_ms = 20;

  const auto out = engine.serve(reqs);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].outcome, Outcome::kDegraded);
  EXPECT_EQ(out[0].error.code, ServeErrorCode::kDeadlineExceeded);
  EXPECT_EQ(out[1].outcome, Outcome::kOk);
  EXPECT_EQ(out[2].outcome, Outcome::kOk);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(GenerationEngine, BlockPolicyAdmitsEverythingEventually) {
  const int kN = 20;
  ScriptedGenerator gen({.num_channels = 2}, FaultPlan{}, kN);
  std::vector<ManualClock> clocks(kN);
  for (int r = 0; r < kN; ++r)
    gen.bind_request(static_cast<uint64_t>(r), r, &clocks[static_cast<size_t>(r)]);
  EngineConfig cfg = test_config();
  cfg.max_queue = 2;  // force the submitter to block repeatedly
  cfg.workers = 3;
  GenerationEngine engine(gen, cfg);

  std::vector<Request> reqs(kN);
  for (int r = 0; r < kN; ++r) {
    reqs[static_cast<size_t>(r)].windows = make_windows(2, 3);
    reqs[static_cast<size_t>(r)].seed = static_cast<uint64_t>(r);
    reqs[static_cast<size_t>(r)].virtual_clock = &clocks[static_cast<size_t>(r)];
  }
  const auto out = engine.serve(reqs);
  for (int r = 0; r < kN; ++r) EXPECT_EQ(out[static_cast<size_t>(r)].outcome, Outcome::kOk) << r;
  const auto stats = engine.stats();
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kN));
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.ok, static_cast<uint64_t>(kN));
}

// A generator that parks until every admission decision has been made, so
// the shed count is pinned to a narrow deterministic range (the worker can
// hold at most one request; the queue at most max_queue).
class GateGenerator final : public core::TimeSeriesGenerator {
 public:
  GateGenerator(int num_channels, uint64_t total) : nch_(num_channels), total_(total) {}
  void set_engine(const GenerationEngine* engine) { engine_ = engine; }
  std::string name() const override { return "Gate"; }
  void fit(const std::vector<context::Window>&) override {}
  core::GeneratedSeries generate(const std::vector<context::Window>& windows,
                                 uint64_t) const override {
    while (engine_ != nullptr) {
      const auto s = engine_->stats();
      if (s.admitted + s.shed >= total_) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    core::GeneratedSeries out;
    out.channels.assign(static_cast<size_t>(nch_), {});
    for (const auto& w : windows)
      for (int t = 0; t < w.len; ++t)
        for (auto& ch : out.channels) ch.push_back(0.0);
    return out;
  }

 private:
  int nch_;
  uint64_t total_;
  const GenerationEngine* engine_ = nullptr;
};

TEST(GenerationEngine, ShedPolicyRejectsOverflowWithOverloaded) {
  const int kN = 10;
  const int kQueue = 2;
  GateGenerator gen(2, kN);
  EngineConfig cfg = test_config();
  cfg.backpressure = EngineConfig::Backpressure::kShed;
  cfg.max_queue = kQueue;
  cfg.workers = 1;
  GenerationEngine engine(gen, cfg);
  gen.set_engine(&engine);

  std::vector<Request> reqs(kN);
  for (int r = 0; r < kN; ++r) reqs[static_cast<size_t>(r)].windows = make_windows(1, 3);
  const auto out = engine.serve(reqs);

  uint64_t ok = 0, overloaded = 0;
  for (const auto& r : out) {
    if (r.outcome == Outcome::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.outcome, Outcome::kShed);
      EXPECT_EQ(r.error.code, ServeErrorCode::kOverloaded);
      ++overloaded;
    }
  }
  const auto stats = engine.stats();
  EXPECT_EQ(ok + overloaded, static_cast<uint64_t>(kN));
  EXPECT_EQ(stats.shed, overloaded);
  EXPECT_EQ(stats.admitted, ok);
  EXPECT_EQ(stats.resolved(), static_cast<uint64_t>(kN));
  // The single gated worker holds at most one request and the queue at most
  // kQueue more, so at least kN - kQueue - 1 submissions must shed.
  EXPECT_GE(overloaded, static_cast<uint64_t>(kN - kQueue - 1));
  EXPECT_LE(overloaded, static_cast<uint64_t>(kN - 1));  // first request is always admitted
}

// A fallback that charges virtual time before producing anything and honors
// the grace token the engine arms for it — the double for the unbounded-
// degraded-answer regression.
class SlowFallback final : public core::TimeSeriesGenerator {
 public:
  SlowFallback(ManualClock* clock, int64_t step_ms) : clock_(clock), step_ms_(step_ms) {}
  std::string name() const override { return "SlowFallback"; }
  void fit(const std::vector<context::Window>&) override {}
  core::GeneratedSeries generate(const std::vector<context::Window>& windows,
                                 uint64_t) const override {
    core::GeneratedSeries out;
    out.channels.assign(2, {});
    for (const auto& w : windows)
      for (int t = 0; t < w.len; ++t)
        for (auto& ch : out.channels) ch.push_back(0.25);
    return out;
  }
  core::GeneratedSeries generate(const std::vector<context::Window>& windows, uint64_t seed,
                                 const runtime::CancelToken* cancel) const override {
    clock_->advance_ms(step_ms_);
    runtime::check_cancel(cancel);
    return generate(windows, seed);
  }

 private:
  ManualClock* clock_;
  int64_t step_ms_;
};

// Regression: `base << shift` at high attempt counts overflowed int64 and
// produced negative (i.e. zero-length, busy-spin) backoff waits. The delay
// must saturate, stay non-negative, respect the backoff_max_ms ceiling, and
// clamp to the remaining deadline budget.
TEST(GenerationEngine, BackoffDelaySaturatesAndClampsToBudget) {
  EngineConfig cfg = test_config();
  cfg.backoff_base_ms = 1000;
  cfg.backoff_max_ms = 30'000;
  GenerationEngine engine(cfg);

  int64_t prev = 0;
  for (int attempt = 1; attempt <= 200; ++attempt) {
    const int64_t d = engine.backoff_delay_ms(/*request_index=*/3, attempt, /*budget_ms=*/-1);
    EXPECT_GE(d, 0) << "attempt " << attempt;
    EXPECT_LE(d, cfg.backoff_max_ms) << "attempt " << attempt;
    if (attempt > 1) {
      EXPECT_GE(d + cfg.backoff_base_ms, prev) << "attempt " << attempt;
    }
    prev = d;
  }
  // Deep into saturation the ceiling is exact, not just an upper bound.
  EXPECT_EQ(engine.backoff_delay_ms(3, 120, -1), cfg.backoff_max_ms);

  // The wait never exceeds what is left of the deadline.
  EXPECT_LE(engine.backoff_delay_ms(3, 7, /*budget_ms=*/5), 5);
  EXPECT_EQ(engine.backoff_delay_ms(3, 7, /*budget_ms=*/0), 0);
}

// Regression: the jitter seed was mixed as (request_index << 8) ^ attempt, so
// e.g. request 0 at attempt 257 shared its jitter stream with request 1 at
// attempt 1. The nested derive_stream_seed mix keeps the streams distinct
// (and deterministic for a fixed config).
TEST(GenerationEngine, BackoffJitterStreamsAreDistinctAndDeterministic) {
  EngineConfig cfg = test_config();
  cfg.backoff_base_ms = 1'000'000;  // wide jitter range isolates the stream
  cfg.backoff_max_ms = std::numeric_limits<int64_t>::max();
  GenerationEngine engine(cfg);

  // Strip the deterministic exponential part to recover the raw jitter.
  const auto jitter = [&](int request_index, int attempt) {
    const int shift = std::min(attempt - 1, 20);
    return engine.backoff_delay_ms(request_index, attempt, -1) -
           (cfg.backoff_base_ms << shift);
  };
  // Old-scheme collision pairs: (r << 8) ^ a identical across the pair.
  EXPECT_NE(jitter(0, 257), jitter(1, 1));
  EXPECT_NE(jitter(0, 258), jitter(1, 2));
  EXPECT_NE(jitter(2, 257), jitter(3, 1));

  GenerationEngine twin(cfg);
  EXPECT_EQ(engine.backoff_delay_ms(5, 4, -1), twin.backoff_delay_ms(5, 4, -1));
}

// Regression: run_fallback passed a null cancel token, so a slow fallback
// could burn unbounded time producing a degraded answer. The engine now arms
// a fresh grace token (the request's own token has already tripped).
TEST(GenerationEngine, FallbackGraceBudgetBoundsDegradedAnswers) {
  FaultPlan plan;
  plan.add({Fault::Kind::kThrow, 0, 0, 0, std::numeric_limits<int>::max()});

  const auto run = [&](int64_t grace_ms) {
    ScriptedGenerator gen({.num_channels = 2}, plan, 1);
    ManualClock clock;
    gen.bind_request(7, 0, &clock);
    EngineConfig cfg = test_config();
    cfg.fallback_grace_ms = grace_ms;
    GenerationEngine engine(gen, cfg);
    SlowFallback fallback(&clock, /*step_ms=*/50);
    engine.set_fallback(&fallback);

    Request req;
    req.windows = make_windows(2, 4);
    req.seed = 7;
    req.virtual_clock = &clock;
    return engine.execute(req, 0);
  };

  // Fallback needs 50 virtual ms; a 10 ms grace budget cuts it off and the
  // original model failure surfaces instead of a late degraded answer.
  const Response bounded = run(/*grace_ms=*/10);
  EXPECT_EQ(bounded.outcome, Outcome::kError);
  EXPECT_EQ(bounded.error.code, ServeErrorCode::kModelFailure);
  EXPECT_FALSE(bounded.fallback_used);

  // A generous budget (and the unbounded escape hatch) still degrade.
  EXPECT_EQ(run(/*grace_ms=*/500).outcome, Outcome::kDegraded);
  EXPECT_EQ(run(/*grace_ms=*/-1).outcome, Outcome::kDegraded);
}

// A primary-less engine (the router's configuration) rejects execute() but
// serves execute_with() against a caller-chosen generator.
TEST(GenerationEngine, PrimarylessEngineRequiresExecuteWith) {
  EngineConfig cfg = test_config();
  GenerationEngine engine(cfg);

  Request req;
  req.windows = make_windows(2, 4);
  req.seed = 11;
  const Response bare = engine.execute(req, 0);
  EXPECT_EQ(bare.outcome, Outcome::kError);
  EXPECT_EQ(bare.error.code, ServeErrorCode::kInvalidRequest);

  ScriptedGenerator gen({.num_channels = 2}, FaultPlan{}, 1);
  ManualClock clock;
  gen.bind_request(11, 0, &clock);
  req.virtual_clock = &clock;
  const Response routed = engine.execute_with(gen, req, 0);
  ASSERT_EQ(routed.outcome, Outcome::kOk);
  ASSERT_EQ(routed.series.channels.size(), 2u);
  EXPECT_EQ(routed.series.channels[0][0],
            ScriptedGenerator::expected_value(11, 0, 0, 0));
  // The partition invariant counts the failed bare call and the ok routed one.
  const auto stats = engine.stats();
  EXPECT_EQ(stats.resolved(), 2u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(FaultPlan, RandomPlanIsAPureFunctionOfItsSeed) {
  const FaultPlan a = FaultPlan::random(99, 8, 6, 0.3, 0.2, 0.1, 25);
  const FaultPlan b = FaultPlan::random(99, 8, 6, 0.3, 0.2, 0.1, 25);
  ASSERT_EQ(a.faults().size(), b.faults().size());
  for (size_t i = 0; i < a.faults().size(); ++i) {
    EXPECT_EQ(a.faults()[i].kind, b.faults()[i].kind);
    EXPECT_EQ(a.faults()[i].request, b.faults()[i].request);
    EXPECT_EQ(a.faults()[i].window, b.faults()[i].window);
    EXPECT_EQ(a.faults()[i].delay_ms, b.faults()[i].delay_ms);
    EXPECT_EQ(a.faults()[i].attempts, b.faults()[i].attempts);
  }
  const FaultPlan c = FaultPlan::random(100, 8, 6, 0.3, 0.2, 0.1, 25);
  EXPECT_NE(a.faults().size(), 0u);
  // Different seed, different schedule (overwhelmingly likely with 48 slots).
  bool differs = a.faults().size() != c.faults().size();
  for (size_t i = 0; !differs && i < a.faults().size(); ++i)
    differs = a.faults()[i].window != c.faults()[i].window ||
              a.faults()[i].kind != c.faults()[i].kind ||
              a.faults()[i].delay_ms != c.faults()[i].delay_ms;
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace gendt::serve
