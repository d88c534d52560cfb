// gendt::serve — the fault-tolerant generation serving layer.
//
// GenerationEngine wraps any core::TimeSeriesGenerator behind the contract a
// service needs and a batch script doesn't:
//
//   admission:   a bounded queue with a configurable backpressure policy —
//                block the submitter, or shed with a structured kOverloaded
//                error the moment the queue is full.
//   budgets:     per-request deadlines enforced cooperatively at window
//                granularity (runtime::CancelToken armed against an
//                injectable Clock), so an expired request stops burning CPU
//                instead of running to completion.
//   retries:     transient model failures (TransientError, poisoned output)
//                retry with seeded exponential backoff — jitter comes from
//                derive_stream_seed, never from wall-clock or global RNG
//                state, so retry schedules are reproducible.
//   degradation: when the primary model fails or the deadline is blown, a
//                registered cheap fallback generator (e.g. baselines::FDaS)
//                answers instead and the response is tagged kDegraded — the
//                client gets a usable series plus the truth about it.
//   taxonomy:    every request resolves to exactly one of OK / degraded /
//                shed / ServeError — never an escaped exception, a hang, or
//                a torn result — and the Stats buckets partition the batch
//                (ok + degraded + failed + shed == total).
//
// Determinism: with per-request virtual clocks (Request::virtual_clock) and
// the block policy, a serve() batch's outcomes are a pure function of the
// requests and the fault schedule — bitwise identical at any worker count.
// That property is what the chaos tests sweep. With the shed policy,
// shedding depends on real queue occupancy and is inherently timing-
// dependent; tests pin it down by gating the workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "gendt/core/generator.h"
#include "gendt/runtime/cancel.h"
#include "gendt/serve/error.h"

namespace gendt::serve {

/// One generation request: context windows plus the budget to answer within.
struct Request {
  std::vector<context::Window> windows;
  uint64_t seed = 1;
  /// Time budget in ms measured from execution start; -1 inherits the
  /// engine default (which may itself be "no deadline").
  int64_t deadline_ms = -1;
  /// Optional caller-owned cancellation handle. The engine arms its
  /// deadline on it, and the caller may cancel() at any point.
  runtime::CancelToken* cancel = nullptr;
  /// Optional per-request time source. When set, deadlines are measured
  /// against it and retry backoff advances it instead of sleeping — the
  /// chaos harness gives every request its own ManualClock so time (and
  /// therefore every outcome) is isolated from concurrent requests. Null
  /// means the engine clock (production: the process steady clock).
  runtime::ManualClock* virtual_clock = nullptr;
};

enum class Outcome : uint8_t {
  kOk = 0,        ///< primary model answered within budget
  kDegraded = 1,  ///< fallback answered; `error` says why the primary lost
  kError = 2,     ///< structured failure in `error`
  kShed = 3,      ///< rejected at admission (`error` carries kOverloaded);
                  ///< the request never executed, so `series` is empty and
                  ///< `attempts` is 0. Counted in Stats::shed, not failed —
                  ///< the two buckets partition cleanly (see Stats).
};

std::string_view to_string(Outcome outcome);

struct Response {
  Outcome outcome = Outcome::kError;
  core::GeneratedSeries series;  ///< valid for kOk / kDegraded
  /// kError: the failure. kDegraded: the primary-path failure the fallback
  /// rescued (code kDeadlineExceeded or kModelFailure).
  ServeError error;
  int attempts = 0;  ///< primary-model attempts (1 = no retry)
  bool fallback_used = false;
};

struct EngineConfig {
  enum class Backpressure : uint8_t {
    kBlock,  ///< submitter waits for queue space (batch/offline serving)
    kShed,   ///< full queue rejects immediately with kOverloaded
  };

  int max_queue = 64;
  Backpressure backpressure = Backpressure::kShed;
  /// Executor threads consuming the admission queue. Each pops one
  /// request at a time and runs it through the full execute() ladder, so a
  /// worker holds at most one request (the shed policy's occupancy bound).
  int workers = 1;
  /// Retries after the first attempt for retryable failures.
  int max_retries = 2;
  /// Exponential backoff: base << (attempt-1) plus seeded jitter in
  /// [0, base), saturating (never overflowing) and clamped to
  /// [0, backoff_max_ms] and then to the remaining deadline budget. Waits
  /// advance the request's virtual clock when it has one, otherwise sleep
  /// real time.
  int64_t backoff_base_ms = 1;
  /// Ceiling on any single backoff wait, applied after the exponential and
  /// jitter. Keeps a mis-sized base (or a deep retry ladder) from parking a
  /// deadline-less request for hours.
  int64_t backoff_max_ms = 30'000;
  uint64_t backoff_jitter_seed = 0x5eedf00dULL;
  /// Deadline for requests that don't set one; -1 = none.
  int64_t default_deadline_ms = -1;
  /// Channel count responses must have; 0 skips the check.
  int expected_channels = 0;
  /// Degrade to the fallback on a blown deadline (not just model failure).
  bool fallback_on_deadline = true;
  /// Time budget for the degradation path itself: the fallback runs under a
  /// fresh CancelToken armed `fallback_grace_ms` past the moment it starts
  /// (on the request's clock), so a degraded answer after a blown deadline
  /// is still deadline-bounded instead of running unboundedly. The request's
  /// own token is NOT reused — it is typically already tripped, which would
  /// cancel the fallback before it produced anything. -1 = unbounded.
  int64_t fallback_grace_ms = 100;
  /// Time source for deadlines/backoff of requests without a virtual clock.
  const runtime::Clock* clock = &runtime::steady_clock();
};

class GenerationEngine {
 public:
  GenerationEngine(const core::TimeSeriesGenerator& primary, EngineConfig cfg);

  /// Primary-less engine: every request must go through execute_with(),
  /// which supplies the generator per call. This is the form the model
  /// registry/router uses — one engine, N routed models. execute()/serve()
  /// on a primary-less engine resolve each request to kInvalidRequest.
  explicit GenerationEngine(EngineConfig cfg);

  GenerationEngine(const GenerationEngine&) = delete;
  GenerationEngine& operator=(const GenerationEngine&) = delete;

  /// Register the graceful-degradation path. Null disables it. The fallback
  /// must be cheap and reliable (it runs without retry, under a small
  /// fallback_grace_ms budget); callers keep ownership.
  void set_fallback(const core::TimeSeriesGenerator* fallback) { fallback_ = fallback; }

  /// Serve a batch: admit every request in order through the bounded queue,
  /// execute on `workers` threads, return responses in request order.
  /// Returns only when every request has resolved; never throws for
  /// per-request failures.
  std::vector<Response> serve(const std::vector<Request>& requests);

  /// The full lifecycle of one request (validate → attempt/retry → degrade),
  /// bypassing admission. serve() calls this on its workers; tests call it
  /// directly. `request_index` keys the backoff jitter stream.
  Response execute(const Request& request, int request_index);

  /// execute() against an explicit generator instead of the constructor
  /// primary — the router's entry point: it resolves a model lease per
  /// request and runs it through the shared engine (one Stats surface, one
  /// retry/degrade policy). Thread-safe like execute().
  Response execute_with(const core::TimeSeriesGenerator& primary, const Request& request,
                        int request_index);

  /// Accounting invariant (enforced by tests): every request handed to
  /// serve()/execute() lands in exactly one of ok/degraded/failed/shed, so
  ///   ok + degraded + failed + shed == total submitted
  /// and admitted == ok + degraded + failed (shed requests never execute).
  struct Stats {
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t ok = 0;
    uint64_t degraded = 0;
    uint64_t failed = 0;
    uint64_t retries = 0;
    uint64_t deadline_expirations = 0;
    uint64_t fallback_failures = 0;

    /// Requests that reached a terminal outcome. Equals the batch size once
    /// serve() returns — the invariant the accounting tests pin.
    uint64_t resolved() const { return ok + degraded + failed + shed; }
  };
  Stats stats() const;

  const EngineConfig& config() const { return cfg_; }

  /// Seeded backoff wait before retry `attempt` (>= 1) of `request_index`:
  /// saturating exponential `base << (attempt-1)` plus full jitter in
  /// [0, base), clamped to backoff_max_ms and then to `budget_ms` (the
  /// remaining deadline budget; -1 = unbounded). Public because the
  /// overflow/collision regression tests probe it directly.
  int64_t backoff_delay_ms(int request_index, int attempt, int64_t budget_ms) const;

 private:
  bool run_fallback(const Request& request, const runtime::Clock& clock,
                    Response& response) const;

  const core::TimeSeriesGenerator* primary_;
  const core::TimeSeriesGenerator* fallback_ = nullptr;
  EngineConfig cfg_;

  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> deadline_expirations_{0};
  mutable std::atomic<uint64_t> fallback_failures_{0};
};

}  // namespace gendt::serve
