#include "gendt/serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <random>
#include <thread>

#include "bounded_queue.h"

#include "gendt/runtime/thread_pool.h"

namespace gendt::serve {

std::string_view to_string(ServeErrorCode code) {
  switch (code) {
    case ServeErrorCode::kNone: return "none";
    case ServeErrorCode::kInvalidRequest: return "invalid-request";
    case ServeErrorCode::kOverloaded: return "overloaded";
    case ServeErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ServeErrorCode::kModelFailure: return "model-failure";
    case ServeErrorCode::kCancelled: return "cancelled";
  }
  return "unknown";
}

std::string_view to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kDegraded: return "degraded";
    case Outcome::kError: return "error";
    case Outcome::kShed: return "shed";
  }
  return "unknown";
}

namespace {

size_t expected_length(const Request& request) {
  size_t len = 0;
  for (const auto& w : request.windows) len += static_cast<size_t>(w.len);
  return len;
}

/// Poison/shape screen on a generated series: structurally complete and
/// every value finite. A model that "succeeds" with garbage is a model
/// failure the client must never have to discover downstream.
bool validate_series(const core::GeneratedSeries& series, size_t want_len, int want_channels,
                     std::string& why) {
  if (series.channels.empty()) {
    why = "no channels";
    return false;
  }
  if (want_channels > 0 && series.channels.size() != static_cast<size_t>(want_channels)) {
    why = "channel count " + std::to_string(series.channels.size()) + ", expected " +
          std::to_string(want_channels);
    return false;
  }
  for (size_t ch = 0; ch < series.channels.size(); ++ch) {
    if (series.channels[ch].size() != want_len) {
      why = "channel " + std::to_string(ch) + " length " +
            std::to_string(series.channels[ch].size()) + ", expected " + std::to_string(want_len);
      return false;
    }
    for (double v : series.channels[ch]) {
      if (!std::isfinite(v)) {
        why = "non-finite value in channel " + std::to_string(ch);
        return false;
      }
    }
  }
  return true;
}

bool validate_request(const Request& request, std::string& why) {
  if (request.windows.empty()) {
    why = "request has no windows";
    return false;
  }
  for (const auto& w : request.windows) {
    if (w.len <= 0) {
      why = "window with non-positive length";
      return false;
    }
  }
  if (request.deadline_ms < -1) {
    why = "negative deadline";
    return false;
  }
  return true;
}

}  // namespace

GenerationEngine::GenerationEngine(const core::TimeSeriesGenerator& primary, EngineConfig cfg)
    : primary_(&primary), cfg_(cfg) {}

GenerationEngine::GenerationEngine(EngineConfig cfg) : primary_(nullptr), cfg_(cfg) {}

int64_t GenerationEngine::backoff_delay_ms(int request_index, int attempt,
                                           int64_t budget_ms) const {
  // Exponential base with full-jitter from a per-(request, attempt) seeded
  // stream: reproducible, and uncorrelated across requests so a thundering
  // herd of retries spreads out.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t base = std::max<int64_t>(1, cfg_.backoff_base_ms);
  const int shift = std::min(attempt - 1, 20);
  // Saturate instead of shifting into signed overflow: base << shift is UB
  // the moment base > 2^(63-shift), which a large backoff_base_ms reaches
  // by attempt 2. The saturated value is immediately clamped below anyway.
  int64_t wait = base > (kMax >> shift) ? kMax : base << shift;
  if (base > 1) {
    // Nested derive_stream_seed gives every (request, attempt) pair its own
    // 64-bit stream. The former mix `(request_index << 8) ^ attempt`
    // collided — e.g. (request 0, attempt 257) and (request 1, attempt 1)
    // shared a jitter stream — correlating exactly the retries that backoff
    // is supposed to spread apart.
    std::mt19937_64 rng(runtime::derive_stream_seed(
        runtime::derive_stream_seed(cfg_.backoff_jitter_seed,
                                    static_cast<uint64_t>(request_index)),
        static_cast<uint64_t>(attempt)));
    std::uniform_int_distribution<int64_t> jitter(0, base - 1);
    const int64_t j = jitter(rng);
    wait = j > kMax - wait ? kMax : wait + j;
  }
  wait = std::min(wait, std::max<int64_t>(0, cfg_.backoff_max_ms));
  // Clamp to the remaining deadline budget: a wait the budget cannot absorb
  // comes back as exactly the budget, which the retry loop reads as
  // "backing off would blow the deadline" and stops retrying.
  if (budget_ms >= 0) wait = std::min(wait, budget_ms);
  return wait;
}

bool GenerationEngine::run_fallback(const Request& request, const runtime::Clock& clock,
                                    Response& response) const {
  if (fallback_ == nullptr) return false;
  // The degradation path gets its own small grace budget. The request's
  // token is usually already tripped when we get here (that is why we are
  // degrading), so reusing it would cancel the fallback before it produced
  // anything; passing nullptr (the old behavior) let a slow fallback run
  // unbounded after the deadline it was supposed to rescue.
  runtime::CancelToken grace;
  if (cfg_.fallback_grace_ms >= 0)
    grace.arm_deadline(clock, clock.now_ms() + cfg_.fallback_grace_ms);
  try {
    core::GeneratedSeries series = fallback_->generate(request.windows, request.seed, &grace);
    std::string why;
    if (!validate_series(series, expected_length(request), cfg_.expected_channels, why)) {
      fallback_failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    response.series = std::move(series);
    response.outcome = Outcome::kDegraded;
    response.fallback_used = true;
    return true;
  } catch (const std::exception&) {
    fallback_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
}

Response GenerationEngine::execute(const Request& request, int request_index) {
  if (primary_ == nullptr) {
    Response response;
    response.error = {ServeErrorCode::kInvalidRequest,
                      "engine has no primary generator (use execute_with)"};
    failed_.fetch_add(1, std::memory_order_relaxed);
    return response;
  }
  return execute_with(*primary_, request, request_index);
}

Response GenerationEngine::execute_with(const core::TimeSeriesGenerator& primary,
                                        const Request& request, int request_index) {
  Response response;

  std::string why;
  if (!validate_request(request, why)) {
    response.error = {ServeErrorCode::kInvalidRequest, why};
    failed_.fetch_add(1, std::memory_order_relaxed);
    return response;
  }

  const runtime::Clock& clock =
      request.virtual_clock != nullptr ? static_cast<const runtime::Clock&>(*request.virtual_clock)
                                       : *cfg_.clock;
  runtime::CancelToken local_token;
  runtime::CancelToken* token = request.cancel != nullptr ? request.cancel : &local_token;
  const int64_t budget =
      request.deadline_ms >= 0 ? request.deadline_ms : cfg_.default_deadline_ms;
  if (budget >= 0) token->arm_deadline(clock, clock.now_ms() + budget);

  const size_t want_len = expected_length(request);
  const int max_attempts = 1 + std::max(0, cfg_.max_retries);
  ServeError last_error;

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      const int64_t remaining = token->remaining_ms();
      const bool bounded = remaining != runtime::CancelToken::kNoDeadline;
      const int64_t wait =
          backoff_delay_ms(request_index, attempt, bounded ? remaining : int64_t{-1});
      if (bounded && wait >= remaining) {
        // The backoff alone would blow the budget — stop retrying under
        // deadline pressure and let the degradation path answer.
        last_error = {ServeErrorCode::kDeadlineExceeded,
                      "deadline reached while backing off after: " + last_error.message};
        break;
      }
      if (request.virtual_clock != nullptr) {
        request.virtual_clock->advance_ms(wait);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(wait));
      }
    }
    const runtime::CancelToken::Reason pre = token->reason();
    if (pre != runtime::CancelToken::Reason::kNone) {
      last_error = pre == runtime::CancelToken::Reason::kCancelled
                       ? ServeError{ServeErrorCode::kCancelled, "cancelled before attempt"}
                       : ServeError{ServeErrorCode::kDeadlineExceeded,
                                    "deadline expired before attempt"};
      break;
    }

    response.attempts = attempt + 1;
    try {
      core::GeneratedSeries series = primary.generate(request.windows, request.seed, token);
      if (!validate_series(series, want_len, cfg_.expected_channels, why)) {
        last_error = {ServeErrorCode::kModelFailure, "poisoned output: " + why};
        continue;  // retryable: the poison may be transient
      }
      response.series = std::move(series);
      response.outcome = Outcome::kOk;
      ok_.fetch_add(1, std::memory_order_relaxed);
      return response;
    } catch (const runtime::CancelledError& e) {
      last_error = e.reason() == runtime::CancelToken::Reason::kCancelled
                       ? ServeError{ServeErrorCode::kCancelled, e.what()}
                       : ServeError{ServeErrorCode::kDeadlineExceeded, e.what()};
      break;  // cancellation is never retried
    } catch (const TransientError& e) {
      last_error = {ServeErrorCode::kModelFailure, e.what()};
      continue;
    } catch (const std::exception& e) {
      last_error = {ServeErrorCode::kModelFailure, std::string("permanent: ") + e.what()};
      break;  // non-transient model failure: retrying is wasted budget
    }
  }

  if (last_error.code == ServeErrorCode::kDeadlineExceeded)
    deadline_expirations_.fetch_add(1, std::memory_order_relaxed);

  // Graceful degradation: a blown deadline (policy-gated) or exhausted/
  // permanent model failure falls back; an explicit client cancel never
  // does — the client walked away.
  const bool degradable =
      last_error.code == ServeErrorCode::kModelFailure ||
      (last_error.code == ServeErrorCode::kDeadlineExceeded && cfg_.fallback_on_deadline);
  if (degradable && run_fallback(request, clock, response)) {
    response.error = last_error;  // why the primary path lost
    degraded_.fetch_add(1, std::memory_order_relaxed);
    return response;
  }

  response.outcome = Outcome::kError;
  response.error = last_error;
  failed_.fetch_add(1, std::memory_order_relaxed);
  return response;
}

std::vector<Response> GenerationEngine::serve(const std::vector<Request>& requests) {
  std::vector<Response> out(requests.size());
  if (requests.empty()) return out;

  internal::BoundedQueue queue(static_cast<size_t>(std::max(1, cfg_.max_queue)));
  const int workers = std::max(1, cfg_.workers);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    pool.emplace_back([this, &queue, &requests, &out] {
      size_t idx = 0;
      while (queue.pop(idx)) out[idx] = execute(requests[idx], static_cast<int>(idx));
    });
  }

  for (size_t i = 0; i < requests.size(); ++i) {
    if (cfg_.backpressure == EngineConfig::Backpressure::kBlock) {
      queue.push_block(i);
      admitted_.fetch_add(1, std::memory_order_relaxed);
    } else if (queue.try_push(i)) {
      admitted_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Shed is its own outcome, not kError: the request never executed, so
      // it lands in Stats::shed (not failed_) and the buckets partition the
      // batch — ok + degraded + failed + shed == total.
      out[i].outcome = Outcome::kShed;
      out[i].error = {ServeErrorCode::kOverloaded,
                      "admission queue full (" + std::to_string(cfg_.max_queue) + ")"};
      shed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  queue.close();
  for (auto& t : pool) t.join();
  return out;
}

GenerationEngine::Stats GenerationEngine::stats() const {
  Stats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.ok = ok_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.deadline_expirations = deadline_expirations_.load(std::memory_order_relaxed);
  s.fallback_failures = fallback_failures_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace gendt::serve
