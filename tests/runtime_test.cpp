#include "gendt/runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gendt::runtime {
namespace {

TEST(Parallelism, ResolvedSemantics) {
  EXPECT_EQ((Parallelism{.threads = 1}).resolved(), 1);
  EXPECT_EQ((Parallelism{.threads = 4}).resolved(), 4);
  EXPECT_TRUE((Parallelism{.threads = 1}).serial());
  EXPECT_FALSE((Parallelism{.threads = 4}).serial());
  // 0 = auto: all hardware threads, at least one.
  EXPECT_GE((Parallelism{.threads = 0}).resolved(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr long kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(0, kN, 8, [&](long lo, long hi) {
    ASSERT_LE(0, lo);
    ASSERT_LE(lo, hi);
    ASSERT_LE(hi, kN);
    for (long i = lo; i < hi; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (long i = 0; i < kN; ++i) EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
}

TEST(ThreadPool, ParallelForEmptyAndSingleRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, 4, [&](long, long) { ++calls; });
  EXPECT_EQ(calls, 0);
  long seen_lo = -1, seen_hi = -1;
  pool.parallel_for(7, 8, 4, [&](long lo, long hi) {
    seen_lo = lo;
    seen_hi = hi;
  });
  EXPECT_EQ(seen_lo, 7);
  EXPECT_EQ(seen_hi, 8);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 8,
                        [&](long lo, long) {
                          if (lo >= 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool stays usable after a failed region.
  std::atomic<long> sum{0};
  pool.parallel_for(0, 10, 4, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  ThreadPool pool(2);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 20, 4, [&](long lo, long hi) { total.fetch_add(hi - lo); });
  }
  EXPECT_EQ(total.load(), 50 * 20);
}

TEST(ThreadPool, NestedForkJoinRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<long> inner_total{0};
  // Outer region occupies workers; inner regions must run inline on the
  // worker thread instead of waiting on queue slots that may never free.
  pool.parallel_for(0, 4, 4, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) {
      pool.parallel_for(0, 8, 4, [&](long ilo, long ihi) { inner_total.fetch_add(ihi - ilo); });
    }
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadPool, RunTasksDeliversEachIndex) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(37);
  for (auto& h : hits) h.store(0);
  pool.run_tasks(37, 8, [&](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SharedPoolGrowsToExplicitWidth) {
  ThreadPool::ensure_shared_workers(3);
  EXPECT_GE(ThreadPool::shared().size(), 3);
  // Free-function form with an explicit width exercises the shared pool.
  std::atomic<long> sum{0};
  parallel_for(Parallelism{.threads = 3}, 30, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) sum.fetch_add(i + 1);
  });
  EXPECT_EQ(sum.load(), 30 * 31 / 2);
}

TEST(ThreadPool, ParallelTasksSerialWidthRunsInline) {
  bool inline_run = false;
  parallel_tasks(Parallelism{.threads = 1}, 5, [&](int i) {
    if (i == 0) inline_run = !ThreadPool::on_worker_thread();
  });
  EXPECT_TRUE(inline_run);
}

TEST(DeriveStreamSeed, StreamsAreDistinctAndStable) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(derive_stream_seed(42, i));
  EXPECT_EQ(seen.size(), 1000u);
  // Pure function of (seed, index): same inputs, same stream.
  EXPECT_EQ(derive_stream_seed(42, 7), derive_stream_seed(42, 7));
  EXPECT_NE(derive_stream_seed(42, 7), derive_stream_seed(43, 7));
}

// Regression: an exception escaping a fire-and-forget submit() task must be
// contained by the worker loop (counted, not std::terminate) and the pool
// must keep serving fork-join work afterwards. Fork-join exceptions are a
// different path — they are captured per chunk and rethrown at the join.
TEST(ThreadPool, SubmittedTaskExceptionDoesNotKillWorker) {
  ThreadPool pool(2);
  const uint64_t before = ThreadPool::dropped_task_exceptions();
  std::atomic<bool> ran{false};
  std::latch ran_done(1);
  pool.submit([] { throw std::runtime_error("fire-and-forget boom"); });
  pool.submit([&ran, &ran_done] {
    ran.store(true);
    ran_done.count_down();
  });
  // The pool keeps serving fork-join work after the throw.
  std::atomic<long> sum{0};
  pool.parallel_for(0, 10, 4, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 45);
  // Fire-and-forget tasks have no join: the caller's chunks may finish
  // while a worker is still inside either submitted task, so wait for both
  // explicitly (the worker counts the dropped exception after the throw).
  ran_done.wait();
  while (ThreadPool::dropped_task_exceptions() < before + 1) std::this_thread::yield();
  EXPECT_TRUE(ran.load());
  EXPECT_GE(ThreadPool::dropped_task_exceptions(), before + 1);
}

TEST(ThreadPool, RunTasksRethrowsFirstExceptionOnSubmitter) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run_tasks(50, 8,
                              [](int i) {
                                if (i % 7 == 3) throw std::runtime_error("task boom");
                              }),
               std::runtime_error);
  // Pool stays usable after the failed batch.
  std::atomic<int> count{0};
  pool.run_tasks(20, 8, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 20);
}

TEST(CancelToken, ExplicitCancelAndReasonPrecedence) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelToken::Reason::kNone);
  EXPECT_EQ(token.remaining_ms(), CancelToken::kNoDeadline);
  EXPECT_NO_THROW(token.check());
  EXPECT_NO_THROW(check_cancel(nullptr));

  ManualClock clock(100);
  token.arm_deadline(clock, 150);
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.remaining_ms(), 50);
  token.cancel();  // explicit cancel wins over a later deadline expiry
  clock.advance_ms(1000);
  EXPECT_EQ(token.reason(), CancelToken::Reason::kCancelled);
  try {
    token.check();
    FAIL() << "check() must throw when cancelled";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelToken::Reason::kCancelled);
  }
}

TEST(CancelToken, DeadlineExpiryAgainstManualClock) {
  ManualClock clock;
  CancelToken token;
  token.arm_deadline(clock, 30);
  EXPECT_FALSE(token.cancelled());
  clock.advance_ms(29);
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.remaining_ms(), 1);
  clock.advance_ms(1);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelToken::Reason::kDeadline);
  EXPECT_EQ(token.remaining_ms(), 0);
  EXPECT_THROW(token.check(), CancelledError);
}

TEST(SteadyClock, MonotoneNonDecreasing) {
  const Clock& clock = steady_clock();
  const int64_t a = clock.now_ms();
  const int64_t b = clock.now_ms();
  EXPECT_LE(a, b);
}

TEST(ThreadPool, ParallelForSkipsChunksAfterCancel) {
  // One worker drains the 64 chunks in submit order, so cancelling inside
  // the first body deterministically skips the other 63 — and the join must
  // still complete normally.
  ThreadPool pool(1);
  CancelToken token;
  std::atomic<int> executed{0};
  pool.parallel_for(
      0, 64, 64,
      [&](long, long) {
        executed.fetch_add(1);
        token.cancel();
      },
      &token);
  EXPECT_EQ(executed.load(), 1);
  EXPECT_TRUE(token.cancelled());
}

TEST(ThreadPool, RunTasksChecksCancelPerIndexInline) {
  CancelToken token;
  int executed = 0;
  // Serial width forces the inline path; the per-index check must still stop
  // the loop mid-way.
  parallel_tasks(Parallelism{.threads = 1}, 100,
                 [&](int i) {
                   ++executed;
                   if (i == 4) token.cancel();
                 },
                 &token);
  EXPECT_EQ(executed, 5);
}

TEST(ThreadPool, PreCancelledTokenSkipsAllWork) {
  ThreadPool pool(2);
  CancelToken token;
  token.cancel();
  std::atomic<int> executed{0};
  pool.parallel_for(0, 100, 8, [&](long, long) { executed.fetch_add(1); }, &token);
  pool.run_tasks(100, 8, [&](int) { executed.fetch_add(1); }, &token);
  EXPECT_EQ(executed.load(), 0);
}

TEST(ThreadPool, DeadlineTokenStopsParallelWorkWhenClockExpires) {
  ManualClock clock;
  CancelToken token;
  token.arm_deadline(clock, 10);
  int executed = 0;
  parallel_tasks(Parallelism{.threads = 1}, 50,
                 [&](int i) {
                   ++executed;
                   if (i == 2) clock.advance_ms(10);  // simulated slow task
                 },
                 &token);
  EXPECT_EQ(executed, 3);
}

}  // namespace
}  // namespace gendt::runtime
