// Internal to src/serve: the admission queue shared by GenerationEngine and
// ModelRouter. Each of their workers drains it one request at a time
// (`while (queue.pop(idx)) ...`). Not part of the public gendt/serve API —
// include only from serve .cpp files.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>

#include "gendt/runtime/mutex.h"

namespace gendt::serve::internal {

/// MPMC bounded queue of request indices: the admission boundary. close()
/// releases every waiter; pop() returns false once closed and drained.
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t cap) : cap_(std::max<size_t>(1, cap)) {}

  void push_block(size_t v) GENDT_EXCLUDES(mu_) {
    {
      runtime::MutexLock lock(mu_);
      not_full_.wait(lock, mu_, [this]() GENDT_REQUIRES(mu_) {
        return q_.size() < cap_ || closed_;
      });
      if (closed_) return;  // serve() never closes while submitting
      q_.push_back(v);
    }
    not_empty_.notify_one();
  }

  bool try_push(size_t v) GENDT_EXCLUDES(mu_) {
    {
      runtime::MutexLock lock(mu_);
      if (closed_ || q_.size() >= cap_) return false;
      q_.push_back(v);
    }
    not_empty_.notify_one();
    return true;
  }

  bool pop(size_t& v) GENDT_EXCLUDES(mu_) {
    {
      runtime::MutexLock lock(mu_);
      not_empty_.wait(lock, mu_,
                      [this]() GENDT_REQUIRES(mu_) { return !q_.empty() || closed_; });
      if (q_.empty()) return false;  // closed and drained
      v = q_.front();
      q_.pop_front();
    }
    not_full_.notify_one();
    return true;
  }

  void close() GENDT_EXCLUDES(mu_) {
    {
      runtime::MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  runtime::Mutex mu_;
  runtime::CondVar not_full_;
  runtime::CondVar not_empty_;
  std::deque<size_t> q_ GENDT_GUARDED_BY(mu_);
  const size_t cap_;
  bool closed_ GENDT_GUARDED_BY(mu_) = false;
};

}  // namespace gendt::serve::internal
