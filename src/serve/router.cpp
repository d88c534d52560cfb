#include "gendt/serve/router.h"

#include <algorithm>
#include <thread>

#include "bounded_queue.h"

namespace gendt::serve {

std::vector<Response> ModelRouter::serve(const std::vector<RoutedRequest>& requests) {
  std::vector<Response> out(requests.size());
  if (requests.empty()) return out;

  // leases[i] is written by the submitter strictly before index i is pushed
  // (and read by exactly one worker strictly after it is popped); the queue
  // mutex orders the two, same as out[i].
  std::vector<ModelRegistry::Lease> leases(requests.size());

  const EngineConfig& cfg = engine_.config();
  internal::BoundedQueue queue(static_cast<size_t>(std::max(1, cfg.max_queue)));
  const int workers = std::max(1, cfg.workers);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    pool.emplace_back([this, &queue, &requests, &out, &leases] {
      size_t idx = 0;
      while (queue.pop(idx)) {
        out[idx] = engine_.execute_with(leases[idx].generator(), requests[idx].request,
                                        static_cast<int>(idx));
        // Complete BEFORE release, so in-flight never undercounts leased
        // work. If this was the last lease on a swapped-out version,
        // retirement runs right here, on this worker.
        registry_.complete(requests[idx].model_id, out[idx].outcome);
        leases[idx].release();
      }
    });
  }

  for (size_t i = 0; i < requests.size(); ++i) {
    ModelRegistry::Admission admission = registry_.admit(requests[i].model_id);
    if (admission.unknown) {
      out[i].outcome = Outcome::kError;
      out[i].error = {ServeErrorCode::kInvalidRequest,
                      "unknown model id '" + requests[i].model_id + "'"};
      continue;
    }
    if (!admission.lease) {
      out[i].outcome = Outcome::kShed;
      out[i].error = {ServeErrorCode::kOverloaded,
                      "model '" + requests[i].model_id + "' admission budget exhausted"};
      continue;
    }
    leases[i] = std::move(admission.lease);
    if (cfg.backpressure == EngineConfig::Backpressure::kBlock) {
      queue.push_block(i);
    } else if (!queue.try_push(i)) {
      // Global queue shed after a successful per-model admit: hand the
      // budget slot back and re-tally as shed so the model's invariant
      // (admitted == ok + degraded + failed) still holds.
      leases[i].release();
      registry_.abandon(requests[i].model_id);
      out[i].outcome = Outcome::kShed;
      out[i].error = {ServeErrorCode::kOverloaded,
                      "admission queue full (" + std::to_string(cfg.max_queue) + ")"};
    }
  }

  queue.close();
  for (auto& t : pool) t.join();
  return out;
}

}  // namespace gendt::serve
