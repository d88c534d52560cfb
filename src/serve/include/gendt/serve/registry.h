// gendt::serve — multi-model registry: the serving layer's model catalog.
//
// ModelRegistry owns N named generators (typically core::GenDTGenerator
// instances loaded from GDTCKPT2 checkpoints or GDTPACK1 arenas, each with
// its own warmed rollout-session pool) and hands them out as leases:
//
//   lease:     a shared, read-only pin on one immutable model *version*. A
//              request acquires its lease at admission and holds it for the
//              request's whole lifetime, so the version it computes with can
//              never change — or be destroyed — mid-request.
//   hot-swap:  swap(id, next) atomically installs a new version under the
//              same id. In-flight requests drain on the version they pinned;
//              the old version (weights, mmap arena, session pool) is
//              retired exactly when its last lease returns — zero-downtime,
//              no global pause, no use-after-free window. New admissions see
//              the new version immediately.
//   budgets:   each model carries its own admission budget (max in-flight).
//              admit() sheds traffic for an overloaded model without
//              touching any other model's headroom — isolation the router
//              tests pin down.
//   stats:     per-model Stats with the same partition invariant as the
//              engine: ok + degraded + failed + shed == total routed.
//
// Thread safety: every method is safe to call concurrently; leases are
// plain shared_ptr pins and may be released from any thread (the releasing
// thread runs the retirement destructor if it is the last holder).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gendt/core/generator.h"
#include "gendt/runtime/mutex.h"
#include "gendt/serve/engine.h"

namespace gendt::serve {

/// Per-model admission budget.
struct ModelBudget {
  /// Maximum requests admitted-but-not-yet-completed for this model
  /// (queued + executing). -1 = unlimited.
  int max_in_flight = -1;
};

/// Per-model accounting. Invariant once traffic has drained:
/// admitted == ok + degraded + failed, and total() == admitted + shed.
struct ModelStats {
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t failed = 0;
  uint64_t swaps = 0;  ///< completed hot-swaps (versions retired or retiring)

  uint64_t total() const { return ok + degraded + failed + shed; }
};

class ModelRegistry {
  /// One immutable installed model. Never mutated after install; retired
  /// (destroyed, releasing weights/arena/session pool) when the registry
  /// has moved past it AND the last lease has been released.
  struct Version {
    std::unique_ptr<core::TimeSeriesGenerator> generator;
    uint64_t number = 0;  ///< 1-based, monotonic per model id
  };

 public:
  /// A request's pin on one model version. Cheap to copy/move (shared_ptr).
  /// Default-constructed = empty; generator()/version() require engaged.
  class Lease {
   public:
    Lease() = default;
    const core::TimeSeriesGenerator& generator() const { return *version_->generator; }
    uint64_t version() const { return version_->number; }
    explicit operator bool() const { return version_ != nullptr; }
    void release() { version_.reset(); }

   private:
    friend class ModelRegistry;
    explicit Lease(std::shared_ptr<const Version> v) : version_(std::move(v)) {}
    std::shared_ptr<const Version> version_;
  };

  /// admit() result. Exactly one of three states:
  ///   lease engaged            → admitted (in-flight slot held)
  ///   empty lease, !unknown    → shed (budget exhausted; counted in stats)
  ///   empty lease, unknown     → no such model id (nothing counted)
  struct Admission {
    Lease lease;
    bool unknown = false;
  };

  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Install a model under a new id as version 1. False (and `generator`
  /// destroyed) if the id already exists or the generator is null.
  bool add(const std::string& id, std::unique_ptr<core::TimeSeriesGenerator> generator,
           ModelBudget budget = {}) GENDT_EXCLUDES(mu_);

  /// Hot-swap: atomically install `next` as the id's new version. Requests
  /// admitted before the swap finish on the version they leased; the old
  /// version is destroyed when its last lease releases (possibly inside
  /// this call, if none are outstanding). False if the id is unknown or
  /// `next` is null.
  bool swap(const std::string& id, std::unique_ptr<core::TimeSeriesGenerator> next)
      GENDT_EXCLUDES(mu_);

  /// Pin the current version of `id` without admission accounting (replay
  /// and inspection paths). Empty lease if unknown.
  Lease acquire(const std::string& id) const GENDT_EXCLUDES(mu_);

  /// Live-path admission: under budget → engaged lease + in-flight slot +
  /// admitted tally; over budget → shed tally; unknown id → nothing.
  /// Every engaged lease MUST be paired with exactly one complete().
  Admission admit(const std::string& id) GENDT_EXCLUDES(mu_);

  /// Release the in-flight slot taken by admit() and tally the terminal
  /// outcome (kOk/kDegraded → ok/degraded, anything else → failed).
  void complete(const std::string& id, Outcome outcome) GENDT_EXCLUDES(mu_);

  /// Undo an admit() whose request could not be enqueued downstream (e.g.
  /// the router's global queue shed it): the slot is released and the
  /// request re-tallied as shed instead of admitted.
  void abandon(const std::string& id) GENDT_EXCLUDES(mu_);

  /// Replay-path accounting: tally a request that was admitted and resolved
  /// outside the live in-flight counters (virtual-time admission), or shed.
  void record(const std::string& id, Outcome outcome) GENDT_EXCLUDES(mu_);

  ModelBudget budget(const std::string& id) const GENDT_EXCLUDES(mu_);  ///< {} if unknown
  ModelStats stats(const std::string& id) const GENDT_EXCLUDES(mu_);    ///< {} if unknown
  uint64_t active_version(const std::string& id) const GENDT_EXCLUDES(mu_);  ///< 0 if unknown
  int in_flight(const std::string& id) const GENDT_EXCLUDES(mu_);           ///< -1 if unknown
  std::vector<std::string> ids() const GENDT_EXCLUDES(mu_);  ///< sorted
  size_t size() const GENDT_EXCLUDES(mu_);

 private:
  struct Model {
    std::shared_ptr<const Version> current;
    ModelBudget budget;
    ModelStats stats;
    int in_flight = 0;
    uint64_t next_version = 2;  ///< add() installs 1
  };

  mutable runtime::Mutex mu_;
  // std::map, not unordered: ids() and any future iteration stay in
  // deterministic order (src/serve is an order-sensitive lint path).
  std::map<std::string, Model> models_ GENDT_GUARDED_BY(mu_);
};

}  // namespace gendt::serve
