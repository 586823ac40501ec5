// Epoch-keyed shared preprocessing for the construction-heavy estimators
// (EXACT's Cholesky factorization, CG's Laplacian solver, RP's sketch).
// Batch/serve workers are clones sharing this holder: when a dynamic
// epoch swap rebinds every worker, the FIRST rebind rebuilds the value
// for the new epoch and the rest adopt it — one O(n³) refactorization
// per epoch, not one per worker. The dependency set of these
// preprocessing artifacts is the whole graph, so "invalidation" here is
// total by construction; the epoch key is what makes it happen exactly
// once.

#ifndef GEER_CORE_EPOCH_SHARED_H_
#define GEER_CORE_EPOCH_SHARED_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

namespace geer {

template <typename T>
class EpochShared {
 public:
  /// Seeds the holder with the construction-time value (epoch 0).
  explicit EpochShared(std::shared_ptr<const T> initial)
      : value_(std::move(initial)) {}

  /// The value for `epoch`: rebuilt via `build()` on the first call with
  /// a new epoch number, adopted by every later caller with the same one.
  template <typename BuildFn>
  std::shared_ptr<const T> GetOrBuild(std::uint64_t epoch, BuildFn&& build) {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch != epoch_) {
      value_ = build();
      epoch_ = epoch;
    }
    return value_;
  }

  /// Like GetOrBuild, but the builder receives the PREVIOUS epoch's value
  /// (possibly null) — the incremental-maintenance hook: the first
  /// rebinder of an epoch derives the new value from the old one (rank-k
  /// factor update) instead of from scratch, and every other clone adopts
  /// the result.
  template <typename UpdateFn>
  std::shared_ptr<const T> GetOrUpdate(std::uint64_t epoch,
                                       UpdateFn&& update) {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch != epoch_) {
      value_ = update(std::as_const(value_));
      epoch_ = epoch;
    }
    return value_;
  }

 private:
  std::mutex mu_;
  std::uint64_t epoch_ = 0;
  std::shared_ptr<const T> value_;
};

}  // namespace geer

#endif  // GEER_CORE_EPOCH_SHARED_H_
