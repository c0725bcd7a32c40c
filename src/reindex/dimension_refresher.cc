#include "reindex/dimension_refresher.h"

#include <string>
#include <system_error>
#include <utility>

namespace gdim {

Result<RefreshedGeneration> BuildGeneration(const FrozenGraphSet& frozen,
                                            const RefreshOptions& options) {
  if (frozen.empty()) {
    return Status::InvalidArgument("cannot refresh an empty live set");
  }
  Result<BuiltDimension> built = BuildDimension(frozen.graphs, options);
  if (!built.ok()) return built.status();
  RefreshedGeneration generation{std::move(built).value(), frozen.ids};
  return generation;
}

DimensionRefresher::~DimensionRefresher() {
  // Joining outside the lock: the worker takes mu_ to flip running_ before
  // its done callback.
  if (worker_.joinable()) worker_.join();
}

Status DimensionRefresher::Start(FrozenGraphSet frozen,
                                 RefreshOptions options, DoneFn done) {
  MutexLock lock(&mu_);
  if (running_) {
    return Status::ResourceExhausted("a dimension refresh is already running");
  }
  if (worker_.joinable()) worker_.join();  // reap the previous, finished run
  running_ = true;
  // Thread exhaustion must fail this one refresh, not escape into the
  // caller's dispatcher loop and terminate the process (same guard as the
  // executor's snapshot writer spawn).
  try {
    worker_ = std::thread([this, frozen = std::move(frozen),
                           options = std::move(options),
                           done = std::move(done)]() mutable {
      if (options.selection_gate) options.selection_gate();
      Result<RefreshedGeneration> built = BuildGeneration(frozen, options);
      {
        MutexLock inner(&mu_);
        running_ = false;
      }
      done(std::move(built));
    });
  } catch (const std::system_error& e) {
    running_ = false;
    return Status::Internal(std::string("cannot spawn refresh thread: ") +
                            e.what());
  }
  return Status::OK();
}

}  // namespace gdim
