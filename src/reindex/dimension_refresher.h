#ifndef GDIM_REINDEX_DIMENSION_REFRESHER_H_
#define GDIM_REINDEX_DIMENSION_REFRESHER_H_

#include <functional>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "core/dimension.h"
#include "store/graph_store.h"

namespace gdim {

/// Knobs for one dimension refresh: the offline build's options plus a test
/// hook. The defaults follow the serving story: DSPMap (the paper's
/// scalable selector, which never computes the O(n²) δ matrix) over a
/// freshly mined candidate set, and p = 0, which keeps the serving engine's
/// current dimension count (the caller, who knows the engine, resolves it).
struct RefreshOptions : DimensionOptions {
  /// Test hook: invoked on the refresh thread after the freeze has been
  /// taken and before mining/selection begins. Tests park a refresh here
  /// deterministically (e.g. blocking on a FIFO open) to prove queries and
  /// mutations keep flowing while a refresh is mid-selection. Never set in
  /// production paths.
  std::function<void()> selection_gate;
};

/// The product of one refresh: BuildDimension over the frozen live set, with
/// rows[i] belonging to external id ids[i] (ascending) — exactly the shape a
/// PersistedIndex wants, so installing a generation is a FromIndex away.
struct RefreshedGeneration : BuiltDimension {
  std::vector<int> ids;
};

/// The synchronous refresh pipeline: BuildDimension over the frozen live
/// set (InvalidArgument if it is empty), tagged with the frozen ids.
/// Deterministic in (frozen set, options), the property the
/// swap-equivalence tests (online swap vs offline rebuild) lean on. Runs
/// wherever called; the refresher below runs it on a background thread.
Result<RefreshedGeneration> BuildGeneration(const FrozenGraphSet& frozen,
                                            const RefreshOptions& options);

/// Runs dimension refreshes on a background thread, one at a time.
///
/// The division of labor with the serving dispatcher: the dispatcher (the
/// engine's single writer) freezes the live graph set — a bounded pause —
/// and calls Start(); the refresher mines + selects + re-fingerprints off
/// the hot path; when done it hands the built generation to the `done`
/// callback ON THE REFRESH THREAD. The callback must route the result back
/// to the writer thread for installation (the BatchExecutor enqueues an
/// internal adopt request) — the refresher itself never touches an engine.
///
/// Start/running/completed are thread-safe. The destructor joins any
/// in-flight refresh (its `done` callback still runs; callers' callbacks
/// must tolerate being invoked during executor shutdown).
class DimensionRefresher {
 public:
  using DoneFn = std::function<void(Result<RefreshedGeneration>)>;

  DimensionRefresher() = default;
  ~DimensionRefresher();

  DimensionRefresher(const DimensionRefresher&) = delete;
  DimensionRefresher& operator=(const DimensionRefresher&) = delete;

  /// Starts a background refresh over the frozen set. ResourceExhausted if
  /// one is already running (the caller surfaces this as a typed wire
  /// error; a second concurrent selection would only burn the same cores).
  /// Refresh lifecycle observability lives with the caller (the executor's
  /// reindex_in_progress/reindex_completed stats span freeze → swap, a
  /// wider window than the selection alone).
  Status Start(FrozenGraphSet frozen, RefreshOptions options, DoneFn done)
      GDIM_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  /// Joined under mu_ by Start (reaping a finished run) and lock-free by the
  /// destructor, which the analysis does not check — by then no other thread
  /// may call Start anyway.
  std::thread worker_ GDIM_GUARDED_BY(mu_);
  bool running_ GDIM_GUARDED_BY(mu_) = false;
};

}  // namespace gdim

#endif  // GDIM_REINDEX_DIMENSION_REFRESHER_H_
