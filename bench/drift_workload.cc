// Distribution-drift workload: the quality story behind the online
// dimension refresh. A dimension selected over corpus A keeps describing A
// even after churn has replaced most of the database with graphs from a
// shifted distribution B — fingerprints of a world that no longer exists —
// and top-k quality against the exact MCS ranking silently drifts. This
// bench measures exactly that: build over A, churn toward B through the
// serving executor, report recall-vs-brute-force before the refresh, run
// REINDEX (background selection + hot swap, the production path), and
// report recall again on the re-selected dimension.
//
//   bench_drift_workload [--n=80 --churn-frac=0.85 --queries=8 --k=10
//                         --p=16 --minsup=0.2 --maxedges=3 --shards=2
//                         --selector=DSPMap --seed=7]
//
// Everything is seeded (generators, mining order, selection), so a given
// flag set is fully deterministic; the exit gate requires the refreshed
// recall to be no worse than the stale one (the refresh must never hurt on
// a drifted corpus) and the REINDEX itself to succeed.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/index_io.h"
#include "core/topk.h"
#include "datasets/chemgen.h"
#include "reindex/dimension_refresher.h"
#include "server/batch_executor.h"
#include "server/sharded_engine.h"
#include "store/graph_store.h"

namespace gdim {
namespace {

/// Mean top-k recall of the executor's answers against the exact MCS
/// ranking over the live set (frozen in id order, so exact positions map
/// back to external ids).
double MeanRecall(BatchExecutor* executor, const GraphStore& store,
                  const GraphDatabase& queries, int k) {
  FrozenGraphSet live;
  {
    // Callers invoke this between synchronous executor calls, when the
    // dispatcher is idle and every mutation has drained, so this thread
    // may act as the store's writer for the capture.
    ScopedRole store_writer(&store.writer_role());
    live = store.Freeze();
  }
  double total = 0.0;
  for (const Graph& q : queries) {
    Ranking exact = TopK(ExactRanking(q, live.graphs), k);
    for (RankedResult& r : exact) {
      r.id = live.ids[static_cast<size_t>(r.id)];
    }
    Result<Ranking> approx = executor->Query(q, {.k = k});
    GDIM_CHECK(approx.ok()) << approx.status().ToString();
    int overlap = 0;
    for (const RankedResult& a : *approx) {
      for (const RankedResult& e : exact) {
        if (a.id == e.id) {
          ++overlap;
          break;
        }
      }
    }
    total += exact.empty()
                 ? 1.0
                 : static_cast<double>(overlap) /
                       static_cast<double>(exact.size());
  }
  return queries.empty() ? 0.0 : total / static_cast<double>(queries.size());
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int n = std::max(8, flags.GetInt("n", 80));
  const double churn_frac =
      std::clamp(flags.GetDouble("churn-frac", 0.85), 0.0, 1.0);
  const int num_queries = std::max(1, flags.GetInt("queries", 8));
  const int k = std::max(1, flags.GetInt("k", 10));
  const int p = std::max(2, flags.GetInt("p", 16));
  const int shards = std::max(1, flags.GetInt("shards", 2));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  RefreshOptions refresh;
  refresh.selector = flags.GetString("selector", "DSPMap");
  refresh.p = p;
  refresh.mining.min_support = flags.GetDouble("minsup", 0.2);
  refresh.mining.max_edges = flags.GetInt("maxedges", 3);
  refresh.seed = seed;
  refresh.dspmap.partition_size = 24;
  refresh.dspmap.sample_size = 6;

  // Corpus A and the drifted world B: different scaffold family pools and
  // size ranges, so B's discriminative substructures genuinely differ.
  ChemGenOptions gen_a;
  gen_a.num_graphs = n;
  gen_a.num_families = 4;
  gen_a.min_vertices = 6;
  gen_a.max_vertices = 9;
  gen_a.seed = seed;
  ChemGenOptions gen_b = gen_a;
  gen_b.num_families = 3;
  gen_b.min_vertices = 8;
  gen_b.max_vertices = 12;
  gen_b.seed = seed ^ 0xD81F70ULL;

  const GraphDatabase corpus_a = GenerateChemDatabase(gen_a);
  const GraphDatabase corpus_b = GenerateChemDatabase(gen_b);
  const GraphDatabase queries = GenerateChemQueries(gen_b, num_queries);

  std::printf(
      "drift_workload: n=%d churn=%.0f%% queries=%d k=%d p=%d shards=%d "
      "selector=%s minsup=%.2f maxedges=%d seed=%llu\n",
      n, churn_frac * 100.0, num_queries, k, p, shards,
      refresh.selector.c_str(), refresh.mining.min_support,
      refresh.mining.max_edges, static_cast<unsigned long long>(seed));

  // Build the initial generation over A — the same pipeline REINDEX runs.
  GraphStore store;
  WallTimer timer;
  PersistedIndex index;
  int mined_features = 0;
  {
    // No executor exists yet: Main is the store's writer while it seeds
    // corpus A and freezes the generation-0 build input.
    ScopedRole store_writer(&store.writer_role());
    for (int i = 0; i < n; ++i) {
      GDIM_CHECK(store.Put(i, corpus_a[static_cast<size_t>(i)]).ok());
    }
    Result<RefreshedGeneration> initial =
        BuildGeneration(store.Freeze(), refresh);
    GDIM_CHECK(initial.ok()) << initial.status().ToString();
    index.features = std::move(initial->features);
    index.db_bits = std::move(initial->rows);
    index.ids = std::move(initial->ids);
    mined_features = initial->stats.mined_features;
  }
  ShardedOptions engine_opts;
  engine_opts.num_shards = shards;
  Result<ShardedEngine> engine =
      ShardedEngine::FromIndex(std::move(index), engine_opts);
  GDIM_CHECK(engine.ok()) << engine.status().ToString();
  std::printf("built generation 0 over corpus A in %.2fs (%d mined -> %d dims)\n",
              timer.Seconds(), mined_features, engine->num_features());

  BatchExecutorOptions executor_opts;
  executor_opts.cache_bytes = 1 << 20;
  executor_opts.store = &store;
  executor_opts.refresh = refresh;
  BatchExecutor executor(&*engine, executor_opts);

  // Churn toward B: remove churn_frac of A, insert the same number from B.
  const int moved = static_cast<int>(churn_frac * n);
  timer.Reset();
  for (int i = 0; i < moved; ++i) {
    GDIM_CHECK(executor.Remove(i).ok());
    Result<int> id = executor.Insert(corpus_b[static_cast<size_t>(i)]);
    GDIM_CHECK(id.ok()) << id.status().ToString();
  }
  GDIM_CHECK(executor.Compact().ok());
  std::printf("churned %d/%d graphs toward distribution B in %.2fs\n", moved,
              n, timer.Seconds());

  // Quality on the stale dimension: the fingerprints describe a database
  // that mostly no longer exists.
  timer.Reset();
  const double recall_before = MeanRecall(&executor, store, queries, k);
  const double exact_s = timer.Seconds();
  std::printf("recall@%d vs exact MCS before refresh: %.3f (stale dimension; "
              "exact reference took %.2fs)\n",
              k, recall_before, exact_s);

  // The refresh: background re-selection over the live (B-dominated) set,
  // hot-swapped in.
  timer.Reset();
  Result<ReindexReport> report = executor.Reindex();
  GDIM_CHECK(report.ok()) << report.status().ToString();
  const double reindex_s = timer.Seconds();
  std::printf(
      "REINDEX completed in %.2fs -> generation %llu, %d dims (remapped %d)\n",
      reindex_s, static_cast<unsigned long long>(report->generation),
      report->features, report->remapped);

  const double recall_after = MeanRecall(&executor, store, queries, k);
  std::printf("recall@%d vs exact MCS after refresh:  %.3f (refreshed "
              "dimension)\n",
              k, recall_after);
  std::printf("# drift gate: before=%.3f after=%.3f delta=%+.3f\n",
              recall_before, recall_after, recall_after - recall_before);

  // Deterministic gate (everything above is seeded): the refresh must
  // succeed and must not make a drifted corpus rank worse.
  if (recall_after + 1e-9 < recall_before) {
    std::fprintf(stderr,
                 "FAIL: refreshed dimension ranks worse than the stale one\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gdim

int main(int argc, char** argv) { return gdim::Main(argc, argv); }
