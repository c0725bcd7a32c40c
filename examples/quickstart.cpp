// Quickstart: build a graph-dimension index over a small molecule database
// and answer a top-k similarity query — the end-to-end flow of the paper in
// one page of user code.
//
//   $ ./build/examples/quickstart

#include <cstdio>
#include <utility>

#include "core/dimension.h"
#include "core/topk.h"
#include "datasets/chemgen.h"
#include "server/sharded_engine.h"

int main() {
  using namespace gdim;

  // 1. A graph database: 120 generated molecule-like graphs (in a real
  //    application, load your own with ReadGraphFile).
  ChemGenOptions gen;
  gen.num_graphs = 120;
  GraphDatabase db = GenerateChemDatabase(gen);
  std::printf("database: %zu graphs\n", db.size());

  // 2. Build the dimension: gSpan mines candidate features, DSPM selects the
  //    p-dimensional structural dimension that preserves MCS dissimilarity,
  //    and the database rows come from the mined supports.
  DimensionOptions options;
  options.selector = "DSPM";
  options.p = 60;
  options.mining.min_support = 0.05;
  Result<BuiltDimension> built = BuildDimension(db, options);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const DimensionStats& stats = built->stats;
  std::printf("index: %d mined features -> %d dimensions "
              "(mine %.2fs, delta %.2fs, select %.2fs)\n",
              stats.mined_features, stats.selected_features,
              stats.mining_seconds, stats.dissimilarity_seconds,
              stats.selection_seconds);

  // 3. Serve it: the engine maps each query onto the dimension (VF2) and
  //    scans the rows by mapped distance.
  PersistedIndex index;
  index.features = std::move(built->features);
  index.db_bits = std::move(built->rows);
  Result<ShardedEngine> engine = ShardedEngine::FromIndex(std::move(index));
  if (!engine.ok()) {
    std::fprintf(stderr, "engine failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  // 4. Query with an unseen graph: mapped in milliseconds, no MCS involved.
  GraphDatabase queries = GenerateChemQueries(gen, 1);
  const Graph& q = queries[0];
  Ranking top = engine->Query(q, {.k = 5});
  std::printf("\nquery %s -> top-5 by mapped distance\n",
              q.ToString().c_str());
  for (const RankedResult& r : top) {
    std::printf("  graph %-4d distance %.4f  (%s)\n", r.id, r.score,
                db[static_cast<size_t>(r.id)].ToString().c_str());
  }

  // 5. Compare with the exact MCS-based answer (slow path).
  Ranking exact = TopK(ExactRanking(q, db), 5);
  std::printf("\nexact top-5 by MCS dissimilarity\n");
  for (const RankedResult& r : exact) {
    std::printf("  graph %-4d delta2   %.4f\n", r.id, r.score);
  }
  return 0;
}
