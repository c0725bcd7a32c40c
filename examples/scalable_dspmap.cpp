// Large-database indexing with DSPMap: the approximate algorithm whose
// indexing cost grows linearly with |DG| because it only evaluates MCS
// dissimilarities inside partition blocks (O(n·b) pairs instead of O(n²)).
//
//   $ ./build/examples/scalable_dspmap [db_size]

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/timer.h"
#include "core/dimension.h"
#include "datasets/chemgen.h"
#include "server/sharded_engine.h"

int main(int argc, char** argv) {
  using namespace gdim;
  const int db_size = argc > 1 ? std::atoi(argv[1]) : 600;

  ChemGenOptions gen;
  gen.num_graphs = db_size;
  gen.num_families = std::max(10, db_size / 8);
  GraphDatabase db = GenerateChemDatabase(gen);
  std::printf("database: %d molecule-like graphs\n", db_size);

  DimensionOptions options;
  options.selector = "DSPMap";
  options.p = 100;
  options.dspmap.partition_size = std::max(20, db_size / 20);

  WallTimer timer;
  Result<BuiltDimension> built = BuildDimension(db, options);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  double build = timer.Seconds();
  const DimensionStats stats = built->stats;
  PersistedIndex index;
  index.features = std::move(built->features);
  index.db_bits = std::move(built->rows);
  Result<ShardedEngine> engine = ShardedEngine::FromIndex(std::move(index));
  if (!engine.ok()) {
    std::fprintf(stderr, "engine failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  const long long full_pairs = static_cast<long long>(db_size) *
                               (db_size - 1) / 2;
  const int b = options.dspmap.partition_size;
  std::printf("DSPMap index built in %.2fs (partition size b=%d)\n", build,
              b);
  std::printf("  pairwise MCS budget: ~O(n*b) = %lld pairs vs full-matrix "
              "%lld pairs\n",
              2LL * db_size * b, full_pairs);
  std::printf("  dimensions selected: %d of %d mined\n",
              stats.selected_features, stats.mined_features);

  // Query throughput on the big index.
  GraphDatabase queries = GenerateChemQueries(gen, 50);
  timer.Reset();
  double checksum = 0;
  for (const Graph& q : queries) {
    Ranking top = engine->Query(q, {.k = 10});
    checksum += top.front().score;
  }
  double qsecs = timer.Seconds();
  std::printf("  50 queries in %.3fs (%.2f ms/query, checksum %.3f)\n",
              qsecs, qsecs / 50 * 1e3, checksum);
  std::printf("\nThe same database with selector=DSPM would need the full "
              "%lld-pair dissimilarity matrix before selection even "
              "starts.\n",
              full_pairs);
  return 0;
}
