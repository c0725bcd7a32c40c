// The one dimension build (core/dimension.h): mine frequent subgraphs,
// select p of them, project the graphs from the mined supports. The offline
// build (gdim_tool build) and the online refresh (REINDEX) both run it, so
// for every selector the two must install the same dimension and rows.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/sync.h"
#include "core/dimension.h"
#include "core/mapper.h"
#include "core/measures.h"
#include "core/topk.h"
#include "datasets/chemgen.h"
#include "reindex/dimension_refresher.h"
#include "server/batch_executor.h"
#include "server/sharded_engine.h"
#include "store/graph_store.h"

namespace gdim {
namespace {

/// Small molecule-like corpus: few vertices, so mining, the δ matrix and
/// DSPMap's MCS blocks stay cheap in a unit test.
GraphDatabase TinyChem(int n, uint64_t seed) {
  ChemGenOptions opts;
  opts.num_graphs = n;
  opts.num_families = 4;
  opts.min_vertices = 6;
  opts.max_vertices = 9;
  opts.seed = seed;
  return GenerateChemDatabase(opts);
}

/// Options every test shares; RefreshOptions so the same value also
/// configures a BatchExecutor's REINDEX.
RefreshOptions Fast(const std::string& selector, int p) {
  RefreshOptions options;
  options.selector = selector;
  options.p = p;
  options.mining.min_support = 0.3;
  options.mining.max_edges = 3;
  options.seed = 5;
  options.dspm.max_iters = 15;
  options.dspmap.partition_size = 10;
  options.dspmap.sample_size = 4;
  options.params.eigen_iters = 30;  // keep the spectral baselines quick
  options.params.outer_iters = 2;
  return options;
}

/// A store over db with positional ids 0..n-1 (the serve-net load shape).
GraphStore StoreOf(const GraphDatabase& db) {
  GraphStore store;
  ScopedRole writer(&store.writer_role());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_TRUE(store.Put(static_cast<int>(i), db[i]).ok());
  }
  return store;
}

PersistedIndex IndexOf(BuiltDimension built) {
  PersistedIndex index;
  index.features = std::move(built.features);
  index.db_bits = std::move(built.rows);
  return index;
}

TEST(BuildDimensionTest, DeterministicInGraphsAndOptions) {
  const GraphDatabase db = TinyChem(18, 11);
  for (const char* name : {"DSPM", "DSPMap"}) {
    SCOPED_TRACE(name);
    const RefreshOptions options = Fast(name, 8);
    Result<BuiltDimension> a = BuildDimension(db, options);
    Result<BuiltDimension> b = BuildDimension(db, options);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->features.size(), 8u);
    EXPECT_EQ(a->features, b->features);
    EXPECT_EQ(a->rows, b->rows);
    EXPECT_EQ(a->rows.size(), db.size());
    EXPECT_GE(a->stats.mined_features, 8);
    EXPECT_EQ(a->stats.selected_features, 8);
  }
}

TEST(BuildDimensionTest, RowsAgreeWithTheMapper) {
  // Support-set rows (mining) and VF2 rows (mapper) answer the same
  // subgraph-isomorphism question: a mismatch would mean the miner and the
  // matcher disagree about containment, and REINDEX's reconcile path (frozen
  // rows beside freshly mapped inserts) depends on their agreement.
  const GraphDatabase db = TinyChem(16, 3);
  for (const char* name : {"DSPM", "DSPMap"}) {
    SCOPED_TRACE(name);
    Result<BuiltDimension> built = BuildDimension(db, Fast(name, 6));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const FeatureMapper mapper(built->features);
    for (size_t i = 0; i < db.size(); ++i) {
      EXPECT_EQ(built->rows[i], mapper.Map(db[i])) << "graph " << i;
    }
  }
}

TEST(BuildDimensionTest, RejectsDegenerateInputs) {
  const GraphDatabase db = TinyChem(8, 1);
  for (int p : {0, -1}) {
    EXPECT_EQ(BuildDimension(db, Fast("DSPMap", p)).status().code(),
              StatusCode::kInvalidArgument)
        << "p=" << p;
  }
  EXPECT_EQ(BuildDimension(db, Fast("NoSuchSelector", 4)).status().code(),
            StatusCode::kInvalidArgument);
  RefreshOptions impossible = Fast("DSPM", 4);
  impossible.mining.min_support_count = 1000;  // nothing is that frequent
  EXPECT_EQ(BuildDimension(db, impossible).status().code(),
            StatusCode::kNotFound);
}

TEST(BuildDimensionTest, OnlyMatrixSelectorsComputeTheFullDelta) {
  // DSPMap evaluates δ lazily per block; the full matrix is paid only by
  // the selectors that ask for it.
  const GraphDatabase db = TinyChem(16, 7);
  for (const char* name : {"DSPMap", "Sample", "DSPM"}) {
    SCOPED_TRACE(name);
    Result<BuiltDimension> built = BuildDimension(db, Fast(name, 6));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    if (std::string(name) == "DSPM") {
      EXPECT_GT(built->stats.dissimilarity_seconds, 0.0);
    } else {
      EXPECT_DOUBLE_EQ(built->stats.dissimilarity_seconds, 0.0);
    }
  }
}

TEST(BuildDimensionTest, MappedRankingBeatsRandomBaseline) {
  ChemGenOptions gen;
  gen.num_graphs = 40;
  gen.num_families = 6;
  gen.min_vertices = 8;
  gen.max_vertices = 14;
  const GraphDatabase db = GenerateChemDatabase(gen);
  RefreshOptions options = Fast("DSPM", 40);
  options.mining.min_support = 0.15;
  options.mining.max_edges = 4;
  options.dspmap.partition_size = 15;
  Result<BuiltDimension> built = BuildDimension(db, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const FeatureMapper mapper(built->features);
  const GraphDatabase queries = GenerateChemQueries(gen, 8);
  const int k = 10;
  double total_precision = 0.0;
  for (const Graph& q : queries) {
    total_precision += PrecisionAtK(ExactRanking(q, db),
                                    MappedRanking(mapper.Map(q), built->rows),
                                    k);
  }
  const double avg = total_precision / static_cast<double>(queries.size());
  // Random top-10 of 40 would hit 0.25 in expectation; a working mapping
  // must do far better.
  EXPECT_GT(avg, 0.45) << "DSPM precision too low: " << avg;
}

/// The offline build and the online refresh are one pipeline: for every
/// selector, the engine gdim_tool build serves (BuildDimension's rows into
/// ShardedEngine::FromIndex) equals the generation a BatchExecutor REINDEX
/// installs over a store holding the same graphs with the same options.
/// p is below the mined count, so "Original" (which selects every mined
/// feature) must be truncated to p on both paths.
TEST(BuildVsReindexTest, EverySelectorInstallsTheBuiltDimension) {
  const GraphDatabase corpus = TinyChem(20, 11);
  constexpr int kP = 6;
  for (const std::string& name : AllSelectorNames()) {
    SCOPED_TRACE(name);
    const RefreshOptions options = Fast(name, kP);
    Result<BuiltDimension> built = BuildDimension(corpus, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_GT(built->stats.mined_features, kP);
    EXPECT_EQ(built->features.size(), static_cast<size_t>(kP));
    Result<ShardedEngine> offline =
        ShardedEngine::FromIndex(IndexOf(std::move(built).value()));
    ASSERT_TRUE(offline.ok()) << offline.status().ToString();

    // The server starts on some other dimension over the same graphs.
    Result<BuiltDimension> start = BuildDimension(corpus, Fast("Sample", 3));
    ASSERT_TRUE(start.ok()) << start.status().ToString();
    Result<ShardedEngine> online =
        ShardedEngine::FromIndex(IndexOf(std::move(start).value()));
    ASSERT_TRUE(online.ok()) << online.status().ToString();
    GraphStore store = StoreOf(corpus);
    {
      BatchExecutorOptions executor_opts;
      executor_opts.store = &store;
      executor_opts.refresh = options;
      BatchExecutor executor(&*online, executor_opts);
      Result<ReindexReport> report = executor.Reindex();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->generation, 1u);
    }

    const PersistedIndex want = offline->ToPersistedIndex();
    const PersistedIndex got = online->ToPersistedIndex();
    EXPECT_EQ(got.features, want.features);
    EXPECT_EQ(got.db_bits, want.db_bits);
  }
}

}  // namespace
}  // namespace gdim
