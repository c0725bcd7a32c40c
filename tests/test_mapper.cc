// Differential tests of the filter-then-verify FeatureMapper: its
// fingerprints must equal, bit for bit, the naive mapping that runs one
// IsSubgraphIsomorphic per feature — on a DSPMap-selected chem dimension,
// on random labelled graphs, and on hand-built edge cases aimed at the
// filters and the containment lattice.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/dimension.h"
#include "core/index_io.h"
#include "core/mapper.h"
#include "datasets/chemgen.h"
#include "isomorphism/vf2.h"
#include "server/sharded_engine.h"
#include "test_util.h"

namespace gdim {
namespace {

using testing_util::RandomConnectedGraph;
using testing_util::RandomEdgeSubgraph;

// The reference: one full subgraph-isomorphism test per feature, no
// filtering and no lattice.
std::vector<uint8_t> NaiveMap(const GraphDatabase& features, const Graph& g) {
  std::vector<uint8_t> bits(features.size(), 0);
  for (size_t r = 0; r < features.size(); ++r) {
    bits[r] = IsSubgraphIsomorphic(features[r], g) ? 1 : 0;
  }
  return bits;
}

Graph Path(std::initializer_list<LabelId> vlabels, LabelId elabel) {
  Graph g;
  for (LabelId l : vlabels) g.AddVertex(l);
  for (int i = 0; i + 1 < g.NumVertices(); ++i) g.AddEdge(i, i + 1, elabel);
  return g;
}

void ExpectMatchesNaive(const FeatureMapper& mapper,
                        const GraphDatabase& graphs) {
  for (size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_EQ(mapper.Map(graphs[i]), NaiveMap(mapper.features(), graphs[i]))
        << "graph " << i;
  }
}

class ChemMapperTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ChemGenOptions gen;
    gen.num_graphs = 60;
    gen.num_families = 8;
    gen.min_vertices = 8;
    gen.max_vertices = 16;
    const GraphDatabase sample = GenerateChemDatabase(gen);
    DimensionOptions opts;
    opts.selector = "DSPMap";
    opts.p = 64;
    opts.mining.min_support = 0.1;
    opts.mining.max_edges = 5;
    auto built = BuildDimension(sample, opts);
    GDIM_CHECK(built.ok()) << built.status().ToString();
    features_ = new GraphDatabase(std::move(built->features));
    queries_ = new GraphDatabase(GenerateChemQueries(gen, 150));
  }

  static void TearDownTestSuite() {
    delete features_;
    delete queries_;
    features_ = nullptr;
    queries_ = nullptr;
  }

  static GraphDatabase* features_;
  static GraphDatabase* queries_;
};

GraphDatabase* ChemMapperTest::features_ = nullptr;
GraphDatabase* ChemMapperTest::queries_ = nullptr;

TEST_F(ChemMapperTest, MatchesNaiveMapping) {
  const FeatureMapper mapper(*features_);
  ASSERT_GT(mapper.num_features(), 16);
  ExpectMatchesNaive(mapper, *queries_);
}

TEST_F(ChemMapperTest, LatticeAndFiltersCutVf2Calls) {
  const FeatureMapper mapper(*features_);
  const int p = mapper.num_features();
  int64_t skipped = 0;
  for (const Graph& q : *queries_) {
    FeatureMapper::MapStats stats;
    mapper.Map(q, &stats);
    EXPECT_LT(stats.vf2_calls, p);
    skipped += stats.lattice_skipped;
  }
  EXPECT_GT(skipped, 0);
}

TEST_F(ChemMapperTest, ConcurrentMapAllEqualsSerialMap) {
  const FeatureMapper mapper(*features_);
  const std::vector<std::vector<uint8_t>> all =
      mapper.MapAll(*queries_, /*threads=*/8);
  ASSERT_EQ(all.size(), queries_->size());
  for (size_t i = 0; i < queries_->size(); ++i) {
    EXPECT_EQ(all[i], mapper.Map((*queries_)[i])) << "query " << i;
  }
}

TEST_F(ChemMapperTest, ShardsShareTheEnginesMapper) {
  const FeatureMapper mapper(*features_);
  PersistedIndex index;
  index.features = *features_;
  index.db_bits = mapper.MapAll(*queries_);
  ShardedOptions options;
  options.num_shards = 3;
  auto engine = ShardedEngine::FromIndex(std::move(index), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (int s = 0; s < engine->num_shards(); ++s) {
    EXPECT_EQ(&engine->shard(s).mapper().features(),
              &engine->mapper().features());
  }
  const FeatureMapper copy = engine->mapper();
  EXPECT_EQ(&copy.features(), &engine->mapper().features());
}

TEST(MapperTest, RandomLabelledGraphsMatchNaive) {
  Rng rng(12);
  GraphDatabase targets;
  for (int i = 0; i < 80; ++i) {
    const int n = 4 + static_cast<int>(rng.UniformU64(10));
    targets.push_back(RandomConnectedGraph(
        n, static_cast<int>(rng.UniformU64(4)), 3, 2, &rng));
  }
  // Features: random small graphs, plus edge subgraphs of the targets and
  // of each other so that containments (and lattice chains) are common.
  GraphDatabase features;
  for (int i = 0; i < 30; ++i) {
    const int n = 1 + static_cast<int>(rng.UniformU64(5));
    features.push_back(RandomConnectedGraph(
        n, static_cast<int>(rng.UniformU64(2)), 3, 2, &rng));
  }
  for (int i = 0; i < 40; ++i) {
    const Graph& from = targets[rng.UniformU64(targets.size())];
    const int keep = 1 + static_cast<int>(rng.UniformU64(6));
    Graph sub = RandomEdgeSubgraph(from, keep, &rng);
    features.push_back(RandomEdgeSubgraph(sub, keep - 1, &rng));
    features.push_back(std::move(sub));
  }
  const FeatureMapper mapper(features);
  ExpectMatchesNaive(mapper, targets);
  ExpectMatchesNaive(mapper, features);
}

TEST(MapperTest, EdgeCasesMatchNaive) {
  // f ⊂ f′ ⊂ f″: a labelled path grown one edge at a time.
  const Graph f = Path({1, 2}, 0);
  const Graph f1 = Path({1, 2, 3}, 0);
  const Graph f2 = Path({1, 2, 3, 1}, 0);
  Graph disconnected;  // two separate 1-2 edges
  disconnected.AddVertex(1);
  disconnected.AddVertex(2);
  disconnected.AddVertex(1);
  disconnected.AddVertex(2);
  disconnected.AddEdge(0, 1, 0);
  disconnected.AddEdge(2, 3, 0);
  const Graph large = Path({1, 2, 1, 2, 1, 2, 1, 2}, 0);
  const Graph foreign = Path({7, 8}, 0);  // labels no query below has
  Graph twin;  // the same 2-3 edge as f1's tail, built in the other order
  twin.AddVertex(3);
  twin.AddVertex(2);
  twin.AddEdge(0, 1, 0);
  const GraphDatabase features = {f2,    Graph(), f1,      disconnected,
                                  large, foreign, twin,    Path({2, 3}, 0),
                                  f};
  const FeatureMapper mapper(features);

  // The query contains only f of the chain: f′ passes the filters but
  // fails its search, and f″ is cut by the lattice without one.
  Graph only_f;  // edges 1-2 and 3-2, on distinct 2-vertices
  only_f.AddVertex(1);
  only_f.AddVertex(2);
  only_f.AddVertex(3);
  only_f.AddVertex(2);
  only_f.AddEdge(0, 1, 0);
  only_f.AddEdge(2, 3, 0);
  FeatureMapper::MapStats stats;
  const std::vector<uint8_t> bits = mapper.Map(only_f, &stats);
  EXPECT_EQ(bits, NaiveMap(features, only_f));
  EXPECT_EQ(bits[8], 1);
  EXPECT_EQ(bits[2], 0);
  EXPECT_EQ(bits[0], 0);
  EXPECT_GT(stats.lattice_skipped, 0);
  FeatureMapper::MapStats f1_alone;
  FeatureMapper({f1}).Map(only_f, &f1_alone);
  EXPECT_EQ(f1_alone.vf2_calls, 1);  // f′ really reaches the search

  GraphDatabase queries = {
      only_f,
      Graph(),
      Path({1, 2, 3, 1, 2}, 0),
      Path({2, 1, 2}, 0),
      Path({1, 2, 1, 2, 1, 2, 1, 2, 1}, 0),
      Path({1, 2, 3}, 1),  // right vertex labels, wrong edge label
      Path({9, 9, 9}, 0),
  };
  ExpectMatchesNaive(mapper, queries);
  ExpectMatchesNaive(mapper, features);
}

TEST(MapperTest, EmptyDimension) {
  const FeatureMapper mapper(GraphDatabase{});
  EXPECT_EQ(mapper.num_features(), 0);
  EXPECT_TRUE(mapper.Map(Path({1, 2}, 0)).empty());
}

}  // namespace
}  // namespace gdim
