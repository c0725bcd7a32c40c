#include <gtest/gtest.h>

#include "mcs/dissimilarity.h"
#include "mcs/mcs.h"
#include "test_util.h"

namespace gdim {
namespace {

using testing_util::BruteForceMcs;
using testing_util::RandomConnectedGraph;
using testing_util::RandomEdgeSubgraph;

Graph LabeledPath(std::initializer_list<LabelId> vlabels, LabelId elabel) {
  Graph g;
  for (LabelId l : vlabels) g.AddVertex(l);
  for (int i = 0; i + 1 < g.NumVertices(); ++i) g.AddEdge(i, i + 1, elabel);
  return g;
}

TEST(McsTest, IdenticalGraphs) {
  Graph g = LabeledPath({1, 2, 3}, 0);
  EXPECT_EQ(McsSize(g, g), g.NumEdges());
}

TEST(McsTest, DisjointLabelsGiveZero) {
  Graph a = LabeledPath({1, 1}, 0);
  Graph b = LabeledPath({2, 2}, 0);
  EXPECT_EQ(McsSize(a, b), 0);
}

TEST(McsTest, EmptyGraphs) {
  Graph empty;
  Graph g = LabeledPath({1, 2}, 0);
  EXPECT_EQ(McsSize(empty, g), 0);
  EXPECT_EQ(McsSize(empty, empty), 0);
}

TEST(McsTest, SubgraphGivesPatternSize) {
  Rng rng(21);
  for (int round = 0; round < 10; ++round) {
    Graph g = RandomConnectedGraph(8, 3, 2, 2, &rng);
    Graph sub = RandomEdgeSubgraph(g, 4, &rng);
    EXPECT_EQ(McsSize(sub, g), sub.NumEdges()) << "round " << round;
  }
}

TEST(McsTest, Symmetric) {
  Rng rng(22);
  for (int round = 0; round < 10; ++round) {
    Graph a = RandomConnectedGraph(6, 2, 2, 2, &rng);
    Graph b = RandomConnectedGraph(7, 2, 2, 2, &rng);
    EXPECT_EQ(McsSize(a, b), McsSize(b, a)) << "round " << round;
  }
}

TEST(McsTest, NodeBudgetReturnsNonOptimalFlag) {
  Rng rng(23);
  Graph a = RandomConnectedGraph(10, 6, 1, 1, &rng);
  Graph b = RandomConnectedGraph(10, 6, 1, 1, &rng);
  McsOptions opts;
  opts.max_nodes = 5;
  McsResult r = MaxCommonEdgeSubgraph(a, b, opts);
  EXPECT_FALSE(r.optimal);
  EXPECT_LE(r.common_edges, std::min(a.NumEdges(), b.NumEdges()));
}

TEST(McsTest, BoundedByLabelIntersection) {
  Rng rng(24);
  for (int round = 0; round < 10; ++round) {
    Graph a = RandomConnectedGraph(6, 3, 3, 2, &rng);
    Graph b = RandomConnectedGraph(6, 3, 3, 2, &rng);
    EXPECT_LE(McsSize(a, b), EdgeLabelIntersectionBound(a, b));
  }
}

// Property: exact MCS equals brute force on small random graphs.
class McsRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(McsRandomTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 101);
  for (int round = 0; round < 8; ++round) {
    Graph a = RandomConnectedGraph(rng.UniformInt(3, 6),
                                   rng.UniformInt(0, 2), 2, 2, &rng);
    Graph b = RandomConnectedGraph(rng.UniformInt(3, 6),
                                   rng.UniformInt(0, 2), 2, 2, &rng);
    EXPECT_EQ(McsSize(a, b), BruteForceMcs(a, b))
        << "seed " << GetParam() << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, McsRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Property: both exact algorithms agree on random graphs.
class McsAlgorithmEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(McsAlgorithmEquivalenceTest, CliqueMatchesMcGregor) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 211);
  for (int round = 0; round < 10; ++round) {
    Graph a = RandomConnectedGraph(rng.UniformInt(4, 8),
                                   rng.UniformInt(0, 3), 2, 2, &rng);
    Graph b = RandomConnectedGraph(rng.UniformInt(4, 8),
                                   rng.UniformInt(0, 3), 2, 2, &rng);
    McsOptions mg;
    mg.algorithm = McsAlgorithm::kMcGregor;
    McsOptions cl;
    cl.algorithm = McsAlgorithm::kClique;
    McsOptions automatic;
    automatic.algorithm = McsAlgorithm::kAuto;
    int vmg = MaxCommonEdgeSubgraph(a, b, mg).common_edges;
    int vcl = MaxCommonEdgeSubgraph(a, b, cl).common_edges;
    int vauto = MaxCommonEdgeSubgraph(a, b, automatic).common_edges;
    EXPECT_EQ(vmg, vcl) << "round " << round;
    EXPECT_EQ(vmg, vauto) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, McsAlgorithmEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(DissimilarityTest, DeltaFormulas) {
  EXPECT_DOUBLE_EQ(Delta1FromMcs(2, 4, 2), 1.0 - 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(Delta2FromMcs(2, 4, 2), 1.0 - 4.0 / 6.0);
  // Both empty: identical.
  EXPECT_DOUBLE_EQ(Delta1FromMcs(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(Delta2FromMcs(0, 0, 0), 0.0);
}

TEST(DissimilarityTest, RangeAndIdentity) {
  Rng rng(41);
  for (int round = 0; round < 10; ++round) {
    Graph a = RandomConnectedGraph(6, 2, 2, 2, &rng);
    Graph b = RandomConnectedGraph(6, 2, 2, 2, &rng);
    for (DissimilarityKind kind :
         {DissimilarityKind::kDelta1, DissimilarityKind::kDelta2}) {
      double d = GraphDissimilarity(a, b, kind);
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, 1.0);
      EXPECT_DOUBLE_EQ(GraphDissimilarity(a, a, kind), 0.0);
    }
  }
}

TEST(DissimilarityTest, Delta1GeDelta2IsFalseInGeneral) {
  // δ1 normalizes by max size, δ2 by average: δ1 >= δ2 always.
  Rng rng(43);
  for (int round = 0; round < 10; ++round) {
    Graph a = RandomConnectedGraph(5, 2, 2, 2, &rng);
    Graph b = RandomConnectedGraph(7, 2, 2, 2, &rng);
    double d1 = GraphDissimilarity(a, b, DissimilarityKind::kDelta1);
    double d2 = GraphDissimilarity(a, b, DissimilarityKind::kDelta2);
    EXPECT_GE(d1 + 1e-12, d2);
  }
}

TEST(DissimilarityMatrixTest, SymmetricZeroDiagonal) {
  Rng rng(44);
  GraphDatabase db;
  for (int i = 0; i < 8; ++i) {
    db.push_back(RandomConnectedGraph(5, 2, 2, 2, &rng));
  }
  DissimilarityMatrix m = DissimilarityMatrix::Compute(db);
  ASSERT_EQ(m.size(), 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(m.at(i, i), 0.0);
    for (int j = 0; j < 8; ++j) {
      EXPECT_DOUBLE_EQ(m.at(i, j), m.at(j, i));
      EXPECT_DOUBLE_EQ(m.at(i, j), GraphDissimilarity(db[static_cast<size_t>(i)],
                                                      db[static_cast<size_t>(j)]));
    }
  }
}

TEST(DissimilarityMatrixTest, FromDense) {
  std::vector<double> vals = {0, 0.5, 0.5, 0};
  DissimilarityMatrix m = DissimilarityMatrix::FromDense(2, vals);
  EXPECT_EQ(m.size(), 2);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.5);
}

TEST(QueryDissimilaritiesTest, MatchesPointwise) {
  Rng rng(45);
  GraphDatabase db, queries;
  for (int i = 0; i < 4; ++i) db.push_back(RandomConnectedGraph(5, 1, 2, 2, &rng));
  for (int i = 0; i < 3; ++i) {
    queries.push_back(RandomConnectedGraph(5, 1, 2, 2, &rng));
  }
  auto qd = QueryDissimilarities(queries, db);
  ASSERT_EQ(qd.size(), 3u);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (size_t gi = 0; gi < db.size(); ++gi) {
      EXPECT_DOUBLE_EQ(qd[qi][gi], GraphDissimilarity(queries[qi], db[gi]));
    }
  }
}

}  // namespace
}  // namespace gdim
