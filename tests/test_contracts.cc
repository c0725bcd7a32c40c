// API-contract death tests: the library CHECK-fails loudly on misuse
// instead of silently corrupting state.

#include <gtest/gtest.h>

#include "core/binary_db.h"
#include "core/objective.h"
#include "graph/graph.h"
#include "mcs/dissimilarity.h"

namespace gdim {
namespace {

TEST(GraphContractTest, SelfLoopRejected) {
  Graph g;
  g.AddVertex(0);
  EXPECT_DEATH(g.AddEdge(0, 0, 1), "self-loop");
}

TEST(GraphContractTest, ParallelEdgeRejected) {
  Graph g;
  g.AddVertex(0);
  g.AddVertex(1);
  g.AddEdge(0, 1, 1);
  EXPECT_DEATH(g.AddEdge(1, 0, 2), "parallel edge");
}

TEST(GraphContractTest, BadEndpointRejected) {
  Graph g;
  g.AddVertex(0);
  EXPECT_DEATH(g.AddEdge(0, 5, 1), "bad endpoint");
}

TEST(BinaryDbContractTest, RaggedMatrixRejected) {
  std::vector<std::vector<uint8_t>> rows = {{1, 0}, {1}};
  EXPECT_DEATH(BinaryFeatureDb::FromBitMatrix(rows), "ragged");
}

TEST(BinaryDbContractTest, SubsetIdOutOfRangeRejected) {
  BinaryFeatureDb db = BinaryFeatureDb::FromBitMatrix({{1}, {0}});
  EXPECT_DEATH(db.Subset({5}), "bad subset id");
}

TEST(ObjectiveContractTest, MatrixSizeMismatchRejected) {
  BinaryFeatureDb db = BinaryFeatureDb::FromBitMatrix({{1}, {0}});
  DissimilarityMatrix delta = DissimilarityMatrix::FromDense(3, {0, 0, 0, 0, 0, 0, 0, 0, 0});
  std::vector<double> c = {1.0};
  EXPECT_DEATH(StressObjective(db, c, delta), "mismatch");
}

TEST(DissimilarityContractTest, DenseBufferSizeChecked) {
  EXPECT_DEATH(DissimilarityMatrix::FromDense(2, {0.0, 1.0}), "size mismatch");
}

TEST(MappedDistanceContractTest, WidthMismatchRejected) {
  std::vector<uint8_t> a = {1, 0};
  std::vector<uint8_t> b = {1};
  EXPECT_DEATH(BinaryMappedDistance(a, b), "width mismatch");
}

}  // namespace
}  // namespace gdim
