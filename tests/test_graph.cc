#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/graph_utils.h"
#include "graph/label_map.h"
#include "test_util.h"

namespace gdim {
namespace {

Graph Triangle() {
  Graph g;
  g.AddVertex(0);
  g.AddVertex(1);
  g.AddVertex(2);
  g.AddEdge(0, 1, 5);
  g.AddEdge(1, 2, 6);
  g.AddEdge(0, 2, 7);
  return g;
}

TEST(GraphTest, AddVertexAndEdge) {
  Graph g;
  EXPECT_EQ(g.AddVertex(3), 0);
  EXPECT_EQ(g.AddVertex(4), 1);
  EXPECT_EQ(g.NumVertices(), 2);
  EXPECT_EQ(g.AddEdge(0, 1, 9), 0);
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.VertexLabel(0), 3u);
  EXPECT_EQ(g.VertexLabel(1), 4u);
}

TEST(GraphTest, EdgesAreNormalized) {
  Graph g;
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddEdge(1, 0, 2);  // reversed endpoints
  EXPECT_EQ(g.GetEdge(0).u, 0);
  EXPECT_EQ(g.GetEdge(0).v, 1);
  EXPECT_EQ(g.GetEdge(0).label, 2u);
}

TEST(GraphTest, FindEdgeBothDirections) {
  Graph g = Triangle();
  EXPECT_GE(g.FindEdge(0, 1), 0);
  EXPECT_GE(g.FindEdge(1, 0), 0);
  EXPECT_EQ(g.FindEdge(0, 1), g.FindEdge(1, 0));
}

TEST(GraphTest, FindEdgeMissingAndOutOfRange) {
  Graph g;
  g.AddVertex(0);
  g.AddVertex(0);
  EXPECT_EQ(g.FindEdge(0, 1), -1);
  EXPECT_EQ(g.FindEdge(0, 7), -1);
  EXPECT_EQ(g.FindEdge(-1, 0), -1);
}

TEST(GraphTest, NeighborsAndDegree) {
  Graph g = Triangle();
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_EQ(g.Degree(1), 2);
  EXPECT_EQ(g.Neighbors(0).size(), 2u);
}

TEST(GraphTest, EqualityIsStructural) {
  EXPECT_EQ(Triangle(), Triangle());
  Graph h = Triangle();
  h.AddVertex(9);
  EXPECT_FALSE(Triangle() == h);
}

TEST(GraphTest, ToStringMentionsSizes) {
  Graph g = Triangle();
  g.set_id(42);
  std::string s = g.ToString();
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("3"), std::string::npos);
}

TEST(GraphUtilsTest, Connectivity) {
  Graph g = Triangle();
  EXPECT_TRUE(IsConnected(g));
  EXPECT_EQ(NumConnectedComponents(g), 1);
  g.AddVertex(0);  // isolated
  EXPECT_FALSE(IsConnected(g));
  EXPECT_EQ(NumConnectedComponents(g), 2);
}

TEST(GraphUtilsTest, EmptyGraphIsConnected) {
  Graph g;
  EXPECT_TRUE(IsConnected(g));
  EXPECT_EQ(NumConnectedComponents(g), 0);
}

TEST(GraphUtilsTest, InducedSubgraph) {
  Graph g = Triangle();
  Graph sub = InducedSubgraph(g, {0, 2});
  EXPECT_EQ(sub.NumVertices(), 2);
  EXPECT_EQ(sub.NumEdges(), 1);
  EXPECT_EQ(sub.GetEdge(0).label, 7u);
}

TEST(GraphUtilsTest, EdgeSubgraphCompactsVertices) {
  Graph g = Triangle();
  Graph sub = EdgeSubgraph(g, {1});  // edge {1,2}
  EXPECT_EQ(sub.NumVertices(), 2);
  EXPECT_EQ(sub.NumEdges(), 1);
  EXPECT_EQ(sub.VertexLabel(0), 1u);
  EXPECT_EQ(sub.VertexLabel(1), 2u);
}

TEST(GraphUtilsTest, Histograms) {
  Graph g = Triangle();
  auto vh = VertexLabelHistogram(g);
  EXPECT_EQ(vh.size(), 3u);
  EXPECT_EQ(vh[0], 1);
  auto eh = EdgeTripleHistogram(g);
  EXPECT_EQ(eh.size(), 3u);
}

TEST(GraphUtilsTest, EdgeLabelIntersectionBound) {
  Graph a = Triangle();
  Graph b = Triangle();
  EXPECT_EQ(EdgeLabelIntersectionBound(a, b), 3);
  Graph c;
  c.AddVertex(9);
  c.AddVertex(9);
  c.AddEdge(0, 1, 1);
  EXPECT_EQ(EdgeLabelIntersectionBound(a, c), 0);
}

TEST(GraphUtilsTest, DegreeSequenceSortedDescending) {
  Graph g = Triangle();
  g.AddVertex(5);
  g.AddEdge(0, 3, 1);
  std::vector<int> deg = DegreeSequence(g);
  EXPECT_EQ(deg, (std::vector<int>{3, 2, 2, 1}));
}

TEST(GraphUtilsTest, Density) {
  EXPECT_DOUBLE_EQ(GraphDensity(Triangle()), 1.0);
  Graph g;
  g.AddVertex(0);
  EXPECT_DOUBLE_EQ(GraphDensity(g), 0.0);
}

TEST(LabelMapTest, InternAndLookup) {
  LabelMap m;
  LabelId c = m.Intern("C");
  LabelId n = m.Intern("N");
  EXPECT_NE(c, n);
  EXPECT_EQ(m.Intern("C"), c);  // idempotent
  EXPECT_EQ(m.size(), 2);
  EXPECT_EQ(m.Name(c), "C");
  LabelId found = 99;
  EXPECT_TRUE(m.Find("N", &found));
  EXPECT_EQ(found, n);
  EXPECT_FALSE(m.Find("Zr", &found));
}

TEST(GraphIoTest, RoundTrip) {
  GraphDatabase db;
  db.push_back(Triangle());
  Graph g2;
  g2.AddVertex(7);
  db.push_back(g2);
  std::ostringstream out;
  WriteGraphStream(db, out);
  std::istringstream in(out.str());
  Result<GraphDatabase> back = ReadGraphStream(in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0], db[0]);
  EXPECT_EQ((*back)[1], db[1]);
}

TEST(GraphIoTest, ParsesCommentsAndBlankLines) {
  std::istringstream in("# header\n\nt # 0\nv 0 1\nv 1 2\ne 0 1 3\n");
  Result<GraphDatabase> db = ReadGraphStream(in);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->size(), 1u);
  EXPECT_EQ((*db)[0].NumEdges(), 1);
  EXPECT_EQ((*db)[0].id(), 0);
}

TEST(GraphIoTest, RejectsMalformedHeader) {
  std::istringstream in("t 0\n");
  EXPECT_FALSE(ReadGraphStream(in).ok());
}

TEST(GraphIoTest, RejectsVertexBeforeHeader) {
  std::istringstream in("v 0 1\n");
  EXPECT_FALSE(ReadGraphStream(in).ok());
}

TEST(GraphIoTest, RejectsNonConsecutiveVertexIds) {
  std::istringstream in("t # 0\nv 1 1\n");
  EXPECT_FALSE(ReadGraphStream(in).ok());
}

TEST(GraphIoTest, RejectsBadEdgeEndpoint) {
  std::istringstream in("t # 0\nv 0 1\ne 0 5 1\n");
  EXPECT_FALSE(ReadGraphStream(in).ok());
}

TEST(GraphIoTest, RejectsDuplicateEdge) {
  std::istringstream in("t # 0\nv 0 1\nv 1 1\ne 0 1 1\ne 1 0 2\n");
  EXPECT_FALSE(ReadGraphStream(in).ok());
}

TEST(GraphIoTest, RejectsUnknownTag) {
  std::istringstream in("t # 0\nq 1 2\n");
  Result<GraphDatabase> r = ReadGraphStream(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(GraphIoTest, FileIoErrors) {
  EXPECT_FALSE(ReadGraphFile("/nonexistent/dir/file.gdb").ok());
  GraphDatabase db;
  EXPECT_FALSE(WriteGraphFile(db, "/nonexistent/dir/file.gdb").ok());
}

TEST(GraphIoTest, FileRoundTrip) {
  GraphDatabase db{Triangle()};
  std::string path = ::testing::TempDir() + "/gdim_io_test.gdb";
  ASSERT_TRUE(WriteGraphFile(db, path).ok());
  Result<GraphDatabase> back = ReadGraphFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)[0], db[0]);
}

TEST(GraphIoTest, RejectsLabelsPast32Bits) {
  // The widest label still fits a LabelId.
  std::istringstream widest_in(
      "t # 0\nv 0 4294967295\nv 1 0\ne 0 1 4294967295\n");
  Result<GraphDatabase> widest = ReadGraphStream(widest_in);
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ((*widest)[0].VertexLabel(0), 4294967295u);
  EXPECT_EQ((*widest)[0].GetEdge(0).label, 4294967295u);
  // One past it must not wrap to a small label.
  for (const char* text : {"t # 0\nv 0 4294967296\n",
                           "t # 0\nv 0 1\nv 1 1\ne 0 1 8589934592\n",
                           "t # 0\nv 0 9223372036854775807\n"}) {
    std::istringstream in(text);
    Result<GraphDatabase> db = ReadGraphStream(in);
    ASSERT_FALSE(db.ok()) << text;
    EXPECT_EQ(db.status().code(), StatusCode::kParseError) << text;
  }
}

// The scanner against the reference reader on one text: the same verdict
// and status code, and equal graphs and ids — except that the scanner
// rejects a label past 2^32 - 1, which the reference wraps. Counts the
// outcomes so the caller can check that each kind occurred.
struct DiffCounts {
  int accepted = 0;
  int rejected = 0;
  int wide_labels = 0;
};

void ExpectScannerMatchesReference(const std::string& text,
                                   DiffCounts* counts) {
  std::istringstream in(text);
  const Result<GraphDatabase> want = testing_util::ReferenceReadGraphStream(in);
  const Result<GraphDatabase> got = ParseGraphText(text);
  SCOPED_TRACE(::testing::PrintToString(text));
  if (want.ok() && !got.ok()) {
    ++counts->wide_labels;
    EXPECT_EQ(got.status().code(), StatusCode::kParseError);
    EXPECT_TRUE(testing_util::NamesWideLabel(text, got.status(),
                                             /*semicolons=*/false))
        << got.status().ToString();
    return;
  }
  ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString();
  if (!want.ok()) {
    ++counts->rejected;
    EXPECT_EQ(got.status().code(), want.status().code());
    return;
  }
  ++counts->accepted;
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*got)[i], (*want)[i]);
    EXPECT_EQ((*got)[i].id(), (*want)[i].id());
  }
}

GraphDatabase SmallDatabase(Rng* rng) {
  GraphDatabase db;
  for (int i = 0; i < 3; ++i) {
    db.push_back(testing_util::RandomConnectedGraph(
        rng->UniformInt(1, 4), rng->UniformInt(0, 2), 6, 4, rng));
    db.back().set_id(rng->UniformInt(0, 40));
  }
  return db;
}

TEST(GraphTextDifferentialTest, TruncationAtEveryOffset) {
  Rng rng(7);
  std::ostringstream out;
  out << "# a comment\n\n";
  testing_util::ReferenceWriteGraphStream(SmallDatabase(&rng), out);
  const std::string text = out.str();
  DiffCounts counts;
  for (size_t cut = 0; cut <= text.size(); ++cut) {
    ExpectScannerMatchesReference(text.substr(0, cut), &counts);
  }
  EXPECT_GT(counts.accepted, 0);
  EXPECT_GT(counts.rejected, 0);
}

TEST(GraphTextDifferentialTest, MutatedTextMatchesTheReference) {
  Rng rng(20241019);
  DiffCounts counts;
  for (int sample = 0; sample < 20000; ++sample) {
    std::ostringstream out;
    if (rng.Bernoulli(0.3)) out << "# comment\r\n \t\n";
    testing_util::ReferenceWriteGraphStream(SmallDatabase(&rng), out);
    ExpectScannerMatchesReference(
        testing_util::MutateGraphText(out.str(), &rng), &counts);
    if (::testing::Test::HasFailure()) break;
  }
  // Every kind of outcome occurred, the label-range rejection included.
  EXPECT_GT(counts.accepted, 1000);
  EXPECT_GT(counts.rejected, 1000);
  EXPECT_GT(counts.wide_labels, 0);
}

TEST(GraphTextDifferentialTest, PrinterMatchesTheReferenceWriter) {
  Rng rng(11);
  for (int round = 0; round < 200; ++round) {
    GraphDatabase db;
    const int graphs = rng.UniformInt(0, 4);
    for (int i = 0; i < graphs; ++i) {
      Graph g = testing_util::RandomConnectedGraph(rng.UniformInt(1, 12),
                                                   rng.UniformInt(0, 6), 7, 3,
                                                   &rng);
      // Full-range labels and ids, and graphs with no id (printed as
      // their position).
      Graph wide;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        wide.AddVertex(rng.Bernoulli(0.5) ? g.VertexLabel(v)
                                          : static_cast<LabelId>(rng.Next()));
      }
      for (const Edge& e : g.edges()) {
        wide.AddEdge(e.u, e.v,
                     rng.Bernoulli(0.5) ? e.label
                                        : static_cast<LabelId>(rng.Next()));
      }
      const int id_kind = rng.UniformInt(0, 2);
      wide.set_id(id_kind == 0   ? -1
                  : id_kind == 1 ? rng.UniformInt(0, 99)
                                 : std::numeric_limits<int>::max() -
                                       rng.UniformInt(0, 9));
      db.push_back(std::move(wide));
    }
    std::ostringstream want;
    testing_util::ReferenceWriteGraphStream(db, want);
    ASSERT_EQ(FormatGraphText(db), want.str());
    std::ostringstream streamed;
    WriteGraphStream(db, streamed);
    ASSERT_EQ(streamed.str(), want.str());
    Result<GraphDatabase> back = ParseGraphText(want.str());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, db);
  }
}

}  // namespace
}  // namespace gdim
