#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "core/kernels/scan_kernel.h"
#include "core/mapper.h"
#include "core/objective.h"
#include "core/packed_bits.h"
#include "core/topk.h"
#include "test_util.h"

namespace gdim {
namespace {

using testing_util::RandomConnectedGraph;

TEST(RankByScoresTest, SortsAscendingWithIdTieBreak) {
  Ranking r = RankByScores({0.5, 0.1, 0.5, 0.0});
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[0].id, 3);
  EXPECT_EQ(r[1].id, 1);
  EXPECT_EQ(r[2].id, 0);  // ties broken by id
  EXPECT_EQ(r[3].id, 2);
}

TEST(TopKTest, TruncatesAndClamps) {
  Ranking r = RankByScores({0.3, 0.2, 0.1});
  EXPECT_EQ(TopK(r, 2).size(), 2u);
  EXPECT_EQ(TopK(r, 10).size(), 3u);
  EXPECT_EQ(TopK(r, 0).size(), 0u);
}

// Integer selection is exact only because the score conversion preserves
// the distance order: sqrt(d / p) must be strictly increasing in d over
// 0..p for every width a dimension can have.
TEST(HammingScoreTest, StrictlyIncreasingInDistanceForEveryWidth) {
  for (int p = 1; p <= 4096; ++p) {
    double previous = HammingScore(0, p);
    for (int d = 1; d <= p; ++d) {
      const double score = HammingScore(static_cast<uint32_t>(d), p);
      ASSERT_LT(previous, score) << "p=" << p << " d=" << d;
      ASSERT_EQ(score, std::sqrt(static_cast<double>(d) /
                                 static_cast<double>(p)));
      previous = score;
    }
  }
  EXPECT_EQ(HammingScore(0, 0), 0.0);  // zero-width dimension
}

/// The reference answer: byte-vector scores for every row, the full
/// RankByScores order, removed rows dropped, then the first k.
Ranking ReferenceTopK(const std::vector<uint8_t>& query,
                      const std::vector<std::vector<uint8_t>>& rows,
                      const std::vector<uint8_t>& removed, int k) {
  std::vector<double> scores;
  for (const auto& row : rows) {
    scores.push_back(BinaryMappedDistance(query, row));
  }
  Ranking live;
  for (const RankedResult& r : RankByScores(scores)) {
    if (removed[static_cast<size_t>(r.id)] == 0) live.push_back(r);
  }
  return TopK(live, k);
}

// The fused scan-and-select path against the reference for every kernel this
// host runs, alone and as a 3-query tile: hostile widths (including zero,
// the packed 2- and 4-word layouts and 1, 3 and 8 words), k from nothing to
// more than the live rows, a base segment crossing a scan-block boundary
// plus a delta segment read as one row space, tombstones in both, and
// all-identical rows whose order rests on the id tie-break alone. Rows are
// stored in descending id order, so the rows that tie at the kth distance
// with smaller ids arrive after the selector is full, in later blocks: the
// kernel filter must pass a row at exactly the bound distance, or those
// rows are lost. The kTies shape (three distinct rows) puts many rows at
// every distance.
TEST(HammingTopKTest, FusedScanMatchesReferenceOnEveryKernel) {
  Rng rng(1301);
  constexpr int kBaseRows = 300;
  constexpr int kDeltaRows = 45;
  constexpr int kRows = kBaseRows + kDeltaRows;
  enum class Shape { kRandom, kIdentical, kTies };
  for (const int p : {0, 1, 63, 64, 65, 128, 192, 256, 512}) {
    for (const Shape shape :
         {Shape::kRandom, Shape::kIdentical, Shape::kTies}) {
      // rows[id] is the row of external id `id`; slot s stores id ids[s].
      std::vector<std::vector<uint8_t>> rows =
          RandomBitRows(kRows, p, 0.4, &rng);
      const std::vector<std::vector<uint8_t>> distinct(rows.begin(),
                                                       rows.begin() + 3);
      for (auto& row : rows) {
        if (shape == Shape::kIdentical) row = distinct[0];
        if (shape == Shape::kTies) row = distinct[rng.UniformU64(3)];
      }
      std::vector<int> ids(kRows);
      std::vector<std::vector<uint8_t>> stored;
      std::vector<uint8_t> tombstones(kRows, 0);
      for (int s = 0; s < kRows; ++s) {
        ids[static_cast<size_t>(s)] = kRows - 1 - s;
        stored.push_back(rows[static_cast<size_t>(kRows - 1 - s)]);
        tombstones[static_cast<size_t>(s)] = rng.UniformU64(5) == 0 ? 1 : 0;
      }
      tombstones[3] = 1;              // at least one base tombstone
      tombstones[kBaseRows + 1] = 1;  // and one delta tombstone
      std::vector<uint8_t> removed(kRows, 0);
      int live = 0;
      for (int s = 0; s < kRows; ++s) {
        removed[static_cast<size_t>(ids[static_cast<size_t>(s)])] =
            tombstones[static_cast<size_t>(s)];
        live += tombstones[static_cast<size_t>(s)] == 0 ? 1 : 0;
      }
      const PackedBitMatrix base = PackedBitMatrix::FromRows(
          {stored.begin(), stored.begin() + kBaseRows}, p);
      const PackedBitMatrix delta = PackedBitMatrix::FromRows(
          {stored.begin() + kBaseRows, stored.end()}, p);

      for (const int num_queries : {1, 3}) {
        const auto queries = RandomBitRows(num_queries, p, 0.4, &rng);
        std::vector<std::vector<uint64_t>> packed;
        std::vector<const uint64_t*> query_ptrs;
        for (const auto& q : queries) packed.push_back(base.PackQuery(q));
        for (const auto& q : packed) query_ptrs.push_back(q.data());

        for (const ScanKernel* kernel : SupportedScanKernels()) {
          for (const int k : {0, 1, 10, live + 5}) {
            std::vector<HammingTopK> tops(static_cast<size_t>(num_queries),
                                          HammingTopK(k));
            ScanTopK(*kernel, base, 0, kBaseRows, query_ptrs.data(),
                     num_queries, ids.data(), tombstones.data(), tops.data());
            ScanTopK(*kernel, delta, 0, kDeltaRows, query_ptrs.data(),
                     num_queries, ids.data() + kBaseRows,
                     tombstones.data() + kBaseRows, tops.data());
            for (int q = 0; q < num_queries; ++q) {
              EXPECT_EQ(tops[static_cast<size_t>(q)].Take(p),
                        ReferenceTopK(queries[static_cast<size_t>(q)], rows,
                                      removed, k))
                  << kernel->name() << " p=" << p
                  << " shape=" << static_cast<int>(shape) << " k=" << k
                  << " q=" << q << "/" << num_queries;
            }
          }
        }
      }
    }
  }
}

// Selection keys on (distance, external id), not on storage order: rows
// stored under shuffled ids — the bucket-ordered base segment — rank like
// the same rows stored in id order, ties included.
TEST(HammingTopKTest, TiesFollowIdsNotStorageOrder) {
  Rng rng(1302);
  constexpr int kRows = 600;
  constexpr int kBits = 8;  // few distinct distances: many ties
  const auto rows = RandomBitRows(kRows, kBits, 0.5, &rng);
  std::vector<int> ids(kRows);
  std::iota(ids.begin(), ids.end(), 0);
  rng.Shuffle(&ids);
  // Slot s stores the row of id ids[s].
  std::vector<std::vector<uint8_t>> stored;
  for (const int id : ids) stored.push_back(rows[static_cast<size_t>(id)]);
  const PackedBitMatrix matrix = PackedBitMatrix::FromRows(stored, kBits);
  const std::vector<uint8_t> query = RandomBitRows(1, kBits, 0.5, &rng)[0];
  const std::vector<uint64_t> packed = matrix.PackQuery(query);
  const uint64_t* queries[] = {packed.data()};
  for (const ScanKernel* kernel : SupportedScanKernels()) {
    for (const int k : {1, 10, 100, kRows}) {
      HammingTopK top(k);
      // Two ranges, the second first: range order is irrelevant too.
      ScanTopK(*kernel, matrix, 300, kRows, queries, 1, ids.data(), nullptr,
               &top);
      ScanTopK(*kernel, matrix, 0, 300, queries, 1, ids.data(), nullptr,
               &top);
      EXPECT_EQ(top.Take(kBits), TopK(MappedRanking(query, rows), k))
          << kernel->name() << " k=" << k;
    }
  }
}

TEST(ExactRankingTest, SelfIsClosest) {
  Rng rng(55);
  GraphDatabase db;
  for (int i = 0; i < 6; ++i) {
    db.push_back(RandomConnectedGraph(6, 2, 3, 2, &rng));
  }
  // Query with db[2] itself: it must rank first with distance 0.
  Ranking r = ExactRanking(db[2], db);
  EXPECT_EQ(r[0].id, 2);
  EXPECT_DOUBLE_EQ(r[0].score, 0.0);
}

TEST(MappedRankingTest, HammingOrder) {
  std::vector<uint8_t> q = {1, 1, 0, 0};
  std::vector<std::vector<uint8_t>> db = {
      {1, 1, 0, 0},  // distance 0
      {1, 0, 0, 0},  // 1 bit
      {0, 0, 1, 1},  // 4 bits
      {1, 1, 1, 0},  // 1 bit
  };
  Ranking r = MappedRanking(q, db);
  EXPECT_EQ(r[0].id, 0);
  EXPECT_EQ(r[1].id, 1);  // ties (1 vs 3) broken by id
  EXPECT_EQ(r[2].id, 3);
  EXPECT_EQ(r[3].id, 2);
}

TEST(FeatureMapperTest, MapsAgainstFeatures) {
  // Features: single edge (0)-(0), single edge (0)-(1).
  Graph f0;
  f0.AddVertex(0);
  f0.AddVertex(0);
  f0.AddEdge(0, 1, 0);
  Graph f1;
  f1.AddVertex(0);
  f1.AddVertex(1);
  f1.AddEdge(0, 1, 0);
  FeatureMapper mapper({f0, f1});
  EXPECT_EQ(mapper.num_features(), 2);

  Graph g;  // path (0)-(0)-(1): contains both features
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddVertex(1);
  g.AddEdge(0, 1, 0);
  g.AddEdge(1, 2, 0);
  std::vector<uint8_t> bits = mapper.Map(g);
  EXPECT_EQ(bits, (std::vector<uint8_t>{1, 1}));

  Graph h;  // single (0)-(1) edge: only f1
  h.AddVertex(0);
  h.AddVertex(1);
  h.AddEdge(0, 1, 0);
  EXPECT_EQ(mapper.Map(h), (std::vector<uint8_t>{0, 1}));
}

TEST(FeatureMapperTest, MapAllMatchesMap) {
  Rng rng(66);
  GraphDatabase features;
  for (int i = 0; i < 3; ++i) {
    features.push_back(RandomConnectedGraph(3, 0, 2, 2, &rng));
  }
  FeatureMapper mapper(features);
  GraphDatabase graphs;
  for (int i = 0; i < 5; ++i) {
    graphs.push_back(RandomConnectedGraph(6, 2, 2, 2, &rng));
  }
  auto all = mapper.MapAll(graphs);
  ASSERT_EQ(all.size(), 5u);
  for (size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_EQ(all[i], mapper.Map(graphs[i]));
  }
}

}  // namespace
}  // namespace gdim
