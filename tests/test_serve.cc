// Serving hot-path tests: the packed bit-matrix scan must agree bit for bit
// with the byte-vector reference, and the serving engine at one shard must
// answer like the offline ranking, deterministically across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/sync.h"
#include "core/dimension.h"
#include "core/index_io.h"
#include "core/objective.h"
#include "core/packed_bits.h"
#include "core/topk.h"
#include "datasets/chemgen.h"
#include "server/sharded_engine.h"
#include "test_util.h"

namespace gdim {
namespace {

using testing_util::OfflinePrefilterTopK;
using testing_util::OfflineTopK;

/// The serving engine at one shard — the unsharded configuration.
Result<ShardedEngine> OneShard(PersistedIndex index, ServeOptions serve = {}) {
  return ShardedEngine::FromIndex(std::move(index),
                                  {.num_shards = 1, .serve = serve});
}

TEST(PackedBitMatrixTest, RoundTripsBitsAcrossWordBoundaries) {
  Rng rng(3);
  for (int p : {1, 7, 63, 64, 65, 128, 300}) {
    const auto rows = RandomBitRows(17, p, 0.4, &rng);
    const PackedBitMatrix m = PackedBitMatrix::FromRows(rows);
    ASSERT_EQ(m.num_rows(), 17);
    ASSERT_EQ(m.num_bits(), p);
    ASSERT_EQ(m.words_per_row(), (static_cast<size_t>(p) + 63) / 64);
    for (int i = 0; i < m.num_rows(); ++i) {
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(m.GetBit(i, r),
                  rows[static_cast<size_t>(i)][static_cast<size_t>(r)] != 0)
            << "p=" << p << " row=" << i << " bit=" << r;
      }
    }
  }
}

TEST(PackedBitMatrixTest, HammingAndNormalizedDistanceMatchReference) {
  Rng rng(11);
  const int p = 130;  // straddles a word boundary with a partial last word
  const auto rows = RandomBitRows(25, p, 0.3, &rng);
  const PackedBitMatrix m = PackedBitMatrix::FromRows(rows);
  const auto queries = RandomBitRows(6, p, 0.3, &rng);
  for (const auto& q : queries) {
    const std::vector<uint64_t> packed = PackedBitMatrix::PackBits(q);
    for (int i = 0; i < m.num_rows(); ++i) {
      int diff = 0;
      for (int r = 0; r < p; ++r) {
        diff += q[static_cast<size_t>(r)] !=
                rows[static_cast<size_t>(i)][static_cast<size_t>(r)];
      }
      EXPECT_EQ(m.HammingDistance(packed, i), diff);
      EXPECT_EQ(HammingScore(static_cast<uint32_t>(diff), p),
                BinaryMappedDistance(q, rows[static_cast<size_t>(i)]));
    }
  }
}

TEST(PackedBitMatrixTest, PackedMappedRankingEqualsByteMappedRanking) {
  Rng rng(19);
  for (int p : {5, 64, 100, 256, 300}) {
    const auto rows = RandomBitRows(200, p, 0.25, &rng);
    const PackedBitMatrix m = PackedBitMatrix::FromRows(rows);
    const auto queries = RandomBitRows(5, p, 0.25, &rng);
    for (const auto& q : queries) {
      const Ranking byte_ranking = MappedRanking(q, rows);
      const Ranking packed_ranking = MappedRanking(q, m);
      // Bit-for-bit: same ids and identical floating-point scores.
      EXPECT_EQ(byte_ranking, packed_ranking) << "p=" << p;
    }
  }
}

// Selecting over a candidate subset, offered in any order, equals the full
// ranking restricted to the subset — the prefilter and IVF-posting paths.
TEST(PackedBitMatrixTest, SubsetSelectionMatchesFullRanking) {
  Rng rng(23);
  const auto rows = RandomBitRows(60, 90, 0.35, &rng);
  const PackedBitMatrix m = PackedBitMatrix::FromRows(rows);
  const std::vector<uint8_t> query = RandomBitRows(1, 90, 0.35, &rng)[0];
  const std::vector<uint64_t> q = PackedBitMatrix::PackBits(query);
  const std::vector<int> candidates = {41, 0, 59, 17, 3};
  Ranking expected;
  for (const RankedResult& r : MappedRanking(query, rows)) {
    if (std::find(candidates.begin(), candidates.end(), r.id) !=
        candidates.end()) {
      expected.push_back(r);
    }
  }
  for (int k : {0, 1, 3, 5, 9}) {
    HammingTopK top(k);
    for (const int row : candidates) {
      top.Offer(static_cast<uint32_t>(m.HammingDistance(q, row)), row,
                nullptr);
    }
    EXPECT_EQ(top.Take(m.num_bits()), TopK(expected, k)) << "k=" << k;
  }
}

// The selector against a full sort of the scores it implies: many tied
// distances, offered in ascending row order (full scans) and shuffled (IVF
// postings arrive bucket by bucket).
TEST(HammingTopKTest, EqualsFullSortThenTruncate) {
  Rng rng(29);
  const int p = 40;
  std::vector<uint32_t> distances(500);
  std::vector<double> scores(500);
  for (size_t i = 0; i < distances.size(); ++i) {
    distances[i] = static_cast<uint32_t>(rng.UniformU64(p + 1));
    scores[i] = HammingScore(distances[i], p);
  }
  std::vector<int> shuffled(500);
  for (int i = 0; i < 500; ++i) shuffled[static_cast<size_t>(i)] = i;
  rng.Shuffle(&shuffled);
  for (int k : {0, 1, 10, 499, 500, 600}) {
    HammingTopK in_order(k);
    HammingTopK any_order(k);
    for (int i = 0; i < 500; ++i) {
      in_order.Offer(distances[static_cast<size_t>(i)], i, nullptr);
      const int row = shuffled[static_cast<size_t>(i)];
      any_order.Offer(distances[static_cast<size_t>(row)], row, nullptr);
    }
    const Ranking expected = TopK(RankByScores(scores), k);
    EXPECT_EQ(in_order.Take(p), expected) << "k=" << k;
    EXPECT_EQ(any_order.Take(p), expected) << "k=" << k;
  }

  // Candidate-set counterpart, non-contiguous ids with the same ties; the
  // excluded rows stand in as tombstones, which must never enter.
  std::vector<uint8_t> removed(500, 1);
  Ranking candidates;
  for (const RankedResult& r : RankByScores(scores)) {
    if (r.id % 3 == 0) {
      candidates.push_back(r);
      removed[static_cast<size_t>(r.id)] = 0;
    }
  }
  for (int k : {0, 1, 10, 200}) {
    HammingTopK top(k);
    for (int i = 0; i < 500; ++i) {
      top.Offer(distances[static_cast<size_t>(i)], i,
                &removed[static_cast<size_t>(i)]);
    }
    EXPECT_EQ(top.Take(p), TopK(candidates, k)) << "k=" << k;
  }
}

TEST(LatencySummaryTest, PercentilesUseNearestRank) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));
  const LatencySummary s = SummarizeLatencies(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_EQ(SummarizeLatencies({}).count, 0u);

  // Nearest rank = smallest sample with cumulative frequency >= q: for 13
  // samples, rank(0.95) = ceil(12.35) = 13, not a round-to-nearest 12.
  std::vector<double> thirteen;
  for (int i = 1; i <= 13; ++i) thirteen.push_back(static_cast<double>(i));
  const LatencySummary t = SummarizeLatencies(thirteen);
  EXPECT_DOUBLE_EQ(t.p50, 7.0);
  EXPECT_DOUBLE_EQ(t.p95, 13.0);
  EXPECT_DOUBLE_EQ(t.p99, 13.0);
}

class QueryEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ChemGenOptions gen;
    gen.num_graphs = 40;
    gen.num_families = 6;
    gen.min_vertices = 8;
    gen.max_vertices = 14;
    db_ = new GraphDatabase(GenerateChemDatabase(gen));
    // 70 queries: several tiles per batch, one of them partial.
    queries_ = new GraphDatabase(GenerateChemQueries(gen, 70));
    DimensionOptions opts;
    opts.mining.min_support = 0.15;
    opts.mining.max_edges = 4;
    opts.selector = "DSPM";
    opts.p = 30;
    opts.dspm.max_iters = 10;
    auto built = BuildDimension(*db_, opts);
    GDIM_CHECK(built.ok()) << built.status().ToString();
    index_ = new PersistedIndex();
    index_->features = std::move(built->features);
    index_->db_bits = std::move(built->rows);
  }

  static void TearDownTestSuite() {
    delete db_;
    delete queries_;
    delete index_;
    db_ = nullptr;
    queries_ = nullptr;
    index_ = nullptr;
  }

  static GraphDatabase* db_;
  static GraphDatabase* queries_;
  static PersistedIndex* index_;
};

GraphDatabase* QueryEngineTest::db_ = nullptr;
GraphDatabase* QueryEngineTest::queries_ = nullptr;
PersistedIndex* QueryEngineTest::index_ = nullptr;

TEST_F(QueryEngineTest, MatchesOfflineMappedRanking) {
  auto engine = OneShard(*index_);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  FeatureMapper mapper(index_->features);
  for (const Graph& q : *queries_) {
    const Ranking expected =
        TopK(MappedRanking(mapper.Map(q), index_->db_bits), 5);
    ServeQueryStats stats;
    const Ranking got = engine->Query(q, {.k = 5}, &stats);
    EXPECT_EQ(got, expected);
    EXPECT_EQ(stats.scanned, engine->num_graphs());
    EXPECT_FALSE(stats.prefiltered);
  }
}

TEST_F(QueryEngineTest, BatchIsDeterministicAcrossThreadCounts) {
  ServeOptions one;
  one.threads = 1;
  ServeOptions eight;
  eight.threads = 8;
  auto engine1 = OneShard(*index_, one);
  auto engine8 = OneShard(*index_, eight);
  ASSERT_TRUE(engine1.ok());
  ASSERT_TRUE(engine8.ok());
  ServeBatchReport report1, report8;
  std::vector<ServeQueryStats> stats1, stats8;
  const auto results1 =
      engine1->QueryBatch(*queries_, {.k = 4}, &report1, &stats1);
  const auto results8 =
      engine8->QueryBatch(*queries_, {.k = 4}, &report8, &stats8);
  EXPECT_EQ(results1, results8);
  ASSERT_EQ(results1.size(), queries_->size());
  EXPECT_EQ(report1.latency_ms.count, queries_->size());
  EXPECT_EQ(stats1.size(), stats8.size());
  for (size_t i = 0; i < stats1.size(); ++i) {
    EXPECT_EQ(stats1[i].scanned, stats8[i].scanned);
    EXPECT_EQ(stats1[i].features_on, stats8[i].features_on);
  }
}

TEST_F(QueryEngineTest, PrefilterNeverWidensAndKeepsOrder) {
  ServeOptions opts;
  opts.containment_prefilter = true;
  auto engine = OneShard(*index_, opts);
  ASSERT_TRUE(engine.ok());
  auto plain = OneShard(*index_);
  ASSERT_TRUE(plain.ok());
  for (const Graph& q : *queries_) {
    ServeQueryStats stats;
    const Ranking got = engine->Query(q, {.k = 3}, &stats);
    EXPECT_LE(stats.scanned, engine->num_graphs());
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(got[i - 1].score, got[i].score);
    }
    if (!stats.prefiltered) {
      // Fallback path must equal the unfiltered engine exactly.
      EXPECT_EQ(got, plain->Query(q, {.k = 3}));
    }
  }
}

// A fully controllable index: feature r is the single vertex labeled r, so a
// graph's fingerprint is exactly its vertex-label set. Lets us pick the
// candidate sets the prefilter must produce and assert the narrowed scan is
// exact, not merely ordered.
TEST(QueryEnginePrefilterTest, NarrowedScanEqualsRestrictedFullRanking) {
  const int kLabels = 4;
  PersistedIndex index;
  for (LabelId r = 0; r < kLabels; ++r) {
    Graph f;
    f.AddVertex(r);
    index.features.push_back(f);
  }
  // Label sets per database graph (as paths); bits = label membership.
  const std::vector<std::vector<LabelId>> label_sets = {
      {0, 1}, {0, 1, 2}, {0, 1, 2, 3}, {2, 3}, {0, 2}, {1, 3}, {0, 1, 3},
  };
  for (const auto& labels : label_sets) {
    std::vector<uint8_t> bits(kLabels, 0);
    for (LabelId l : labels) bits[static_cast<size_t>(l)] = 1;
    index.db_bits.push_back(bits);
  }
  ServeOptions opts;
  opts.containment_prefilter = true;
  auto engine = OneShard(index, opts);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Query with labels {0, 1}: candidates = graphs 0, 1, 2, 6.
  Graph q;
  q.AddVertex(0);
  q.AddVertex(1);
  q.AddEdge(0, 1, 0);
  ServeQueryStats stats;
  const Ranking got = engine->Query(q, {.k = 3}, &stats);
  EXPECT_TRUE(stats.prefiltered);
  EXPECT_EQ(stats.scanned, 4);
  EXPECT_EQ(stats.features_on, 2);

  // Expected: the full byte-vector ranking restricted to the candidates.
  FeatureMapper mapper(index.features);
  Ranking expected;
  for (const RankedResult& r : MappedRanking(mapper.Map(q), index.db_bits)) {
    if (r.id == 0 || r.id == 1 || r.id == 2 || r.id == 6) {
      expected.push_back(r);
    }
  }
  expected.resize(3);
  EXPECT_EQ(got, expected);
}

TEST_F(QueryEngineTest, RejectsRaggedIndexRows) {
  PersistedIndex bad = *index_;
  ASSERT_FALSE(bad.db_bits.empty());
  bad.db_bits[0].pop_back();
  auto engine = OneShard(std::move(bad));
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(PackedBitMatrixTest, AppendRowMatchesFromRows) {
  Rng rng(41);
  for (int p : {1, 63, 64, 65, 130}) {
    const auto rows = RandomBitRows(9, p, 0.4, &rng);
    const PackedBitMatrix whole = PackedBitMatrix::FromRows(rows);
    PackedBitMatrix grown = PackedBitMatrix::WithWidth(p);
    EXPECT_EQ(grown.num_rows(), 0);
    EXPECT_EQ(grown.num_bits(), p);
    grown.Reserve(static_cast<int>(rows.size()));
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(grown.AppendRow(rows[i]), static_cast<int>(i));
    }
    ASSERT_EQ(grown.num_rows(), whole.num_rows());
    PackedBitMatrix copied = PackedBitMatrix::WithWidth(p);
    for (int i = whole.num_rows() - 1; i >= 0; --i) {
      copied.AppendRowFrom(whole, i);  // word-level copy, reversed order
    }
    const std::vector<uint64_t> q =
        grown.PackQuery(RandomBitRows(1, p, 0.4, &rng)[0]);
    for (int i = 0; i < whole.num_rows(); ++i) {
      EXPECT_EQ(grown.UnpackRow(i), rows[static_cast<size_t>(i)]);
      EXPECT_EQ(grown.HammingDistance(q, i), whole.HammingDistance(q, i));
      EXPECT_EQ(copied.UnpackRow(whole.num_rows() - 1 - i),
                rows[static_cast<size_t>(i)]);
    }
  }
}

TEST(PackedBitMatrixTest, PermuteRowsMovesEveryRowOnce) {
  Rng rng(43);
  for (int p : {1, 64, 130}) {
    for (const int n : {0, 1, 2, 37}) {
      const auto rows = RandomBitRows(n, p, 0.4, &rng);
      PackedBitMatrix m = PackedBitMatrix::FromRows(rows, p);
      std::vector<int> order(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
      rng.Shuffle(&order);
      m.PermuteRows(order);
      ASSERT_EQ(m.num_rows(), n);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(m.UnpackRow(i),
                  rows[static_cast<size_t>(order[static_cast<size_t>(i)])])
            << "p=" << p << " n=" << n << " row " << i;
      }
    }
  }
  PackedBitMatrix small =
      PackedBitMatrix::FromRows(RandomBitRows(3, 8, 0.4, &rng));
  EXPECT_DEATH(small.PermuteRows({0, 0, 1}), "not a permutation");
}

TEST(PackedBitMatrixTest, PackQueryValidatesWidthEvenWhenEmpty) {
  const PackedBitMatrix empty = PackedBitMatrix::FromRows({}, 10);
  EXPECT_EQ(empty.num_rows(), 0);
  EXPECT_EQ(empty.num_bits(), 10);
  EXPECT_EQ(empty.PackQuery(std::vector<uint8_t>(10, 1)).size(), 1u);
  EXPECT_DEATH(empty.PackQuery(std::vector<uint8_t>(7, 1)),
               "query width");
}

// ---------------------------------------------------------------------------
// Mutable engine: segmented insert/remove/compact.

/// Applies the same mutation to an engine and to a shadow (id, bits) model;
/// the shadow stays sorted by id because new ids always exceed old ones.
struct ShadowDb {
  std::vector<std::pair<int, std::vector<uint8_t>>> rows;
  int next_id = 0;

  void Insert(std::vector<uint8_t> bits) {
    rows.emplace_back(next_id++, std::move(bits));
  }
  void Remove(int id) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].first == id) {
        rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
    FAIL() << "shadow has no id " << id;
  }
  std::vector<int> ids() const {
    std::vector<int> out;
    for (const auto& [id, bits] : rows) out.push_back(id);
    return out;
  }
  PersistedIndex Equivalent(const GraphDatabase& features) const {
    PersistedIndex index;
    index.features = features;
    for (const auto& [id, bits] : rows) index.db_bits.push_back(bits);
    return index;
  }
};

TEST_F(QueryEngineTest, MutationSequenceMatchesFreshEngineAcrossThreads) {
  FeatureMapper mapper(index_->features);
  for (int threads : {1, 8}) {
    for (bool prefilter : {false, true}) {
      ServeOptions opts;
      opts.threads = threads;
      opts.containment_prefilter = prefilter;
      auto engine = OneShard(*index_, opts);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      // This test body is the engine's single writer.
      ScopedRole writer(&engine->writer_role());

      ShadowDb shadow;
      for (const auto& bits : index_->db_bits) shadow.Insert(bits);

      // Interleaved mutation script: removes, inserts, a mid-sequence
      // compaction, then more churn on both old and new ids.
      for (int id : {1, 5, 19, 38}) {
        ASSERT_TRUE(engine->Remove(id).ok());
        shadow.Remove(id);
      }
      for (int i = 0; i < 10; ++i) {
        const Graph& g = (*queries_)[static_cast<size_t>(i)];
        auto inserted = engine->Insert(g);
        ASSERT_TRUE(inserted.ok());
        EXPECT_EQ(*inserted, shadow.next_id);
        shadow.Insert(mapper.Map(g));
      }
      engine->Compact();
      EXPECT_EQ(engine->shard(0).delta_rows(), 0);
      EXPECT_EQ(engine->tombstoned_rows(), 0);
      for (int id : {0, 2, 40, 44}) {  // ids 40/44 came from the delta
        ASSERT_TRUE(engine->Remove(id).ok());
        shadow.Remove(id);
      }
      for (int i = 10; i < 16; ++i) {
        const Graph& g = (*queries_)[static_cast<size_t>(i)];
        ASSERT_TRUE(engine->Insert(g).ok());
        shadow.Insert(mapper.Map(g));
      }

      // Mutation-surface sanity: ids are stable and misuse is graceful.
      EXPECT_EQ(engine->alive_ids(), shadow.ids());
      EXPECT_EQ(engine->num_graphs(), static_cast<int>(shadow.rows.size()));
      EXPECT_EQ(engine->Remove(5).code(), StatusCode::kNotFound);  // twice
      EXPECT_EQ(engine->Remove(9999).code(), StatusCode::kNotFound);
      EXPECT_EQ(engine->InsertMapped(std::vector<uint8_t>(3, 0))
                    .status()
                    .code(),
                StatusCode::kInvalidArgument);

      // The invariant: bit-identical QueryBatch vs a fresh engine over the
      // equivalent database, after mapping the fresh engine's positional
      // ids through the live id list.
      auto fresh = OneShard(shadow.Equivalent(index_->features), opts);
      ASSERT_TRUE(fresh.ok());
      const std::vector<int> live_ids = shadow.ids();
      std::vector<std::vector<uint8_t>> live_rows;
      for (const auto& [id, bits] : shadow.rows) live_rows.push_back(bits);
      for (int k : {0, 3, 1000}) {
        std::vector<Ranking> expected = fresh->QueryBatch(*queries_, {.k = k});
        for (Ranking& ranking : expected) {
          for (RankedResult& r : ranking) {
            r.id = live_ids[static_cast<size_t>(r.id)];
          }
        }
        const std::vector<Ranking> got =
            engine->QueryBatch(*queries_, {.k = k});
        EXPECT_EQ(got, expected) << "threads=" << threads
                                 << " prefilter=" << prefilter << " k=" << k;
        // And the offline ranking over the shadow's live rows.
        for (size_t i = 0; i < queries_->size(); ++i) {
          const std::vector<uint8_t> fp = mapper.Map((*queries_)[i]);
          EXPECT_EQ(got[i],
                    prefilter ? OfflinePrefilterTopK(fp, live_rows, live_ids, k)
                              : OfflineTopK(fp, live_rows, live_ids, k))
              << "threads=" << threads << " prefilter=" << prefilter
              << " k=" << k << " query " << i;
        }
      }

      // And the same invariant again after a final compaction.
      engine->Compact();
      std::vector<Ranking> expected = fresh->QueryBatch(*queries_, {.k = 4});
      for (Ranking& ranking : expected) {
        for (RankedResult& r : ranking) {
          r.id = live_ids[static_cast<size_t>(r.id)];
        }
      }
      EXPECT_EQ(engine->QueryBatch(*queries_, {.k = 4}), expected);
      EXPECT_EQ(engine->alive_ids(), live_ids);
    }
  }
}

TEST_F(QueryEngineTest, NegativeKAnswersEmptyInsteadOfAborting) {
  auto engine = OneShard(*index_);
  ASSERT_TRUE(engine.ok());
  ServeQueryStats stats;
  EXPECT_TRUE(engine->Query((*queries_)[0], {.k = -3}, &stats).empty());
  EXPECT_EQ(stats.scanned, engine->num_graphs());
  const auto batch = engine->QueryBatch(*queries_, {.k = -1});
  ASSERT_EQ(batch.size(), queries_->size());
  for (const Ranking& r : batch) EXPECT_TRUE(r.empty());
}

/// Single-vertex-feature index (see NarrowedScanEqualsRestrictedFullRanking)
/// with one feature nobody contains, so a query can force an empty stage-2
/// intersection.
PersistedIndex LabelSetIndex() {
  const int kLabels = 5;  // feature 4 has empty support
  PersistedIndex index;
  for (LabelId r = 0; r < kLabels; ++r) {
    Graph f;
    f.AddVertex(r);
    index.features.push_back(f);
  }
  const std::vector<std::vector<LabelId>> label_sets = {
      {0, 1}, {0, 1, 2}, {0, 1, 2, 3}, {2, 3}, {0, 2}, {1, 3}, {0, 1, 3},
  };
  for (const auto& labels : label_sets) {
    std::vector<uint8_t> bits(kLabels, 0);
    for (LabelId l : labels) bits[static_cast<size_t>(l)] = 1;
    index.db_bits.push_back(bits);
  }
  return index;
}

Graph LabelGraph(std::vector<LabelId> labels) {
  Graph g;
  for (LabelId l : labels) g.AddVertex(l);
  return g;
}

TEST(QueryEnginePrefilterTest, EmptyIntersectionFallsBackEvenAtKZero) {
  ServeOptions opts;
  opts.containment_prefilter = true;
  auto engine = OneShard(LabelSetIndex(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Labels {0, 4}: sup(0) ∩ sup(4) = ∅. A zero-row scan is not a narrowed
  // scan — the documented fallback must fire, also at k == 0.
  for (int k : {0, 3}) {
    ServeQueryStats stats;
    const Ranking got = engine->Query(LabelGraph({0, 4}), {.k = k}, &stats);
    EXPECT_FALSE(stats.prefiltered) << "k=" << k;
    EXPECT_EQ(stats.scanned, engine->num_graphs()) << "k=" << k;
    if (k == 0) {
      EXPECT_TRUE(got.empty());
    } else {
      EXPECT_EQ(got.size(), 3u);
    }
  }

  // A non-empty candidate set still counts as narrowed at k == 0.
  ServeQueryStats stats;
  EXPECT_TRUE(engine->Query(LabelGraph({0, 3}), {.k = 0}, &stats).empty());
  EXPECT_TRUE(stats.prefiltered);
  EXPECT_EQ(stats.scanned, 2);  // graphs {0,1,2,3} and {0,1,3}
}

TEST(QueryEngineEmptyTest, EmptyDatabaseValidatesAndServes) {
  // n = 0, p > 0: the engine must keep validating query width (the old
  // packed matrix lost its width with no rows) and serve empty rankings.
  PersistedIndex index = LabelSetIndex();
  index.db_bits.clear();
  auto engine = OneShard(index);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->num_graphs(), 0);
  EXPECT_EQ(engine->num_features(), 5);
  ServeQueryStats stats;
  EXPECT_TRUE(engine->Query(LabelGraph({0, 1}), {.k = 4}, &stats).empty());
  EXPECT_EQ(stats.scanned, 0);
  const auto batch =
      engine->QueryBatch({LabelGraph({0}), LabelGraph({2})}, {.k = 2});
  ASSERT_EQ(batch.size(), 2u);
  for (const Ranking& r : batch) EXPECT_TRUE(r.empty());

  // The empty engine is a valid insert target.
  ScopedRole writer(&engine->writer_role());
  auto id = engine->Insert(LabelGraph({0, 1}));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0);
  const Ranking got = engine->Query(LabelGraph({0, 1}), {.k = 4});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 0);
  EXPECT_DOUBLE_EQ(got[0].score, 0.0);
}

TEST(QueryEngineEmptyTest, ZeroFeatureDimension) {
  // p = 0: every fingerprint is empty and every distance is 0; ranking
  // degenerates to ascending ids. n = 0 and n > 0 both serve.
  PersistedIndex empty;  // p = 0, n = 0
  auto engine = OneShard(empty);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->Query(LabelGraph({0}), {.k = 3}).empty());

  PersistedIndex degenerate;  // p = 0, n = 2
  degenerate.db_bits = {{}, {}};
  auto engine2 = OneShard(degenerate);
  ASSERT_TRUE(engine2.ok());
  const Ranking got = engine2->Query(LabelGraph({0}), {.k = 5});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 0);
  EXPECT_EQ(got[1].id, 1);
  EXPECT_DOUBLE_EQ(got[0].score, 0.0);
}

TEST(QueryEngineMutationTest, EpochBumpsOnMutationsOnly) {
  auto engine = OneShard(LabelSetIndex());
  ASSERT_TRUE(engine.ok());
  ScopedRole writer(&engine->writer_role());
  EXPECT_EQ(engine->epoch(), 0u);

  // Queries never bump.
  engine->Query(LabelGraph({0, 1}), {.k = 3});
  EXPECT_EQ(engine->epoch(), 0u);

  auto id = engine->Insert(LabelGraph({0, 3}));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(engine->epoch(), 1u);
  ASSERT_TRUE(engine->Remove(*id).ok());
  EXPECT_EQ(engine->epoch(), 2u);

  // Failed mutations leave the engine unchanged — and the epoch with it.
  EXPECT_FALSE(engine->Remove(*id).ok());
  EXPECT_FALSE(engine->InsertMapped({1, 0}).ok());  // wrong width
  EXPECT_EQ(engine->epoch(), 2u);

  // A working Compact bumps (physical rows moved); a no-op one does not.
  engine->Compact();
  EXPECT_EQ(engine->epoch(), 3u);
  engine->Compact();
  EXPECT_EQ(engine->epoch(), 3u);
}

TEST(QueryEngineMutationTest, FreezeCapturesStateImmuneToLaterMutations) {
  auto engine = OneShard(LabelSetIndex());
  ASSERT_TRUE(engine.ok());
  ScopedRole writer(&engine->writer_role());
  ASSERT_TRUE(engine->Insert(LabelGraph({1, 2})).ok());  // delta row
  ASSERT_TRUE(engine->Remove(0).ok());
  const std::vector<int> ids_at_freeze = engine->alive_ids();
  const FrozenShardedState frozen = engine->Freeze();

  // Mutate hard after the freeze: append, remove, and compact (which
  // replaces the sealed base the capture shares).
  ASSERT_TRUE(engine->Insert(LabelGraph({0})).ok());
  ASSERT_TRUE(engine->Remove(2).ok());
  engine->Compact();

  std::vector<int> frozen_ids;
  for (const auto& [id, words] : frozen.shards[0].LiveRowWords()) {
    frozen_ids.push_back(id);
    EXPECT_NE(words, nullptr);
  }
  EXPECT_EQ(frozen_ids, ids_at_freeze);
}

TEST(QueryEngineMutationTest, TombstonesNeverSurfaceWhenKExceedsLiveCount) {
  auto engine = OneShard(LabelSetIndex());
  ASSERT_TRUE(engine.ok());
  ScopedRole writer(&engine->writer_role());
  ASSERT_TRUE(engine->Remove(0).ok());
  ASSERT_TRUE(engine->Remove(4).ok());
  // k far beyond the live count: removed rows must not pad the ranking.
  const Ranking got = engine->Query(LabelGraph({0, 1}), {.k = 100});
  EXPECT_EQ(got.size(), 5u);
  for (const RankedResult& r : got) {
    EXPECT_NE(r.id, 0);
    EXPECT_NE(r.id, 4);
  }
}

}  // namespace
}  // namespace gdim
