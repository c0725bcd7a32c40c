// Sharded serving tests: a ShardedEngine over ANY shard count must answer
// bit-identically (ids and scores) to the offline ranking over its live
// rows, and to a one-shard engine under the same mutations — through
// tie-heavy score distributions, k larger than any shard, shards emptied by
// removals, interleaved churn, and snapshot/reload cycles that change the
// shard count.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/sync.h"
#include "core/dimension.h"
#include "core/index_io.h"
#include "core/mapper.h"
#include "datasets/chemgen.h"
#include "server/sharded_engine.h"
#include "test_util.h"

namespace gdim {
namespace {

using testing_util::OfflinePrefilterTopK;
using testing_util::OfflineTopK;

ShardedOptions Sharded(int num_shards, int threads = 0,
                       bool prefilter = false) {
  ShardedOptions opts;
  opts.num_shards = num_shards;
  opts.serve.threads = threads;
  opts.serve.containment_prefilter = prefilter;
  return opts;
}

class ShardedEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ChemGenOptions gen;
    gen.num_graphs = 40;
    gen.num_families = 6;
    gen.min_vertices = 8;
    gen.max_vertices = 14;
    db_ = new GraphDatabase(GenerateChemDatabase(gen));
    // >= 64 queries so QueryBatch crosses ParallelFor's serial threshold
    // and the thread-determinism assertions actually spawn workers.
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

GraphDatabase* ShardedEngineTest::db_ = nullptr;
GraphDatabase* ShardedEngineTest::queries_ = nullptr;
PersistedIndex* ShardedEngineTest::index_ = nullptr;

TEST_F(ShardedEngineTest, AnyShardCountMatchesOfflineRankingBitForBit) {
  FeatureMapper mapper(index_->features);
  for (int shards : {1, 2, 4, 7}) {
    for (int threads : {1, 8}) {
      auto engine =
          ShardedEngine::FromIndex(*index_, Sharded(shards, threads));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ(engine->num_shards(), shards);
      EXPECT_EQ(engine->num_graphs(),
                static_cast<int>(index_->db_bits.size()));
      for (int k : {0, 3, 1000}) {
        std::vector<Ranking> expected;
        for (const Graph& q : *queries_) {
          expected.push_back(
              OfflineTopK(mapper.Map(q), index_->db_bits, {}, k));
        }
        EXPECT_EQ(engine->QueryBatch(*queries_, {.k = k}), expected)
            << "shards=" << shards << " threads=" << threads << " k=" << k;
      }
    }
  }
}

TEST_F(ShardedEngineTest, ScatterStatsAggregateAcrossShards) {
  auto engine = ShardedEngine::FromIndex(*index_, Sharded(4));
  ASSERT_TRUE(engine.ok());
  ServeQueryStats stats;
  const Ranking top = engine->Query((*queries_)[0], {.k = 5}, &stats);
  EXPECT_EQ(static_cast<int>(top.size()), 5);
  // Full scans in every shard sum to the whole database.
  EXPECT_EQ(stats.scanned, engine->num_graphs());
  EXPECT_FALSE(stats.prefiltered);
  EXPECT_GT(stats.latency_ms, 0.0);
}

TEST_F(ShardedEngineTest, InterleavedChurnStaysIdenticalToOneShard) {
  FeatureMapper mapper(index_->features);
  for (int threads : {1, 8}) {
    for (bool prefilter : {false, true}) {
      auto single =
          ShardedEngine::FromIndex(*index_, Sharded(1, threads, prefilter));
      ASSERT_TRUE(single.ok());
      auto sharded = ShardedEngine::FromIndex(
          *index_, Sharded(4, threads, prefilter));
      ASSERT_TRUE(sharded.ok());
      // This test body is both engines' single writer.
      ScopedRole single_writer(&single->writer_role());
      ScopedRole sharded_writer(&sharded->writer_role());

      // Identical mutation script against both engines and a shadow of
      // the live rows: the sharded id sequence must mirror the one-shard
      // engine's exactly.
      std::vector<int> live_ids;
      std::vector<std::vector<uint8_t>> live_rows = index_->db_bits;
      for (int i = 0; i < static_cast<int>(live_rows.size()); ++i) {
        live_ids.push_back(i);
      }
      const auto shadow_remove = [&](int id) {
        const auto it = std::find(live_ids.begin(), live_ids.end(), id);
        ASSERT_NE(it, live_ids.end());
        live_rows.erase(live_rows.begin() + (it - live_ids.begin()));
        live_ids.erase(it);
      };
      for (int id : {1, 5, 19, 38}) {
        ASSERT_TRUE(single->Remove(id).ok());
        ASSERT_TRUE(sharded->Remove(id).ok());
        shadow_remove(id);
      }
      for (int i = 0; i < 10; ++i) {
        const Graph& g = (*queries_)[static_cast<size_t>(i)];
        auto single_id = single->Insert(g);
        auto sharded_id = sharded->Insert(g);
        ASSERT_TRUE(single_id.ok());
        ASSERT_TRUE(sharded_id.ok());
        EXPECT_EQ(*single_id, *sharded_id);
        live_ids.push_back(*sharded_id);
        live_rows.push_back(mapper.Map(g));
      }
      sharded->Compact();
      single->Compact();
      for (int id : {0, 2, 40, 44}) {  // 40/44 were inserted above
        ASSERT_TRUE(single->Remove(id).ok());
        ASSERT_TRUE(sharded->Remove(id).ok());
        shadow_remove(id);
      }
      EXPECT_EQ(sharded->Remove(5).code(), StatusCode::kNotFound);  // twice
      EXPECT_EQ(sharded->Remove(-3).code(), StatusCode::kNotFound);
      EXPECT_EQ(sharded->Remove(9999).code(), StatusCode::kNotFound);

      EXPECT_EQ(sharded->alive_ids(), single->alive_ids());
      EXPECT_EQ(sharded->alive_ids(), live_ids);
      EXPECT_EQ(sharded->num_graphs(), single->num_graphs());
      for (int k : {0, 3, 1000}) {
        std::vector<Ranking> expected;
        for (const Graph& q : *queries_) {
          const std::vector<uint8_t> fp = mapper.Map(q);
          expected.push_back(
              prefilter ? OfflinePrefilterTopK(fp, live_rows, live_ids, k)
                        : OfflineTopK(fp, live_rows, live_ids, k));
        }
        const std::vector<Ranking> got =
            sharded->QueryBatch(*queries_, {.k = k});
        EXPECT_EQ(got, single->QueryBatch(*queries_, {.k = k}))
            << "threads=" << threads << " prefilter=" << prefilter
            << " k=" << k;
        EXPECT_EQ(got, expected) << "threads=" << threads
                                 << " prefilter=" << prefilter << " k=" << k;
      }
    }
  }
}

TEST_F(ShardedEngineTest, SnapshotReloadsUnderAnyShardCount) {
  auto sharded = ShardedEngine::FromIndex(*index_, Sharded(4));
  ASSERT_TRUE(sharded.ok());
  ScopedRole writer(&sharded->writer_role());
  for (int id : {0, 7, 13}) ASSERT_TRUE(sharded->Remove(id).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sharded->Insert((*queries_)[static_cast<size_t>(i)]).ok());
  }
  const std::string path =
      ::testing::TempDir() + "/gdim_sharded_snapshot.idx2";
  ASSERT_TRUE(sharded->Snapshot(path).ok());

  const std::vector<Ranking> expected =
      sharded->QueryBatch(*queries_, {.k = 6});
  const std::vector<int> expected_ids = sharded->alive_ids();
  // The snapshot is shard-count independent: reload as one shard and as
  // engines of other counts, all bit-identical.
  for (int shards : {1, 2, 7}) {
    auto reloaded = ShardedEngine::Open(path, Sharded(shards));
    ASSERT_TRUE(reloaded.ok());
    ScopedRole reloaded_writer(&reloaded->writer_role());
    EXPECT_EQ(reloaded->alive_ids(), expected_ids);
    EXPECT_EQ(reloaded->QueryBatch(*queries_, {.k = 6}), expected)
        << "shards=" << shards;
    // The persisted id counter survives: the next insert gets the same id
    // everywhere, never a re-issued one.
    auto id = reloaded->Insert((*queries_)[9]);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, 45);  // 40 initial + 5 inserted, removals don't recycle
  }
}

TEST_F(ShardedEngineTest, RejectsBadShardCountsAndBadIds) {
  EXPECT_FALSE(ShardedEngine::FromIndex(*index_, Sharded(0)).ok());
  EXPECT_FALSE(ShardedEngine::FromIndex(*index_, Sharded(-2)).ok());
  EXPECT_EQ(ShardedEngine::FromIndex(*index_, Sharded(0)).status().code(),
            StatusCode::kInvalidArgument);

  PersistedIndex bad = *index_;
  bad.ids.resize(bad.db_bits.size());
  for (size_t i = 0; i < bad.ids.size(); ++i) {
    bad.ids[i] = static_cast<int>(bad.ids.size() - i);  // descending
  }
  EXPECT_EQ(ShardedEngine::FromIndex(std::move(bad), Sharded(2))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Controlled-index tests: single-vertex features make fingerprints exact
// label sets, so tie structure and shard occupancy are fully scripted.

/// p single-vertex features; each row is one of a handful of patterns, so
/// scores collapse onto very few distinct values (maximal tie pressure on
/// the merge).
PersistedIndex TieHeavyIndex(int rows) {
  const int kLabels = 6;
  PersistedIndex index;
  for (LabelId r = 0; r < kLabels; ++r) {
    Graph f;
    f.AddVertex(r);
    index.features.push_back(f);
  }
  const std::vector<std::vector<uint8_t>> patterns = {
      {1, 1, 0, 0, 0, 0}, {0, 0, 1, 1, 0, 0}, {1, 0, 1, 0, 1, 0},
      {0, 1, 0, 1, 0, 1},
  };
  for (int i = 0; i < rows; ++i) {
    index.db_bits.push_back(patterns[static_cast<size_t>(i) %
                                     patterns.size()]);
  }
  return index;
}

TEST(ShardedEngineTieTest, TieHeavyMergePreservesIdOrder) {
  const PersistedIndex index = TieHeavyIndex(40);
  const std::vector<std::vector<uint8_t>> probes = {
      {1, 1, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}, {1, 1, 1, 1, 1, 1},
      {1, 0, 0, 0, 0, 1},
  };
  for (int shards : {1, 2, 4, 7}) {
    for (int threads : {1, 8}) {
      auto engine =
          ShardedEngine::FromIndex(index, Sharded(shards, threads));
      ASSERT_TRUE(engine.ok());
      for (const auto& probe : probes) {
        for (int k : {1, 5, 39, 40, 100}) {
          EXPECT_EQ(engine->QueryMapped(probe, {.k = k}),
                    OfflineTopK(probe, index.db_bits, {}, k))
              << "shards=" << shards << " threads=" << threads
              << " k=" << k;
        }
      }
    }
  }
}

TEST(ShardedEngineTieTest, KLargerThanAnyShardsLiveRows) {
  const PersistedIndex index = TieHeavyIndex(10);
  // 7 shards over 10 rows: every shard holds 1-2 rows, far below k.
  auto engine = ShardedEngine::FromIndex(index, Sharded(7));
  ASSERT_TRUE(engine.ok());
  const std::vector<uint8_t> probe = {1, 0, 1, 0, 0, 0};
  for (int k : {8, 10, 50}) {
    const Ranking got = engine->QueryMapped(probe, {.k = k});
    EXPECT_EQ(got, OfflineTopK(probe, index.db_bits, {}, k)) << "k=" << k;
    EXPECT_EQ(got.size(), std::min<size_t>(static_cast<size_t>(k), 10u));
  }
}

TEST(ShardedEngineTieTest, ShardsEmptiedByRemovalsStillMerge) {
  const PersistedIndex index = TieHeavyIndex(12);
  auto single = ShardedEngine::FromIndex(index, Sharded(1));
  auto engine = ShardedEngine::FromIndex(index, Sharded(4));
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(engine.ok());
  ScopedRole single_writer(&single->writer_role());
  ScopedRole engine_writer(&engine->writer_role());
  // Remove every id ≡ 1 and ≡ 2 (mod 4): shards 1 and 2 end up empty.
  std::vector<int> live_ids;
  std::vector<std::vector<uint8_t>> live_rows;
  for (int id = 0; id < 12; ++id) {
    if (id % 4 == 1 || id % 4 == 2) {
      ASSERT_TRUE(single->Remove(id).ok());
      ASSERT_TRUE(engine->Remove(id).ok());
    } else {
      live_ids.push_back(id);
      live_rows.push_back(index.db_bits[static_cast<size_t>(id)]);
    }
  }
  EXPECT_EQ(engine->shard(1).num_graphs(), 0);
  EXPECT_EQ(engine->shard(2).num_graphs(), 0);
  const std::vector<uint8_t> probe = {0, 1, 1, 0, 0, 0};
  for (int k : {3, 6, 12}) {
    const Ranking got = engine->QueryMapped(probe, {.k = k});
    EXPECT_EQ(got, single->QueryMapped(probe, {.k = k})) << "k=" << k;
    EXPECT_EQ(got, OfflineTopK(probe, live_rows, live_ids, k)) << "k=" << k;
  }

  // Empty the database entirely: queries answer cleanly with nothing.
  for (int id = 0; id < 12; ++id) {
    if (id % 4 == 0 || id % 4 == 3) {
      ASSERT_TRUE(engine->Remove(id).ok());
    }
  }
  EXPECT_EQ(engine->num_graphs(), 0);
  EXPECT_TRUE(engine->QueryMapped(probe, {.k = 5}).empty());
  engine->Compact();
  EXPECT_TRUE(engine->QueryMapped(probe, {.k = 5}).empty());
}

TEST(ShardedEngineTieTest, EpochSumsShardMutationsAndFreezeIsStable) {
  const PersistedIndex index = TieHeavyIndex(12);
  auto engine = ShardedEngine::FromIndex(index, Sharded(4));
  ASSERT_TRUE(engine.ok());
  ScopedRole writer(&engine->writer_role());
  EXPECT_EQ(engine->epoch(), 0u);
  const std::vector<uint8_t> probe = {1, 0, 1, 0, 0, 0};
  engine->QueryMapped(probe, {.k = 5});
  EXPECT_EQ(engine->epoch(), 0u);  // queries never bump

  const std::vector<uint8_t> row = {1, 1, 0, 0, 0, 0};
  ASSERT_TRUE(engine->InsertMapped(row).ok());
  EXPECT_EQ(engine->epoch(), 1u);
  ASSERT_TRUE(engine->Remove(3).ok());
  EXPECT_EQ(engine->epoch(), 2u);
  EXPECT_FALSE(engine->Remove(3).ok());  // failed ops leave it alone
  EXPECT_EQ(engine->epoch(), 2u);
  // Compact bumps once per shard that did work; monotonic either way.
  engine->Compact();
  EXPECT_GT(engine->epoch(), 2u);
  const uint64_t settled = engine->epoch();
  engine->Compact();  // global no-op
  EXPECT_EQ(engine->epoch(), settled);

  // Freeze + WriteSnapshot equals the synchronous snapshot bit for bit,
  // and the capture survives mutations applied after it.
  const FrozenShardedState frozen = engine->Freeze();
  EXPECT_EQ(frozen.epoch, settled);
  ASSERT_TRUE(engine->InsertMapped(row).ok());
  ASSERT_TRUE(engine->Remove(0).ok());
  engine->Compact();
  const std::string from_frozen =
      ::testing::TempDir() + "/gdim_frozen_snap.idx2";
  ASSERT_TRUE(ShardedEngine::WriteSnapshot(frozen, from_frozen).ok());
  auto reloaded = ShardedEngine::Open(from_frozen);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  std::vector<int> frozen_ids;
  for (const FrozenEngineState& shard : frozen.shards) {
    for (const auto& [id, words] : shard.LiveRowWords()) {
      (void)words;
      frozen_ids.push_back(id);
    }
  }
  std::sort(frozen_ids.begin(), frozen_ids.end());
  EXPECT_EQ(reloaded->alive_ids(), frozen_ids);
  for (int k : {1, 6, 20}) {
    // The reloaded capture answers like the engine did at freeze time: it
    // must still contain id 0 (removed after) and not the second insert.
    const Ranking got = reloaded->QueryMapped(probe, {.k = k});
    for (const RankedResult& r : got) EXPECT_NE(r.id, 13);
  }
}

TEST(ShardedEngineTieTest, ToPersistedIndexRoundTripsThroughOneShard) {
  const PersistedIndex index = TieHeavyIndex(12);
  auto engine = ShardedEngine::FromIndex(index, Sharded(3));
  ASSERT_TRUE(engine.ok());
  ScopedRole writer(&engine->writer_role());
  ASSERT_TRUE(engine->Remove(4).ok());
  const std::vector<uint8_t> row = {1, 1, 1, 0, 0, 0};
  ASSERT_TRUE(engine->InsertMapped(row).ok());

  auto rebuilt = ShardedEngine::FromIndex(engine->ToPersistedIndex());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(rebuilt->alive_ids(), engine->alive_ids());
  const std::vector<uint8_t> probe = {1, 1, 0, 0, 0, 1};
  for (int k : {1, 6, 20}) {
    EXPECT_EQ(rebuilt->QueryMapped(probe, {.k = k}),
              engine->QueryMapped(probe, {.k = k}));
  }
}

// ---------------------------------------------------------------------------
// Mixed tiles: one QueryMappedBatch whose tiles hold narrowed prefilter
// queries next to every fallback case, and the same batch in MODE=approx.
// Each query's answer and scan stats must equal a batch of one.

/// A random label-set row for MixedTileIndex: features 0–5 each w.p. 1/2,
/// feature 6 always, feature 7 never.
std::vector<uint8_t> MixedTileRow(Rng* rng) {
  std::vector<uint8_t> row(8, 0);
  for (size_t r = 0; r < 6; ++r) row[r] = rng->Bernoulli(0.5) ? 1 : 0;
  row[6] = 1;
  return row;
}

/// Label-set index over 8 single-vertex features: feature 6 is in every
/// row and feature 7 in none; row 0 holds features 0–6, the rest random.
PersistedIndex MixedTileIndex(Rng* rng) {
  PersistedIndex index;
  for (LabelId r = 0; r < 8; ++r) {
    Graph f;
    f.AddVertex(r);
    index.features.push_back(f);
  }
  index.db_bits.push_back({1, 1, 1, 1, 1, 1, 1, 0});
  for (int i = 1; i < 90; ++i) index.db_bits.push_back(MixedTileRow(rng));
  return index;
}

TEST(ShardedEngineMixedTileTest, EveryQueryEqualsItsBatchOfOne) {
  constexpr int kTopK = 3;
  Rng rng(31);
  const PersistedIndex index = MixedTileIndex(&rng);
  // The stage-2 cases, cycled through the batch so every tile mixes them.
  const std::vector<std::vector<uint8_t>> cases = {
      {1, 0, 0, 0, 0, 0, 0, 0},  // narrowed: about half the rows
      {1, 0, 0, 0, 0, 0, 0, 1},  // empty intersection: nobody has 7
      {1, 1, 1, 1, 1, 1, 0, 0},  // fewer than k: row 0 and few others
      {0, 0, 0, 0, 0, 0, 1, 0},  // every live row has feature 6
      {0, 0, 0, 0, 0, 0, 0, 0},  // no set bit: no intersection at all
      {0, 1, 1, 0, 0, 0, 0, 0},  // narrowed
  };
  std::vector<std::vector<uint8_t>> batch;
  for (int i = 0; i < 17; ++i) {
    batch.push_back(cases[static_cast<size_t>(i) % cases.size()]);
  }
  // 520 queries make 65 tiles, enough for ParallelFor to spawn workers.
  std::vector<std::vector<uint8_t>> large;
  for (int i = 0; i < 520; ++i) {
    large.push_back(i % 3 == 0 ? cases[static_cast<size_t>(i) % cases.size()]
                               : MixedTileRow(&rng));
  }

  for (int shards : {1, 2, 3}) {
    for (int threads : {1, 8}) {
      auto engine =
          ShardedEngine::FromIndex(index, Sharded(shards, threads, true));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      // Churn, compact, churn again: tombstones and delta rows in the
      // scanned state, and buckets with appended rows.
      {
        ScopedRole writer(&engine->writer_role());
        for (int id : {3, 8, 21, 40}) ASSERT_TRUE(engine->Remove(id).ok());
        Rng churn(7);
        for (int i = 0; i < 12; ++i) {
          ASSERT_TRUE(engine->InsertMapped(MixedTileRow(&churn)).ok());
        }
        engine->Compact();
        for (int id : {5, 50, 93}) ASSERT_TRUE(engine->Remove(id).ok());
        for (int i = 0; i < 6; ++i) {
          ASSERT_TRUE(engine->InsertMapped(MixedTileRow(&churn)).ok());
        }
      }
      ASSERT_GT(engine->tombstoned_rows(), 0);
      const PersistedIndex live = engine->ToPersistedIndex();
      // The fallback cases hold on the churned live set: no candidate, at
      // least one but fewer than k, and every live row.
      const auto containing = [&live](const std::vector<uint8_t>& query) {
        int n = 0;
        for (const std::vector<uint8_t>& row : live.db_bits) {
          bool all = true;
          for (size_t r = 0; r < query.size(); ++r) {
            all = all && (query[r] == 0 || row[r] != 0);
          }
          n += all ? 1 : 0;
        }
        return n;
      };
      EXPECT_EQ(containing(cases[1]), 0);
      EXPECT_GE(containing(cases[2]), 1);
      EXPECT_LT(containing(cases[2]), kTopK);
      EXPECT_EQ(containing(cases[3]), engine->num_graphs());

      const QueryOptions exact{.k = kTopK};
      const QueryOptions approx{.k = kTopK, .scan_mode = ScanMode::kApprox};
      for (const QueryOptions& options : {exact, approx}) {
        const bool is_approx = options.scan_mode == ScanMode::kApprox;
        for (size_t size : {1, 7, 8, 9, 17, 520}) {
          const std::vector<std::vector<uint8_t>> fps =
              size <= batch.size()
                  ? std::vector<std::vector<uint8_t>>(
                        batch.begin(),
                        batch.begin() + static_cast<std::ptrdiff_t>(size))
                  : large;
          std::vector<ServeQueryStats> stats;
          const std::vector<Ranking> got =
              engine->QueryMappedBatch(fps, options, nullptr, &stats);
          ASSERT_EQ(got.size(), fps.size());
          ASSERT_EQ(stats.size(), fps.size());
          for (size_t q = 0; q < fps.size(); ++q) {
            const std::string where =
                "shards=" + std::to_string(shards) +
                " threads=" + std::to_string(threads) +
                " approx=" + std::to_string(is_approx) +
                " size=" + std::to_string(size) + " q=" + std::to_string(q);
            ServeQueryStats one;
            EXPECT_EQ(got[q], engine->QueryMapped(fps[q], options, &one))
                << where;
            EXPECT_EQ(stats[q].scanned, one.scanned) << where;
            EXPECT_EQ(stats[q].prefiltered, one.prefiltered) << where;
            EXPECT_EQ(stats[q].approx, one.approx) << where;
            EXPECT_EQ(stats[q].rows_pruned, one.rows_pruned) << where;
            EXPECT_EQ(stats[q].approx, is_approx) << where;
            if (is_approx) continue;
            bool narrowed = false;
            EXPECT_EQ(got[q], OfflinePrefilterTopK(fps[q], live.db_bits,
                                                   live.ids, kTopK, &narrowed))
                << where;
            EXPECT_EQ(stats[q].prefiltered, narrowed) << where;
            if (size <= batch.size()) {
              // The scripted cases: only the narrowing ones narrow.
              const size_t c = q % cases.size();
              EXPECT_EQ(narrowed, c == 0 || c == 5) << where;
            }
          }
        }
      }
      // NPROBE=all prunes nothing: bit-identical to the exact full scan.
      EXPECT_EQ(engine->QueryMappedBatch(
                    large, {.k = kTopK,
                            .scan_mode = ScanMode::kApprox,
                            .nprobe = kNprobeAll}),
                engine->QueryMappedBatch(
                    large, {.k = kTopK, .scan_mode = ScanMode::kFull}))
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace gdim
