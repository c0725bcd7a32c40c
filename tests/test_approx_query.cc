// Serving-level guarantees of MODE=approx (the IVF candidate-pruning
// path):
//
//  - NPROBE=all is bit-identical to a forced full scan — probing every
//    bucket prunes nothing, and the candidate path scores through the same
//    kernels and the same (score, id) total order.
//  - Incremental maintenance preserves that identity: after any
//    insert/remove/compact churn, a churned engine, a fresh engine built
//    from its live state, and a full scan all agree, across shard counts
//    {1, 4} x thread counts {1, 8}.
//  - At the default probe width on a clustered corpus, approx answers keep
//    recall@10 >= 0.9 against exact while scanning under a quarter of the
//    live rows — the CI gate's in-process twin (bench/approx_workload.cc
//    proves the same at 50k rows).
//  - A generation swap rebuilds every shard's IVF index from the new
//    generation's fingerprints: zero stale-bucket hits, proven by
//    bit-comparison against a from-scratch engine at every probe width.
//  - The BatchExecutor publishes approx scan work (approx_queries,
//    approx_candidates_scanned, approx_rows_pruned) and keys its result
//    cache on nprobe, so different probe depths never share an entry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/sync.h"
#include "core/index_io.h"
#include "core/objective.h"
#include "core/packed_bits.h"
#include "core/topk.h"
#include "graph/graph.h"
#include "serve/query_engine.h"
#include "server/batch_executor.h"
#include "server/sharded_engine.h"

namespace gdim {
namespace {

constexpr int kFeatures = 24;
constexpr int kClusters = 8;
constexpr int kRows = 400;
constexpr int kTopK = 10;

/// Single-vertex features (labels 0..p-1): a graph's fingerprint is exactly
/// its vertex-label set, so tests can reason in raw bit vectors.
GraphDatabase LabelFeatures() {
  GraphDatabase features;
  for (LabelId r = 0; r < kFeatures; ++r) {
    Graph f;
    f.AddVertex(r);
    features.push_back(f);
  }
  return features;
}

/// The graph whose fingerprint equals `bits` under LabelFeatures().
Graph GraphForBits(const std::vector<uint8_t>& bits) {
  Graph g;
  for (size_t r = 0; r < bits.size(); ++r) {
    if (bits[r] != 0) g.AddVertex(static_cast<LabelId>(r));
  }
  return g;
}

std::vector<uint8_t> RandomBits(Rng* rng) {
  std::vector<uint8_t> bits(kFeatures);
  for (auto& bit : bits) bit = rng->UniformU64(2) != 0 ? 1 : 0;
  return bits;
}

/// `base` with each bit flipped with probability 1/denominator — the
/// cluster structure IVF exploits (uniform random bits have none).
std::vector<uint8_t> Perturb(const std::vector<uint8_t>& base,
                             uint64_t denominator, Rng* rng) {
  std::vector<uint8_t> bits = base;
  for (auto& bit : bits) {
    if (rng->UniformU64(denominator) == 0) bit = bit != 0 ? 0 : 1;
  }
  return bits;
}

/// A clustered corpus: kClusters prototypes, kRows rows scattered around
/// them with light per-bit noise.
struct Corpus {
  std::vector<std::vector<uint8_t>> prototypes;
  std::vector<std::vector<uint8_t>> rows;
};

Corpus ClusteredCorpus(uint64_t seed) {
  Rng rng(seed);
  Corpus corpus;
  for (int c = 0; c < kClusters; ++c) {
    corpus.prototypes.push_back(RandomBits(&rng));
  }
  for (int i = 0; i < kRows; ++i) {
    const auto& proto =
        corpus.prototypes[rng.UniformU64(kClusters)];
    corpus.rows.push_back(Perturb(proto, /*denominator=*/12, &rng));
  }
  return corpus;
}

PersistedIndex IndexFor(const std::vector<std::vector<uint8_t>>& rows) {
  PersistedIndex index;
  index.features = LabelFeatures();
  index.db_bits = rows;
  return index;
}

ShardedOptions Sharded(int num_shards, int threads = 0) {
  ShardedOptions opts;
  opts.num_shards = num_shards;
  opts.serve.threads = threads;
  return opts;
}

TEST(ApproxQueryTest, NprobeAllIsBitIdenticalToFullScan) {
  const Corpus corpus = ClusteredCorpus(/*seed=*/11);
  const PersistedIndex index = IndexFor(corpus.rows);
  Rng rng(12);
  for (int shards : {1, 4}) {
    auto engine = ShardedEngine::FromIndex(index, Sharded(shards));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (int q = 0; q < 20; ++q) {
      const std::vector<uint8_t> query =
          Perturb(corpus.prototypes[static_cast<size_t>(q % kClusters)],
                  /*denominator=*/10, &rng);
      ServeQueryStats approx_stats;
      const Ranking approx = engine->QueryMapped(
          query, {.k = kTopK, .scan_mode = ScanMode::kApprox,
                  .nprobe = kNprobeAll},
          &approx_stats);
      const Ranking full = engine->QueryMapped(
          query, {.k = kTopK, .scan_mode = ScanMode::kFull});
      EXPECT_EQ(approx, full) << "shards=" << shards << " q=" << q;
      EXPECT_TRUE(approx_stats.approx);
      EXPECT_EQ(approx_stats.rows_pruned, 0);
    }
  }
}

TEST(ApproxQueryTest, DefaultNprobeKeepsRecallWhilePruning) {
  const Corpus corpus = ClusteredCorpus(/*seed=*/13);
  const PersistedIndex index = IndexFor(corpus.rows);
  auto engine = ShardedEngine::FromIndex(index, Sharded(1));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Rng rng(14);
  double recall_sum = 0.0;
  long long scanned = 0;
  const int num_queries = 40;
  for (int q = 0; q < num_queries; ++q) {
    const std::vector<uint8_t> query =
        Perturb(corpus.prototypes[static_cast<size_t>(q % kClusters)],
                /*denominator=*/10, &rng);
    ServeQueryStats stats;
    const Ranking approx = engine->QueryMapped(
        query, {.k = kTopK, .scan_mode = ScanMode::kApprox}, &stats);
    const Ranking exact = engine->QueryMapped(
        query, {.k = kTopK, .scan_mode = ScanMode::kFull});
    std::set<int> exact_ids;
    for (const RankedResult& r : exact) exact_ids.insert(r.id);
    int hits = 0;
    for (const RankedResult& r : approx) {
      hits += exact_ids.count(r.id) != 0 ? 1 : 0;
    }
    recall_sum += static_cast<double>(hits) /
                  static_cast<double>(exact.size());
    scanned += stats.scanned;
    EXPECT_TRUE(stats.approx);
    EXPECT_EQ(stats.rows_pruned + stats.scanned, kRows);
  }
  EXPECT_GE(recall_sum / num_queries, 0.9);
  // The default probe width (an eighth of the buckets) must scan well
  // under a quarter of the rows — the ISSUE's pruning acceptance bound.
  EXPECT_LT(scanned, static_cast<long long>(num_queries) * kRows / 4);
}

TEST(ApproxQueryTest, MaintenanceChurnPreservesNprobeAllIdentity) {
  const Corpus corpus = ClusteredCorpus(/*seed=*/15);
  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      auto churned = ShardedEngine::FromIndex(IndexFor(corpus.rows),
                                              Sharded(shards, threads));
      ASSERT_TRUE(churned.ok()) << churned.status().ToString();
      ScopedRole writer(&churned->writer_role());
      Rng rng(16);
      // Interleaved churn: inserts into every shard, removals across the
      // id space, a mid-stream compaction, then more of both.
      for (int step = 0; step < 120; ++step) {
        const uint64_t coin = rng.UniformU64(3);
        if (coin == 0) {
          auto inserted =
              churned->InsertMapped(Perturb(
                  corpus.prototypes[rng.UniformU64(kClusters)],
                  /*denominator=*/12, &rng));
          ASSERT_TRUE(inserted.ok());
        } else if (coin == 1) {
          const std::vector<int> alive = churned->alive_ids();
          if (!alive.empty()) {
            ASSERT_TRUE(
                churned->Remove(alive[rng.UniformU64(alive.size())]).ok());
          }
        } else if (step == 60) {
          churned->Compact();
        }
      }
      churned->Compact();
      // A fresh engine over the churned live state: its IVF index is a
      // from-scratch clustering, the churned one is Build + AddRow +
      // LayOut — at NPROBE=all both degrade to the full live set, so
      // every query must agree bit for bit (and with the full scan).
      auto fresh = ShardedEngine::FromIndex(churned->ToPersistedIndex(),
                                            Sharded(shards, threads));
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      for (int q = 0; q < 15; ++q) {
        const std::vector<uint8_t> query =
            Perturb(corpus.prototypes[static_cast<size_t>(q % kClusters)],
                    /*denominator=*/10, &rng);
        const QueryOptions approx_all{.k = kTopK,
                                      .scan_mode = ScanMode::kApprox,
                                      .nprobe = kNprobeAll};
        const Ranking churned_approx =
            churned->QueryMapped(query, approx_all);
        EXPECT_EQ(churned_approx, fresh->QueryMapped(query, approx_all));
        EXPECT_EQ(churned_approx,
                  churned->QueryMapped(
                      query, {.k = kTopK, .scan_mode = ScanMode::kFull}));
      }
    }
  }
}

/// The reference answer over a persisted live state: byte-vector scores
/// for every row, the full RankByScores order, rows outside `allowed`
/// (when given) dropped, then the first k, with external ids.
Ranking ReferenceTopK(const PersistedIndex& live,
                      const std::vector<uint8_t>& query,
                      const std::set<int>* allowed, int k) {
  std::vector<double> scores;
  for (const auto& row : live.db_bits) {
    scores.push_back(BinaryMappedDistance(query, row));
  }
  Ranking kept;
  for (RankedResult r : RankByScores(scores)) {
    r.id = live.ids[static_cast<size_t>(r.id)];
    if (allowed == nullptr || allowed->count(r.id) != 0) kept.push_back(r);
  }
  return TopK(kept, k);
}

/// The ids a default-width MODE=approx query may return: the union over
/// shards of each shard's live probe pool, lifted to external ids through
/// the frozen row-id column.
std::set<int> ApproxPoolIds(const ShardedEngine& engine,
                            const FrozenShardedState& frozen,
                            const std::vector<uint8_t>& query) {
  std::set<int> ids;
  for (int s = 0; s < engine.num_shards(); ++s) {
    const FrozenEngineState& shard = frozen.shards[static_cast<size_t>(s)];
    std::vector<uint64_t> packed = PackedBitMatrix::PackBits(query);
    packed.resize(frozen.words_per_row, 0);
    const int nprobe = engine.shard(s).ivf_index().default_nprobe();
    for (const int row : shard.ivf.Probe(packed, nprobe, shard.tombstones)) {
      ids.insert(shard.row_ids[static_cast<size_t>(row)]);
    }
  }
  return ids;
}

/// The bucket layout of every shard: the ranges tile [0, base_rows) in
/// bucket order, appended rows lie in the delta, and every physical row
/// (tombstoned ones until Compact) sits in exactly one range or append
/// list.
void ExpectBucketLayout(const ShardedEngine& engine) {
  for (int s = 0; s < engine.num_shards(); ++s) {
    SCOPED_TRACE("shard=" + std::to_string(s));
    const QueryEngine& shard = engine.shard(s);
    const IvfIndex& ivf = shard.ivf_index();
    const int base = shard.base_rows();
    const int total = base + shard.delta_rows();
    std::vector<int> seen(static_cast<size_t>(total), 0);
    int next = 0;
    for (int b = 0; b < ivf.num_buckets(); ++b) {
      const IvfBucket& bucket = ivf.posting(b);
      ASSERT_EQ(bucket.begin, next) << "bucket " << b;
      ASSERT_LE(bucket.begin, bucket.end) << "bucket " << b;
      next = bucket.end;
      ASSERT_LE(next, base) << "bucket " << b;
      for (int row = bucket.begin; row < bucket.end; ++row) {
        ++seen[static_cast<size_t>(row)];
      }
      for (const int row : bucket.appended) {
        ASSERT_GE(row, base);
        ASSERT_LT(row, total);
        ++seen[static_cast<size_t>(row)];
      }
    }
    EXPECT_EQ(next, base);
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), total);
  }
}

// Every stage-3 candidate source selects through the fused integer top-k:
// after random insert/remove/compact churn (tombstones left in base and
// delta), each must equal the reference ranking over the live rows — the
// full scan, NPROBE=all (also bit-identical to the full scan), the default
// probe width (restricted to the probed pool), the containment prefilter
// (restricted to the candidates when it narrows), and the tiled scan at
// every tile width. Every Compact must leave the buckets tiling the base.
// A v3 snapshot of the churned engine, reloaded (a fresh bucket layout
// from the adopted IVF), must pass the same checks and answer like the
// live engine.
TEST(ApproxQueryTest, FusedSelectionMatchesReferenceUnderChurn) {
  const Corpus corpus = ClusteredCorpus(/*seed=*/31);
  const std::string path =
      ::testing::TempDir() + "/gdim_approx_churn_snapshot.idx3";
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedOptions opts = Sharded(shards);
    opts.serve.containment_prefilter = true;
    auto engine = ShardedEngine::FromIndex(IndexFor(corpus.rows), opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ScopedRole writer(&engine->writer_role());
    ExpectBucketLayout(*engine);
    Rng rng(32);
    int narrowed = 0;
    int compactions = 0;

    // Checks one engine (frozen as `frozen`) against the reference over
    // `live`; returns the answers in check order, so two engines can be
    // compared query for query.
    const auto check = [&](const ShardedEngine& e,
                           const FrozenShardedState& frozen,
                           const PersistedIndex& live,
                           const std::vector<std::vector<uint8_t>>& queries) {
      std::vector<Ranking> answers;
      for (const int k : {1, kTopK, 1000}) {
        for (const std::vector<uint8_t>& query : queries) {
          const Ranking full = ReferenceTopK(live, query, nullptr, k);
          answers.push_back(
              e.QueryMapped(query, {.k = k, .scan_mode = ScanMode::kFull}));
          EXPECT_EQ(answers.back(), full);
          answers.push_back(e.QueryMapped(query,
                                          {.k = k,
                                           .scan_mode = ScanMode::kApprox,
                                           .nprobe = kNprobeAll}));
          EXPECT_EQ(answers.back(), full);
          const std::set<int> pool = ApproxPoolIds(e, frozen, query);
          answers.push_back(e.QueryMapped(
              query, {.k = k, .scan_mode = ScanMode::kApprox}));
          EXPECT_EQ(answers.back(), ReferenceTopK(live, query, &pool, k));

          std::set<int> contains_all;
          int features_on = 0;
          for (const uint8_t bit : query) features_on += bit;
          for (size_t i = 0; i < live.db_bits.size(); ++i) {
            bool all = true;
            for (size_t r = 0; r < query.size(); ++r) {
              if (query[r] != 0 && live.db_bits[i][r] == 0) all = false;
            }
            if (all) contains_all.insert(live.ids[i]);
          }
          const int candidates = static_cast<int>(contains_all.size());
          const bool narrows = features_on > 0 && candidates > 0 &&
                               candidates >= k &&
                               candidates < e.num_graphs();
          ServeQueryStats stats;
          answers.push_back(e.QueryMapped(query, {.k = k}, &stats));
          EXPECT_EQ(answers.back(),
                    ReferenceTopK(live, query,
                                  narrows ? &contains_all : nullptr, k));
          EXPECT_EQ(stats.prefiltered, narrows);
          narrowed += narrows ? 1 : 0;
        }
        // The tiled scan, per shard against the shard's own live rows (the
        // ids it owns, id % shards == s), full and at NPROBE=all.
        for (int s = 0; s < e.num_shards(); ++s) {
          const QueryEngine& shard = e.shard(s);
          PersistedIndex shard_live;
          for (size_t i = 0; i < live.ids.size(); ++i) {
            if (live.ids[i] % e.num_shards() != s) continue;
            shard_live.ids.push_back(live.ids[i]);
            shard_live.db_bits.push_back(live.db_bits[i]);
          }
          EXPECT_EQ(shard_live.ids, shard.alive_ids());
          for (int width = 1; width <= 8; ++width) {
            for (const QueryOptions& options :
                 {QueryOptions{.k = k, .scan_mode = ScanMode::kFull},
                  QueryOptions{.k = k,
                               .scan_mode = ScanMode::kApprox,
                               .nprobe = kNprobeAll}}) {
              const std::vector<Ranking> tiled =
                  shard.QueryMappedTile(queries.data(), width, options);
              for (int q = 0; q < width; ++q) {
                EXPECT_EQ(tiled[static_cast<size_t>(q)],
                          ReferenceTopK(shard_live,
                                        queries[static_cast<size_t>(q)],
                                        nullptr, k))
                    << "shard=" << s << " width=" << width << " q=" << q;
              }
            }
          }
        }
      }
      return answers;
    };

    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE("round=" + std::to_string(round));
      for (int step = 0; step < 60; ++step) {
        const uint64_t coin = rng.UniformU64(20);
        if (coin < 9) {
          ASSERT_TRUE(engine
                          ->InsertMapped(Perturb(
                              corpus.prototypes[rng.UniformU64(kClusters)],
                              /*denominator=*/12, &rng))
                          .ok());
        } else if (coin < 19) {
          const std::vector<int> alive = engine->alive_ids();
          ASSERT_FALSE(alive.empty());
          ASSERT_TRUE(
              engine->Remove(alive[rng.UniformU64(alive.size())]).ok());
        } else {
          engine->Compact();
          ++compactions;
          ExpectBucketLayout(*engine);
          EXPECT_EQ(engine->physical_rows(), engine->num_graphs());
        }
      }
      ASSERT_GT(engine->tombstoned_rows(), 0);
      ExpectBucketLayout(*engine);
      const PersistedIndex live = engine->ToPersistedIndex();
      std::vector<std::vector<uint8_t>> queries;
      for (int q = 0; q < 8; ++q) {
        const auto& proto =
            corpus.prototypes[static_cast<size_t>(q % kClusters)];
        // Even queries are near a prototype; odd ones keep a third of its
        // bits, so their containment candidates are numerous but narrower
        // than the live set.
        std::vector<uint8_t> query = Perturb(proto, /*denominator=*/10, &rng);
        if (q % 2 == 1) {
          for (auto& bit : query) {
            if (rng.UniformU64(3) != 0) bit = 0;
          }
        }
        queries.push_back(std::move(query));
      }
      const std::vector<Ranking> answers =
          check(*engine, engine->Freeze(), live, queries);

      // The v3 round trip: the reload adopts the persisted buckets and lays
      // its base out afresh, yet answers exactly like the live engine.
      // Buckets emptied by removals are not persisted; only when none was
      // can the default probe width pick the same buckets.
      ASSERT_TRUE(engine->Snapshot(path).ok());
      auto reloaded = ShardedEngine::Open(path, opts);
      ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
      ScopedRole reloaded_writer(&reloaded->writer_role());
      ExpectBucketLayout(*reloaded);
      EXPECT_EQ(reloaded->alive_ids(), engine->alive_ids());
      const std::vector<Ranking> reloaded_answers =
          check(*reloaded, reloaded->Freeze(), live, queries);
      ASSERT_EQ(reloaded_answers.size(), answers.size());
      const bool same_buckets =
          reloaded->ivf_buckets() == engine->ivf_buckets();
      for (size_t i = 0; i < answers.size(); ++i) {
        // Every fourth answer of a query is its default-width approx one.
        if (i % 4 == 2 && !same_buckets) continue;
        EXPECT_EQ(reloaded_answers[i], answers[i]) << "answer " << i;
      }
    }
    EXPECT_GT(narrowed, 0);     // the narrowed candidate path did run
    EXPECT_GT(compactions, 0);  // and the tiling was checked after Compact
  }
}

// The id-ordered views of an engine — alive_ids, LiveRowWords, and
// ToPersistedIndex — ascend by id although the base is stored in bucket
// order: for a built engine, after churn, and for an engine that adopted a
// v3 snapshot's IVF layout.
TEST(ApproxQueryTest, IdOrderedViewsAscendAcrossBucketLayouts) {
  const Corpus corpus = ClusteredCorpus(/*seed=*/37);
  const auto expect_ascending = [](const ShardedEngine& engine) {
    const std::vector<int> ids = engine.alive_ids();
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
    EXPECT_EQ(engine.shard(0).alive_ids(), ids);
    const auto words = engine.shard(0).LiveRowWords();
    const PersistedIndex persisted = engine.ToPersistedIndex();
    ASSERT_EQ(words.size(), ids.size());
    ASSERT_EQ(persisted.ids, ids);
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(words[i].first, ids[i]);
      const std::vector<uint64_t> packed =
          PackedBitMatrix::PackBits(persisted.db_bits[i]);
      EXPECT_TRUE(std::equal(packed.begin(), packed.end(), words[i].second))
          << "id " << ids[i];
    }
  };
  auto built = ShardedEngine::FromIndex(IndexFor(corpus.rows));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  expect_ascending(*built);
  EXPECT_EQ(built->alive_ids().size(), corpus.rows.size());
  // The layout is not the id order: a clustered corpus fills several
  // buckets, each a run of ids from all over the id space.
  EXPECT_GT(built->ivf_buckets(), 1);

  ScopedRole writer(&built->writer_role());
  Rng rng(38);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(built->InsertMapped(RandomBits(&rng)).ok());
    const std::vector<int> alive = built->alive_ids();
    ASSERT_TRUE(built->Remove(alive[rng.UniformU64(alive.size())]).ok());
  }
  expect_ascending(*built);
  built->Compact();
  expect_ascending(*built);

  const std::string path =
      ::testing::TempDir() + "/gdim_id_order_snapshot.idx3";
  ASSERT_TRUE(built->Snapshot(path).ok());
  auto adopted = ShardedEngine::Open(path);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  expect_ascending(*adopted);
  EXPECT_EQ(adopted->alive_ids(), built->alive_ids());
  EXPECT_EQ(adopted->ivf_buckets(), built->ivf_buckets());
}

TEST(ApproxQueryTest, GenerationSwapRebuildsIvfWithZeroStaleBuckets) {
  const Corpus corpus = ClusteredCorpus(/*seed=*/17);
  auto engine =
      ShardedEngine::FromIndex(IndexFor(corpus.rows), Sharded(4, 2));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ScopedRole writer(&engine->writer_role());
  // Churn the first generation so its IVF postings diverge from what a
  // fresh build over the final live set would produce.
  Rng rng(18);
  for (int step = 0; step < 60; ++step) {
    if (rng.UniformU64(2) == 0) {
      ASSERT_TRUE(engine
                      ->InsertMapped(Perturb(
                          corpus.prototypes[rng.UniformU64(kClusters)],
                          /*denominator=*/12, &rng))
                      .ok());
    } else {
      const std::vector<int> alive = engine->alive_ids();
      ASSERT_TRUE(engine->Remove(alive[rng.UniformU64(alive.size())]).ok());
    }
  }
  // The swap: a new generation built over the live set, exactly what the
  // reindex pipeline installs. Its shards (and their IVF indexes) are
  // fresh builds.
  const PersistedIndex live = engine->ToPersistedIndex();
  auto next = ShardedEngine::FromIndex(live, Sharded(4, 2));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  const uint64_t generation_before = engine->generation();
  engine->SwapGeneration(std::move(next).value());
  EXPECT_EQ(engine->generation(), generation_before + 1);

  // Zero stale-bucket hits: at EVERY probe width the swapped engine
  // answers bit-identically to a from-scratch engine over the same rows —
  // any posting left over from the pre-swap clustering would change some
  // narrow-probe candidate pool and show up as a ranking diff.
  auto fresh = ShardedEngine::FromIndex(live, Sharded(4, 2));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(engine->ivf_buckets(), fresh->ivf_buckets());
  for (int q = 0; q < 10; ++q) {
    const std::vector<uint8_t> query =
        Perturb(corpus.prototypes[static_cast<size_t>(q % kClusters)],
                /*denominator=*/10, &rng);
    for (int nprobe : {1, 2, 3, kNprobeAll}) {
      EXPECT_EQ(engine->QueryMapped(query,
                                    {.k = kTopK,
                                     .scan_mode = ScanMode::kApprox,
                                     .nprobe = nprobe}),
                fresh->QueryMapped(query, {.k = kTopK,
                                           .scan_mode = ScanMode::kApprox,
                                           .nprobe = nprobe}))
          << "q=" << q << " nprobe=" << nprobe;
    }
  }
}

TEST(ApproxQueryTest, ExecutorPublishesApproxCountersAndKeysCacheOnNprobe) {
  const Corpus corpus = ClusteredCorpus(/*seed=*/19);
  auto engine =
      ShardedEngine::FromIndex(IndexFor(corpus.rows), Sharded(2, 2));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  BatchExecutorOptions opts;
  opts.cache_bytes = 1 << 20;
  BatchExecutor executor(&engine.value(), opts);
  Rng rng(20);
  const Graph query = GraphForBits(
      Perturb(corpus.prototypes[0], /*denominator=*/10, &rng));

  const QueryOptions narrow{.k = kTopK, .scan_mode = ScanMode::kApprox,
                            .nprobe = 1};
  const QueryOptions all{.k = kTopK, .scan_mode = ScanMode::kApprox,
                         .nprobe = kNprobeAll};
  auto narrow_answer = executor.Query(query, narrow);
  ASSERT_TRUE(narrow_answer.ok());
  auto all_answer = executor.Query(query, all);
  ASSERT_TRUE(all_answer.ok());
  const BatchExecutorStats after_cold = executor.Stats();
  EXPECT_EQ(after_cold.approx_queries, 2u);
  EXPECT_EQ(after_cold.approx_candidates_scanned +
                after_cold.approx_rows_pruned,
            2u * kRows);
  EXPECT_GT(after_cold.approx_rows_pruned, 0u);  // nprobe=1 pruned rows

  // Same fingerprint, different nprobe: the cache must key them apart. The
  // repeats must be hits that replay each depth's own answer, and hits do
  // not re-count scan work.
  auto narrow_hit = executor.Query(query, narrow);
  auto all_hit = executor.Query(query, all);
  ASSERT_TRUE(narrow_hit.ok() && all_hit.ok());
  EXPECT_EQ(*narrow_hit, *narrow_answer);
  EXPECT_EQ(*all_hit, *all_answer);
  const BatchExecutorStats after_hits = executor.Stats();
  EXPECT_EQ(after_hits.cache.hits, 2u);
  EXPECT_EQ(after_hits.approx_queries, 2u);
  EXPECT_EQ(after_hits.approx_candidates_scanned,
            after_cold.approx_candidates_scanned);

  // The full-scan answer equals NPROBE=all through the executor too.
  auto full = executor.Query(query, {.k = kTopK,
                                     .scan_mode = ScanMode::kFull});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, *all_answer);
}

TEST(ApproxQueryTest, ChurnedCountersCountOnlyLiveRows) {
  // IVF maintenance is lazy: removals leave tombstoned postings in their
  // buckets until the next Compact. Those ghosts must be invisible in the
  // published STATS — approx_candidates_scanned counts live rows actually
  // scored and approx_rows_pruned is live minus scanned, so per approx
  // query the two sum to the LIVE count, never the (inflated) physical
  // row count.
  const Corpus corpus = ClusteredCorpus(/*seed=*/23);
  auto engine =
      ShardedEngine::FromIndex(IndexFor(corpus.rows), Sharded(2, 2));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  BatchExecutorOptions opts;
  opts.cache_bytes = 1 << 20;
  BatchExecutor executor(&engine.value(), opts);

  // Heavy churn, no compact: a third of the corpus tombstoned, a batch of
  // fresh rows appended to the deltas.
  Rng rng(24);
  for (int id = 0; id < kRows; id += 3) {
    ASSERT_TRUE(executor.Remove(id).ok());
  }
  for (int i = 0; i < 30; ++i) {
    const auto& proto = corpus.prototypes[static_cast<size_t>(i % kClusters)];
    ASSERT_TRUE(
        executor.Insert(GraphForBits(Perturb(proto, /*denominator=*/10,
                                             &rng)))
            .ok());
  }
  auto gauges = executor.Gauges();
  ASSERT_TRUE(gauges.ok());
  const uint64_t live = static_cast<uint64_t>(gauges->graphs);
  ASSERT_GT(gauges->tombstones, 0);  // the ghosts the counters must ignore
  const uint64_t physical = static_cast<uint64_t>(gauges->physical_rows);
  ASSERT_GT(physical, live);

  // A narrow probe: whatever it scans plus whatever it prunes must be
  // exactly the live set.
  const Graph q1 = GraphForBits(
      Perturb(corpus.prototypes[1], /*denominator=*/10, &rng));
  ASSERT_TRUE(executor
                  .Query(q1, {.k = kTopK, .scan_mode = ScanMode::kApprox,
                              .nprobe = 1})
                  .ok());
  const BatchExecutorStats narrow = executor.Stats();
  EXPECT_EQ(narrow.approx_candidates_scanned + narrow.approx_rows_pruned,
            live);
  EXPECT_GT(narrow.approx_rows_pruned, 0u);

  // NPROBE=all prunes nothing: it scans the live rows — all of them and
  // only them. A tombstone-inflated counter would report `physical` here.
  const Graph q2 = GraphForBits(
      Perturb(corpus.prototypes[2], /*denominator=*/10, &rng));
  ASSERT_TRUE(executor
                  .Query(q2, {.k = kTopK, .scan_mode = ScanMode::kApprox,
                              .nprobe = kNprobeAll})
                  .ok());
  const BatchExecutorStats all = executor.Stats();
  EXPECT_EQ(all.approx_candidates_scanned - narrow.approx_candidates_scanned,
            live);
  EXPECT_EQ(all.approx_rows_pruned, narrow.approx_rows_pruned);
}

TEST(ApproxQueryTest, SaturatedNprobeSharesTheNprobeAllCacheEntry) {
  // NPROBE=n with n >= every shard's bucket count probes everything, so it
  // answers bit-identically to NPROBE=all — and must therefore share its
  // cache entry. The executor normalizes saturated depths to kNprobeAll
  // before keying; without that, the same answer would be computed and
  // stored once per distinct spelling of "all of it".
  const Corpus corpus = ClusteredCorpus(/*seed=*/29);
  auto engine =
      ShardedEngine::FromIndex(IndexFor(corpus.rows), Sharded(2, 2));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const int saturation = engine->max_shard_ivf_buckets();
  ASSERT_GT(saturation, 0);
  BatchExecutorOptions opts;
  opts.cache_bytes = 1 << 20;
  BatchExecutor executor(&engine.value(), opts);
  Rng rng(30);
  const Graph query = GraphForBits(
      Perturb(corpus.prototypes[3], /*denominator=*/10, &rng));

  // Cold fill under one spelling, then every saturated spelling hits it.
  auto all_answer = executor.Query(
      query, {.k = kTopK, .scan_mode = ScanMode::kApprox,
              .nprobe = saturation + 7});
  ASSERT_TRUE(all_answer.ok());
  for (int nprobe : {saturation, saturation + 1, kNprobeAll}) {
    auto repeat = executor.Query(
        query,
        {.k = kTopK, .scan_mode = ScanMode::kApprox, .nprobe = nprobe});
    ASSERT_TRUE(repeat.ok());
    EXPECT_EQ(*repeat, *all_answer) << "nprobe=" << nprobe;
  }
  const BatchExecutorStats stats = executor.Stats();
  EXPECT_EQ(stats.cache.hits, 3u);
  EXPECT_EQ(stats.approx_queries, 1u);  // one computation, three replays

  // One below saturation is a genuinely different probe set: its own miss,
  // its own entry.
  auto narrower = executor.Query(
      query, {.k = kTopK, .scan_mode = ScanMode::kApprox,
              .nprobe = saturation - 1});
  ASSERT_TRUE(narrower.ok());
  EXPECT_EQ(executor.Stats().cache.hits, 3u);
  EXPECT_EQ(executor.Stats().approx_queries, 2u);
}

}  // namespace
}  // namespace gdim
