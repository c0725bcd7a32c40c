// Durable-restart differential: a server restarted from a v3 snapshot
// ALONE — no source database — must be indistinguishable from the process
// that wrote it. The snapshot is taken mid-churn, after two REINDEX
// generation swaps; the restarted engine must restore the dimension
// generation and mutation epoch, seed its graph store from the STOR
// section, adopt the persisted IVF layout without a rebuild, and answer
// MODE=full and MODE=approx/NPROBE=all probes bit-identically — at shards
// {1, 4} x threads {1, 8}. A v2 file documents the pre-v3 degraded
// behavior (generation and epoch restart at zero).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "core/index_io.h"
#include "datasets/chemgen.h"
#include "graph/graph.h"
#include "reindex/dimension_refresher.h"
#include "serve/query_engine.h"
#include "server/batch_executor.h"
#include "server/sharded_engine.h"
#include "store/graph_store.h"
#include "test_util.h"

namespace gdim {
namespace {

/// Small molecule-like corpus: graphs with edges (so mining finds candidate
/// features) but few vertices (so the per-combo REINDEX pipeline stays
/// cheap in a unit test).
ChemGenOptions SmallChem(int n, uint64_t seed) {
  ChemGenOptions opts;
  opts.num_graphs = n;
  opts.num_families = 4;
  opts.min_vertices = 6;
  opts.max_vertices = 9;
  opts.seed = seed;
  return opts;
}

RefreshOptions FastRefresh(const std::string& selector, int p,
                           uint64_t seed) {
  RefreshOptions options;
  options.selector = selector;
  options.p = p;
  options.mining.min_support = 0.3;
  options.mining.max_edges = 3;
  options.seed = seed;
  options.dspmap.partition_size = 10;
  options.dspmap.sample_size = 4;
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

/// Builds the initial serving generation over db — the same pipeline a
/// reindex runs, so the test starts from a "real" dimension.
PersistedIndex InitialIndex(const GraphDatabase& db,
                            const RefreshOptions& options) {
  GraphStore store = StoreOf(db);
  ScopedRole writer(&store.writer_role());
  Result<RefreshedGeneration> generation =
      BuildGeneration(store.Freeze(), options);
  EXPECT_TRUE(generation.ok()) << generation.status().ToString();
  PersistedIndex index;
  index.features = std::move(generation->features);
  index.db_bits = std::move(generation->rows);
  index.ids = std::move(generation->ids);
  return index;
}

TEST(RestartDifferentialTest, V3SnapshotRestartIsBitIdentical) {
  const GraphDatabase corpus = GenerateChemDatabase(SmallChem(24, 91));
  const GraphDatabase extra = GenerateChemQueries(SmallChem(24, 92), 8);
  const GraphDatabase probes = GenerateChemQueries(SmallChem(24, 93), 4);
  const PersistedIndex index =
      InitialIndex(corpus, FastRefresh("DSPMap", 8, 3));
  const QueryOptions full{.k = 6, .scan_mode = ScanMode::kFull};
  const QueryOptions approx_all{
      .k = 6, .scan_mode = ScanMode::kApprox, .nprobe = kNprobeAll};

  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ShardedOptions engine_opts;
      engine_opts.num_shards = shards;
      engine_opts.serve.threads = threads;
      auto engine = ShardedEngine::FromIndex(index, engine_opts);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      GraphStore store = StoreOf(corpus);

      BatchExecutorOptions executor_opts;
      executor_opts.cache_bytes = 1 << 20;
      executor_opts.store = &store;
      executor_opts.refresh = FastRefresh("DSPMap", 0, 13);
      const std::string path = ::testing::TempDir() + "/gdim_restart_" +
                               std::to_string(shards) + "_" +
                               std::to_string(threads) + ".idx2";

      uint64_t epoch_before = 0;
      int graphs_before = 0;
      std::vector<Ranking> full_before, approx_before;
      {
        BatchExecutor executor(&*engine, executor_opts);

        // Churn, REINDEX, churn, REINDEX: the snapshot must carry history
        // no single rebuild could reproduce (two generation swaps with
        // different live sets).
        for (int i = 0; i < 4; ++i) {
          ASSERT_TRUE(executor.Insert(extra[static_cast<size_t>(i)]).ok());
        }
        for (int id : {1, 6, 11}) ASSERT_TRUE(executor.Remove(id).ok());
        Result<ReindexReport> gen1 = executor.Reindex(8);
        ASSERT_TRUE(gen1.ok()) << gen1.status().ToString();
        ASSERT_EQ(gen1->generation, 1u);

        for (int i = 4; i < 8; ++i) {
          ASSERT_TRUE(executor.Insert(extra[static_cast<size_t>(i)]).ok());
        }
        ASSERT_TRUE(executor.Remove(2).ok());
        Result<ReindexReport> gen2 = executor.Reindex(8);
        ASSERT_TRUE(gen2.ok()) << gen2.status().ToString();
        ASSERT_EQ(gen2->generation, 2u);

        // Mid-churn state at snapshot time: a live tombstone and fresh
        // delta rows on the current generation, none compacted away.
        ASSERT_TRUE(executor.Remove(5).ok());
        Result<int> last = executor.Insert(probes[0]);
        ASSERT_TRUE(last.ok());

        ASSERT_TRUE(executor.Snapshot(path).ok());

        // Capture the ground truth AFTER the snapshot with no mutations in
        // between, so the file and the captured answers describe the same
        // state.
        Result<EngineGauges> gauges = executor.Gauges();
        ASSERT_TRUE(gauges.ok());
        EXPECT_EQ(gauges->generation, 2u);
        epoch_before = gauges->epoch;
        graphs_before = gauges->graphs;
        for (const Graph& p : probes) {
          Result<Ranking> f = executor.Query(p, full);
          Result<Ranking> a = executor.Query(p, approx_all);
          ASSERT_TRUE(f.ok());
          ASSERT_TRUE(a.ok());
          // NPROBE=all admits every live row, so approx == full even on
          // the pre-restart engine.
          EXPECT_EQ(*a, *f);
          full_before.push_back(std::move(*f));
          approx_before.push_back(std::move(*a));
        }
      }  // the "process" dies: executor, engine, and store all torn down

      // Restart from the file alone — the original store and engine are
      // gone. The STOR section seeds the new store; META restores the
      // generation and epoch; IVFX is adopted, not rebuilt.
      Result<PackedIndex> packed = ReadIndexFilePacked(path);
      ASSERT_TRUE(packed.ok()) << packed.status().ToString();
      ASSERT_TRUE(packed->meta.has_value());
      ASSERT_TRUE(packed->store.has_value());
      ASSERT_TRUE(packed->ivf.has_value());
      EXPECT_EQ(packed->meta->generation, 2u);
      EXPECT_EQ(packed->meta->epoch, epoch_before);
      const size_t persisted_buckets = packed->ivf->buckets.size();

      GraphStore store2;
      {
        ScopedRole writer(&store2.writer_role());
        for (size_t i = 0; i < packed->store->ids.size(); ++i) {
          ASSERT_TRUE(
              store2.Put(packed->store->ids[i], packed->store->graphs[i])
                  .ok());
        }
      }
      packed->store.reset();
      auto engine2 =
          ShardedEngine::FromPacked(std::move(*packed), engine_opts);
      ASSERT_TRUE(engine2.ok()) << engine2.status().ToString();

      // Adopted, not rebuilt: at an unchanged shard count every persisted
      // bucket returns to the shard that wrote it, so the bucket count is
      // exactly the file's (a rebuild would re-cluster to ceil(sqrt(n))
      // buckets per shard and lose the churned layout).
      EXPECT_EQ(static_cast<size_t>(engine2->ivf_buckets()),
                persisted_buckets);
      EXPECT_EQ(engine2->generation(), 2u);
      EXPECT_EQ(engine2->epoch(), epoch_before);

      BatchExecutorOptions executor2_opts = executor_opts;
      executor2_opts.store = &store2;
      BatchExecutor executor2(&*engine2, executor2_opts);
      Result<EngineGauges> gauges2 = executor2.Gauges();
      ASSERT_TRUE(gauges2.ok());
      EXPECT_EQ(gauges2->generation, 2u);
      EXPECT_EQ(gauges2->epoch, epoch_before);
      EXPECT_EQ(gauges2->graphs, graphs_before);

      // The restarted cache starts empty: the first probe is a compulsory
      // miss, never a replay of a pre-restart entry. (Later probes may hit
      // entries THIS process cached — chem probes can share a graph.)
      const BatchExecutorStats fresh = executor2.Stats();
      EXPECT_EQ(fresh.cache.hits, 0u);
      Result<Ranking> first = executor2.Query(probes[0], full);
      ASSERT_TRUE(first.ok());
      EXPECT_EQ(*first, full_before[0]);
      EXPECT_EQ(executor2.Stats().cache.hits, fresh.cache.hits);
      EXPECT_EQ(executor2.Stats().cache.misses, fresh.cache.misses + 1);

      // The differential: every probe, both modes, bit-identical.
      for (size_t i = 0; i < probes.size(); ++i) {
        Result<Ranking> f = executor2.Query(probes[i], full);
        Result<Ranking> a = executor2.Query(probes[i], approx_all);
        ASSERT_TRUE(f.ok());
        ASSERT_TRUE(a.ok());
        EXPECT_EQ(*f, full_before[i]) << "probe " << i;
        EXPECT_EQ(*a, approx_before[i]) << "probe " << i;
      }

      // The restored epoch keeps climbing from the persisted value, and
      // REINDEX works from the snapshot-seeded store — no --db anywhere.
      ASSERT_TRUE(executor2.Remove(0).ok());
      Result<EngineGauges> after = executor2.Gauges();
      ASSERT_TRUE(after.ok());
      EXPECT_GT(after->epoch, epoch_before);
      Result<ReindexReport> gen3 = executor2.Reindex(8);
      ASSERT_TRUE(gen3.ok()) << gen3.status().ToString();
      EXPECT_EQ(gen3->generation, 3u);
    }
  }
}

TEST(RestartDifferentialTest, V2EscapeHatchDegradesToGenerationZero) {
  // The pre-v3 behavior, for v2 files written before v3 existed: the
  // reload serves the right rows but the generation and epoch restart at
  // zero and the IVF index is rebuilt from scratch. (The serve-net loader
  // WARNs about exactly this when it sees a sectionless index;
  // tools/restart_smoke.sh exercises the wire-level path.)
  const GraphDatabase corpus = GenerateChemDatabase(SmallChem(18, 95));
  const PersistedIndex index =
      InitialIndex(corpus, FastRefresh("Sample", 6, 2));
  ShardedOptions opts;
  opts.num_shards = 2;
  auto engine = ShardedEngine::FromIndex(index, opts);
  ASSERT_TRUE(engine.ok());
  ScopedRole writer(&engine->writer_role());
  ASSERT_TRUE(engine->Remove(3).ok());

  // A generation swap, then the swapped engine's live rows as a v2 file
  // (what the retired v2 snapshot path wrote).
  auto next = ShardedEngine::FromIndex(
      InitialIndex(corpus, FastRefresh("Sample", 6, 7)), opts);
  ASSERT_TRUE(next.ok());
  engine->SwapGeneration(std::move(next).value());
  ASSERT_EQ(engine->generation(), 1u);
  ASSERT_GT(engine->epoch(), 0u);

  const std::string path = ::testing::TempDir() + "/gdim_v2_degraded.idx2";
  ASSERT_TRUE(
      testing_util::WriteV2IndexFile(engine->ToPersistedIndex(), path).ok());
  Result<PackedIndex> packed = ReadIndexFilePacked(path);
  ASSERT_TRUE(packed.ok());
  EXPECT_FALSE(packed->meta.has_value());  // nothing to restore from
  auto reloaded = ShardedEngine::FromPacked(std::move(*packed), opts);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->generation(), 0u);  // pre-restart history is lost
  EXPECT_EQ(reloaded->epoch(), 0u);
  EXPECT_GT(reloaded->ivf_buckets(), 0);  // rebuilt, serving continues
  EXPECT_EQ(reloaded->num_graphs(), engine->num_graphs());

  // The v3 default restores both counters from the same engine state.
  const std::string v3_path = ::testing::TempDir() + "/gdim_v3_meta.idx2";
  ASSERT_TRUE(engine->Snapshot(v3_path).ok());
  auto restored = ShardedEngine::Open(v3_path, opts);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->generation(), 1u);
  EXPECT_EQ(restored->epoch(), engine->epoch());
}

}  // namespace
}  // namespace gdim
