// Micro-benchmarks (google-benchmark) for the primitive operations behind
// every experiment: subgraph isomorphism (VF2), exact MCS (both algorithms),
// query mapping, the DSPM iteration kernels, gSpan mining, and the serving
// engine's stage-3 scan.

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/dspm.h"
#include "core/kernels/scan_kernel.h"
#include "core/mapper.h"
#include "core/objective.h"
#include "datasets/chemgen.h"
#include "isomorphism/vf2.h"
#include "mcs/dissimilarity.h"
#include "mcs/mcs.h"
#include "mining/gspan.h"
#include "server/sharded_engine.h"

namespace gdim {
namespace {

ChemGenOptions DefaultChem(int n) {
  ChemGenOptions opts;
  opts.num_graphs = n;
  return opts;
}

const GraphDatabase& SharedDb() {
  static const GraphDatabase* db =
      new GraphDatabase(GenerateChemDatabase(DefaultChem(80)));
  return *db;
}

const std::vector<FrequentPattern>& SharedPatterns() {
  static const std::vector<FrequentPattern>* patterns = [] {
    MiningOptions opts;
    opts.min_support = 0.1;
    opts.max_edges = 4;
    auto mined = MineFrequentSubgraphs(SharedDb(), opts);
    return new std::vector<FrequentPattern>(std::move(mined.value()));
  }();
  return *patterns;
}

void BM_Vf2SubgraphIso(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  const auto& patterns = SharedPatterns();
  size_t pi = 0, gi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        IsSubgraphIsomorphic(patterns[pi].graph, db[gi]));
    pi = (pi + 1) % patterns.size();
    gi = (gi + 3) % db.size();
  }
}
BENCHMARK(BM_Vf2SubgraphIso);

void BM_McsAuto(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  size_t i = 0;
  McsOptions opts;
  opts.algorithm = McsAlgorithm::kAuto;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MaxCommonEdgeSubgraph(db[i % db.size()], db[(i + 7) % db.size()],
                              opts));
    ++i;
  }
}
BENCHMARK(BM_McsAuto);

void BM_McsClique(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  size_t i = 0;
  McsOptions opts;
  opts.algorithm = McsAlgorithm::kClique;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MaxCommonEdgeSubgraph(db[i % db.size()], db[(i + 7) % db.size()],
                              opts));
    ++i;
  }
}
BENCHMARK(BM_McsClique);

void BM_McsMcGregorBudget(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  size_t i = 0;
  McsOptions opts;
  opts.algorithm = McsAlgorithm::kMcGregor;
  opts.max_nodes = 100000;  // budgeted: the unbudgeted tail is unbounded
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MaxCommonEdgeSubgraph(db[i % db.size()], db[(i + 7) % db.size()],
                              opts));
    ++i;
  }
}
BENCHMARK(BM_McsMcGregorBudget);

void BM_QueryMapping(benchmark::State& state) {
  const auto& patterns = SharedPatterns();
  const int p = static_cast<int>(std::min<size_t>(patterns.size(), 100));
  GraphDatabase dim;
  for (int r = 0; r < p; ++r) dim.push_back(patterns[static_cast<size_t>(r)].graph);
  FeatureMapper mapper(std::move(dim));
  GraphDatabase queries = GenerateChemQueries(DefaultChem(80), 16);
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.Map(queries[qi]));
    qi = (qi + 1) % queries.size();
  }
  state.SetLabel("p=" + std::to_string(p));
}
BENCHMARK(BM_QueryMapping);

// Mapper construction: per-feature preparation plus the containment
// lattice (the pairwise feature matching), at the same p as
// BM_QueryMapping.
void BM_MapperBuild(benchmark::State& state) {
  const auto& patterns = SharedPatterns();
  const int p = static_cast<int>(std::min<size_t>(patterns.size(), 100));
  GraphDatabase dim;
  for (int r = 0; r < p; ++r) dim.push_back(patterns[static_cast<size_t>(r)].graph);
  for (auto _ : state) {
    FeatureMapper mapper(dim);
    benchmark::DoNotOptimize(mapper);
  }
  state.SetLabel("p=" + std::to_string(p));
}
BENCHMARK(BM_MapperBuild);

void BM_StressObjective(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  BinaryFeatureDb features = BinaryFeatureDb::FromPatterns(
      static_cast<int>(db.size()), SharedPatterns());
  DissimilarityMatrix delta = DissimilarityMatrix::Compute(db);
  std::vector<double> c(static_cast<size_t>(features.num_features()),
                        1.0 / std::sqrt(features.num_features()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(StressObjective(features, c, delta, 1));
  }
}
BENCHMARK(BM_StressObjective);

void BM_DspmFullRun(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  BinaryFeatureDb features = BinaryFeatureDb::FromPatterns(
      static_cast<int>(db.size()), SharedPatterns());
  DissimilarityMatrix delta = DissimilarityMatrix::Compute(db);
  DspmOptions opts;
  opts.p = 50;
  opts.max_iters = static_cast<int>(state.range(0));
  opts.epsilon = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunDspm(features, delta, opts));
  }
}
BENCHMARK(BM_DspmFullRun)->Arg(5)->Arg(15);

void BM_GSpanMining(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  MiningOptions opts;
  opts.min_support = 0.1;
  opts.max_edges = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineFrequentSubgraphs(db, opts));
  }
}
BENCHMARK(BM_GSpanMining)->Arg(3)->Arg(4)->Arg(5);

void BM_Delta2Pair(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GraphDissimilarity(
        db[i % db.size()], db[(i + 11) % db.size()]));
    ++i;
  }
}
BENCHMARK(BM_Delta2Pair);

// A one-shard engine of clustered `bits`-wide rows (512 random prototypes
// with each bit flipped w.p. 1/8, like the fingerprint serving corpus),
// sized to 1.6 MB of fingerprint words whatever the width: 100k rows at
// p=128, 50k at p=256, 12.5k at p=1024. `queries` receives 64 draws from
// the same prototypes.
Result<ShardedEngine> BuildShard(int bits,
                                 std::vector<std::vector<uint8_t>>* queries) {
  const int rows = 100000 * 128 / bits;
  Rng rng(2014);
  std::vector<std::vector<uint8_t>> prototypes(512);
  for (auto& proto : prototypes) {
    proto.resize(static_cast<size_t>(bits));
    for (auto& bit : proto) bit = rng.Bernoulli(0.15) ? 1 : 0;
  }
  auto draw = [&](std::vector<uint8_t>* out) {
    *out = prototypes[rng.UniformU64(prototypes.size())];
    for (auto& bit : *out) bit ^= rng.Bernoulli(0.125) ? 1 : 0;
  };
  PackedIndex index;
  for (int r = 0; r < bits; ++r) {
    Graph feature;
    feature.AddVertex(static_cast<LabelId>(r));
    index.features.push_back(std::move(feature));
  }
  index.rows = PackedBitMatrix::WithWidth(bits);
  index.rows.Reserve(rows);
  std::vector<uint8_t> row;
  for (int i = 0; i < rows; ++i) {
    draw(&row);
    index.rows.AppendRow(row);
  }
  queries->assign(64, {});
  for (auto& q : *queries) draw(&q);
  return ShardedEngine::FromPacked(std::move(index));
}

// Stage 3 of one query on one serving shard of width state.range(0)
// (128: the fingerprint corpus, 256: the chemical one), k = 10, in `mode`:
// query packing, the popcount scan with fused integer top-k, and for
// MODE=approx the centroid ranking at the default NPROBE. Items are the
// rows scored.
void RunShardTopK(benchmark::State& state, ScanMode mode) {
  std::vector<std::vector<uint8_t>> queries;
  Result<ShardedEngine> engine =
      BuildShard(static_cast<int>(state.range(0)), &queries);
  if (!engine.ok()) {
    state.SkipWithError(engine.status().ToString().c_str());
    return;
  }
  const QueryOptions options{.k = 10, .scan_mode = mode};
  size_t qi = 0;
  int64_t scanned = 0;
  ServeQueryStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->shard(0).QueryMapped(queries[qi], options, &stats));
    scanned += stats.scanned;
    qi = (qi + 1) % queries.size();
  }
  state.SetItemsProcessed(scanned);
  state.SetLabel(std::string("kernel=") + ActiveScanKernel().name());
}

void BM_ShardScanTopK(benchmark::State& state) {
  RunShardTopK(state, ScanMode::kFull);
}
BENCHMARK(BM_ShardScanTopK)->Arg(128)->Arg(256)->Unit(benchmark::kMicrosecond);

// The same shard in MODE=approx: the probed buckets' contiguous ranges
// stream through the same block scan.
void BM_ShardApproxTopK(benchmark::State& state) {
  RunShardTopK(state, ScanMode::kApprox);
}
BENCHMARK(BM_ShardApproxTopK)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

// A tile of state.range(1) queries scanned together on a shard of width
// state.range(0) (QueryMappedTile, the batch path): every L1-resident row
// block is filtered against each query of the tile before the next block
// loads. Reported per query; items are the rows scored.
void BM_ShardTileTopK(benchmark::State& state) {
  std::vector<std::vector<uint8_t>> queries;
  Result<ShardedEngine> engine =
      BuildShard(static_cast<int>(state.range(0)), &queries);
  if (!engine.ok()) {
    state.SkipWithError(engine.status().ToString().c_str());
    return;
  }
  const int tile = static_cast<int>(state.range(1));
  const QueryOptions options{.k = 10, .scan_mode = ScanMode::kFull};
  size_t qi = 0;
  int64_t scanned = 0;
  std::vector<ServeQueryStats> stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->shard(0).QueryMappedTile(
        &queries[qi], tile, options, &stats));
    scanned += static_cast<int64_t>(stats.front().scanned) * tile;
    qi = (qi + static_cast<size_t>(tile)) % queries.size();
  }
  state.SetItemsProcessed(scanned);
  state.counters["time_per_query"] = benchmark::Counter(
      static_cast<double>(tile), benchmark::Counter::kIsIterationInvariantRate |
                                     benchmark::Counter::kInvert);
  state.SetLabel(std::string("kernel=") + ActiveScanKernel().name());
}
BENCHMARK(BM_ShardTileTopK)
    ->Args({128, 2})
    ->Args({128, 4})
    ->Args({128, 8})
    ->Args({1024, 2})
    ->Args({1024, 8})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace gdim

BENCHMARK_MAIN();
