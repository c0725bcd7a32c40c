// Mutable-engine churn: interleaved insert / remove / query throughput on a
// one-shard ShardedEngine under continuous modification, the workload an
// *online* graph search service actually faces (cf. segment-based mutable
// vector indexes).
//
//   bench_churn_workload [--n=10000 --p=256 --rounds=20 --inserts=50
//                         --removes=50 --queries=10 --k=10 --density=0.3
//                         --compact-every=10 --prefilter --seed=7]
//
// Each round performs `inserts` InsertMapped calls, `removes` Remove calls
// on random live ids, and `queries` top-k queries; every `compact-every`
// rounds the engine compacts. Reports per-op-class throughput and compaction
// cost. Before exiting, the mutated engine's rankings are checked
// bit-for-bit against a fresh engine built from the equivalent database.
//
// Features are single-vertex patterns (label r = feature r), so a query
// graph whose vertex labels are exactly the set bits of a fingerprint maps
// back onto that fingerprint — stage 1 stays cheap and the bench measures
// the mutation + scan machinery, not VF2.

#include <cstdio>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/index_io.h"
#include "server/sharded_engine.h"

namespace gdim {
namespace {

Graph GraphFromFingerprint(const std::vector<uint8_t>& bits) {
  Graph g;
  for (size_t r = 0; r < bits.size(); ++r) {
    if (bits[r] != 0) g.AddVertex(static_cast<LabelId>(r));
  }
  if (g.NumVertices() == 0) g.AddVertex(0);  // keep queries non-degenerate
  return g;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int n = std::max(1, flags.GetInt("n", 10000));
  const int p = std::max(1, flags.GetInt("p", 256));
  const int rounds = std::max(1, flags.GetInt("rounds", 20));
  const int inserts = std::max(0, flags.GetInt("inserts", 50));
  const int removes = std::max(0, flags.GetInt("removes", 50));
  const int queries = std::max(1, flags.GetInt("queries", 10));
  const int k = std::max(1, flags.GetInt("k", 10));
  const int compact_every = std::max(1, flags.GetInt("compact-every", 10));
  const double density = flags.GetDouble("density", 0.3);
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 7)));

  ShardedOptions options;
  options.serve.threads = 1;  // per-op cost, not batch parallelism
  options.serve.containment_prefilter = flags.GetBool("prefilter", false);

  std::printf(
      "churn_workload: n=%d p=%d rounds=%d (+%d/-%d/?%d per round) k=%d "
      "density=%.2f compact-every=%d prefilter=%d\n",
      n, p, rounds, inserts, removes, queries, k, density, compact_every,
      options.serve.containment_prefilter ? 1 : 0);

  PersistedIndex seed_index;
  for (int r = 0; r < p; ++r) {
    Graph f;
    f.AddVertex(static_cast<LabelId>(r));
    seed_index.features.push_back(f);
  }
  seed_index.db_bits = RandomBitRows(n, p, density, &rng);

  // Shadow copy of the live database (id -> bits), the ground truth the
  // final equivalence gate rebuilds a fresh engine from.
  std::vector<std::pair<int, std::vector<uint8_t>>> shadow;
  shadow.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    shadow.emplace_back(i, seed_index.db_bits[static_cast<size_t>(i)]);
  }

  Result<ShardedEngine> built = ShardedEngine::FromIndex(seed_index, options);
  GDIM_CHECK(built.ok()) << built.status().ToString();
  ShardedEngine engine = std::move(built).value();
  // This single-threaded bench is the engine's writer.
  ScopedRole writer(&engine.writer_role());

  int next_id = n;  // mirrors the engine's id assignment
  double insert_s = 0.0, remove_s = 0.0, query_s = 0.0, compact_s = 0.0;
  long long num_inserts = 0, num_removes = 0, num_queries = 0;
  int num_compactions = 0;
  double sink = 0.0;  // defeat dead-code elimination
  WallTimer total_timer;
  for (int round = 0; round < rounds; ++round) {
    const auto new_rows = RandomBitRows(inserts, p, density, &rng);
    WallTimer timer;
    for (const auto& row : new_rows) {
      Result<int> id = engine.InsertMapped(row);
      GDIM_CHECK(id.ok()) << id.status().ToString();
    }
    insert_s += timer.Seconds();
    num_inserts += inserts;
    for (const auto& row : new_rows) {
      shadow.emplace_back(next_id++, row);
    }

    std::vector<int> doomed;
    for (int j = 0; j < removes && shadow.size() > 1; ++j) {
      const size_t victim = rng.UniformU64(shadow.size());
      doomed.push_back(shadow[victim].first);
      shadow.erase(shadow.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    timer.Reset();
    for (int id : doomed) {
      Status s = engine.Remove(id);
      GDIM_CHECK(s.ok()) << s.ToString();
    }
    remove_s += timer.Seconds();
    num_removes += static_cast<long long>(doomed.size());

    std::vector<Graph> round_queries;
    for (int q = 0; q < queries; ++q) {
      round_queries.push_back(
          GraphFromFingerprint(RandomBitRows(1, p, density, &rng)[0]));
    }
    timer.Reset();
    for (const Graph& q : round_queries) {
      const Ranking top = engine.Query(q, {.k = k});
      if (!top.empty()) sink += top[0].score;
    }
    query_s += timer.Seconds();
    num_queries += queries;

    if ((round + 1) % compact_every == 0) {
      timer.Reset();
      engine.Compact();
      compact_s += timer.Seconds();
      ++num_compactions;
    }
  }
  const double total_s = total_timer.Seconds();

  // Correctness gate: the churned engine must answer exactly like a fresh
  // engine over the equivalent database (shadow rows in id order).
  PersistedIndex equivalent;
  equivalent.features = seed_index.features;
  std::vector<int> expected_ids;
  for (const auto& [id, bits] : shadow) {
    expected_ids.push_back(id);
    equivalent.db_bits.push_back(bits);
  }
  Result<ShardedEngine> fresh = ShardedEngine::FromIndex(equivalent, options);
  GDIM_CHECK(fresh.ok()) << fresh.status().ToString();
  GDIM_CHECK(engine.alive_ids() == expected_ids) << "live id set diverged";
  for (int q = 0; q < 20; ++q) {
    const Graph query =
        GraphFromFingerprint(RandomBitRows(1, p, density, &rng)[0]);
    Ranking expected = fresh->Query(query, {.k = k});
    for (RankedResult& r : expected) {
      r.id = expected_ids[static_cast<size_t>(r.id)];
    }
    GDIM_CHECK(engine.Query(query, {.k = k}) == expected)
        << "churned engine diverged from fresh build on probe " << q;
  }

  if (num_inserts > 0) {
    std::printf("inserts:     %8.0f ops/s  (%lld total)\n",
                static_cast<double>(num_inserts) / insert_s, num_inserts);
  }
  if (num_removes > 0) {
    std::printf("removes:     %8.0f ops/s  (%lld total)\n",
                static_cast<double>(num_removes) / remove_s, num_removes);
  }
  std::printf("queries:     %8.0f qps    (%lld total, k=%d)\n",
              static_cast<double>(num_queries) / query_s, num_queries, k);
  if (num_compactions > 0) {
    std::printf("compactions: %8.1f ms avg  (%d total)\n",
                compact_s / num_compactions * 1e3, num_compactions);
  }
  std::printf(
      "# end state: %d live (base %d + delta %d rows, %d tombstoned) "
      "in %.2fs wall; churn gate passed (20 probes)\n",
      engine.num_graphs(), engine.shard(0).base_rows(),
      engine.shard(0).delta_rows(), engine.tombstoned_rows(), total_s);
  std::printf("# sink=%g\n", sink);
  return 0;
}

}  // namespace
}  // namespace gdim

int main(int argc, char** argv) { return gdim::Main(argc, argv); }
