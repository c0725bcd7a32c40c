// Ablation bench for the design choices called out in DESIGN.md:
//  1. DSPM's optimized updates (Theorem 5.1 / Algorithms 2-4, inverted
//     lists) vs the direct Eq.(6)/(7) implementation — identical output,
//     large constant-factor difference (the paper's Section 5.1 claim).
//  2. Algorithm 4's inverted-list stress vs the naive all-features scan.
//  3. MCS algorithm choice: hybrid auto vs clique vs budgeted McGregor.
//  4. Final mapped space: unweighted binary vectors (Sec. 4, used by the
//     theory) vs keeping the optimization weights.

#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "common/timer.h"
#include "core/dspm.h"
#include "core/objective.h"
#include "core/topk.h"

namespace gdim {
namespace bench {
namespace {

// Weighted-space ranking: scan by sqrt(sum of c_r^2 over differing bits).
Ranking WeightedRanking(const std::vector<uint8_t>& q,
                        const std::vector<std::vector<uint8_t>>& db,
                        const std::vector<double>& w) {
  std::vector<double> scores(db.size(), 0.0);
  for (size_t i = 0; i < db.size(); ++i) {
    double acc = 0.0;
    for (size_t r = 0; r < q.size(); ++r) {
      if (q[r] != db[i][r]) acc += w[r] * w[r];
    }
    scores[i] = std::sqrt(acc);
  }
  return RankByScores(scores);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  DataScale scale;
  scale.db_size = flags.GetInt("n", 120);
  scale.num_queries = flags.GetInt("queries", 30);
  const int p = flags.GetInt("p", 80);
  const int k = flags.GetInt("k", 20);

  std::printf("=== Ablation: optimization techniques ===\n");
  PreparedData data = PrepareChem(scale);
  const int m = data.features.num_features();
  std::printf("n=%d m=%d p=%d k=%d\n", scale.db_size, m, p, k);

  // 1. DSPM update paths: closed form vs the paper's Algorithms 2-3 vs the
  // literal O(m·n²) Eq. (6)/(7).
  DspmOptions fast;
  fast.p = p;
  fast.max_iters = 10;
  fast.epsilon = 0.0;
  DspmOptions inv = fast;
  inv.update_path = DspmUpdatePath::kInvertedLists;
  DspmOptions naive_opts = fast;
  naive_opts.update_path = DspmUpdatePath::kNaive;
  WallTimer t;
  DspmResult rf = RunDspm(data.features, data.delta, fast);
  double fast_secs = t.Seconds();
  t.Reset();
  DspmResult ri = RunDspm(data.features, data.delta, inv);
  double inv_secs = t.Seconds();
  t.Reset();
  DspmResult rn = RunDspm(data.features, data.delta, naive_opts);
  double naive_secs = t.Seconds();
  double max_weight_diff = 0.0;
  for (size_t r = 0; r < rf.weights.size(); ++r) {
    max_weight_diff = std::max(
        {max_weight_diff, std::abs(rf.weights[r] - ri.weights[r]),
         std::abs(rf.weights[r] - rn.weights[r])});
  }
  std::printf("\n1. DSPM update rule (10 iterations; identical weights)\n");
  PrintHeader("", {"seconds", "slowdown", "wdiff"});
  PrintRow("closed", {fast_secs, 1.0, 0.0});
  PrintRow("Alg.2+3", {inv_secs, inv_secs / std::max(fast_secs, 1e-9), 0.0});
  PrintRow("Eq.6/7", {naive_secs, naive_secs / std::max(fast_secs, 1e-9),
                      max_weight_diff});

  // 2. Stress objective: Algorithm 4 vs naive scan.
  std::vector<double> c(static_cast<size_t>(m), 1.0 / std::sqrt(m));
  t.Reset();
  double e_fast = StressObjective(data.features, c, data.delta, 1);
  double obj_fast = t.Seconds();
  t.Reset();
  double e_naive = StressObjectiveNaive(data.features, c, data.delta);
  double obj_naive = t.Seconds();
  std::printf("\n2. stress objective evaluation (single-threaded)\n");
  PrintHeader("", {"seconds", "speedup", "valdiff"});
  PrintRow("Alg.4", {obj_fast, 1.0, 0.0});
  PrintRow("naive", {obj_naive, obj_naive / std::max(obj_fast, 1e-9),
                     std::abs(e_fast - e_naive)});

  // 3. MCS algorithms on a fixed sample of pairs.
  const int pairs = std::min<int>(300, scale.db_size * 2);
  auto time_mcs = [&](McsAlgorithm algo, uint64_t budget) {
    McsOptions opts;
    opts.algorithm = algo;
    opts.max_nodes = budget;
    WallTimer timer;
    int nonopt = 0;
    for (int s = 0; s < pairs; ++s) {
      int i = (s * 37) % scale.db_size;
      int j = (s * 53 + 11) % scale.db_size;
      if (i == j) j = (j + 1) % scale.db_size;
      McsResult r = MaxCommonEdgeSubgraph(data.db[static_cast<size_t>(i)],
                                          data.db[static_cast<size_t>(j)],
                                          opts);
      nonopt += r.optimal ? 0 : 1;
    }
    return std::pair<double, int>(timer.Seconds() / pairs * 1e3, nonopt);
  };
  auto [auto_ms, auto_bad] = time_mcs(McsAlgorithm::kAuto, 0);
  auto [clique_ms, clique_bad] = time_mcs(McsAlgorithm::kClique, 0);
  auto [mg_ms, mg_bad] = time_mcs(McsAlgorithm::kMcGregor, 300000);
  std::printf("\n3. exact MCS algorithm (per-pair ms over %d pairs)\n",
              pairs);
  PrintHeader("", {"ms/pair", "nonoptimal"});
  PrintRow("auto", {auto_ms, static_cast<double>(auto_bad)});
  PrintRow("clique", {clique_ms, static_cast<double>(clique_bad)});
  PrintRow("mcgregor", {mg_ms, static_cast<double>(mg_bad)});

  // 4. Binary vs weighted final space.
  auto db_bits = ProjectSupports(data.features, rf.selected);
  auto q_bits = ProjectQueries(data, rf.selected, nullptr);
  double binary_precision = EvaluateMapped(data, q_bits, db_bits, k).precision;
  std::vector<double> sel_weights;
  for (int r : rf.selected) {
    sel_weights.push_back(rf.weights[static_cast<size_t>(r)]);
  }
  std::vector<Ranking> weighted(q_bits.size());
  for (size_t qi = 0; qi < q_bits.size(); ++qi) {
    weighted[qi] = WeightedRanking(q_bits[qi], db_bits, sel_weights);
  }
  double weighted_precision = EvaluateRankings(data, weighted, k).precision;
  std::printf("\n4. final mapped space (precision@%d)\n", k);
  PrintHeader("", {"precision"});
  PrintRow("binary", {binary_precision});
  PrintRow("weighted", {weighted_precision});
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gdim

int main(int argc, char** argv) { return gdim::bench::Main(argc, argv); }
