// Figure 7 (Exp-4): query efficiency by query size |V(q)|. (a) DSPM vs
// Original (query time = VF2 feature matching + multidimensional scan;
// Original pays for all m features), (b) DSPM vs the exact MCS-based
// algorithm (orders of magnitude slower).

#include <cstdio>
#include <numeric>

#include "bench/harness.h"
#include "common/timer.h"
#include "core/mapper.h"

namespace gdim {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  DataScale scale;
  scale.db_size = flags.GetInt("n", 200);
  scale.num_queries = flags.GetInt("queries", 60);
  scale.skip_exact = true;  // timed below instead
  const int p = flags.GetInt("p", 100);
  const int k = flags.GetInt("k", 20);

  std::printf("=== Fig 7 (Exp-4): query efficiency ===\n");
  std::printf("n=%d queries=%d p=%d k=%d\n", scale.db_size,
              scale.num_queries, p, k);
  PreparedData data = PrepareChem(scale);
  const int m = data.features.num_features();
  std::printf("m=%d\n", m);

  Result<SelectionOutput> dspm = RunSelector("DSPM", data, p, 1, nullptr);
  GDIM_CHECK(dspm.ok());
  std::vector<int> all(static_cast<size_t>(m));
  std::iota(all.begin(), all.end(), 0);

  GraphDatabase dspm_dim, orig_dim;
  for (int r : dspm->selected) {
    dspm_dim.push_back(data.features.feature_graphs()[static_cast<size_t>(r)]);
  }
  for (int r : all) {
    orig_dim.push_back(data.features.feature_graphs()[static_cast<size_t>(r)]);
  }
  FeatureMapper dspm_mapper(std::move(dspm_dim));
  FeatureMapper orig_mapper(std::move(orig_dim));
  auto db_dspm = ProjectSupports(data.features, dspm->selected);
  auto db_orig = ProjectSupports(data.features, all);

  // Bucket queries by |V(q)|, as in the paper (5 buckets over 10..20).
  struct Bucket {
    std::vector<int> queries;
    double dspm_time = 0, orig_time = 0, exact_time = 0;
  };
  std::map<int, Bucket> buckets;  // lower bound of the 2-vertex bucket
  for (size_t qi = 0; qi < data.queries.size(); ++qi) {
    int nv = data.queries[qi].NumVertices();
    int b = std::min(18, std::max(10, (nv / 2) * 2));
    buckets[b].queries.push_back(static_cast<int>(qi));
  }

  for (auto& [lo, bucket] : buckets) {
    for (int qi : bucket.queries) {
      const Graph& q = data.queries[static_cast<size_t>(qi)];
      WallTimer t;
      auto bits = dspm_mapper.Map(q);
      TopK(MappedRanking(bits, db_dspm), k);
      bucket.dspm_time += t.Seconds();
      t.Reset();
      auto obits = orig_mapper.Map(q);
      TopK(MappedRanking(obits, db_orig), k);
      bucket.orig_time += t.Seconds();
      t.Reset();
      TopK(ExactRanking(q, data.db, DissimilarityKind::kDelta2,
                        /*threads=*/1),
           k);
      bucket.exact_time += t.Seconds();
    }
  }

  std::printf("\n(a) query time (ms) — DSPM vs Original\n");
  PrintHeader("|V(q)|", {"DSPM", "Original", "ratio"});
  for (auto& [lo, bucket] : buckets) {
    if (bucket.queries.empty()) continue;
    double nq = static_cast<double>(bucket.queries.size());
    double dm = bucket.dspm_time / nq * 1e3;
    double om = bucket.orig_time / nq * 1e3;
    char label[32];
    std::snprintf(label, sizeof(label), "%d-%d", lo, lo + 2);
    PrintRow(label, {dm, om, om / std::max(dm, 1e-9)});
  }

  std::printf("\n(b) query time (ms) — DSPM vs Exact\n");
  PrintHeader("|V(q)|", {"DSPM", "Exact", "speedup"});
  for (auto& [lo, bucket] : buckets) {
    if (bucket.queries.empty()) continue;
    double nq = static_cast<double>(bucket.queries.size());
    double dm = bucket.dspm_time / nq * 1e3;
    double em = bucket.exact_time / nq * 1e3;
    char label[32];
    std::snprintf(label, sizeof(label), "%d-%d", lo, lo + 2);
    PrintRow(label, {dm, em, em / std::max(dm, 1e-9)});
  }
  std::printf(
      "\nExpected shape (paper): Original 3-5x slower than DSPM (more "
      "features to match); Exact orders of magnitude slower than DSPM; all "
      "times grow mildly with |V(q)|.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gdim

int main(int argc, char** argv) { return gdim::bench::Main(argc, argv); }
