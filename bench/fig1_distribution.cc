// Figure 1: dissimilarity/distance distribution. (a) all graph pairs within
// DG; (b) pairs between query graphs and DG. Shows that the Euclidean
// distance in DSPM's selected space tracks the δ2 graph dissimilarity while
// the "Original" all-frequent-subgraphs space does not.

#include <cstdio>
#include <numeric>

#include "bench/harness.h"
#include "core/measures.h"
#include "core/objective.h"

namespace gdim {
namespace bench {
namespace {

constexpr int kBins = 20;

// Histogram over [0,1] of the three series: δ, DSPM distance, Original
// distance, for the given pair source.
void PrintDistributions(const char* title, const std::vector<double>& delta,
                        const std::vector<double>& dspm,
                        const std::vector<double>& original) {
  std::printf("\n%s (bin -> fraction of pairs)\n", title);
  PrintHeader("bin", {"delta2", "DSPM", "Original"});
  std::vector<double> hd = HistogramFractions(delta, kBins);
  std::vector<double> hm = HistogramFractions(dspm, kBins);
  std::vector<double> ho = HistogramFractions(original, kBins);
  for (int b = 0; b < kBins; ++b) {
    char label[32];
    std::snprintf(label, sizeof(label), "%.2f", (b + 0.5) / kBins);
    PrintRow(label, {hd[static_cast<size_t>(b)], hm[static_cast<size_t>(b)],
                     ho[static_cast<size_t>(b)]});
  }
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  DataScale scale;
  scale.db_size = flags.GetInt("n", 200);
  scale.num_queries = flags.GetInt("queries", 40);
  const int p = flags.GetInt("p", 100);

  std::printf("=== Fig 1: dissimilarity/distance distribution ===\n");
  std::printf("n=%d queries=%d p=%d\n", scale.db_size, scale.num_queries, p);
  PreparedData data = PrepareChem(scale);
  std::printf("mined features m=%d (mining %.2fs, delta %.2fs)\n",
              data.features.num_features(), data.mining_seconds,
              data.delta_seconds);

  double secs = 0.0;
  Result<SelectionOutput> dspm = RunSelector("DSPM", data, p, 1, &secs);
  GDIM_CHECK(dspm.ok()) << dspm.status().ToString();
  std::vector<int> all(static_cast<size_t>(data.features.num_features()));
  std::iota(all.begin(), all.end(), 0);

  auto db_dspm = ProjectSupports(data.features, dspm->selected);
  auto db_orig = ProjectSupports(data.features, all);

  // (a) all pairs within DG.
  std::vector<double> va, vm, vo;
  const int n = static_cast<int>(data.db.size());
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      va.push_back(data.delta.at(i, j));
      vm.push_back(BinaryMappedDistance(db_dspm[static_cast<size_t>(i)],
                                        db_dspm[static_cast<size_t>(j)]));
      vo.push_back(BinaryMappedDistance(db_orig[static_cast<size_t>(i)],
                                        db_orig[static_cast<size_t>(j)]));
    }
  }
  PrintDistributions("(a) distribution within DG", va, vm, vo);

  // (b) pairs between queries and DG (structure-preserving view).
  auto q_dspm = ProjectQueries(data, dspm->selected, nullptr);
  auto q_orig = ProjectQueries(data, all, nullptr);
  std::vector<double> qa, qm, qo;
  auto qdelta = QueryDissimilarities(data.queries, data.db);
  for (size_t qi = 0; qi < data.queries.size(); ++qi) {
    for (size_t gi = 0; gi < data.db.size(); ++gi) {
      qa.push_back(qdelta[qi][gi]);
      qm.push_back(BinaryMappedDistance(q_dspm[qi], db_dspm[gi]));
      qo.push_back(BinaryMappedDistance(q_orig[qi], db_orig[gi]));
    }
  }
  PrintDistributions("(b) distribution between queries and DG", qa, qm, qo);

  // Shape check the paper claims: DSPM's histogram should be far closer to
  // δ's than Original's (L1 histogram distance).
  auto l1 = [](const std::vector<double>& x, const std::vector<double>& y) {
    std::vector<double> hx = HistogramFractions(x, kBins);
    std::vector<double> hy = HistogramFractions(y, kBins);
    double acc = 0;
    for (int b = 0; b < kBins; ++b) {
      acc += std::abs(hx[static_cast<size_t>(b)] - hy[static_cast<size_t>(b)]);
    }
    return acc;
  };
  std::printf("\nhistogram L1 distance to delta2 (smaller = better)\n");
  PrintHeader("", {"DSPM", "Original"});
  PrintRow("within-DG", {l1(va, vm), l1(va, vo)});
  PrintRow("query-DG", {l1(qa, qm), l1(qa, qo)});
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gdim

int main(int argc, char** argv) { return gdim::bench::Main(argc, argv); }
