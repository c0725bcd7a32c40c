#include "bench/effectiveness_common.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace gdim {
namespace bench {

std::vector<std::string> EffectivenessAlgorithms() {
  return {"DSPM", "Original", "Sample", "SFS", "MICI", "MCFS", "UDFS",
          "NDFS"};
}

EffectivenessResult RunEffectiveness(const PreparedData& data, int p,
                                     uint64_t seed,
                                     const std::vector<int>& ks) {
  EffectivenessResult result;
  for (const std::string& name : EffectivenessAlgorithms()) {
    double secs = 0.0;
    Result<SelectionOutput> out = RunSelector(name, data, p, seed, &secs);
    GDIM_CHECK(out.ok()) << name << ": " << out.status().ToString();
    result.indexing_seconds[name] = secs;
    auto db_bits = ProjectSupports(data.features, out->selected);
    auto q_bits = ProjectQueries(data, out->selected, nullptr);
    for (int k : ks) {
      Quality q = EvaluateMapped(data, q_bits, db_bits, k);
      result.absolute["precision"][name].push_back(q.precision);
      result.absolute["kendall"][name].push_back(q.kendall_tau);
      result.absolute["rankdist"][name].push_back(q.rank_distance);
    }
    std::printf("  [%s] indexing %.2fs\n", name.c_str(), secs);
  }
  return result;
}

std::map<std::string, std::vector<double>> BenchmarkFromRankings(
    const PreparedData& data, const std::vector<Ranking>& rankings,
    const std::vector<int>& ks) {
  std::map<std::string, std::vector<double>> bench;
  for (int k : ks) {
    Quality q = EvaluateRankings(data, rankings, k);
    bench["precision"].push_back(q.precision);
    bench["kendall"].push_back(q.kendall_tau);
    bench["rankdist"].push_back(q.rank_distance);
  }
  return bench;
}

std::map<std::string, std::vector<double>> BenchmarkFromBest(
    const EffectivenessResult& result, const std::vector<int>& ks) {
  std::map<std::string, std::vector<double>> bench;
  for (const auto& [measure, per_algo] : result.absolute) {
    std::vector<double> best(ks.size(), 1e-12);
    for (const auto& [algo, values] : per_algo) {
      for (size_t i = 0; i < values.size(); ++i) {
        best[i] = std::max(best[i], values[i]);
      }
    }
    bench[measure] = std::move(best);
  }
  return bench;
}

void PrintEffectiveness(
    const EffectivenessResult& result, const std::vector<int>& ks,
    const std::map<std::string, std::vector<double>>& benchmark) {
  const char* panels[] = {"precision", "kendall", "rankdist"};
  const char* titles[] = {"(a) precision", "(b) Kendall's tau",
                          "(c) rank distance"};
  std::vector<std::string> k_cols;
  for (int k : ks) k_cols.push_back("k=" + std::to_string(k));
  for (int panel = 0; panel < 3; ++panel) {
    std::printf("\n%s (relative to benchmark)\n", titles[panel]);
    PrintHeader("algo", k_cols);
    const auto& per_algo = result.absolute.at(panels[panel]);
    const auto& bench = benchmark.at(panels[panel]);
    for (const std::string& name : EffectivenessAlgorithms()) {
      std::vector<double> rel;
      const auto& values = per_algo.at(name);
      for (size_t i = 0; i < values.size(); ++i) {
        rel.push_back(bench[i] > 0 ? values[i] / bench[i] : 0.0);
      }
      PrintRow(name, rel);
    }
  }
  std::printf("\n(d) indexing time (seconds)\n");
  PrintHeader("algo", {"seconds"});
  for (const std::string& name : EffectivenessAlgorithms()) {
    if (name == "Original" || name == "Sample") continue;  // no selection
    PrintRow(name, {result.indexing_seconds.at(name)});
  }
}

}  // namespace bench
}  // namespace gdim
