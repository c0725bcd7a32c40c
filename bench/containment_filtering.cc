// Extension bench: subgraph-containment filtering power of the selected
// dimension (the gIndex-style application from the paper's related work).
// Compares candidate-set sizes after filtering with DSPM-selected features
// vs randomly sampled features vs all mined features, for subgraph queries
// drawn from database graphs.

#include <cstdio>
#include <numeric>

#include "bench/harness.h"
#include "common/random.h"
#include "core/containment.h"
#include "graph/graph_utils.h"

namespace gdim {
namespace bench {
namespace {

std::unique_ptr<ContainmentIndex> BuildIndex(const PreparedData& data,
                                             const std::vector<int>& selected) {
  GraphDatabase features;
  for (int r : selected) {
    features.push_back(data.features.feature_graphs()[static_cast<size_t>(r)]);
  }
  auto rows = ProjectSupports(data.features, selected);
  return std::make_unique<ContainmentIndex>(data.db, std::move(features),
                                            rows);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  DataScale scale;
  scale.db_size = flags.GetInt("n", 150);
  scale.num_queries = 1;
  scale.skip_exact = true;
  const int p = flags.GetInt("p", 100);
  const int num_queries = flags.GetInt("queries", 60);

  std::printf("=== Extension: containment filtering power ===\n");
  PreparedData data = PrepareChem(scale);
  const int m = data.features.num_features();
  std::printf("n=%d m=%d p=%d queries=%d\n", scale.db_size, m, p,
              num_queries);

  Result<SelectionOutput> dspm = RunSelector("DSPM", data, p, 1, nullptr);
  Result<SelectionOutput> sample = RunSelector("Sample", data, p, 1, nullptr);
  GDIM_CHECK(dspm.ok() && sample.ok());
  std::vector<int> all(static_cast<size_t>(m));
  std::iota(all.begin(), all.end(), 0);

  auto idx_dspm = BuildIndex(data, dspm->selected);
  auto idx_sample = BuildIndex(data, sample->selected);
  auto idx_all = BuildIndex(data, all);

  // Queries: random connected subgraphs of database graphs (so each has at
  // least one answer).
  Rng rng(99);
  double cand_dspm = 0, cand_sample = 0, cand_all = 0, answers = 0;
  for (int qi = 0; qi < num_queries; ++qi) {
    const Graph& host = data.db[static_cast<size_t>(
        rng.UniformU64(data.db.size()))];
    // Connected subgraph: take a random edge and grow.
    std::vector<EdgeId> chosen;
    std::vector<bool> in(static_cast<size_t>(host.NumEdges()), false);
    EdgeId seed = static_cast<EdgeId>(rng.UniformU64(
        static_cast<uint64_t>(host.NumEdges())));
    chosen.push_back(seed);
    in[static_cast<size_t>(seed)] = true;
    int want = rng.UniformInt(2, 5);
    while (static_cast<int>(chosen.size()) < want) {
      // Any edge adjacent to the chosen set.
      std::vector<EdgeId> frontier;
      for (EdgeId e = 0; e < host.NumEdges(); ++e) {
        if (in[static_cast<size_t>(e)]) continue;
        for (EdgeId c : chosen) {
          const Edge& ce = host.GetEdge(c);
          const Edge& ee = host.GetEdge(e);
          if (ce.u == ee.u || ce.u == ee.v || ce.v == ee.u || ce.v == ee.v) {
            frontier.push_back(e);
            break;
          }
        }
      }
      if (frontier.empty()) break;
      EdgeId pick = frontier[static_cast<size_t>(
          rng.UniformU64(frontier.size()))];
      chosen.push_back(pick);
      in[static_cast<size_t>(pick)] = true;
    }
    Graph query = EdgeSubgraph(host, chosen);

    ContainmentIndex::QueryStats s1, s2, s3;
    std::vector<int> a1 = idx_dspm->Query(query, &s1);
    idx_sample->Query(query, &s2);
    idx_all->Query(query, &s3);
    cand_dspm += s1.candidates;
    cand_sample += s2.candidates;
    cand_all += s3.candidates;
    answers += static_cast<double>(a1.size());
  }
  const double nq = num_queries;
  std::printf("\naverage candidate-set size after filtering (smaller = "
              "stronger filter; %d graphs total)\n",
              scale.db_size);
  PrintHeader("", {"candidates", "answers"});
  PrintRow("DSPM-p", {cand_dspm / nq, answers / nq});
  PrintRow("Sample-p", {cand_sample / nq, answers / nq});
  PrintRow("all-m", {cand_all / nq, answers / nq});
  std::printf("\nExpected shape: all-m filters best (more features), DSPM's "
              "p features filter nearly as well, Sample-p clearly worse — "
              "the DS-preserving dimensions double as high-quality "
              "containment filters.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gdim

int main(int argc, char** argv) { return gdim::bench::Main(argc, argv); }
