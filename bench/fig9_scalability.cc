// Figure 9 (Exp-6): scalability with database size. (a) precision for all
// algorithms (DSPMap tracking DSPM), (b) query time DSPMap vs Exact,
// (c) indexing time — DSPMap orders of magnitude faster and the only method
// whose cost grows linearly with |DG|.
//
// The paper runs 2k..10k and reports that the quadratic-memory methods die
// beyond 6k on a 3.4GB PC; we scale sizes down (default 100..500, --full
// for 200..1000) and reproduce the asymmetry via the measured cost curves
// and a memory-estimate column (n·(n+m) doubles for DSPM-like methods vs
// b·(b+m) for DSPMap).

#include <cstdio>

#include "bench/harness.h"
#include "common/timer.h"
#include "core/dspmap.h"
#include "core/mapper.h"

namespace gdim {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool full = flags.GetBool("full", false);
  const int queries = flags.GetInt("queries", 30);
  const int p = flags.GetInt("p", 100);
  const int k = flags.GetInt("k", 20);
  std::vector<int> sizes =
      full ? std::vector<int>{200, 400, 600, 800, 1000}
           : std::vector<int>{100, 200, 300, 400, 500};
  // Quadratic-cost baselines are only run up to this size (the paper's
  // memory-limit story, scaled).
  const int baseline_cutoff = sizes[sizes.size() / 2];

  std::printf("=== Fig 9 (Exp-6): scalability with |DG| ===\n");
  std::printf("queries=%d p=%d k=%d sizes=", queries, p, k);
  for (int s : sizes) std::printf("%d ", s);
  std::printf("(baselines to %d)\n", baseline_cutoff);

  std::vector<std::string> algos = {"DSPM",  "Original", "Sample",
                                    "DSPMap", "MICI",     "MCFS"};
  std::map<std::string, std::vector<double>> precision, itime;
  std::vector<double> query_dspmap, query_exact, mem_full, mem_dspmap;

  for (int n : sizes) {
    DataScale scale;
    scale.db_size = n;
    scale.num_queries = queries;
    PreparedData data = PrepareChem(scale);
    const int m = data.features.num_features();
    const int b = std::max(20, n / 20);
    std::printf("  n=%d m=%d delta=%.2fs exact=%.2fs\n", n, m,
                data.delta_seconds, data.exact_seconds);
    mem_full.push_back(static_cast<double>(n) * (n + m) * 8 / 1e6);
    mem_dspmap.push_back(static_cast<double>(b) * (b + m) * 8 / 1e6);

    for (const std::string& name : algos) {
      const bool quadratic = name != "DSPMap" && name != "Sample" &&
                             name != "Original";
      if (quadratic && n > baseline_cutoff) {
        precision[name].push_back(0.0);  // "did not finish" marker
        itime[name].push_back(0.0);
        continue;
      }
      double secs = 0.0;
      Result<SelectionOutput> out = Status::Internal("unset");
      if (name == "DSPMap") {
        DspmapOptions opts;
        opts.p = p;
        opts.partition_size = b;
        opts.seed = 1;
        WallTimer t;
        // The real DSPMap path: lazy δ via MCS on demand (not the matrix).
        DspmapResult r = RunDspmap(data.features, data.db,
                                   DissimilarityKind::kDelta2, opts);
        secs = t.Seconds();
        out = SelectionOutput{std::move(r.selected), std::move(r.weights)};
      } else {
        out = RunSelector(name, data, p, 1, &secs);
      }
      GDIM_CHECK(out.ok()) << name;
      auto db_bits = ProjectSupports(data.features, out->selected);
      auto q_bits = ProjectQueries(data, out->selected, nullptr);
      precision[name].push_back(
          EvaluateMapped(data, q_bits, db_bits, k).precision);
      itime[name].push_back(secs);
    }

    // (b) per-query time, DSPMap dimension vs exact.
    Result<SelectionOutput> dmap = RunSelector("DSPMap", data, p, 1, nullptr);
    GDIM_CHECK(dmap.ok());
    GraphDatabase dim;
    for (int r : dmap->selected) {
      dim.push_back(data.features.feature_graphs()[static_cast<size_t>(r)]);
    }
    FeatureMapper mapper(std::move(dim));
    auto db_bits = ProjectSupports(data.features, dmap->selected);
    WallTimer t;
    for (const Graph& q : data.queries) {
      TopK(MappedRanking(mapper.Map(q), db_bits), k);
    }
    query_dspmap.push_back(t.Seconds() / queries * 1e3);
    t.Reset();
    for (const Graph& q : data.queries) {
      TopK(ExactRanking(q, data.db, DissimilarityKind::kDelta2, 1), k);
    }
    query_exact.push_back(t.Seconds() / queries * 1e3);
  }

  std::vector<std::string> cols;
  for (int s : sizes) cols.push_back(std::to_string(s));
  std::printf("\n(a) precision vs |DG|  (0 = not run: memory/time limit)\n");
  PrintHeader("algo", cols);
  for (const std::string& name : algos) PrintRow(name, precision[name]);

  std::printf("\n(b) query time (ms) vs |DG|\n");
  PrintHeader("", cols);
  PrintRow("DSPMap", query_dspmap);
  PrintRow("Exact", query_exact);

  std::printf("\n(c) indexing time (s) vs |DG|  (0 = not run)\n");
  PrintHeader("algo", cols);
  for (const std::string& name : algos) {
    if (name == "Original" || name == "Sample") continue;
    PrintRow(name, itime[name]);
  }

  std::printf("\nworking-set estimate (MB): full-matrix methods vs DSPMap\n");
  PrintHeader("", cols);
  PrintRow("full", mem_full);
  PrintRow("DSPMap", mem_dspmap);
  std::printf(
      "\nExpected shape (paper): DSPMap tracks DSPM's precision and beats "
      "the other baselines; DSPMap query time is orders of magnitude below "
      "Exact; DSPMap indexing grows ~linearly in |DG| while the others grow "
      "quadratically (and exceed memory at the paper's 6k+).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gdim

int main(int argc, char** argv) { return gdim::bench::Main(argc, argv); }
