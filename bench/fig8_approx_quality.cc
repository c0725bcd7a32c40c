// Figure 8 (Exp-5): approximation quality of DSPMap vs partition size b.
// (a) precision of DSPMap approaches DSPM as b grows; (b) indexing time of
// DSPMap grows linearly in b (and stays well below DSPM's).

#include <cstdio>

#include "bench/harness.h"
#include "common/timer.h"
#include "core/dspmap.h"

namespace gdim {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  DataScale scale;
  scale.db_size = flags.GetInt("n", 200);
  scale.num_queries = flags.GetInt("queries", 40);
  const int p = flags.GetInt("p", 100);
  const int k = flags.GetInt("k", 20);

  std::printf("=== Fig 8 (Exp-5): DSPMap approximation quality ===\n");
  std::printf("n=%d queries=%d p=%d k=%d\n", scale.db_size,
              scale.num_queries, p, k);
  PreparedData data = PrepareChem(scale);
  std::printf("m=%d\n", data.features.num_features());

  // Reference: full DSPM.
  double dspm_secs = 0.0;
  Result<SelectionOutput> dspm = RunSelector("DSPM", data, p, 1, &dspm_secs);
  GDIM_CHECK(dspm.ok());
  auto db_bits = ProjectSupports(data.features, dspm->selected);
  auto q_bits = ProjectQueries(data, dspm->selected, nullptr);
  double dspm_precision = EvaluateMapped(data, q_bits, db_bits, k).precision;

  std::printf("\nprecision and selection time vs partition size b\n");
  PrintHeader("b", {"DSPMap", "DSPM", "map_time", "dspm_time", "delta_eval"});
  // Paper sweeps b = 20..100.
  for (int b : {20, 40, 60, 80, 100}) {
    DspmapOptions opts;
    opts.p = p;
    opts.partition_size = b;
    opts.seed = 1;
    const DissimilarityMatrix* delta = &data.delta;
    WallTimer t;
    DspmapResult r = RunDspmap(
        data.features, [delta](int i, int j) { return delta->at(i, j); },
        opts);
    double secs = t.Seconds();
    auto mdb = ProjectSupports(data.features, r.selected);
    auto mq = ProjectQueries(data, r.selected, nullptr);
    double precision = EvaluateMapped(data, mq, mdb, k).precision;
    char label[32];
    std::snprintf(label, sizeof(label), "%d", b);
    PrintRow(label, {precision, dspm_precision, secs, dspm_secs,
                     static_cast<double>(r.delta_evaluations)});
  }
  std::printf(
      "\nExpected shape (paper): DSPMap precision within 1-2%% of DSPM, gap "
      "shrinking as b grows; DSPMap selection time grows ~linearly in b and "
      "is far below DSPM at small b (delta_eval counts the pairwise-MCS "
      "oracle calls DSPMap would make: O(n*b) vs n^2/2 for DSPM).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gdim

int main(int argc, char** argv) { return gdim::bench::Main(argc, argv); }
