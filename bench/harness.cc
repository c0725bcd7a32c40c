#include "bench/harness.h"

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/mapper.h"
#include "core/measures.h"
#include "datasets/fingerprint.h"

namespace gdim {
namespace bench {

namespace {

PreparedData Finish(GraphDatabase db, GraphDatabase queries,
                    const DataScale& scale) {
  PreparedData data;
  data.db = std::move(db);
  data.queries = std::move(queries);

  WallTimer timer;
  MiningOptions mining;
  mining.min_support = scale.min_support;
  mining.max_edges = scale.max_pattern_edges;
  Result<std::vector<FrequentPattern>> mined =
      MineFrequentSubgraphs(data.db, mining);
  GDIM_CHECK(mined.ok()) << mined.status().ToString();
  data.features = BinaryFeatureDb::FromPatterns(
      static_cast<int>(data.db.size()), *mined);
  data.mining_seconds = timer.Seconds();

  timer.Reset();
  data.delta = DissimilarityMatrix::Compute(data.db);
  data.delta_seconds = timer.Seconds();

  if (!scale.skip_exact) {
    timer.Reset();
    data.exact.resize(data.queries.size());
    ParallelFor(0, static_cast<int>(data.queries.size()), [&](int qi) {
      data.exact[static_cast<size_t>(qi)] =
          ExactRanking(data.queries[static_cast<size_t>(qi)], data.db,
                       DissimilarityKind::kDelta2, /*threads=*/1);
    });
    data.exact_seconds = timer.Seconds();
  }
  return data;
}

}  // namespace

PreparedData PrepareChem(const DataScale& scale) {
  ChemGenOptions opts;
  opts.num_graphs = scale.db_size;
  // Family diversity scales with sample size: drawing a larger subset of a
  // huge corpus (PubChem) yields proportionally more scaffold families, not
  // denser ones.
  opts.num_families = std::max(10, scale.db_size / 8);
  opts.seed = scale.seed;
  GraphDatabase db = GenerateChemDatabase(opts);
  GraphDatabase queries = GenerateChemQueries(opts, scale.num_queries);
  return Finish(std::move(db), std::move(queries), scale);
}

PreparedData PrepareSynthetic(const DataScale& scale,
                              const GraphGenOptions& gen) {
  GraphGenOptions opts = gen;
  opts.num_graphs = scale.db_size;
  opts.seed = scale.seed;
  GraphDatabase db = GenerateSyntheticDatabase(opts);
  opts.seed = scale.seed ^ 0x9E3779B9ULL;  // independent query stream
  opts.num_graphs = scale.num_queries;
  GraphDatabase queries = GenerateSyntheticDatabase(opts);
  return Finish(std::move(db), std::move(queries), scale);
}

Result<SelectionOutput> RunSelector(const std::string& name,
                                    const PreparedData& data, int p,
                                    uint64_t seed, double* seconds) {
  std::unique_ptr<FeatureSelector> selector = MakeSelector(name);
  if (selector == nullptr) {
    return Status::InvalidArgument("unknown selector " + name);
  }
  SelectionInput input;
  input.db = &data.features;
  input.delta = &data.delta;
  input.p = p;
  input.seed = seed;
  // Benches run DSPM to tight convergence (the paper reports its best
  // configuration per dataset).
  input.dspm.max_iters = 100;
  input.dspm.epsilon = 1e-6;
  input.dspmap.dspm = input.dspm;
  input.dspmap.partition_size =
      std::max(20, data.features.num_graphs() / 10);
  WallTimer timer;
  Result<SelectionOutput> out = selector->Select(input);
  if (seconds != nullptr) *seconds = timer.Seconds();
  return out;
}

std::vector<std::vector<uint8_t>> ProjectQueries(
    const PreparedData& data, const std::vector<int>& selected,
    double* seconds) {
  GraphDatabase dimension;
  dimension.reserve(selected.size());
  for (int r : selected) {
    dimension.push_back(
        data.features.feature_graphs()[static_cast<size_t>(r)]);
  }
  FeatureMapper mapper(std::move(dimension));
  WallTimer timer;
  std::vector<std::vector<uint8_t>> bits = mapper.MapAll(data.queries);
  if (seconds != nullptr) *seconds = timer.Seconds();
  return bits;
}

Quality EvaluateMapped(const PreparedData& data,
                       const std::vector<std::vector<uint8_t>>& query_bits,
                       const std::vector<std::vector<uint8_t>>& db_bits,
                       int k) {
  std::vector<Ranking> approx(query_bits.size());
  for (size_t qi = 0; qi < query_bits.size(); ++qi) {
    approx[qi] = MappedRanking(query_bits[qi], db_bits);
  }
  return EvaluateRankings(data, approx, k);
}

Quality EvaluateRankings(const PreparedData& data,
                         const std::vector<Ranking>& approx, int k) {
  GDIM_CHECK(approx.size() == data.exact.size())
      << "query count mismatch (was skip_exact set?)";
  Quality q;
  for (size_t qi = 0; qi < approx.size(); ++qi) {
    q.precision += PrecisionAtK(data.exact[qi], approx[qi], k);
    q.kendall_tau += KendallTauAtK(data.exact[qi], approx[qi], k);
    q.rank_distance += InverseRankDistanceAtK(data.exact[qi], approx[qi], k);
  }
  const double n = static_cast<double>(approx.size());
  q.precision /= n;
  q.kendall_tau /= n;
  q.rank_distance /= n;
  return q;
}

std::vector<Ranking> FingerprintRankings(const PreparedData& data,
                                         uint64_t seed, int bits) {
  // The expert dictionary comes from an independent sample: different seed,
  // same generator family (the paper's dictionary predates any query set).
  ChemGenOptions sample_opts;
  sample_opts.num_graphs = std::max(100, static_cast<int>(data.db.size()) / 2);
  sample_opts.seed = seed ^ 0xF1A9ULL;
  GraphDatabase sample = GenerateChemDatabase(sample_opts);
  Result<FingerprintDictionary> dict =
      FingerprintDictionary::Build(sample, bits, 0.05, 5);
  GDIM_CHECK(dict.ok()) << dict.status().ToString();

  std::vector<std::vector<uint8_t>> db_fp(data.db.size());
  ParallelFor(0, static_cast<int>(data.db.size()), [&](int i) {
    db_fp[static_cast<size_t>(i)] =
        dict->Fingerprint(data.db[static_cast<size_t>(i)]);
  });
  std::vector<Ranking> rankings(data.queries.size());
  ParallelFor(0, static_cast<int>(data.queries.size()), [&](int qi) {
    std::vector<uint8_t> qfp =
        dict->Fingerprint(data.queries[static_cast<size_t>(qi)]);
    std::vector<double> scores(data.db.size());
    for (size_t i = 0; i < data.db.size(); ++i) {
      scores[i] = 1.0 - TanimotoSimilarity(qfp, db_fp[i]);
    }
    rankings[static_cast<size_t>(qi)] = RankByScores(scores);
  });
  return rankings;
}

void PrintRow(const std::string& label, const std::vector<double>& values) {
  std::printf("%-10s", label.c_str());
  for (double v : values) std::printf(" %10.4f", v);
  std::printf("\n");
  std::fflush(stdout);
}

void PrintHeader(const std::string& label,
                 const std::vector<std::string>& columns) {
  std::printf("%-10s", label.c_str());
  for (const std::string& c : columns) std::printf(" %10s", c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace gdim
