#ifndef GDIM_BENCH_HARNESS_H_
#define GDIM_BENCH_HARNESS_H_

#include <map>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/binary_db.h"
#include "core/dimension.h"
#include "core/selector.h"
#include "core/topk.h"
#include "datasets/chemgen.h"
#include "datasets/graphgen.h"
#include "graph/graph.h"
#include "mcs/dissimilarity.h"
#include "mining/gspan.h"

namespace gdim {
namespace bench {

/// The figure harnesses use the shared --key=value parser.
using gdim::Flags;

/// A dataset prepared for the paper's experiments: database graphs, query
/// graphs, mined candidate features, the pairwise dissimilarity matrix, and
/// exact full rankings for every query.
struct PreparedData {
  GraphDatabase db;
  GraphDatabase queries;
  BinaryFeatureDb features;
  DissimilarityMatrix delta;
  /// exact[qi] = full exact ranking of db for queries[qi] (by δ2).
  std::vector<Ranking> exact;

  double mining_seconds = 0.0;
  double delta_seconds = 0.0;
  double exact_seconds = 0.0;
};

/// Default bench scale. The paper uses |DG| = 1k (10k for scalability) with
/// 1k queries; defaults here are scaled down so every figure regenerates in
/// tens of seconds on a laptop — pass --n / --queries to scale up.
struct DataScale {
  int db_size = 200;
  int num_queries = 40;
  uint64_t seed = 7;
  /// Mining threshold τ. The paper uses 5% on 1k–10k PubChem graphs; at our
  /// scaled-down database sizes 3% with a 7-edge bound yields a candidate
  /// pool (m ≈ 1.5k) whose m/p ratio matches the paper's regime.
  double min_support = 0.03;
  int max_pattern_edges = 7;
  bool skip_exact = false;  ///< skip exact rankings (figures that don't rank)
};

/// Chemical-compound workload (the paper's "real" dataset substitute).
PreparedData PrepareChem(const DataScale& scale);

/// GraphGen-style synthetic workload with explicit generator parameters.
PreparedData PrepareSynthetic(const DataScale& scale,
                              const GraphGenOptions& gen);

/// Runs a named selector on prepared data; returns selected features and
/// fills *seconds with the selection wall time (the paper's indexing time).
/// DSPMap gets its dissimilarities from the precomputed matrix (lazily per
/// block, but the same values).
Result<SelectionOutput> RunSelector(const std::string& name,
                                    const PreparedData& data, int p,
                                    uint64_t seed, double* seconds);

/// Maps every query onto the selected dimensions with VF2 (the online
/// feature-matching step); *seconds gets the total mapping time.
std::vector<std::vector<uint8_t>> ProjectQueries(
    const PreparedData& data, const std::vector<int>& selected,
    double* seconds);

/// Average top-k quality of the approximate rankings against data.exact.
struct Quality {
  double precision = 0.0;
  double kendall_tau = 0.0;
  double rank_distance = 0.0;
};
Quality EvaluateMapped(const PreparedData& data,
                       const std::vector<std::vector<uint8_t>>& query_bits,
                       const std::vector<std::vector<uint8_t>>& db_bits,
                       int k);

/// Quality of rankings given directly (used for the fingerprint benchmark).
Quality EvaluateRankings(const PreparedData& data,
                         const std::vector<Ranking>& approx, int k);

/// Fingerprint-benchmark rankings: builds an expert dictionary from an
/// independent sample, fingerprints everything, ranks by Tanimoto.
std::vector<Ranking> FingerprintRankings(const PreparedData& data,
                                         uint64_t seed, int bits);

/// Prints a row of "label v1 v2 ..." with fixed formatting.
void PrintRow(const std::string& label, const std::vector<double>& values);
void PrintHeader(const std::string& label,
                 const std::vector<std::string>& columns);

}  // namespace bench
}  // namespace gdim

#endif  // GDIM_BENCH_HARNESS_H_
