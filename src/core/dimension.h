#ifndef GDIM_CORE_DIMENSION_H_
#define GDIM_CORE_DIMENSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/binary_db.h"
#include "core/dspm.h"
#include "core/dspmap.h"
#include "core/selector.h"
#include "graph/graph.h"
#include "mcs/dissimilarity.h"
#include "mining/gspan.h"

namespace gdim {

/// Configuration of the paper's offline step: mine the candidate features,
/// select p of them, and project the database onto them. The offline build
/// (gdim_tool build) and the online refresh (REINDEX) both run it through
/// BuildDimension, so the same graphs and options give the same dimension.
struct DimensionOptions {
  /// Selector by paper name ("DSPMap", "DSPM", "Sample", ...), resolved
  /// through the core/selector.h registry. DSPMap evaluates δ lazily per
  /// partition block, so it never computes the O(n²) δ matrix.
  std::string selector = "DSPMap";

  /// Number of dimensions p. BuildDimension requires p > 0 and keeps at
  /// most p of the selected features. The online refresh reads 0 as "keep
  /// the serving engine's current count" and resolves it before building.
  int p = 0;

  /// Frequent subgraph mining (the candidate feature set F).
  MiningOptions mining;

  /// Dissimilarity for the selectors that need one (DSPMap blocks, DSPM /
  /// SFS full matrix).
  DissimilarityKind dissimilarity = DissimilarityKind::kDelta2;

  /// Selector-specific knobs.
  SelectorParams params;
  DspmOptions dspm;
  DspmapOptions dspmap;

  uint64_t seed = 1;
  int threads = 0;
};

/// Phase timings and sizes of one dimension build, for the efficiency
/// experiments.
struct DimensionStats {
  double mining_seconds = 0.0;
  double dissimilarity_seconds = 0.0;  ///< full δ matrix (0 for DSPMap)
  double selection_seconds = 0.0;      ///< the paper's "indexing time"
  int mined_features = 0;
  int selected_features = 0;
};

/// A selected dimension and the database projected onto it: rows[i][r] = 1
/// iff features[r] is a subgraph of graph i.
struct BuiltDimension {
  GraphDatabase features;
  std::vector<std::vector<uint8_t>> rows;
  DimensionStats stats;
};

/// Mines frequent subgraphs of `graphs`, selects at most options.p of them
/// with options.selector, and projects `graphs` onto the selection from the
/// mined supports (no VF2; the rows equal FeatureMapper::Map bit for bit).
/// Deterministic in (graphs, options): mining order is DFS-lexicographic and
/// every selector is seeded. InvalidArgument for p <= 0 or an unknown
/// selector; NotFound when nothing is frequent or nothing is selected.
Result<BuiltDimension> BuildDimension(const GraphDatabase& graphs,
                                      const DimensionOptions& options);

/// Rows of the mined graphs over the `selected` feature ids of `features`,
/// read from the support sets: row i, column r is 1 iff graph i contains
/// feature selected[r].
std::vector<std::vector<uint8_t>> ProjectSupports(
    const BinaryFeatureDb& features, const std::vector<int>& selected);

}  // namespace gdim

#endif  // GDIM_CORE_DIMENSION_H_
