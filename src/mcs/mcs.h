#ifndef GDIM_MCS_MCS_H_
#define GDIM_MCS_MCS_H_

#include <cstdint>

#include "graph/graph.h"

namespace gdim {

/// Which exact MCES algorithm to run.
enum class McsAlgorithm {
  /// Hybrid: McGregor with a small node budget first (wins on easy pairs),
  /// then the clique formulation for the hard ones. The default.
  kAuto,
  /// RASCAL-style reduction to maximum clique on the edge-product graph
  /// with Tomita coloring bounds. Robust on similar label-uniform graphs.
  kClique,
  /// McGregor vertex-correspondence branch and bound.
  kMcGregor,
};

/// Options for maximum common subgraph computation. The common subgraph is
/// unconstrained (it may be disconnected), as in the paper's mcs(,).
struct McsOptions {
  /// Branch-and-bound node budget; 0 = unlimited. If exhausted the search
  /// returns the best solution found so far with optimal=false.
  uint64_t max_nodes = 0;

  /// Algorithm choice.
  McsAlgorithm algorithm = McsAlgorithm::kAuto;
};

/// Result of a maximum common subgraph computation.
struct McsResult {
  /// |E(mcs(a,b))| — number of edges of the maximum common subgraph.
  int common_edges = 0;
  /// True iff the search ran to completion (result is exact).
  bool optimal = true;
  /// Branch-and-bound nodes visited.
  uint64_t nodes = 0;
};

/// Computes |E(mcs(a, b))| for undirected labeled graphs via McGregor-style
/// branch and bound over vertex correspondences, maximizing matched edges.
/// Vertex and edge labels must match exactly for an edge to be common.
McsResult MaxCommonEdgeSubgraph(const Graph& a, const Graph& b,
                                const McsOptions& options = {});

/// Convenience: the size (edge count) of the maximum common subgraph.
int McsSize(const Graph& a, const Graph& b);

}  // namespace gdim

#endif  // GDIM_MCS_MCS_H_
