#ifndef GDIM_CORE_MAPPER_H_
#define GDIM_CORE_MAPPER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"

namespace gdim {

/// Maps arbitrary (unseen) graphs onto a fixed feature dimension: bit r of
/// φ(g) is 1 iff feature pattern r is subgraph-isomorphic to g. This is the
/// query-time "feature matching" step of the paper (done with VF2), and the
/// only graph-algorithmic work a query needs.
///
/// Matching is filter-then-verify. Construction prepares every feature once
/// (sizes, label counts, search order) and computes the containment lattice
/// among the features: the pairs f ⊂ f′ (strictly smaller, found with the
/// same matcher). Map visits features in ascending (edges, vertices) order,
/// so every sub-feature is decided before its super-features. Since
/// containment is transitive, f′ gets 0 without a search when a
/// sub-feature already got 0. Otherwise the cheap necessary conditions run
/// against the query's label counts, built once per call (sizes, then
/// vertex-label and edge-triple count dominance), and VF2 runs only on the
/// features that pass. The bits equal one IsSubgraphIsomorphic per feature.
///
/// The prepared state is immutable and shared: copies of a mapper are cheap
/// and reuse it. Map keeps its scratch state local, so concurrent calls are
/// safe.
class FeatureMapper {
 public:
  /// The mapper keeps a copy of the feature pattern graphs.
  explicit FeatureMapper(GraphDatabase features);

  /// Work counters of one Map call, for tests and benchmarks.
  struct MapStats {
    int vf2_calls = 0;        ///< features that reached the VF2 search
    int lattice_skipped = 0;  ///< features zeroed by a zero sub-feature
  };

  int num_features() const;
  const GraphDatabase& features() const;

  /// φ(g): binary vector of length num_features(). When stats is non-null
  /// it receives this call's counters.
  std::vector<uint8_t> Map(const Graph& g, MapStats* stats = nullptr) const;

  /// Maps a whole workload, parallelized over graphs.
  std::vector<std::vector<uint8_t>> MapAll(const GraphDatabase& graphs,
                                           int threads = 0) const;

 private:
  struct Prepared;
  std::shared_ptr<const Prepared> prepared_;
};

}  // namespace gdim

#endif  // GDIM_CORE_MAPPER_H_
