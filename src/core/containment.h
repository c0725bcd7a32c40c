#ifndef GDIM_CORE_CONTAINMENT_H_
#define GDIM_CORE_CONTAINMENT_H_

#include <vector>

#include "core/binary_db.h"
#include "core/mapper.h"
#include "graph/graph.h"

namespace gdim {

/// Filter+verify subgraph containment search over a graph database, in the
/// style the paper's related work (gIndex / FG-Index) builds from the same
/// frequent-subgraph features: for a query q, any database graph g with
/// q ⊆ g must contain every indexed feature contained in q, so candidates =
/// ∩_{f ∈ F(q)} sup(f); candidates are then verified with VF2.
///
/// This engine shares the feature dimension with the similarity index, which
/// lets the benches quantify how feature selection affects filtering power.
class ContainmentIndex {
 public:
  /// Builds from the database and an already-selected feature dimension.
  /// bit_rows[i][r] must be the containment bit of feature r in db[i]
  /// (e.g. BuiltDimension::rows, or ProjectSupports over the mined db).
  ContainmentIndex(GraphDatabase db, GraphDatabase features,
                   const std::vector<std::vector<uint8_t>>& bit_rows);

  /// Statistics of one query, for the filter-power experiments.
  struct QueryStats {
    int candidates = 0;   ///< graphs surviving the feature filter
    int answers = 0;      ///< verified supergraphs
    int features_used = 0;  ///< indexed features contained in the query
  };

  /// All database graph ids g with query ⊆ g (ascending). stats optional.
  std::vector<int> Query(const Graph& query, QueryStats* stats = nullptr) const;

  /// Candidate ids after filtering only (no verification); superset of
  /// Query(). Exposed for tests and the filter-ratio bench.
  std::vector<int> FilterCandidates(const Graph& query,
                                    QueryStats* stats = nullptr) const;

  int num_graphs() const { return static_cast<int>(db_.size()); }
  int num_features() const { return mapper_.num_features(); }

 private:
  GraphDatabase db_;
  FeatureMapper mapper_;
  /// supports_[r] = sorted ids of graphs containing feature r.
  std::vector<std::vector<int>> supports_;
};

}  // namespace gdim

#endif  // GDIM_CORE_CONTAINMENT_H_
