#ifndef GDIM_ISOMORPHISM_VF2_H_
#define GDIM_ISOMORPHISM_VF2_H_

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace gdim {

/// Options for the subgraph isomorphism search.
struct SubgraphIsoOptions {
  /// If true, require an induced embedding (non-adjacent pattern vertices
  /// must map to non-adjacent target vertices). The paper's containment
  /// relation f ⊆ g is the standard non-induced monomorphism, the default.
  bool induced = false;

  /// Safety valve on backtracking nodes; 0 means unlimited. The graphs in
  /// this problem domain are tiny, so the default is effectively unlimited.
  uint64_t max_nodes = 0;
};

/// Statistics from one search, for benchmarking and tests.
struct SubgraphIsoStats {
  uint64_t nodes = 0;       ///< Backtracking tree nodes visited.
  bool aborted = false;     ///< True if max_nodes was hit.
};

/// The label multisets of one graph as sorted (key, count) runs: vertex
/// labels, and (lower endpoint label, edge label, higher endpoint label)
/// edge triples. A pattern can embed only where the target's counts
/// dominate its own key by key.
struct LabelCounts {
  using EdgeTriple = std::tuple<LabelId, LabelId, LabelId>;

  explicit LabelCounts(const Graph& g);

  int vertices = 0;
  int edges = 0;
  std::vector<std::pair<LabelId, int>> vertex_labels;
  std::vector<std::pair<EdgeTriple, int>> edge_triples;
};

/// A pattern prepared once for many searches: its label counts and its
/// connectivity-aware search order (start from the highest-degree vertex,
/// then repeatedly the unordered vertex with the most ordered neighbours,
/// ties to higher degree; disconnected patterns are handled). Keeps a
/// reference to the graph, which must outlive it.
class PreparedPattern {
 public:
  explicit PreparedPattern(const Graph& pattern);

  const Graph& graph() const { return *graph_; }
  const LabelCounts& counts() const { return counts_; }
  const std::vector<VertexId>& order() const { return order_; }

 private:
  const Graph* graph_;
  LabelCounts counts_;
  std::vector<VertexId> order_;
};

/// The cheap necessary conditions for pattern ⊆ target: the pattern has no
/// more vertices and no more edges than the target, and the target's
/// vertex-label and edge-triple counts dominate the pattern's.
bool MayEmbed(const LabelCounts& pattern, const LabelCounts& target);

/// The backtracking search: VF2-flavoured, in the pattern's prepared order,
/// with candidates drawn from a mapped neighbour's image when there is one
/// and label/degree/edge-label pruning. It does not apply MayEmbed; callers
/// filter first. The matcher owns its scratch buffers and reuses them
/// across calls, so one matcher serves many searches on one thread.
class SubgraphMatcher {
 public:
  /// Searches for an embedding of pattern in target and stops at the
  /// first. On success fills *mapping (when non-null) with the image of
  /// each pattern vertex; mapping is untouched on failure.
  bool Find(const PreparedPattern& pattern, const Graph& target,
            const SubgraphIsoOptions& options = {},
            std::vector<VertexId>* mapping = nullptr,
            SubgraphIsoStats* stats = nullptr);

  /// Counts all embeddings (distinct vertex mappings).
  uint64_t Count(const PreparedPattern& pattern, const Graph& target,
                 const SubgraphIsoOptions& options = {});

 private:
  void Run(const PreparedPattern& pattern, const Graph& target,
           const SubgraphIsoOptions& options);
  bool Extend(size_t depth);
  bool Feasible(VertexId pv, VertexId tv) const;
  bool TryMap(VertexId pv, VertexId tv, size_t depth);

  const Graph* pattern_ = nullptr;
  const Graph* target_ = nullptr;
  const std::vector<VertexId>* order_ = nullptr;
  SubgraphIsoOptions options_;
  bool count_all_ = false;
  std::vector<VertexId>* found_mapping_ = nullptr;
  uint64_t found_ = 0;
  uint64_t nodes_ = 0;
  bool aborted_ = false;
  std::vector<VertexId> mapping_;
  std::vector<uint8_t> used_;
};

/// Decides whether pattern is (non-induced by default) subgraph isomorphic
/// to target, matching vertex and edge labels exactly. Empty patterns embed
/// trivially. Prepares both graphs, applies MayEmbed, then runs one
/// SubgraphMatcher search.
bool IsSubgraphIsomorphic(const Graph& pattern, const Graph& target,
                          const SubgraphIsoOptions& options = {},
                          SubgraphIsoStats* stats = nullptr);

/// Like IsSubgraphIsomorphic, and on success fills *mapping with the image
/// of each pattern vertex in target. mapping is untouched on failure.
bool FindSubgraphEmbedding(const Graph& pattern, const Graph& target,
                           std::vector<VertexId>* mapping,
                           const SubgraphIsoOptions& options = {},
                           SubgraphIsoStats* stats = nullptr);

/// Counts all embeddings (distinct vertex mappings). Exponential in the
/// worst case; intended for tests on small graphs.
uint64_t CountSubgraphEmbeddings(const Graph& pattern, const Graph& target,
                                 const SubgraphIsoOptions& options = {});

/// True iff a and b are isomorphic as labeled graphs. Implemented as equal
/// vertex and edge counts plus one non-induced embedding of a into b: an
/// embedding between equal vertex counts is a bijection, and with equal
/// edge counts it maps the edges of a onto all edges of b, so it is an
/// isomorphism.
bool AreGraphsIsomorphic(const Graph& a, const Graph& b);

}  // namespace gdim

#endif  // GDIM_ISOMORPHISM_VF2_H_
