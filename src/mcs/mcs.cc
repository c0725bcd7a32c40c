#include "mcs/mcs.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/graph_utils.h"
#include "mcs/max_clique.h"

namespace gdim {

namespace {

// Shared helpers -------------------------------------------------------------

// Connectivity-aware static order (highest-degree first, then most-linked).
std::vector<VertexId> BuildConnectivityOrder(const Graph& g) {
  const int n = g.NumVertices();
  std::vector<VertexId> order;
  order.reserve(static_cast<size_t>(n));
  std::vector<bool> placed(static_cast<size_t>(n), false);
  std::vector<int> linked(static_cast<size_t>(n), 0);
  for (int step = 0; step < n; ++step) {
    int best = -1;
    for (VertexId v = 0; v < n; ++v) {
      if (placed[static_cast<size_t>(v)]) continue;
      if (best < 0 ||
          linked[static_cast<size_t>(v)] > linked[static_cast<size_t>(best)] ||
          (linked[static_cast<size_t>(v)] ==
               linked[static_cast<size_t>(best)] &&
           g.Degree(v) > g.Degree(best))) {
        best = v;
      }
    }
    placed[static_cast<size_t>(best)] = true;
    order.push_back(best);
    for (const AdjEntry& e : g.Neighbors(best)) {
      ++linked[static_cast<size_t>(e.neighbor)];
    }
  }
  return order;
}

// edge_feasible[e]: pattern edge e's label triple occurs in the target at
// all. Infeasible edges can never be matched.
std::vector<bool> ComputeEdgeFeasibility(const Graph& pattern,
                                         const Graph& target) {
  auto te = EdgeTripleHistogram(target);
  std::vector<bool> feasible(static_cast<size_t>(pattern.NumEdges()), false);
  for (EdgeId e = 0; e < pattern.NumEdges(); ++e) {
    const Edge& edge = pattern.GetEdge(e);
    LabelId lu = pattern.VertexLabel(edge.u);
    LabelId lv = pattern.VertexLabel(edge.v);
    if (lu > lv) std::swap(lu, lv);
    feasible[static_cast<size_t>(e)] = te.count({lu, edge.label, lv}) > 0;
  }
  return feasible;
}

// Unconstrained MCES ----------------------------------------------------------

// McGregor branch and bound. Vertices of the pattern are assigned, in a
// connectivity-aware static order, either to a compatible target vertex or to
// "null" (unmatched). Score = matched pattern edges; a pattern edge is scored
// when its *second* endpoint is decided. Optimistic bound: all feasible edges
// not yet lost could still match.
class McGregorSearch {
 public:
  McGregorSearch(const Graph& pattern, const Graph& target,
                 const McsOptions& options)
      : pattern_(pattern), target_(target), options_(options) {}

  McsResult Run() {
    McsResult result;
    upper_cap_ = EdgeLabelIntersectionBound(pattern_, target_);
    if (pattern_.NumVertices() == 0 || target_.NumVertices() == 0 ||
        upper_cap_ == 0) {
      return result;
    }
    order_ = BuildConnectivityOrder(pattern_);
    edge_feasible_ = ComputeEdgeFeasibility(pattern_, target_);
    feasible_total_ = 0;
    for (bool f : edge_feasible_) feasible_total_ += f ? 1 : 0;

    mapping_.assign(static_cast<size_t>(pattern_.NumVertices()), kUnassigned);
    used_.assign(static_cast<size_t>(target_.NumVertices()), false);
    decided_.assign(static_cast<size_t>(pattern_.NumVertices()), false);
    Extend(0, /*matched=*/0, /*lost=*/0);
    result.common_edges = best_;
    result.optimal = !aborted_;
    result.nodes = nodes_;
    return result;
  }

 private:
  static constexpr int kUnassigned = -2;
  static constexpr int kNull = -1;

  void Extend(size_t depth, int matched, int lost) {
    if (options_.max_nodes != 0 && nodes_ >= options_.max_nodes) {
      aborted_ = true;
      return;
    }
    ++nodes_;
    best_ = std::max(best_, matched);
    if (best_ >= upper_cap_) return;
    if (depth == order_.size()) return;
    if (feasible_total_ - lost <= best_) return;

    VertexId pv = order_[depth];
    // Explore high-gain assignments first: strong incumbents early make the
    // feasible_total − lost bound prune aggressively.
    std::vector<std::tuple<int, int, VertexId>> candidates;  // (-gain, miss, tv)
    for (VertexId tv = 0; tv < target_.NumVertices(); ++tv) {
      if (used_[static_cast<size_t>(tv)]) continue;
      if (pattern_.VertexLabel(pv) != target_.VertexLabel(tv)) continue;
      int gain = 0, miss = 0;
      CountEdgeOutcome(pv, tv, &gain, &miss);
      candidates.emplace_back(-gain, miss, tv);
    }
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [neg_gain, miss, tv] : candidates) {
      const int gain = -neg_gain;
      if (feasible_total_ - lost - miss <= best_) continue;  // child bound
      mapping_[static_cast<size_t>(pv)] = tv;
      used_[static_cast<size_t>(tv)] = true;
      decided_[static_cast<size_t>(pv)] = true;
      Extend(depth + 1, matched + gain, lost + miss);
      decided_[static_cast<size_t>(pv)] = false;
      used_[static_cast<size_t>(tv)] = false;
      mapping_[static_cast<size_t>(pv)] = kUnassigned;
      if (aborted_ || best_ >= upper_cap_) return;
    }
    // Null branch: feasible edges from pv to already-decided neighbors are
    // lost now; edges to future vertices are charged when those vertices get
    // decided (pv will then be a decided, null-mapped neighbor).
    int null_loss = 0;
    for (const AdjEntry& e : pattern_.Neighbors(pv)) {
      if (decided_[static_cast<size_t>(e.neighbor)] &&
          edge_feasible_[static_cast<size_t>(e.edge)]) {
        ++null_loss;
      }
    }
    mapping_[static_cast<size_t>(pv)] = kNull;
    decided_[static_cast<size_t>(pv)] = true;
    Extend(depth + 1, matched, lost + null_loss);
    decided_[static_cast<size_t>(pv)] = false;
    mapping_[static_cast<size_t>(pv)] = kUnassigned;
  }

  // For candidate pv->tv: pattern edges to already-decided neighbors that
  // become matched (gain) or definitively fail (miss; feasible edges only).
  void CountEdgeOutcome(VertexId pv, VertexId tv, int* gain,
                        int* miss) const {
    for (const AdjEntry& e : pattern_.Neighbors(pv)) {
      if (!decided_[static_cast<size_t>(e.neighbor)]) continue;
      VertexId image = mapping_[static_cast<size_t>(e.neighbor)];
      bool ok = false;
      if (image >= 0) {
        EdgeId te = target_.FindEdge(tv, image);
        ok = te >= 0 && target_.GetEdge(te).label == e.edge_label;
      }
      if (ok) {
        ++*gain;
      } else if (edge_feasible_[static_cast<size_t>(e.edge)]) {
        ++*miss;
      }
    }
  }

  const Graph& pattern_;
  const Graph& target_;
  McsOptions options_;
  std::vector<VertexId> order_;
  std::vector<int> mapping_;
  std::vector<bool> used_;
  std::vector<bool> decided_;
  std::vector<bool> edge_feasible_;
  int feasible_total_ = 0;
  int upper_cap_ = 0;
  int best_ = 0;
  uint64_t nodes_ = 0;
  bool aborted_ = false;
};

// Clique-based MCES (the RASCAL reduction): one product node per
// label-compatible *oriented* (pattern edge, target edge) pair; two nodes
// are adjacent iff their unioned endpoint correspondences form a consistent
// injective partial vertex map. Any clique therefore is a common edge
// subgraph and vice versa, so max clique size = |E(mcs)|.
McsResult CliqueMcs(const Graph& pattern, const Graph& target,
                    const McsOptions& options, int upper_cap) {
  struct Node {
    EdgeId pe;
    // Oriented endpoint images: pattern u,v -> target x,y.
    VertexId pu, pv, tx, ty;
    EdgeId te;
  };
  std::vector<Node> nodes;
  for (EdgeId pe = 0; pe < pattern.NumEdges(); ++pe) {
    const Edge& ep = pattern.GetEdge(pe);
    for (EdgeId te = 0; te < target.NumEdges(); ++te) {
      const Edge& et = target.GetEdge(te);
      if (ep.label != et.label) continue;
      if (pattern.VertexLabel(ep.u) == target.VertexLabel(et.u) &&
          pattern.VertexLabel(ep.v) == target.VertexLabel(et.v)) {
        nodes.push_back(Node{pe, ep.u, ep.v, et.u, et.v, te});
      }
      if (pattern.VertexLabel(ep.u) == target.VertexLabel(et.v) &&
          pattern.VertexLabel(ep.v) == target.VertexLabel(et.u)) {
        nodes.push_back(Node{pe, ep.u, ep.v, et.v, et.u, te});
      }
    }
  }
  const int nn = static_cast<int>(nodes.size());
  BitsetGraph product(nn);
  auto consistent = [](VertexId p1, VertexId t1, VertexId p2, VertexId t2) {
    if (p1 == p2) return t1 == t2;
    return t1 != t2;
  };
  for (int i = 0; i < nn; ++i) {
    for (int j = i + 1; j < nn; ++j) {
      const Node& a = nodes[static_cast<size_t>(i)];
      const Node& b = nodes[static_cast<size_t>(j)];
      if (a.pe == b.pe || a.te == b.te) continue;
      if (consistent(a.pu, a.tx, b.pu, b.tx) &&
          consistent(a.pu, a.tx, b.pv, b.ty) &&
          consistent(a.pv, a.ty, b.pu, b.tx) &&
          consistent(a.pv, a.ty, b.pv, b.ty)) {
        product.AddEdge(i, j);
      }
    }
  }
  MaxCliqueResult clique =
      MaxClique(product, /*stop_at=*/upper_cap, options.max_nodes);
  McsResult result;
  result.common_edges = clique.size;
  // Hitting stop_at early is still optimal (the cap is a valid bound).
  result.optimal = clique.optimal || clique.size >= upper_cap;
  result.nodes = clique.nodes;
  return result;
}

}  // namespace

McsResult MaxCommonEdgeSubgraph(const Graph& a, const Graph& b,
                                const McsOptions& options) {
  // Use the smaller graph (by vertices) as the pattern to shrink the tree.
  const Graph& pattern = a.NumVertices() <= b.NumVertices() ? a : b;
  const Graph& target = a.NumVertices() <= b.NumVertices() ? b : a;
  const int upper_cap =
      std::min(EdgeLabelIntersectionBound(pattern, target),
               std::min(pattern.NumEdges(), target.NumEdges()));
  if (upper_cap == 0) return McsResult{};
  switch (options.algorithm) {
    case McsAlgorithm::kMcGregor: {
      McGregorSearch search(pattern, target, options);
      return search.Run();
    }
    case McsAlgorithm::kClique:
      return CliqueMcs(pattern, target, options, upper_cap);
    case McsAlgorithm::kAuto: {
      // The coloring-bounded clique search dominates McGregor across this
      // problem domain (labeled graphs of 10–20 vertices), including the
      // similar label-uniform pairs where McGregor's bound collapses — see
      // bench/ablation_optimizations. McGregor remains the fallback when
      // the edge-product graph would be too large to materialize.
      const long long product_nodes = 2LL * pattern.NumEdges() *
                                      static_cast<long long>(target.NumEdges());
      if (product_nodes > 200000) {
        McGregorSearch search(pattern, target, options);
        return search.Run();
      }
      return CliqueMcs(pattern, target, options, upper_cap);
    }
  }
  return McsResult{};
}

int McsSize(const Graph& a, const Graph& b) {
  return MaxCommonEdgeSubgraph(a, b).common_edges;
}

}  // namespace gdim
