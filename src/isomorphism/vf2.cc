#include "isomorphism/vf2.h"

#include <algorithm>

namespace gdim {

namespace {

// Sorts keys and collapses equal runs into (key, count) pairs.
template <typename Key>
std::vector<std::pair<Key, int>> CountRuns(std::vector<Key> keys) {
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<Key, int>> runs;
  for (const Key& key : keys) {
    if (runs.empty() || runs.back().first != key) {
      runs.emplace_back(key, 0);
    }
    ++runs.back().second;
  }
  return runs;
}

// True iff every (key, count) of `need` is matched in `have` by the same key
// with at least that count. Both are sorted by key.
template <typename Key>
bool Dominates(const std::vector<std::pair<Key, int>>& have,
               const std::vector<std::pair<Key, int>>& need) {
  auto it = have.begin();
  for (const auto& [key, count] : need) {
    while (it != have.end() && it->first < key) ++it;
    if (it == have.end() || it->first != key || it->second < count) {
      return false;
    }
  }
  return true;
}

std::vector<VertexId> SearchOrder(const Graph& pattern) {
  const int n = pattern.NumVertices();
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
           pattern.Degree(v) > pattern.Degree(best))) {
        best = v;
      }
    }
    placed[static_cast<size_t>(best)] = true;
    order.push_back(best);
    for (const AdjEntry& e : pattern.Neighbors(best)) {
      ++linked[static_cast<size_t>(e.neighbor)];
    }
  }
  return order;
}

}  // namespace

LabelCounts::LabelCounts(const Graph& g)
    : vertices(g.NumVertices()), edges(g.NumEdges()) {
  std::vector<LabelId> labels;
  labels.reserve(static_cast<size_t>(vertices));
  for (VertexId v = 0; v < vertices; ++v) labels.push_back(g.VertexLabel(v));
  vertex_labels = CountRuns(std::move(labels));
  std::vector<EdgeTriple> triples;
  triples.reserve(static_cast<size_t>(edges));
  for (const Edge& e : g.edges()) {
    LabelId lu = g.VertexLabel(e.u);
    LabelId lv = g.VertexLabel(e.v);
    if (lu > lv) std::swap(lu, lv);
    triples.emplace_back(lu, e.label, lv);
  }
  edge_triples = CountRuns(std::move(triples));
}

PreparedPattern::PreparedPattern(const Graph& pattern)
    : graph_(&pattern), counts_(pattern), order_(SearchOrder(pattern)) {}

bool MayEmbed(const LabelCounts& pattern, const LabelCounts& target) {
  return pattern.vertices <= target.vertices &&
         pattern.edges <= target.edges &&
         Dominates(target.vertex_labels, pattern.vertex_labels) &&
         Dominates(target.edge_triples, pattern.edge_triples);
}

bool SubgraphMatcher::Find(const PreparedPattern& pattern, const Graph& target,
                           const SubgraphIsoOptions& options,
                           std::vector<VertexId>* mapping,
                           SubgraphIsoStats* stats) {
  count_all_ = false;
  found_mapping_ = mapping;
  Run(pattern, target, options);
  if (stats != nullptr) {
    stats->nodes = nodes_;
    stats->aborted = aborted_;
  }
  return found_ != 0;
}

uint64_t SubgraphMatcher::Count(const PreparedPattern& pattern,
                                const Graph& target,
                                const SubgraphIsoOptions& options) {
  count_all_ = true;
  found_mapping_ = nullptr;
  Run(pattern, target, options);
  return found_;
}

void SubgraphMatcher::Run(const PreparedPattern& pattern, const Graph& target,
                          const SubgraphIsoOptions& options) {
  pattern_ = &pattern.graph();
  target_ = &target;
  order_ = &pattern.order();
  options_ = options;
  found_ = 0;
  nodes_ = 0;
  aborted_ = false;
  mapping_.assign(static_cast<size_t>(pattern_->NumVertices()), -1);
  used_.assign(static_cast<size_t>(target.NumVertices()), 0);
  Extend(0);
}

// Returns true when the search should stop (an embedding found and only
// the first one wanted, or the node budget exhausted).
bool SubgraphMatcher::Extend(size_t depth) {
  if (options_.max_nodes != 0 && nodes_ >= options_.max_nodes) {
    aborted_ = true;
    return true;
  }
  ++nodes_;
  if (depth == order_->size()) {
    ++found_;
    if (count_all_) return false;
    if (found_mapping_ != nullptr) *found_mapping_ = mapping_;
    return true;
  }
  const VertexId pv = (*order_)[depth];
  // Candidate generation: if some neighbor of pv is mapped, only the
  // target neighbors of its image are viable — much smaller than V(t).
  VertexId anchor = -1;
  for (const AdjEntry& e : pattern_->Neighbors(pv)) {
    if (mapping_[static_cast<size_t>(e.neighbor)] >= 0) {
      anchor = mapping_[static_cast<size_t>(e.neighbor)];
      break;
    }
  }
  if (anchor >= 0) {
    for (const AdjEntry& e : target_->Neighbors(anchor)) {
      const VertexId tv = e.neighbor;
      if (used_[static_cast<size_t>(tv)] != 0) continue;
      if (!Feasible(pv, tv)) continue;
      if (TryMap(pv, tv, depth)) return true;
    }
  } else {
    for (VertexId tv = 0; tv < target_->NumVertices(); ++tv) {
      if (used_[static_cast<size_t>(tv)] != 0) continue;
      if (!Feasible(pv, tv)) continue;
      if (TryMap(pv, tv, depth)) return true;
    }
  }
  return false;
}

bool SubgraphMatcher::Feasible(VertexId pv, VertexId tv) const {
  if (pattern_->VertexLabel(pv) != target_->VertexLabel(tv)) return false;
  if (pattern_->Degree(pv) > target_->Degree(tv)) return false;
  // Every already-mapped pattern neighbor must be a target neighbor with
  // the same edge label.
  for (const AdjEntry& e : pattern_->Neighbors(pv)) {
    const VertexId mapped = mapping_[static_cast<size_t>(e.neighbor)];
    if (mapped < 0) continue;
    const EdgeId te = target_->FindEdge(tv, mapped);
    if (te < 0) return false;
    if (target_->GetEdge(te).label != e.edge_label) return false;
  }
  if (options_.induced) {
    // Mapped pattern non-neighbors must not be adjacent to tv.
    for (VertexId other = 0; other < pattern_->NumVertices(); ++other) {
      const VertexId mapped = mapping_[static_cast<size_t>(other)];
      if (mapped < 0 || other == pv) continue;
      const bool p_adj = pattern_->HasEdge(pv, other);
      const bool t_adj = target_->HasEdge(tv, mapped);
      if (!p_adj && t_adj) return false;
    }
  }
  return true;
}

bool SubgraphMatcher::TryMap(VertexId pv, VertexId tv, size_t depth) {
  mapping_[static_cast<size_t>(pv)] = tv;
  used_[static_cast<size_t>(tv)] = 1;
  const bool stop = Extend(depth + 1);
  mapping_[static_cast<size_t>(pv)] = -1;
  used_[static_cast<size_t>(tv)] = 0;
  return stop;
}

bool IsSubgraphIsomorphic(const Graph& pattern, const Graph& target,
                          const SubgraphIsoOptions& options,
                          SubgraphIsoStats* stats) {
  return FindSubgraphEmbedding(pattern, target, nullptr, options, stats);
}

bool FindSubgraphEmbedding(const Graph& pattern, const Graph& target,
                           std::vector<VertexId>* mapping,
                           const SubgraphIsoOptions& options,
                           SubgraphIsoStats* stats) {
  const PreparedPattern prepared(pattern);
  if (!MayEmbed(prepared.counts(), LabelCounts(target))) {
    if (stats != nullptr) *stats = SubgraphIsoStats{};
    return false;
  }
  SubgraphMatcher matcher;
  return matcher.Find(prepared, target, options, mapping, stats);
}

uint64_t CountSubgraphEmbeddings(const Graph& pattern, const Graph& target,
                                 const SubgraphIsoOptions& options) {
  const PreparedPattern prepared(pattern);
  if (!MayEmbed(prepared.counts(), LabelCounts(target))) return 0;
  SubgraphMatcher matcher;
  return matcher.Count(prepared, target, options);
}

bool AreGraphsIsomorphic(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices()) return false;
  if (a.NumEdges() != b.NumEdges()) return false;
  return IsSubgraphIsomorphic(a, b);
}

}  // namespace gdim
