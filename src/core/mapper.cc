#include "core/mapper.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/parallel.h"
#include "isomorphism/vf2.h"

namespace gdim {

struct FeatureMapper::Prepared {
  GraphDatabase features;
  /// patterns[r] prepares features[r] (and points into it).
  std::vector<PreparedPattern> patterns;
  /// Feature ids in ascending (edges, vertices) order: every feature comes
  /// after all features strictly contained in it.
  std::vector<int> order;
  /// subs[r]: the features strictly contained in feature r.
  std::vector<std::vector<int>> subs;
};

FeatureMapper::FeatureMapper(GraphDatabase features) {
  auto prepared = std::make_shared<Prepared>();
  prepared->features = std::move(features);
  const GraphDatabase& graphs = prepared->features;
  const int p = static_cast<int>(graphs.size());
  prepared->patterns.reserve(graphs.size());
  for (const Graph& g : graphs) prepared->patterns.emplace_back(g);

  prepared->order.resize(graphs.size());
  std::iota(prepared->order.begin(), prepared->order.end(), 0);
  std::stable_sort(prepared->order.begin(), prepared->order.end(),
                   [&graphs](int a, int b) {
                     const Graph& ga = graphs[static_cast<size_t>(a)];
                     const Graph& gb = graphs[static_cast<size_t>(b)];
                     return std::pair(ga.NumEdges(), ga.NumVertices()) <
                            std::pair(gb.NumEdges(), gb.NumVertices());
                   });

  // The lattice: f ⊂ f′ strictly. A containment between equal sizes is an
  // isomorphism and prunes nothing, so those pairs are skipped; the rest
  // pass the size and label-count filters before a search.
  prepared->subs.resize(graphs.size());
  SubgraphMatcher matcher;
  for (int sup = 0; sup < p; ++sup) {
    const PreparedPattern& outer = prepared->patterns[static_cast<size_t>(sup)];
    for (int sub = 0; sub < p; ++sub) {
      const PreparedPattern& inner =
          prepared->patterns[static_cast<size_t>(sub)];
      if (inner.counts().vertices == outer.counts().vertices &&
          inner.counts().edges == outer.counts().edges) {
        continue;
      }
      if (!MayEmbed(inner.counts(), outer.counts())) continue;
      if (matcher.Find(inner, outer.graph())) {
        prepared->subs[static_cast<size_t>(sup)].push_back(sub);
      }
    }
  }
  prepared_ = std::move(prepared);
}

int FeatureMapper::num_features() const {
  return static_cast<int>(prepared_->features.size());
}

const GraphDatabase& FeatureMapper::features() const {
  return prepared_->features;
}

std::vector<uint8_t> FeatureMapper::Map(const Graph& g,
                                        MapStats* stats) const {
  const Prepared& prepared = *prepared_;
  std::vector<uint8_t> bits(prepared.features.size(), 0);
  const LabelCounts counts(g);
  SubgraphMatcher matcher;
  MapStats local;
  for (const int r : prepared.order) {
    const std::vector<int>& subs = prepared.subs[static_cast<size_t>(r)];
    if (std::any_of(subs.begin(), subs.end(), [&bits](int sub) {
          return bits[static_cast<size_t>(sub)] == 0;
        })) {
      ++local.lattice_skipped;
      continue;
    }
    const PreparedPattern& pattern = prepared.patterns[static_cast<size_t>(r)];
    if (!MayEmbed(pattern.counts(), counts)) continue;
    ++local.vf2_calls;
    bits[static_cast<size_t>(r)] = matcher.Find(pattern, g) ? 1 : 0;
  }
  if (stats != nullptr) *stats = local;
  return bits;
}

std::vector<std::vector<uint8_t>> FeatureMapper::MapAll(
    const GraphDatabase& graphs, int threads) const {
  std::vector<std::vector<uint8_t>> out(graphs.size());
  ParallelFor(
      0, static_cast<int>(graphs.size()),
      [&](int i) { out[static_cast<size_t>(i)] = Map(graphs[static_cast<size_t>(i)]); },
      threads);
  return out;
}

}  // namespace gdim
