#include "core/index.h"

#include <utility>

#include "common/timer.h"
#include "core/dspmap.h"

namespace gdim {

Result<GraphSearchIndex> GraphSearchIndex::Build(const GraphDatabase& db,
                                                 const IndexOptions& options) {
  GraphSearchIndex index;
  index.db_ = db;
  index.options_ = options;

  // Phase 1: mine the candidate feature set F.
  WallTimer timer;
  Result<std::vector<FrequentPattern>> mined =
      MineFrequentSubgraphs(db, options.mining);
  if (!mined.ok()) return mined.status();
  index.stats_.mining_seconds = timer.Seconds();
  index.stats_.mined_features = static_cast<int>(mined.value().size());
  if (mined.value().empty()) {
    return Status::NotFound("no frequent subgraphs at this support");
  }
  BinaryFeatureDb features = BinaryFeatureDb::FromPatterns(
      static_cast<int>(db.size()), mined.value());

  std::unique_ptr<FeatureSelector> selector = MakeSelector(options.selector);
  if (selector == nullptr) {
    return Status::InvalidArgument("unknown selector: " + options.selector);
  }

  // Phase 2: pairwise dissimilarities, only if the selector needs them.
  // DSPMap evaluates δ lazily per partition block instead of the full
  // matrix, so it goes through its own path below.
  DissimilarityMatrix delta;
  const bool is_dspmap = options.selector == "DSPMap";
  if (selector->NeedsDissimilarity() && !is_dspmap) {
    timer.Reset();
    delta = DissimilarityMatrix::Compute(db, options.dissimilarity, {},
                                         options.threads);
    index.stats_.dissimilarity_seconds = timer.Seconds();
  }

  // Phase 3: feature selection (the paper's "indexing time").
  timer.Reset();
  std::vector<int> selected;
  if (is_dspmap) {
    DspmapOptions dopt = options.dspmap;
    dopt.p = options.p;
    dopt.seed = options.seed;
    dopt.dspm.threads = options.threads;
    DspmapResult r = RunDspmap(features, db, options.dissimilarity, dopt);
    selected = std::move(r.selected);
  } else {
    SelectionInput input;
    input.db = &features;
    input.delta = delta.size() > 0 ? &delta : nullptr;
    input.p = options.p;
    input.seed = options.seed;
    input.threads = options.threads;
    input.params = options.params;
    input.dspm = options.dspm;
    input.dspmap = options.dspmap;
    Result<SelectionOutput> out = selector->Select(input);
    if (!out.ok()) return out.status();
    selected = std::move(out->selected);
  }
  index.stats_.selection_seconds = timer.Seconds();
  index.stats_.selected_features = static_cast<int>(selected.size());

  // Phase 4: materialize the dimension and the mapped database. Database
  // vectors come from the mined support sets (no VF2 needed).
  GraphDatabase dimension;
  dimension.reserve(selected.size());
  for (int r : selected) {
    dimension.push_back(features.feature_graphs()[static_cast<size_t>(r)]);
  }
  index.mapper_ = std::make_shared<FeatureMapper>(std::move(dimension));
  index.db_bits_.resize(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    std::vector<uint8_t> bits(selected.size(), 0);
    for (size_t r = 0; r < selected.size(); ++r) {
      bits[r] = features.Contains(static_cast<int>(i), selected[r]) ? 1 : 0;
    }
    index.db_bits_[i] = std::move(bits);
  }
  index.packed_bits_ = PackedBitMatrix::FromRows(
      index.db_bits_, index.mapper_->num_features());
  return index;
}

Ranking GraphSearchIndex::Query(const Graph& q, int k) const {
  // Packed scan + fused top-k selection; identical output order to
  // TopK(MappedRanking(...), k) without scoring or sorting every row.
  return MappedTopK(MapQuery(q), packed_bits_, k);
}

Ranking GraphSearchIndex::QueryExact(const Graph& q, int k) const {
  return TopK(ExactRanking(q, db_, options_.dissimilarity, options_.threads),
              k);
}

std::vector<uint8_t> GraphSearchIndex::MapQuery(const Graph& q) const {
  return mapper_->Map(q);
}

}  // namespace gdim
