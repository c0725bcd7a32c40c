#include "core/dimension.h"

#include <memory>
#include <utility>

#include "common/timer.h"

namespace gdim {

Result<BuiltDimension> BuildDimension(const GraphDatabase& graphs,
                                      const DimensionOptions& options) {
  if (options.p <= 0) {
    return Status::InvalidArgument(
        "p must be a positive dimension count, got " +
        std::to_string(options.p));
  }
  std::unique_ptr<FeatureSelector> selector = MakeSelector(options.selector);
  if (selector == nullptr) {
    return Status::InvalidArgument("unknown selector: " + options.selector);
  }
  BuiltDimension built;

  // Phase 1: mine the candidate feature set F. The pattern support sets
  // double as the projected rows below.
  WallTimer timer;
  Result<std::vector<FrequentPattern>> mined =
      MineFrequentSubgraphs(graphs, options.mining);
  if (!mined.ok()) return mined.status();
  built.stats.mining_seconds = timer.Seconds();
  built.stats.mined_features = static_cast<int>(mined->size());
  if (mined->empty()) {
    return Status::NotFound("no frequent subgraphs at this support");
  }
  const BinaryFeatureDb features =
      BinaryFeatureDb::FromPatterns(static_cast<int>(graphs.size()), *mined);

  // Phase 2+3: selection. DSPMap evaluates δ lazily inside its partition
  // and overlap blocks; every other selector runs through the registry,
  // with the full δ matrix computed only when it asks for one.
  std::vector<int> selected;
  if (options.selector == "DSPMap") {
    timer.Reset();
    DspmapOptions dopt = options.dspmap;
    dopt.p = options.p;
    dopt.seed = options.seed;
    dopt.dspm.threads = options.threads;
    selected =
        RunDspmap(features, graphs, options.dissimilarity, dopt).selected;
  } else {
    DissimilarityMatrix delta;
    if (selector->NeedsDissimilarity()) {
      timer.Reset();
      delta = DissimilarityMatrix::Compute(graphs, options.dissimilarity, {},
                                           options.threads);
      built.stats.dissimilarity_seconds = timer.Seconds();
    }
    timer.Reset();
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
  built.stats.selection_seconds = timer.Seconds();
  if (static_cast<int>(selected.size()) > options.p) {
    selected.resize(static_cast<size_t>(options.p));
  }
  if (selected.empty()) {
    return Status::NotFound("selector '" + options.selector +
                            "' selected no features");
  }
  built.stats.selected_features = static_cast<int>(selected.size());

  // Phase 4: the dimension and the database's rows on it.
  built.features.reserve(selected.size());
  for (int r : selected) {
    built.features.push_back(
        features.feature_graphs()[static_cast<size_t>(r)]);
  }
  built.rows = ProjectSupports(features, selected);
  return built;
}

std::vector<std::vector<uint8_t>> ProjectSupports(
    const BinaryFeatureDb& features, const std::vector<int>& selected) {
  std::vector<std::vector<uint8_t>> rows(
      static_cast<size_t>(features.num_graphs()));
  for (size_t i = 0; i < rows.size(); ++i) {
    std::vector<uint8_t> row(selected.size(), 0);
    for (size_t r = 0; r < selected.size(); ++r) {
      row[r] = features.Contains(static_cast<int>(i), selected[r]) ? 1 : 0;
    }
    rows[i] = std::move(row);
  }
  return rows;
}

}  // namespace gdim
