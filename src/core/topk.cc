#include "core/topk.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/parallel.h"
#include "core/objective.h"

namespace gdim {

namespace {

/// Rows per kernel call in ScanTopK: 256 rows of up to 16 words (p=1024)
/// fill 32 KB, so a block stays L1-resident while every query of a tile
/// filters it, and the virtual dispatch amortizes to nothing.
constexpr int kScanBlockRows = 256;

}  // namespace

Ranking RankByScores(const std::vector<double>& scores) {
  Ranking r;
  r.reserve(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    r.push_back(RankedResult{static_cast<int>(i), scores[i]});
  }
  // The one total order every ranking uses: ascending score, id tie-break.
  std::sort(r.begin(), r.end(),
            [](const RankedResult& a, const RankedResult& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.id < b.id;
            });
  return r;
}

HammingTopK::HammingTopK(int k)
    : k_(static_cast<size_t>(std::max(k, 0))),
      bound_(k > 0 ? std::numeric_limits<uint64_t>::max() : 0) {}

void HammingTopK::Admit(uint64_t key) {
  if (heap_.size() == k_) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.back() = key;
  } else {
    heap_.push_back(key);
  }
  std::push_heap(heap_.begin(), heap_.end());
  if (heap_.size() == k_) bound_ = heap_.front();
}

Ranking HammingTopK::Take(int num_bits) {
  std::sort_heap(heap_.begin(), heap_.end());
  Ranking top;
  top.reserve(heap_.size());
  for (const uint64_t key : heap_) {
    top.push_back(RankedResult{
        static_cast<int>(key & 0xffffffffu),
        HammingScore(static_cast<uint32_t>(key >> 32), num_bits)});
  }
  heap_.clear();
  bound_ = k_ > 0 ? std::numeric_limits<uint64_t>::max() : 0;
  return top;
}

void ScanTopK(const ScanKernel& kernel, const PackedBitMatrix& rows, int begin,
              int end, const uint64_t* const* queries, int num_queries,
              const int* ids, const uint8_t* tombstones, HammingTopK* tops) {
  int hit_rows[kScanBlockRows];
  uint32_t hit_dists[kScanBlockRows];
  for (int row = begin; row < end; row += kScanBlockRows) {
    const int block = std::min(kScanBlockRows, end - row);
    for (int q = 0; q < num_queries; ++q) {
      const int hits = kernel.HammingWithin(
          queries[q], rows.row(row), rows.words_per_row(), block,
          tops[q].max_distance(), hit_rows, hit_dists);
      for (int h = 0; h < hits; ++h) {
        const int r = row + hit_rows[h];
        tops[q].Offer(hit_dists[h], ids[r],
                      tombstones == nullptr ? nullptr : tombstones + r);
      }
    }
  }
}

Ranking ExactRanking(const Graph& query, const GraphDatabase& db,
                     DissimilarityKind kind, int threads) {
  std::vector<double> scores(db.size(), 0.0);
  ParallelFor(
      0, static_cast<int>(db.size()),
      [&](int i) {
        scores[static_cast<size_t>(i)] =
            GraphDissimilarity(query, db[static_cast<size_t>(i)], kind);
      },
      threads);
  return RankByScores(scores);
}

Ranking MappedRanking(const std::vector<uint8_t>& query_bits,
                      const std::vector<std::vector<uint8_t>>& db_bits) {
  std::vector<double> scores(db_bits.size(), 0.0);
  for (size_t i = 0; i < db_bits.size(); ++i) {
    scores[i] = BinaryMappedDistance(query_bits, db_bits[i]);
  }
  return RankByScores(scores);
}

Ranking MappedRanking(const std::vector<uint8_t>& query_bits,
                      const PackedBitMatrix& db_bits) {
  const std::vector<uint64_t> query = db_bits.PackQuery(query_bits);
  const uint64_t* queries[] = {query.data()};
  std::vector<int> ids(static_cast<size_t>(db_bits.num_rows()));
  std::iota(ids.begin(), ids.end(), 0);
  HammingTopK top(db_bits.num_rows());
  ScanTopK(ActiveScanKernel(), db_bits, 0, db_bits.num_rows(), queries, 1,
           ids.data(), nullptr, &top);
  return top.Take(db_bits.num_bits());
}

Ranking TopK(const Ranking& ranking, int k) {
  GDIM_CHECK(k >= 0);
  if (k >= static_cast<int>(ranking.size())) return ranking;
  return Ranking(ranking.begin(), ranking.begin() + k);
}

}  // namespace gdim
