#ifndef GDIM_CORE_TOPK_H_
#define GDIM_CORE_TOPK_H_

#include <cstdint>
#include <vector>

#include "core/kernels/scan_kernel.h"
#include "core/packed_bits.h"
#include "graph/graph.h"
#include "mcs/dissimilarity.h"

namespace gdim {

/// One ranked answer: a database graph id and its score (dissimilarity or
/// mapped distance — smaller is better; for Tanimoto rankings the score is
/// 1 − similarity so that smaller stays better).
struct RankedResult {
  int id = 0;
  double score = 0.0;

  friend bool operator==(const RankedResult& a, const RankedResult& b) =
      default;
};

/// Full ranking (ascending score, ties broken by id — a deterministic total
/// order, applied identically to exact and approximate rankings so that ties
/// do not bias the quality measures).
using Ranking = std::vector<RankedResult>;

/// Ranks all database graphs by a precomputed score vector; ascending.
Ranking RankByScores(const std::vector<double>& scores);

/// Bounded top-k selection on integer Hamming distances: keeps the k
/// smallest (distance, id) pairs among the rows offered, in any order, and
/// rejects a row that cannot enter with one integer compare. Because
/// HammingScore is strictly increasing in the distance, the (distance, id)
/// order is exactly the ascending score-then-id order of RankByScores, so
/// the survivors — scored only at Take() — equal
/// TopK(RankByScores(scores), k) entry for entry, ties included, whatever
/// order the rows are stored or offered in. This is the stage-3 selector
/// behind every candidate source of the serving engine: full scans, IVF
/// buckets, and prefilter candidate lists.
class HammingTopK {
 public:
  /// k <= 0 keeps nothing.
  explicit HammingTopK(int k);

  /// Offers external id `id` (>= 0, distinct across offers) at Hamming
  /// distance `distance`. `removed` points at the row's tombstone flag and
  /// may be null; it is read only when the row passes the bound, so a
  /// removed row costs nothing unless it would have ranked.
  void Offer(uint32_t distance, int id, const uint8_t* removed) {
    const uint64_t key = (uint64_t{distance} << 32) | static_cast<uint32_t>(id);
    if (key < bound_ && (removed == nullptr || *removed == 0)) Admit(key);
  }

  /// The largest distance a row can have and still enter: the kth kept
  /// distance once k are kept (a row at that distance enters if its id is
  /// smaller), UINT32_MAX before; 0 for k <= 0, where nothing enters. Only
  /// ever falls between Take() calls.
  uint32_t max_distance() const { return static_cast<uint32_t>(bound_ >> 32); }

  /// The survivors in ascending (score, id) order, score =
  /// HammingScore(distance, num_bits). Leaves the selector empty.
  Ranking Take(int num_bits);

 private:
  void Admit(uint64_t key);

  size_t k_;
  /// Keys strictly below the bound may enter: the largest kept key once k
  /// are kept, UINT64_MAX before (no real key reaches it: ids fit 31 bits).
  uint64_t bound_;
  std::vector<uint64_t> heap_;  ///< max-heap of kept (distance << 32 | id)
};

/// Offers rows [begin, end) of `rows` to one selector per query: tops[q]
/// receives row r under external id ids[r] at its distance to queries[q]
/// (rows.words_per_row() words each). `ids` and the nullable `tombstones`
/// are indexed by row of `rows` — the matrix's slice of its owner's id and
/// tombstone columns. The rows stream through `kernel` in blocks small
/// enough to stay L1-resident; each block is filtered against every query
/// in turn (ScanKernel::HammingWithin at that query's max_distance()), and
/// only the rows that pass are offered.
void ScanTopK(const ScanKernel& kernel, const PackedBitMatrix& rows, int begin,
              int end, const uint64_t* const* queries, int num_queries,
              const int* ids, const uint8_t* tombstones, HammingTopK* tops);

/// Exact ranking of db against query by MCS-based dissimilarity. This is the
/// costly reference path (the "Exact" algorithm of Exp-4/Exp-6).
Ranking ExactRanking(const Graph& query, const GraphDatabase& db,
                     DissimilarityKind kind = DissimilarityKind::kDelta2,
                     int threads = 0);

/// Approximate ranking by normalized Euclidean distance between binary
/// mapped vectors (sequential scan, as in the paper's query processing).
Ranking MappedRanking(const std::vector<uint8_t>& query_bits,
                      const std::vector<std::vector<uint8_t>>& db_bits);

/// Same ranking over the packed word layout: popcount Hamming scan instead
/// of a byte-compare loop. Bit-identical results to the byte overload.
Ranking MappedRanking(const std::vector<uint8_t>& query_bits,
                      const PackedBitMatrix& db_bits);

/// First k entries of a ranking (whole ranking if k >= size).
Ranking TopK(const Ranking& ranking, int k);

}  // namespace gdim

#endif  // GDIM_CORE_TOPK_H_
