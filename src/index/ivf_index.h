#ifndef GDIM_INDEX_IVF_INDEX_H_
#define GDIM_INDEX_IVF_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/packed_bits.h"

namespace gdim {

/// Seed of the deterministic medoid sample. Fixed (not a knob): two builds
/// over the same rows must agree bit for bit, or the sharded engine's
/// "fresh build answers identically" contracts stop holding for approx
/// queries.
inline constexpr uint64_t kIvfSeed = 0x91f5eedcafef00dULL;

/// One IVF bucket's rows in the owner's physical row space: a contiguous
/// range [begin, end) of the laid-out base segment, plus the rows assigned
/// since the last LayOut (ascending). Tombstoned rows linger in both until
/// the next LayOut.
struct IvfBucket {
  int begin = 0;
  int end = 0;
  std::vector<int> appended;

  size_t size() const {
    return static_cast<size_t>(end - begin) + appended.size();
  }
};

/// An IVF-style (inverted-file) coarse partition over packed fingerprint
/// rows: k-medoid-style centroid buckets under Hamming distance. The
/// approximate scan mode (QueryOptions ScanMode::kApprox) probes the NPROBE
/// nearest centroids and exact-scores only their members, pruning
/// per-query cost from all live rows to roughly nprobe/num_buckets of them.
///
/// The owner stores its base rows in bucket order: LayOut() hands it the
/// order that makes every bucket one contiguous slot range, so a probed
/// bucket is scored with block passes of the scan kernel, not row by row.
/// Rows added after a layout go to their bucket's append list until the
/// next LayOut (the owner's Compact) folds them in.
///
/// Build is seeded-deterministic (kIvfSeed): a medoid sample of the rows,
/// refined by two Hamming-median (bitwise majority) rounds, then one final
/// assignment pass. Identical rows in → identical buckets out, which is
/// what lets a generation swap rebuild the index with no observable
/// divergence from a from-scratch engine. Centroids are only re-selected
/// by a full rebuild (engine construction / generation swap), never by
/// maintenance.
///
/// Thread-compatibility contract: the index is owned by a QueryEngine and
/// externally synchronized by it — every mutating call happens inside an
/// engine method that REQUIRES the engine's writer role, and Probe() is
/// called from the query path under the same single-writer regime as every
/// other engine read. The class itself holds no locks.
class IvfIndex {
 public:
  IvfIndex() = default;

  /// Deterministic build over all rows of `rows` (every row live). Each row
  /// lands in its bucket's append list, ascending; LayOut makes the buckets
  /// contiguous. bucket_override > 0 forces the bucket count; 0 picks
  /// ceil(sqrt(n)). An empty matrix builds an empty index (AddRow seeds it
  /// later).
  static IvfIndex Build(const PackedBitMatrix& rows, int bucket_override);

  /// Adopts an already-built layout — one packed centroid row per list of
  /// rows, each list ascending — without any clustering work. The lists
  /// become append lists, as after Build. The v3 snapshot restore path:
  /// reload costs O(read) instead of the O(n·sqrt(n)) Build. Callers are
  /// responsible for soundness (the engine validates coverage against its
  /// live rows before calling).
  static IvfIndex FromParts(PackedBitMatrix centroids,
                            std::vector<std::vector<int>> members);

  int num_buckets() const { return static_cast<int>(buckets_.size()); }

  /// The engine-chosen probe width when a query does not pin one:
  /// ceil(num_buckets / 8) — an eighth of the buckets, which on a corpus
  /// with any cluster structure scans well under a quarter of the rows
  /// while keeping several buckets of slack around the nearest one.
  int default_nprobe() const {
    const int probes = (num_buckets() + 7) / 8;
    return probes > 0 ? probes : 1;
  }

  /// Assigns physical row `row` (words_per_row packed words at `words`) to
  /// the append list of its nearest centroid. The owner adds rows past
  /// every laid-out slot in ascending order, so each list stays sorted. On
  /// an index with no centroids yet (an engine built over zero rows), the
  /// row becomes the first centroid.
  void AddRow(const uint64_t* words, size_t words_per_row, int row);

  /// Makes every bucket contiguous: bucket by bucket, its range and then its
  /// append list, rows with tombstones[row] != 0 dropped, become the next
  /// slots of a new base segment. Returns that segment's row order
  /// (order[slot] = old physical row) and leaves every append list empty;
  /// the ranges then tile [0, order.size()) in bucket order. `tombstones`
  /// is indexed by old physical row and must cover every row of the index.
  /// Centroids are kept.
  std::vector<int> LayOut(const std::vector<uint8_t>& tombstones);

  /// The candidate pool of the `nprobe` nearest centroids (Hamming distance
  /// to the packed query, bucket-id tie-break): their rows minus
  /// tombstones, ascending — the probed ranges concatenated in slot order,
  /// then the appended rows, which lie past every range. nprobe is clamped
  /// to [1, num_buckets], so kNprobeAll (INT_MAX) probes every bucket — the
  /// pool is then exactly the live rows and the exact-scoring stage answers
  /// bit-identically to a full scan. `query` must hold at least
  /// words_per_row words (PackQuery).
  std::vector<int> Probe(const std::vector<uint64_t>& query, int nprobe,
                         const std::vector<uint8_t>& tombstones) const;

  /// The `nprobe` nearest buckets to the packed query by (Hamming distance
  /// to the centroid, bucket id), ascending by bucket id — which is slot
  /// order of their ranges; nprobe is clamped to [1, num_buckets], and an
  /// empty index yields none. Centroid distances come from the active scan
  /// kernel in one block pass. `query` must hold centroids().words_per_row()
  /// words. The bucket ranking behind Probe, AddRow, and the engine's
  /// approximate scan.
  std::vector<int> NearestBuckets(const uint64_t* query, int nprobe) const;

  /// One bucket's range and append list.
  const IvfBucket& posting(int bucket) const;

  /// The packed centroid rows, one per bucket. Read by the snapshot writer
  /// (the v3 IVFX section persists them verbatim) and by tests.
  const PackedBitMatrix& centroids() const { return centroids_; }

 private:
  PackedBitMatrix centroids_;  ///< one packed row per bucket
  std::vector<IvfBucket> buckets_;
};

}  // namespace gdim

#endif  // GDIM_INDEX_IVF_INDEX_H_
