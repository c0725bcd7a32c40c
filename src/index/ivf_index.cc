#include "index/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "core/kernels/scan_kernel.h"

namespace gdim {

IvfIndex IvfIndex::Build(const PackedBitMatrix& rows, int bucket_override) {
  IvfIndex index;
  const int n = rows.num_rows();
  const int p = rows.num_bits();
  index.centroids_ = PackedBitMatrix::WithWidth(p);
  if (n == 0) return index;
  const int buckets = std::clamp(
      bucket_override > 0
          ? bucket_override
          : static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))),
      1, n);

  // Seeded medoid sample, sorted so bucket ids follow physical row order —
  // a canonical labeling under which two builds over the same rows agree
  // bucket for bucket.
  Rng rng(kIvfSeed);
  std::vector<int> medoids = rng.SampleWithoutReplacement(n, buckets);
  std::sort(medoids.begin(), medoids.end());
  for (int m : medoids) index.centroids_.AppendRowFrom(rows, m);

  // Two Hamming-median refinement rounds: assign every row to its nearest
  // centroid, then move each centroid to the bitwise majority of its
  // members (the coordinate-wise median under Hamming distance). Ties go
  // to 1, empty buckets keep their centroid; every step is a pure function
  // of the rows, so refinement is deterministic.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::vector<int>> ones(
        static_cast<size_t>(buckets),
        std::vector<int>(static_cast<size_t>(p), 0));
    std::vector<int> members(static_cast<size_t>(buckets), 0);
    for (int row = 0; row < n; ++row) {
      const int b = index.NearestBuckets(rows.row(row), 1).front();
      ++members[static_cast<size_t>(b)];
      const std::vector<uint8_t> bits = rows.UnpackRow(row);
      std::vector<int>& count = ones[static_cast<size_t>(b)];
      for (int r = 0; r < p; ++r) {
        count[static_cast<size_t>(r)] += bits[static_cast<size_t>(r)];
      }
    }
    PackedBitMatrix next = PackedBitMatrix::WithWidth(p);
    next.Reserve(buckets);
    std::vector<uint8_t> median(static_cast<size_t>(p), 0);
    for (int b = 0; b < buckets; ++b) {
      if (members[static_cast<size_t>(b)] == 0) {
        next.AppendRowFrom(index.centroids_, b);
        continue;
      }
      for (int r = 0; r < p; ++r) {
        median[static_cast<size_t>(r)] =
            2 * ones[static_cast<size_t>(b)][static_cast<size_t>(r)] >=
                    members[static_cast<size_t>(b)]
                ? 1
                : 0;
      }
      next.AppendRow(median);
    }
    index.centroids_ = std::move(next);
  }

  // Final assignment pass builds the postings, ascending by construction.
  index.postings_.assign(static_cast<size_t>(buckets), {});
  for (int row = 0; row < n; ++row) {
    const int b = index.NearestBuckets(rows.row(row), 1).front();
    index.postings_[static_cast<size_t>(b)].push_back(row);
  }
  return index;
}

IvfIndex IvfIndex::FromParts(PackedBitMatrix centroids,
                             std::vector<std::vector<int>> postings) {
  GDIM_CHECK(static_cast<size_t>(centroids.num_rows()) == postings.size());
  IvfIndex index;
  index.centroids_ = std::move(centroids);
  index.postings_ = std::move(postings);
  return index;
}

void IvfIndex::AddRow(const uint64_t* words, size_t words_per_row, int row) {
  if (postings_.empty()) {
    // The engine was built over zero rows: the first insert seeds a single
    // bucket with itself as centroid. A generation swap (which rebuilds
    // over the grown corpus) is what re-partitions from here.
    centroids_ = PackedBitMatrix::FromWords(
        1, centroids_.num_bits(),
        std::vector<uint64_t>(words, words + words_per_row));
    postings_.push_back({row});
    return;
  }
  GDIM_DCHECK(words_per_row == centroids_.words_per_row());
  const int b = NearestBuckets(words, 1).front();
  // Rows only grow, so appending keeps the posting list sorted.
  postings_[static_cast<size_t>(b)].push_back(row);
}

void IvfIndex::Renumber(const std::vector<int>& old_to_new) {
  for (std::vector<int>& list : postings_) {
    size_t kept = 0;
    for (int row : list) {
      const int renumbered = old_to_new[static_cast<size_t>(row)];
      // The old→new map is monotone, so the surviving rows stay sorted.
      if (renumbered >= 0) list[kept++] = renumbered;
    }
    list.resize(kept);
  }
}

std::vector<int> IvfIndex::NearestBuckets(const uint64_t* query,
                                          int nprobe) const {
  // Counted from the centroids: Build ranks against them before any
  // posting list exists.
  const int buckets = centroids_.num_rows();
  if (buckets == 0) return {};
  std::vector<uint32_t> distance(static_cast<size_t>(buckets));
  ActiveScanKernel().HammingBlock(query, centroids_.row(0),
                                  centroids_.words_per_row(), buckets,
                                  distance.data());
  // Rank buckets by (distance, bucket id) packed into one key: the pair
  // order makes ties deterministic, and nth_element keeps the common
  // probes << buckets case O(buckets). Only the probed *set* matters, so
  // the unspecified prefix order inside nth_element is fine.
  std::vector<uint64_t> order(static_cast<size_t>(buckets));
  for (int b = 0; b < buckets; ++b) {
    order[static_cast<size_t>(b)] =
        (uint64_t{distance[static_cast<size_t>(b)]} << 32) |
        static_cast<uint32_t>(b);
  }
  const int probes = std::clamp(nprobe, 1, buckets);
  if (probes < buckets) {
    std::nth_element(order.begin(), order.begin() + probes, order.end());
  }
  std::vector<int> nearest(static_cast<size_t>(probes));
  for (int i = 0; i < probes; ++i) {
    nearest[static_cast<size_t>(i)] =
        static_cast<int>(order[static_cast<size_t>(i)] & 0xffffffffu);
  }
  return nearest;
}

std::vector<int> IvfIndex::Probe(
    const std::vector<uint64_t>& query, int nprobe,
    const std::vector<uint8_t>& tombstones) const {
  GDIM_DCHECK(query.size() >= centroids_.words_per_row());
  const std::vector<int> probed = NearestBuckets(query.data(), nprobe);
  size_t pool = 0;
  for (const int b : probed) pool += postings_[static_cast<size_t>(b)].size();
  std::vector<int> candidates;
  candidates.reserve(pool);
  for (const int b : probed) {
    for (int row : postings_[static_cast<size_t>(b)]) {
      if (tombstones[static_cast<size_t>(row)] == 0) {
        candidates.push_back(row);
      }
    }
  }
  // Callers ranking the pool by (score, physical row) read it ascending,
  // like every other candidate list.
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

const std::vector<int>& IvfIndex::posting(int bucket) const {
  GDIM_CHECK(bucket >= 0 && bucket < num_buckets());
  return postings_[static_cast<size_t>(bucket)];
}

}  // namespace gdim
