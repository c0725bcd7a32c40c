#include "index/ivf_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "core/kernels/scan_kernel.h"

namespace gdim {

IvfIndex IvfIndex::Build(const PackedBitMatrix& rows, int bucket_override) {
  IvfIndex index;
  const int n = rows.num_rows();
  const int p = rows.num_bits();
  const size_t words = rows.words_per_row();
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
  // of the rows, so refinement is deterministic. The set bits are counted
  // straight from the packed words (padding bits are always zero).
  for (int round = 0; round < 2; ++round) {
    std::vector<int> ones(static_cast<size_t>(buckets) * words * 64, 0);
    std::vector<int> members(static_cast<size_t>(buckets), 0);
    for (int row = 0; row < n; ++row) {
      const int b = index.NearestBuckets(rows.row(row), 1).front();
      ++members[static_cast<size_t>(b)];
      int* count = ones.data() + static_cast<size_t>(b) * words * 64;
      const uint64_t* row_words = rows.row(row);
      for (size_t w = 0; w < words; ++w) {
        for (uint64_t bits = row_words[w]; bits != 0; bits &= bits - 1) {
          ++count[w * 64 + static_cast<size_t>(std::countr_zero(bits))];
        }
      }
    }
    std::vector<uint64_t> next(static_cast<size_t>(buckets) * words, 0);
    for (int b = 0; b < buckets; ++b) {
      uint64_t* median = next.data() + static_cast<size_t>(b) * words;
      const int size = members[static_cast<size_t>(b)];
      if (size == 0) {
        std::copy_n(index.centroids_.row(b), words, median);
        continue;
      }
      const int* count = ones.data() + static_cast<size_t>(b) * words * 64;
      for (int r = 0; r < p; ++r) {
        if (2 * count[r] >= size) median[r / 64] |= uint64_t{1} << (r % 64);
      }
    }
    index.centroids_ = PackedBitMatrix::FromWords(buckets, p, std::move(next));
  }

  // Final assignment pass fills the append lists, ascending by
  // construction.
  index.buckets_.assign(static_cast<size_t>(buckets), {});
  for (int row = 0; row < n; ++row) {
    const int b = index.NearestBuckets(rows.row(row), 1).front();
    index.buckets_[static_cast<size_t>(b)].appended.push_back(row);
  }
  return index;
}

IvfIndex IvfIndex::FromParts(PackedBitMatrix centroids,
                             std::vector<std::vector<int>> members) {
  GDIM_CHECK(static_cast<size_t>(centroids.num_rows()) == members.size());
  IvfIndex index;
  index.centroids_ = std::move(centroids);
  index.buckets_.resize(members.size());
  for (size_t b = 0; b < members.size(); ++b) {
    index.buckets_[b].appended = std::move(members[b]);
  }
  return index;
}

void IvfIndex::AddRow(const uint64_t* words, size_t words_per_row, int row) {
  if (buckets_.empty()) {
    // The engine was built over zero rows: the first insert seeds a single
    // bucket with itself as centroid. A generation swap (which rebuilds
    // over the grown corpus) is what re-partitions from here.
    centroids_ = PackedBitMatrix::FromWords(
        1, centroids_.num_bits(),
        std::vector<uint64_t>(words, words + words_per_row));
    buckets_.push_back(IvfBucket{.appended = {row}});
    return;
  }
  GDIM_DCHECK(words_per_row == centroids_.words_per_row());
  const int b = NearestBuckets(words, 1).front();
  // Rows only grow, so appending keeps the list sorted.
  buckets_[static_cast<size_t>(b)].appended.push_back(row);
}

std::vector<int> IvfIndex::LayOut(const std::vector<uint8_t>& tombstones) {
  std::vector<int> order;
  for (IvfBucket& bucket : buckets_) {
    const int begin = static_cast<int>(order.size());
    for (int row = bucket.begin; row < bucket.end; ++row) {
      if (tombstones[static_cast<size_t>(row)] == 0) order.push_back(row);
    }
    for (const int row : bucket.appended) {
      if (tombstones[static_cast<size_t>(row)] == 0) order.push_back(row);
    }
    bucket.begin = begin;
    bucket.end = static_cast<int>(order.size());
    bucket.appended = {};  // release the storage, not just the size
  }
  return order;
}

std::vector<int> IvfIndex::NearestBuckets(const uint64_t* query,
                                          int nprobe) const {
  // Counted from the centroids: Build ranks against them before any
  // bucket exists.
  const int buckets = centroids_.num_rows();
  if (buckets == 0) return {};
  std::vector<uint32_t> distance(static_cast<size_t>(buckets));
  ActiveScanKernel().HammingBlock(query, centroids_.row(0),
                                  centroids_.words_per_row(), buckets,
                                  distance.data());
  // Rank buckets by (distance, bucket id) packed into one key: the pair
  // order makes ties deterministic, and nth_element keeps the common
  // probes << buckets case O(buckets).
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
  std::sort(nearest.begin(), nearest.end());
  return nearest;
}

std::vector<int> IvfIndex::Probe(
    const std::vector<uint64_t>& query, int nprobe,
    const std::vector<uint8_t>& tombstones) const {
  GDIM_DCHECK(query.size() >= centroids_.words_per_row());
  const std::vector<int> probed = NearestBuckets(query.data(), nprobe);
  size_t pool = 0;
  for (const int b : probed) pool += buckets_[static_cast<size_t>(b)].size();
  std::vector<int> candidates;
  candidates.reserve(pool);
  // Ranges are laid out in bucket order, so the probed ranges, bucket by
  // bucket, are already ascending.
  for (const int b : probed) {
    const IvfBucket& bucket = buckets_[static_cast<size_t>(b)];
    for (int row = bucket.begin; row < bucket.end; ++row) {
      if (tombstones[static_cast<size_t>(row)] == 0) {
        candidates.push_back(row);
      }
    }
  }
  // Appended rows lie past every range; only they need merging.
  const size_t ranged = candidates.size();
  for (const int b : probed) {
    for (const int row : buckets_[static_cast<size_t>(b)].appended) {
      if (tombstones[static_cast<size_t>(row)] == 0) {
        candidates.push_back(row);
      }
    }
  }
  std::sort(candidates.begin() + static_cast<std::ptrdiff_t>(ranged),
            candidates.end());
  return candidates;
}

const IvfBucket& IvfIndex::posting(int bucket) const {
  GDIM_CHECK(bucket >= 0 && bucket < num_buckets());
  return buckets_[static_cast<size_t>(bucket)];
}

}  // namespace gdim
