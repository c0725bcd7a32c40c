// Unit tests of the IVF candidate-pruning index (src/index/ivf_index.h):
// deterministic builds (equal to a byte-unpacking reference), bucket
// coverage, the contiguous layout (ranges tiling the base, append lists for
// later rows), probe semantics (clamping, tombstone skipping, NPROBE=all ==
// everything, equal to a sort-based reference), and the incremental
// maintenance hooks (AddRow on fresh and empty indexes, LayOut dropping
// tombstones). The serving-level guarantees — bit-identity to full scans,
// recall, generation swaps — live in test_approx_query.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/packed_bits.h"
#include "index/ivf_index.h"
#include "serve/query_options.h"

namespace gdim {
namespace {

/// Seeded random 0/1 rows, `p` bits wide.
std::vector<std::vector<uint8_t>> RandomRows(int n, int p, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint8_t>> rows(static_cast<size_t>(n));
  for (auto& row : rows) {
    row.resize(static_cast<size_t>(p));
    for (auto& bit : row) bit = rng.UniformU64(2) != 0 ? 1 : 0;
  }
  return rows;
}

/// One bucket's rows: its range, then its append list.
std::vector<int> Members(const IvfIndex& index, int b) {
  const IvfBucket& bucket = index.posting(b);
  std::vector<int> rows;
  for (int row = bucket.begin; row < bucket.end; ++row) rows.push_back(row);
  rows.insert(rows.end(), bucket.appended.begin(), bucket.appended.end());
  return rows;
}

/// All rows of every bucket, merged.
std::vector<int> AllPosted(const IvfIndex& index) {
  std::vector<int> posted;
  for (int b = 0; b < index.num_buckets(); ++b) {
    const std::vector<int> rows = Members(index, b);
    posted.insert(posted.end(), rows.begin(), rows.end());
  }
  std::sort(posted.begin(), posted.end());
  return posted;
}

/// The layout invariant: the ranges tile [0, base_rows) in bucket order,
/// and each of the `total` rows is in exactly one range or append list.
void ExpectTiling(const IvfIndex& index, int base_rows, int total) {
  int next = 0;
  std::vector<int> seen(static_cast<size_t>(total), 0);
  for (int b = 0; b < index.num_buckets(); ++b) {
    const IvfBucket& bucket = index.posting(b);
    EXPECT_EQ(bucket.begin, next) << "bucket " << b;
    EXPECT_LE(bucket.begin, bucket.end) << "bucket " << b;
    next = bucket.end;
    EXPECT_TRUE(std::is_sorted(bucket.appended.begin(), bucket.appended.end()));
    for (const int row : Members(index, b)) {
      ASSERT_GE(row, 0);
      ASSERT_LT(row, total);
      ++seen[static_cast<size_t>(row)];
    }
    for (const int row : bucket.appended) EXPECT_GE(row, base_rows);
  }
  EXPECT_EQ(next, base_rows);
  for (int row = 0; row < total; ++row) {
    EXPECT_EQ(seen[static_cast<size_t>(row)], 1) << "row " << row;
  }
}

/// The probe pool the way it was first written: every member of the
/// nearest buckets (by a brute-force (distance, bucket) ranking), minus
/// tombstones, sorted.
std::vector<int> SortedProbeReference(const IvfIndex& index,
                                      const std::vector<uint64_t>& query,
                                      int nprobe,
                                      const std::vector<uint8_t>& tombstones) {
  const PackedBitMatrix& centroids = index.centroids();
  std::vector<std::pair<uint32_t, int>> ranked;
  for (int b = 0; b < index.num_buckets(); ++b) {
    ranked.emplace_back(HammingWords(query.data(), centroids.row(b),
                                     centroids.words_per_row()),
                        b);
  }
  std::sort(ranked.begin(), ranked.end());
  const int probes = std::clamp(nprobe, 1, index.num_buckets());
  std::vector<int> pool;
  for (int i = 0; i < probes; ++i) {
    for (const int row :
         Members(index, ranked[static_cast<size_t>(i)].second)) {
      if (tombstones[static_cast<size_t>(row)] == 0) pool.push_back(row);
    }
  }
  std::sort(pool.begin(), pool.end());
  return pool;
}

TEST(IvfIndexTest, BuildPartitionsEveryRowExactlyOnce) {
  const auto bits = RandomRows(100, 48, /*seed=*/1);
  const PackedBitMatrix rows = PackedBitMatrix::FromRows(bits, 48);
  const IvfIndex index = IvfIndex::Build(rows, /*bucket_override=*/0);
  EXPECT_EQ(index.num_buckets(), 10);  // ceil(sqrt(100))
  std::vector<int> expected(100);
  for (int i = 0; i < 100; ++i) expected[static_cast<size_t>(i)] = i;
  EXPECT_EQ(AllPosted(index), expected);
  // Nothing is laid out yet: every row waits in an append list.
  ExpectTiling(index, /*base_rows=*/0, /*total=*/100);
}

TEST(IvfIndexTest, BuildIsDeterministic) {
  const auto bits = RandomRows(80, 33, /*seed=*/2);
  const PackedBitMatrix rows = PackedBitMatrix::FromRows(bits, 33);
  const IvfIndex a = IvfIndex::Build(rows, 0);
  const IvfIndex b = IvfIndex::Build(rows, 0);
  ASSERT_EQ(a.num_buckets(), b.num_buckets());
  for (int bucket = 0; bucket < a.num_buckets(); ++bucket) {
    EXPECT_EQ(Members(a, bucket), Members(b, bucket));
  }
}

TEST(IvfIndexTest, BucketOverrideClampsToRowCount) {
  const auto bits = RandomRows(5, 16, /*seed=*/3);
  const PackedBitMatrix rows = PackedBitMatrix::FromRows(bits, 16);
  EXPECT_EQ(IvfIndex::Build(rows, 3).num_buckets(), 3);
  EXPECT_EQ(IvfIndex::Build(rows, 100).num_buckets(), 5);
  EXPECT_EQ(IvfIndex::Build(PackedBitMatrix::WithWidth(16), 0).num_buckets(),
            0);
}

TEST(IvfIndexTest, ProbeAllBucketsReturnsEveryLiveRow) {
  const auto bits = RandomRows(60, 40, /*seed=*/4);
  const PackedBitMatrix rows = PackedBitMatrix::FromRows(bits, 40);
  const IvfIndex index = IvfIndex::Build(rows, 0);
  std::vector<uint8_t> tombstones(60, 0);
  tombstones[7] = 1;
  tombstones[41] = 1;
  const std::vector<uint64_t> query = rows.PackQuery(bits[0]);
  const std::vector<int> all = index.Probe(query, kNprobeAll, tombstones);
  std::vector<int> expected;
  for (int i = 0; i < 60; ++i) {
    if (tombstones[static_cast<size_t>(i)] == 0) expected.push_back(i);
  }
  EXPECT_EQ(all, expected);
}

TEST(IvfIndexTest, ProbeClampsAndNarrowsMonotonically) {
  const auto bits = RandomRows(120, 64, /*seed=*/5);
  const PackedBitMatrix rows = PackedBitMatrix::FromRows(bits, 64);
  const IvfIndex index = IvfIndex::Build(rows, 8);
  const std::vector<uint8_t> tombstones(120, 0);
  const std::vector<uint64_t> query = rows.PackQuery(bits[3]);
  // A wider probe's pool contains every narrower probe's pool, and probing
  // past num_buckets is the same as probing all of them.
  std::vector<int> previous;
  for (int nprobe = 1; nprobe <= 8; ++nprobe) {
    const std::vector<int> pool = index.Probe(query, nprobe, tombstones);
    EXPECT_TRUE(std::includes(pool.begin(), pool.end(), previous.begin(),
                              previous.end()));
    previous = pool;
  }
  EXPECT_EQ(index.Probe(query, 1000, tombstones), previous);
  EXPECT_EQ(previous.size(), 120u);
}

TEST(IvfIndexTest, AddRowKeepsPostingsSortedAndCovered) {
  const auto bits = RandomRows(50, 32, /*seed=*/6);
  const PackedBitMatrix rows = PackedBitMatrix::FromRows(bits, 32);
  IvfIndex index = IvfIndex::Build(rows, 0);
  PackedBitMatrix grown = rows;
  const auto extra = RandomRows(20, 32, /*seed=*/7);
  for (const auto& row : extra) {
    const int id = grown.AppendRow(row);
    index.AddRow(grown.row(id), grown.words_per_row(), id);
  }
  std::vector<int> expected(70);
  for (int i = 0; i < 70; ++i) expected[static_cast<size_t>(i)] = i;
  EXPECT_EQ(AllPosted(index), expected);
  ExpectTiling(index, /*base_rows=*/0, /*total=*/70);
}

TEST(IvfIndexTest, AddRowSeedsAnIndexBuiltOverZeroRows) {
  // An engine constructed over an empty database still Builds its index
  // (zero buckets, width pinned); the first insert seeds one bucket.
  IvfIndex index = IvfIndex::Build(PackedBitMatrix::WithWidth(24), 0);
  EXPECT_EQ(index.num_buckets(), 0);
  PackedBitMatrix rows = PackedBitMatrix::WithWidth(24);
  const auto bits = RandomRows(3, 24, /*seed=*/8);
  for (const auto& row : bits) {
    const int id = rows.AppendRow(row);
    index.AddRow(rows.row(id), rows.words_per_row(), id);
  }
  EXPECT_EQ(index.num_buckets(), 1);
  EXPECT_EQ(AllPosted(index), (std::vector<int>{0, 1, 2}));
  const std::vector<uint8_t> tombstones(3, 0);
  EXPECT_EQ(index.Probe(rows.PackQuery(bits[1]), 1, tombstones),
            (std::vector<int>{0, 1, 2}));
}

TEST(IvfIndexTest, LayOutTilesTheBaseAndFoldsInAppendedRows) {
  const auto bits = RandomRows(40, 32, /*seed=*/9);
  PackedBitMatrix rows = PackedBitMatrix::FromRows(bits, 32);
  IvfIndex index = IvfIndex::Build(rows, 0);
  std::vector<std::vector<int>> built;
  for (int b = 0; b < index.num_buckets(); ++b) {
    built.push_back(Members(index, b));
  }

  // First layout, nothing removed: bucket b's rows become its range, in
  // their old order.
  std::vector<uint8_t> tombstones(40, 0);
  const std::vector<int> first = index.LayOut(tombstones);
  ASSERT_EQ(first.size(), 40u);
  ExpectTiling(index, /*base_rows=*/40, /*total=*/40);
  for (int b = 0; b < index.num_buckets(); ++b) {
    const IvfBucket& bucket = index.posting(b);
    EXPECT_TRUE(bucket.appended.empty());
    EXPECT_EQ(std::vector<int>(first.begin() + bucket.begin,
                               first.begin() + bucket.end),
              built[static_cast<size_t>(b)]);
  }

  // Rows added after the layout wait in append lists past the base.
  const auto extra = RandomRows(15, 32, /*seed=*/19);
  for (const auto& row : extra) {
    const int added = rows.AppendRow(row);
    index.AddRow(rows.row(added), rows.words_per_row(), added);
    tombstones.push_back(0);
  }
  ExpectTiling(index, /*base_rows=*/40, /*total=*/55);

  // Second layout with every third row removed (base and appended alike):
  // each bucket keeps its live range rows, then its live appended rows.
  std::vector<std::vector<int>> expected;
  for (int b = 0; b < index.num_buckets(); ++b) {
    std::vector<int> live;
    for (const int row : Members(index, b)) {
      if (row % 3 != 0) live.push_back(row);
    }
    expected.push_back(live);
  }
  for (int row = 0; row < 55; row += 3) {
    tombstones[static_cast<size_t>(row)] = 1;
  }
  const std::vector<int> second = index.LayOut(tombstones);
  const int live = static_cast<int>(second.size());
  EXPECT_EQ(live, 55 - 19);
  ExpectTiling(index, /*base_rows=*/live, /*total=*/live);
  for (int b = 0; b < index.num_buckets(); ++b) {
    const IvfBucket& bucket = index.posting(b);
    EXPECT_EQ(std::vector<int>(second.begin() + bucket.begin,
                               second.begin() + bucket.end),
              expected[static_cast<size_t>(b)]);
  }
}

TEST(IvfIndexTest, ProbeMatchesSortedReference) {
  // A laid-out index with appended rows and tombstones in both: the probe
  // concatenates ranges and merges only the appended tail, and must still
  // return exactly the sorted pool, at every width.
  const auto bits = RandomRows(150, 64, /*seed=*/21);
  PackedBitMatrix rows = PackedBitMatrix::FromRows(bits, 64);
  IvfIndex index = IvfIndex::Build(rows, 12);
  std::vector<uint8_t> tombstones(150, 0);
  index.LayOut(tombstones);
  for (const auto& row : RandomRows(30, 64, /*seed=*/22)) {
    const int added = rows.AppendRow(row);
    index.AddRow(rows.row(added), rows.words_per_row(), added);
    tombstones.push_back(0);
  }
  Rng rng(23);
  for (auto& dead : tombstones) dead = rng.UniformU64(6) == 0 ? 1 : 0;
  for (int q = 0; q < 20; ++q) {
    const std::vector<uint64_t> query =
        rows.PackQuery(RandomRows(1, 64, /*seed=*/100 + q)[0]);
    for (const int nprobe : {1, 2, 3, 5, 12, kNprobeAll}) {
      EXPECT_EQ(index.Probe(query, nprobe, tombstones),
                SortedProbeReference(index, query, nprobe, tombstones))
          << "q=" << q << " nprobe=" << nprobe;
    }
  }
}

/// Build as first written: majority bits counted from byte-unpacked rows,
/// nearest centroids by brute force. The packed-word Build must agree.
struct ReferenceLayout {
  PackedBitMatrix centroids;
  std::vector<std::vector<int>> members;
};

ReferenceLayout UnpackedBuildReference(const PackedBitMatrix& rows,
                                       int buckets) {
  const int n = rows.num_rows();
  const int p = rows.num_bits();
  const auto nearest = [&](const PackedBitMatrix& centroids, int row) {
    int best = 0;
    for (int b = 1; b < centroids.num_rows(); ++b) {
      if (HammingWords(rows.row(row), centroids.row(b),
                       rows.words_per_row()) <
          HammingWords(rows.row(row), centroids.row(best),
                       rows.words_per_row())) {
        best = b;
      }
    }
    return best;
  };
  Rng rng(kIvfSeed);
  std::vector<int> medoids = rng.SampleWithoutReplacement(n, buckets);
  std::sort(medoids.begin(), medoids.end());
  PackedBitMatrix centroids = PackedBitMatrix::WithWidth(p);
  for (const int m : medoids) centroids.AppendRowFrom(rows, m);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::vector<int>> ones(static_cast<size_t>(buckets),
                                       std::vector<int>(p, 0));
    std::vector<int> size(static_cast<size_t>(buckets), 0);
    for (int row = 0; row < n; ++row) {
      const int b = nearest(centroids, row);
      ++size[static_cast<size_t>(b)];
      const std::vector<uint8_t> unpacked = rows.UnpackRow(row);
      for (int r = 0; r < p; ++r) {
        ones[static_cast<size_t>(b)][static_cast<size_t>(r)] +=
            unpacked[static_cast<size_t>(r)];
      }
    }
    PackedBitMatrix next = PackedBitMatrix::WithWidth(p);
    for (int b = 0; b < buckets; ++b) {
      if (size[static_cast<size_t>(b)] == 0) {
        next.AppendRowFrom(centroids, b);
        continue;
      }
      std::vector<uint8_t> median(static_cast<size_t>(p), 0);
      for (int r = 0; r < p; ++r) {
        median[static_cast<size_t>(r)] =
            2 * ones[static_cast<size_t>(b)][static_cast<size_t>(r)] >=
                    size[static_cast<size_t>(b)]
                ? 1
                : 0;
      }
      next.AppendRow(median);
    }
    centroids = std::move(next);
  }
  ReferenceLayout layout;
  layout.members.resize(static_cast<size_t>(buckets));
  for (int row = 0; row < n; ++row) {
    layout.members[static_cast<size_t>(nearest(centroids, row))].push_back(
        row);
  }
  layout.centroids = std::move(centroids);
  return layout;
}

TEST(IvfIndexTest, BuildMatchesUnpackedReference) {
  // Widths across word boundaries, so padding bits and multi-word rows are
  // both counted.
  for (const int p : {7, 64, 100, 130}) {
    const auto bits = RandomRows(180, p, /*seed=*/static_cast<uint64_t>(p));
    const PackedBitMatrix rows = PackedBitMatrix::FromRows(bits, p);
    const IvfIndex index = IvfIndex::Build(rows, 0);
    const ReferenceLayout reference =
        UnpackedBuildReference(rows, index.num_buckets());
    ASSERT_EQ(index.num_buckets(), reference.centroids.num_rows());
    for (int b = 0; b < index.num_buckets(); ++b) {
      EXPECT_EQ(index.centroids().UnpackRow(b),
                reference.centroids.UnpackRow(b))
          << "p=" << p << " bucket " << b;
      EXPECT_EQ(Members(index, b), reference.members[static_cast<size_t>(b)])
          << "p=" << p << " bucket " << b;
    }
  }
}

TEST(IvfIndexTest, PostingsRespectBucketAssignmentUnderProbeOrder) {
  // Probing exactly one bucket returns a subset of rows that the same
  // query's wider probes keep — the single nearest bucket is stable.
  const auto bits = RandomRows(90, 56, /*seed=*/10);
  const PackedBitMatrix rows = PackedBitMatrix::FromRows(bits, 56);
  const IvfIndex index = IvfIndex::Build(rows, 0);
  const std::vector<uint8_t> tombstones(90, 0);
  std::set<int> probed_rows;
  for (int q = 0; q < 10; ++q) {
    const std::vector<uint64_t> query = rows.PackQuery(bits[q]);
    const std::vector<int> one = index.Probe(query, 1, tombstones);
    EXPECT_FALSE(one.empty());
    probed_rows.insert(one.begin(), one.end());
  }
  EXPECT_LE(probed_rows.size(), 90u);
}

}  // namespace
}  // namespace gdim
