// Differential tests for the SIMD Hamming-scan kernels: every kernel this
// binary can run on this host must be bit-identical to the scalar baseline —
// exact integer diffs and exactly the same bound-filtered hits, for any
// width (word-multiple or not), any row count (block-multiple or not),
// hostile padding words, and empty rows. Kernels the host cannot run are
// skipped, not failed: the same test binary passes on an AVX-512 box and a
// plain x86-64 one.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/sync.h"
#include "core/kernels/scan_kernel.h"
#include "core/objective.h"
#include "core/packed_bits.h"
#include "core/topk.h"
#include "gtest/gtest.h"
#include "server/sharded_engine.h"
#include "test_util.h"

namespace gdim {
namespace {

/// Naive word-popcount reference, deliberately independent of every kernel.
uint32_t ReferenceDiff(const uint64_t* a, const uint64_t* b, size_t words) {
  uint32_t diff = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t x = a[w] ^ b[w];
    while (x != 0) {
      x &= x - 1;
      ++diff;
    }
  }
  return diff;
}

std::vector<const ScanKernel*> HostKernels() { return SupportedScanKernels(); }

/// A packed matrix plus packed queries over random 0/1 rows.
struct Fixture {
  PackedBitMatrix matrix;
  std::vector<std::vector<uint64_t>> queries;
};

Fixture MakeFixture(int num_rows, int num_bits, int num_queries, Rng* rng) {
  Fixture f;
  f.matrix = PackedBitMatrix::FromRows(
      RandomBitRows(num_rows, num_bits, 0.4, rng), num_bits);
  for (const auto& q : RandomBitRows(num_queries, num_bits, 0.4, rng)) {
    f.queries.push_back(f.matrix.PackQuery(q));
  }
  return f;
}

TEST(ScanKernelTest, RegistryShape) {
  EXPECT_STREQ(ScalarScanKernel().name(), "scalar");
  EXPECT_GE(ScalarScanKernel().tile_width(), 1);
  const auto kernels = HostKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front()->name(), "scalar");
  for (const ScanKernel* kernel : kernels) {
    EXPECT_EQ(FindScanKernel(kernel->name()), kernel);
  }
  EXPECT_EQ(FindScanKernel("bogus"), nullptr);
  EXPECT_EQ(FindScanKernel(""), nullptr);
  // The active kernel is always one the host supports.
  EXPECT_NE(FindScanKernel(ActiveScanKernel().name()), nullptr);
}

// Single-query blocks: every kernel, every hostile width and row count.
TEST(ScanKernelTest, HammingBlockMatchesReferenceAcrossShapes) {
  Rng rng(20260807);
  // 1, 2 and 4 words take the packed reductions, the rest one accumulator
  // per row; the row counts leave partial groups of eight for each.
  const int widths[] = {1,   5,   63,  64,  65,  127, 128,
                        192, 256, 300, 511, 512, 517};
  const int row_counts[] = {1, 2, 7, 64, 255, 256, 257};
  for (const int num_bits : widths) {
    for (const int num_rows : row_counts) {
      const Fixture f = MakeFixture(num_rows, num_bits, 1, &rng);
      const size_t words = f.matrix.words_per_row();
      std::vector<uint32_t> expected(static_cast<size_t>(num_rows));
      for (int r = 0; r < num_rows; ++r) {
        expected[static_cast<size_t>(r)] =
            ReferenceDiff(f.queries[0].data(), f.matrix.row(r), words);
      }
      for (const ScanKernel* kernel : HostKernels()) {
        std::vector<uint32_t> got(static_cast<size_t>(num_rows), 0xdeadbeef);
        kernel->HammingBlock(f.queries[0].data(), f.matrix.row(0), words,
                             num_rows, got.data());
        EXPECT_EQ(got, expected) << kernel->name() << " p=" << num_bits
                                 << " rows=" << num_rows;
      }
    }
  }
}

/// The (row, distance) pairs of rows[0, num_rows) within max_distance of
/// the query, sorted — the reference for HammingWithin's hit set.
using Hits = std::vector<std::pair<int, uint32_t>>;

Hits ReferenceHits(const uint64_t* query, const uint64_t* rows, size_t words,
                   int num_rows, uint32_t max_distance) {
  Hits hits;
  for (int r = 0; r < num_rows; ++r) {
    const uint32_t d =
        ReferenceDiff(query, rows + static_cast<size_t>(r) * words, words);
    if (d <= max_distance) hits.emplace_back(r, d);
  }
  return hits;
}

/// HammingWithin's hits as a sorted set. The outputs are sized to exactly
/// num_rows, so a kernel writing past them trips the sanitizer builds.
Hits KernelHits(const ScanKernel& kernel, const uint64_t* query,
                const uint64_t* rows, size_t words, int num_rows,
                uint32_t max_distance) {
  std::vector<int> hit_rows(static_cast<size_t>(num_rows), -1);
  std::vector<uint32_t> hit_dists(static_cast<size_t>(num_rows));
  const int count = kernel.HammingWithin(query, rows, words, num_rows,
                                         max_distance, hit_rows.data(),
                                         hit_dists.data());
  EXPECT_GE(count, 0);
  EXPECT_LE(count, num_rows);
  Hits hits;
  for (int i = 0; i < count; ++i) {
    hits.emplace_back(hit_rows[static_cast<size_t>(i)],
                      hit_dists[static_cast<size_t>(i)]);
  }
  std::sort(hits.begin(), hits.end());
  return hits;
}

// The fused filter: exactly the rows within the bound, with their
// distances, on every kernel — for 1, 2, 3, 4, 5, 8 and 16 words, row counts
// around a group of eight and a scan block, and bounds that pass nothing
// but exact matches, about half the rows, every row at the largest
// distance (a tie at the bound passes), and everything. The rows sit at the
// end of their allocation, so a read past the last row leaves it.
TEST(ScanKernelTest, HammingWithinMatchesFilteredReference) {
  Rng rng(1601);
  constexpr int kMaxRows = 256;
  const int widths[] = {1, 64, 65, 128, 192, 256, 300, 512, 1024};
  const int row_counts[] = {0, 1, 7, 8, 9, 255, 256};
  for (const int num_bits : widths) {
    const Fixture f = MakeFixture(kMaxRows, num_bits, 1, &rng);
    const size_t words = f.matrix.words_per_row();
    const uint64_t* query = f.queries[0].data();
    for (const int num_rows : row_counts) {
      const uint64_t* rows =
          f.matrix.row(0) + static_cast<size_t>(kMaxRows - num_rows) * words;
      std::vector<uint32_t> dists;
      for (int r = 0; r < num_rows; ++r) {
        dists.push_back(
            ReferenceDiff(query, rows + static_cast<size_t>(r) * words, words));
      }
      std::sort(dists.begin(), dists.end());
      const uint32_t median = dists.empty() ? 0 : dists[dists.size() / 2];
      const uint32_t largest = dists.empty() ? 0 : dists.back();
      for (const uint32_t bound : {0u, median, largest, UINT32_MAX}) {
        const Hits expected =
            ReferenceHits(query, rows, words, num_rows, bound);
        for (const ScanKernel* kernel : HostKernels()) {
          EXPECT_EQ(KernelHits(*kernel, query, rows, words, num_rows, bound),
                    expected)
              << kernel->name() << " p=" << num_bits << " rows=" << num_rows
              << " bound=" << bound;
        }
      }
    }
  }
}

// Splitting a scan into blocks must not change a single diff — the engines
// call kernels in kScanBlockRows chunks and the split point is invisible.
TEST(ScanKernelTest, BlockSplitsAreInvisible) {
  Rng rng(99);
  const Fixture f = MakeFixture(300, 517, 1, &rng);
  const size_t words = f.matrix.words_per_row();
  const int n = f.matrix.num_rows();
  for (const ScanKernel* kernel : HostKernels()) {
    std::vector<uint32_t> whole(static_cast<size_t>(n));
    kernel->HammingBlock(f.queries[0].data(), f.matrix.row(0), words, n,
                         whole.data());
    for (const int split : {1, 17, 64, 256, 299}) {
      std::vector<uint32_t> parts(static_cast<size_t>(n));
      for (int r0 = 0; r0 < n; r0 += split) {
        const int nr = std::min(split, n - r0);
        kernel->HammingBlock(f.queries[0].data(), f.matrix.row(r0), words,
                             nr, parts.data() + r0);
      }
      EXPECT_EQ(parts, whole) << kernel->name() << " split=" << split;
    }
  }
}

// FromWords must mask hostile padding bits so every kernel sees clean rows:
// a snapshot block with garbage beyond num_bits still scans exactly.
TEST(ScanKernelTest, HostilePaddingIsMaskedBeforeKernelsSeeIt) {
  Rng rng(4242);
  const int num_bits = 130;  // 3 words, 62 padding bits in the last
  const int num_rows = 70;
  const auto byte_rows = RandomBitRows(num_rows, num_bits, 0.5, &rng);
  const PackedBitMatrix clean =
      PackedBitMatrix::FromRows(byte_rows, num_bits);
  const size_t words = clean.words_per_row();
  std::vector<uint64_t> hostile_words;
  for (int r = 0; r < num_rows; ++r) {
    for (size_t w = 0; w < words; ++w) {
      uint64_t word = clean.row(r)[w];
      if (w + 1 == words) word |= ~((1ull << (num_bits % 64)) - 1);
      hostile_words.push_back(word);
    }
  }
  const PackedBitMatrix hostile =
      PackedBitMatrix::FromWords(num_rows, num_bits, std::move(hostile_words));
  const std::vector<uint64_t> query =
      clean.PackQuery(RandomBitRows(1, num_bits, 0.5, &rng)[0]);
  std::vector<uint32_t> expected(static_cast<size_t>(num_rows));
  for (int r = 0; r < num_rows; ++r) {
    expected[static_cast<size_t>(r)] =
        ReferenceDiff(query.data(), clean.row(r), words);
  }
  std::vector<uint32_t> sorted = expected;
  std::sort(sorted.begin(), sorted.end());
  const uint32_t median = sorted[sorted.size() / 2];
  const Hits expected_hits =
      ReferenceHits(query.data(), clean.row(0), words, num_rows, median);
  for (const ScanKernel* kernel : HostKernels()) {
    std::vector<uint32_t> got(static_cast<size_t>(num_rows));
    kernel->HammingBlock(query.data(), hostile.row(0), words, num_rows,
                         got.data());
    EXPECT_EQ(got, expected) << kernel->name();
    EXPECT_EQ(KernelHits(*kernel, query.data(), hostile.row(0), words,
                         num_rows, median),
              expected_hits)
        << kernel->name();
  }
}

// Degenerate shapes: zero rows is a no-op, all-zero rows score the query's
// own popcount, and identical rows tie exactly.
TEST(ScanKernelTest, DegenerateShapes) {
  Rng rng(5);
  const Fixture f = MakeFixture(8, 200, 2, &rng);
  const size_t words = f.matrix.words_per_row();
  const PackedBitMatrix zeros = PackedBitMatrix::FromRows(
      std::vector<std::vector<uint8_t>>(16, std::vector<uint8_t>(200, 0)),
      200);
  const uint32_t query_pop =
      ReferenceDiff(f.queries[0].data(),
                    std::vector<uint64_t>(words, 0).data(), words);
  for (const ScanKernel* kernel : HostKernels()) {
    uint32_t sentinel = 0xdeadbeef;
    kernel->HammingBlock(f.queries[0].data(), f.matrix.row(0), words, 0,
                         &sentinel);
    EXPECT_EQ(sentinel, 0xdeadbeefu) << kernel->name();  // untouched
    int hit_sentinel = -7;
    EXPECT_EQ(kernel->HammingWithin(f.queries[0].data(), f.matrix.row(0),
                                    words, 0, UINT32_MAX, &hit_sentinel,
                                    &sentinel),
              0)
        << kernel->name();
    EXPECT_EQ(hit_sentinel, -7) << kernel->name();
    EXPECT_EQ(sentinel, 0xdeadbeefu) << kernel->name();
    std::vector<uint32_t> got(16);
    kernel->HammingBlock(f.queries[0].data(), zeros.row(0), words, 16,
                         got.data());
    for (const uint32_t d : got) EXPECT_EQ(d, query_pop) << kernel->name();
  }
}

// ScanTopK (the engine-facing tiled entry point) must rank exactly like the
// byte-vector reference on every kernel — including when the matrix has
// tombstone-style all-zero and duplicate rows.
TEST(ScanKernelTest, ScanTopKMultiMatchesPerRowScores) {
  Rng rng(31337);
  const int num_bits = 257;
  auto rows = RandomBitRows(60, num_bits, 0.3, &rng);
  rows[7] = std::vector<uint8_t>(static_cast<size_t>(num_bits), 0);
  rows[8] = rows[9];  // exact tie
  const PackedBitMatrix matrix = PackedBitMatrix::FromRows(rows, num_bits);
  const auto raw_queries = RandomBitRows(5, num_bits, 0.3, &rng);
  std::vector<std::vector<uint64_t>> packed;
  std::vector<const uint64_t*> query_ptrs;
  for (const auto& q : raw_queries) packed.push_back(matrix.PackQuery(q));
  for (const auto& q : packed) query_ptrs.push_back(q.data());
  std::vector<int> ids(static_cast<size_t>(matrix.num_rows()));
  std::iota(ids.begin(), ids.end(), 0);
  for (const ScanKernel* kernel : HostKernels()) {
    std::vector<HammingTopK> tops(5, HammingTopK(matrix.num_rows()));
    ScanTopK(*kernel, matrix, 0, matrix.num_rows(), query_ptrs.data(), 5,
             ids.data(), nullptr, tops.data());
    for (int q = 0; q < 5; ++q) {
      EXPECT_EQ(tops[static_cast<size_t>(q)].Take(num_bits),
                MappedRanking(raw_queries[static_cast<size_t>(q)], rows))
          << kernel->name() << " q=" << q;
    }
  }
}

// A shard's tiled path must answer exactly like the single-query path and
// the offline ranking, in full and approximate mode, including across
// tombstones and a live delta segment.
TEST(ScanKernelTest, TiledBatchMatchesSingleQueriesAcrossMutations) {
  Rng rng(11);
  const int p = 96;
  PersistedIndex index;
  for (LabelId r = 0; r < p; ++r) {
    Graph f;
    f.AddVertex(r);
    index.features.push_back(f);
  }
  index.db_bits = RandomBitRows(40, p, 0.4, &rng);
  ShardedOptions options;
  options.serve.containment_prefilter = false;
  Result<ShardedEngine> built = ShardedEngine::FromIndex(index, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ShardedEngine engine = std::move(built).value();
  // This test body is the engine's single writer.
  ScopedRole writer(&engine.writer_role());
  std::vector<std::vector<uint8_t>> live_rows = index.db_bits;
  for (const auto& row : RandomBitRows(9, p, 0.4, &rng)) {
    ASSERT_TRUE(engine.InsertMapped(row).ok());  // delta segment
    live_rows.push_back(row);
  }
  ASSERT_TRUE(engine.Remove(3).ok());
  ASSERT_TRUE(engine.Remove(41).ok());  // one base, one delta tombstone
  live_rows.erase(live_rows.begin() + 41);
  live_rows.erase(live_rows.begin() + 3);
  const std::vector<int> live_ids = engine.alive_ids();
  const QueryEngine& shard = engine.shard(0);
  const std::vector<std::vector<uint8_t>> fingerprints =
      RandomBitRows(13, p, 0.4, &rng);
  for (const ScanMode mode : {ScanMode::kFull, ScanMode::kApprox}) {
    const QueryOptions query_options{.k = 6, .scan_mode = mode};
    const std::vector<Ranking> tiled = shard.QueryMappedTile(
        fingerprints.data(), static_cast<int>(fingerprints.size()),
        query_options);
    ASSERT_EQ(tiled.size(), fingerprints.size());
    for (size_t i = 0; i < fingerprints.size(); ++i) {
      EXPECT_EQ(tiled[i], shard.QueryMapped(fingerprints[i], query_options))
          << "query " << i;
      if (mode == ScanMode::kFull) {
        EXPECT_EQ(tiled[i], testing_util::OfflineTopK(fingerprints[i],
                                                      live_rows, live_ids, 6))
            << "query " << i;
      }
    }
  }
}

// GDIM_FORCE_KERNEL is resolved by ActiveScanKernel exactly once; the test
// binary can only observe the already-resolved value, so assert the
// invariant every CI matrix entry relies on: the resolved kernel is
// supported here, and when the env var names a supported kernel it won.
TEST(ScanKernelTest, ForcedKernelHonoredWhenRunnable) {
  const char* forced = std::getenv("GDIM_FORCE_KERNEL");
  const std::string active = ActiveScanKernel().name();
  EXPECT_NE(FindScanKernel(active), nullptr);
  if (forced != nullptr && FindScanKernel(forced) != nullptr) {
    EXPECT_EQ(active, forced);
  }
}

}  // namespace
}  // namespace gdim
