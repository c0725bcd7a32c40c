#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "common/sync.h"
#include "core/dimension.h"
#include "core/index_io.h"
#include "core/topk.h"
#include "datasets/chemgen.h"
#include "graph/graph_io.h"
#include "server/sharded_engine.h"
#include "test_util.h"

namespace gdim {
namespace {

using testing_util::ReadIndexFileBytes;
using testing_util::WriteV1IndexFile;
using testing_util::WriteV2IndexFile;
using testing_util::WriteV2IndexFileWords;
using testing_util::WriteV3IndexFile;

PersistedIndex SmallIndex() {
  PersistedIndex p;
  Graph f;
  f.AddVertex(1);
  f.AddVertex(2);
  f.AddEdge(0, 1, 3);
  p.features.push_back(f);
  Graph f2;
  f2.AddVertex(0);
  p.features.push_back(f2);
  p.db_bits = {{1, 0}, {0, 1}, {1, 1}};
  return p;
}

TEST(IndexIoTest, RoundTrip) {
  PersistedIndex p = SmallIndex();
  std::string path = ::testing::TempDir() + "/gdim_index_test.idx";
  ASSERT_TRUE(WriteV1IndexFile(p, path).ok());
  Result<PersistedIndex> back = ReadIndexFileBytes(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->features.size(), 2u);
  EXPECT_EQ(back->features[0], p.features[0]);
  EXPECT_EQ(back->features[1], p.features[1]);
  EXPECT_EQ(back->db_bits, p.db_bits);
}

TEST(IndexIoTest, RejectsBadMagic) {
  std::string path = ::testing::TempDir() + "/gdim_bad_magic.idx";
  {
    std::ofstream out(path);
    out << "not-an-index\n";
  }
  Result<PackedIndex> r = ReadIndexFilePacked(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(IndexIoTest, RejectsWidthMismatch) {
  // Two features need one word per row; the writer refuses a two-word
  // stride.
  const PersistedIndex p = SmallIndex();
  const std::vector<uint64_t> row = {0, 0};
  const std::string path = ::testing::TempDir() + "/gdim_ragged.idx";
  EXPECT_EQ(WriteIndexFileV3Words(
                p.features, 1, 2, [&](uint64_t) { return row.data(); }, {},
                -1, V3Sections{}, path)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(IndexIoTest, RejectsCorruptVectorRow) {
  PersistedIndex p = SmallIndex();
  std::string path = ::testing::TempDir() + "/gdim_corrupt.idx";
  ASSERT_TRUE(WriteV1IndexFile(p, path).ok());
  // Append garbage by truncating a row: rewrite with a broken line.
  std::string text;
  {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  size_t pos = text.rfind("11");
  text.replace(pos, 2, "1x");
  {
    std::ofstream out(path);
    out << text;
  }
  EXPECT_FALSE(ReadIndexFilePacked(path).ok());
}

TEST(IndexIoTest, MissingFile) {
  EXPECT_FALSE(ReadIndexFilePacked("/no/such/dir/x.idx").ok());
  EXPECT_FALSE(WriteV3IndexFile(SmallIndex(), "/no/such/dir/x.idx").ok());
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void Spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

TEST(IndexIoTest, ReadsCrlfTextIndexes) {
  PersistedIndex p = SmallIndex();
  const std::string path = ::testing::TempDir() + "/gdim_crlf.idx";
  ASSERT_TRUE(WriteV1IndexFile(p, path).ok());
  // Simulate a Windows checkout / CRLF transfer of the whole file — the
  // magic line, the feature graph lines, and every vector row.
  std::string text = Slurp(path);
  std::string crlf;
  for (char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  Spit(path, crlf);
  Result<PersistedIndex> back = ReadIndexFileBytes(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->features.size(), p.features.size());
  EXPECT_EQ(back->features[0], p.features[0]);
  EXPECT_EQ(back->db_bits, p.db_bits);
}

/// A p-dimensional index with single-vertex features and random vectors —
/// arbitrary shapes for the round-trip property tests.
PersistedIndex RandomIndex(int n, int p, Rng* rng) {
  PersistedIndex index;
  for (int r = 0; r < p; ++r) {
    Graph f;
    f.AddVertex(static_cast<LabelId>(r));
    index.features.push_back(f);
  }
  index.db_bits = RandomBitRows(n, p, 0.35, rng);
  return index;
}

/// The three on-disk versions. v1 and v2 are written by the test-side
/// writers in test_util.h, v3 by the production writer.
enum class Version { kV1, kV2, kV3 };
constexpr Version kAllVersions[] = {Version::kV1, Version::kV2, Version::kV3};

Status WriteVersion(Version version, const PersistedIndex& index,
                    const std::string& path) {
  switch (version) {
    case Version::kV1:
      return WriteV1IndexFile(index, path);
    case Version::kV2:
      return WriteV2IndexFile(index, path);
    case Version::kV3:
      return WriteV3IndexFile(index, path);
  }
  return Status::InvalidArgument("unknown version");
}

TEST(IndexIoTest, AllFormatsRoundTripAcrossShapes) {
  Rng rng(17);
  // Widths straddle word boundaries; n = 0 exercises empty databases.
  for (int p : {0, 1, 63, 64, 65, 130}) {
    for (int n : {0, 1, 17}) {
      const PersistedIndex index = RandomIndex(n, p, &rng);
      for (Version version : kAllVersions) {
        const std::string path = ::testing::TempDir() + "/gdim_rt_" +
                                 std::to_string(p) + "_" + std::to_string(n) +
                                 (version == Version::kV1 ? ".idx" : ".idx2");
        ASSERT_TRUE(WriteVersion(version, index, path).ok());
        Result<PersistedIndex> back = ReadIndexFileBytes(path);
        ASSERT_TRUE(back.ok())
            << "p=" << p << " n=" << n << ": " << back.status().ToString();
        EXPECT_EQ(back->features, index.features);
        EXPECT_EQ(back->db_bits, index.db_bits) << "p=" << p << " n=" << n;
      }
    }
  }
}

TEST(IndexIoTest, ConvertV1ToV2AndBackIsLossless) {
  Rng rng(23);
  const PersistedIndex index = RandomIndex(12, 70, &rng);
  const std::string v1 = ::testing::TempDir() + "/gdim_conv.idx";
  const std::string v2 = ::testing::TempDir() + "/gdim_conv.idx2";
  const std::string v1_again = ::testing::TempDir() + "/gdim_conv2.idx";
  ASSERT_TRUE(WriteV1IndexFile(index, v1).ok());
  // v1 -> v2: what the v1 reader returns, written back out as v2.
  Result<PersistedIndex> from_v1 = ReadIndexFileBytes(v1);
  ASSERT_TRUE(from_v1.ok());
  ASSERT_TRUE(WriteV2IndexFile(*from_v1, v2).ok());
  // v2 -> v1 again.
  Result<PersistedIndex> from_v2 = ReadIndexFileBytes(v2);
  ASSERT_TRUE(from_v2.ok());
  ASSERT_TRUE(WriteV1IndexFile(*from_v2, v1_again).ok());
  EXPECT_EQ(from_v2->db_bits, index.db_bits);
  EXPECT_EQ(from_v2->features, index.features);
  // The two text files are byte-identical: nothing was lost in the middle.
  EXPECT_EQ(Slurp(v1), Slurp(v1_again));
}

TEST(IndexIoTest, V2RejectsTruncationAndTrailingGarbage) {
  Rng rng(29);
  const PersistedIndex index = RandomIndex(8, 65, &rng);
  const std::string path = ::testing::TempDir() + "/gdim_v2_corrupt.idx2";
  ASSERT_TRUE(WriteV2IndexFile(index, path).ok());
  const std::string good = Slurp(path);

  Spit(path, good.substr(0, good.size() - 5));  // truncated word block
  EXPECT_EQ(ReadIndexFilePacked(path).status().code(),
            StatusCode::kParseError);

  Spit(path, good + "junk");  // trailing garbage
  EXPECT_EQ(ReadIndexFilePacked(path).status().code(),
            StatusCode::kParseError);

  std::string flipped = good;
  flipped[9] ^= 0x40;  // header version field
  Spit(path, flipped);
  EXPECT_EQ(ReadIndexFilePacked(path).status().code(),
            StatusCode::kParseError);

  flipped = good;
  flipped[13] ^= 0xFF;  // endianness tag
  Spit(path, flipped);
  EXPECT_EQ(ReadIndexFilePacked(path).status().code(),
            StatusCode::kParseError);

  // Hostile header counts must come back as a Status, not a crash: a
  // feature-section length far beyond the file, and a huge row count on a
  // p = 0 index whose rows occupy no bytes (so the size check can't see it).
  flipped = good;
  flipped[30] = 0x7F;  // feature_bytes (u64 at offset 24) -> ~2^55
  Spit(path, flipped);
  EXPECT_EQ(ReadIndexFilePacked(path).status().code(),
            StatusCode::kParseError);

  const std::string zero_width_prefix =
      good.substr(0, 16) +            // magic + version + tag
      std::string(8, '\0') +          // p = 0
      std::string(8, '\0');           // feature_bytes = 0
  std::string degenerate = zero_width_prefix;
  degenerate.append(7, '\0');
  degenerate += '\x10';               // n = 2^60 (beyond int range)
  degenerate.append(8, '\0');         // words_per_row = 0
  degenerate.append(8, '\0');         // next_id = 0
  Spit(path, degenerate);
  EXPECT_EQ(ReadIndexFilePacked(path).status().code(),
            StatusCode::kParseError);

  // n = 2^30 fits in int and rows occupy no file bytes at p = 0, but each
  // row still owes 8 id-block bytes, so the size check rejects the count
  // before any allocation.
  const std::string big_n = std::string(3, '\0') + '\x40' +  // 2^30, LE u64
                            std::string(4, '\0');
  degenerate = zero_width_prefix;
  degenerate += big_n;                // n = 2^30
  degenerate.append(8, '\0');         // words_per_row = 0
  degenerate += big_n;                // next_id = 2^30 (valid: >= n)
  Spit(path, degenerate);
  EXPECT_EQ(ReadIndexFilePacked(path).status().code(),
            StatusCode::kParseError);
}

TEST(IndexIoTest, V2PersistsCustomIdsAndRejectsBadOnes) {
  Rng rng(37);
  PersistedIndex index = RandomIndex(4, 9, &rng);
  index.ids = {3, 7, 9, 40};
  const std::string path = ::testing::TempDir() + "/gdim_ids.idx2";
  ASSERT_TRUE(WriteV2IndexFile(index, path).ok());
  Result<PersistedIndex> back = ReadIndexFileBytes(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ids, index.ids);
  EXPECT_EQ(back->db_bits, index.db_bits);

  // An engine over the reloaded index serves those ids and keeps numbering
  // after them.
  auto engine = ShardedEngine::FromIndex(std::move(back).value());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // This test body is the engine's single writer.
  ScopedRole writer(&engine->writer_role());
  EXPECT_EQ(engine->alive_ids(), index.ids);
  ASSERT_TRUE(engine->Remove(7).ok());
  auto inserted = engine->InsertMapped(std::vector<uint8_t>(9, 1));
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(*inserted, 41);

  // The id counter survives snapshot/reload: removing the highest id (41)
  // and reloading must not re-issue it to the next insert.
  ASSERT_TRUE(engine->Remove(41).ok());
  const std::string snap = ::testing::TempDir() + "/gdim_ids_snap.idx2";
  ASSERT_TRUE(engine->Snapshot(snap).ok());
  auto reloaded = ShardedEngine::FromIndex(
      std::move(ReadIndexFileBytes(snap)).value());
  ASSERT_TRUE(reloaded.ok());
  ScopedRole reloaded_writer(&reloaded->writer_role());
  auto after_reload = reloaded->InsertMapped(std::vector<uint8_t>(9, 0));
  ASSERT_TRUE(after_reload.ok());
  EXPECT_EQ(*after_reload, 42);  // not a resurrected 41

  // The writer, the readers, and FromIndex all reject non-ascending or
  // mis-sized id lists.
  index.ids = {3, 3, 9, 40};
  EXPECT_EQ(WriteV3IndexFile(index, path).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ShardedEngine::FromIndex(index).status().code(),
            StatusCode::kInvalidArgument);
  index.ids = {3, 7, 9};
  EXPECT_EQ(WriteV3IndexFile(index, path).code(),
            StatusCode::kInvalidArgument);
  index.ids = {3, 7, 9, 40};
  PersistedIndex scrambled = index;
  scrambled.ids = {3, 7, 9, 40};
  ASSERT_TRUE(WriteV2IndexFile(scrambled, path).ok());
  std::string bytes = Slurp(path);
  // The id block is the last 4 u64s; make it non-ascending in place.
  bytes[bytes.size() - 8] = 0;  // last id 40 -> 0
  Spit(path, bytes);
  EXPECT_EQ(ReadIndexFilePacked(path).status().code(),
            StatusCode::kParseError);
}

TEST(IndexIoTest, MutatedEngineSnapshotReloadsEquivalently) {
  Rng rng(31);
  const PersistedIndex index = RandomIndex(30, 6, &rng);
  auto engine = ShardedEngine::FromIndex(index);
  ASSERT_TRUE(engine.ok());
  // This test body is the engine's single writer.
  ScopedRole writer(&engine->writer_role());

  // Churn: remove a few base rows, insert fresh fingerprints, compact,
  // then keep a tombstone and a delta row live at snapshot time.
  for (int id : {2, 7, 21}) ASSERT_TRUE(engine->Remove(id).ok());
  for (const auto& bits : RandomBitRows(5, 6, 0.35, &rng)) {
    ASSERT_TRUE(engine->InsertMapped(bits).ok());
  }
  engine->Compact();
  ASSERT_TRUE(engine->Remove(30).ok());  // a post-compaction removal
  for (const auto& bits : RandomBitRows(2, 6, 0.35, &rng)) {
    ASSERT_TRUE(engine->InsertMapped(bits).ok());
  }

  for (Version version : kAllVersions) {
    const std::string path =
        ::testing::TempDir() +
        (version == Version::kV1 ? "/gdim_snap.idx" : "/gdim_snap.idx2");
    // v3 is the engine's own snapshot; the legacy versions are the live
    // database in id order, as the old v1/v2 snapshot paths wrote it.
    if (version == Version::kV3) {
      ASSERT_TRUE(engine->Snapshot(path).ok());
    } else {
      ASSERT_TRUE(
          WriteVersion(version, engine->ToPersistedIndex(), path).ok());
    }
    Result<PersistedIndex> back = ReadIndexFileBytes(path);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    // The snapshot is exactly the live database in id order; v2/v3 also
    // carry the external ids, v1 renumbers positionally.
    EXPECT_EQ(back->db_bits, engine->ToPersistedIndex().db_bits);
    const std::vector<int> live_ids = engine->alive_ids();
    const bool keeps_ids = version != Version::kV1;
    if (keeps_ids) {
      EXPECT_EQ(back->ids, live_ids);
    } else {
      EXPECT_TRUE(back->ids.empty());
    }
    const std::vector<std::vector<uint8_t>> back_rows = back->db_bits;
    auto reloaded = ShardedEngine::FromIndex(std::move(back).value());
    ASSERT_TRUE(reloaded.ok());
    ScopedRole reloaded_writer(&reloaded->writer_role());
    EXPECT_EQ(reloaded->num_graphs(), engine->num_graphs());
    Graph probe;  // vertex labels 0..2 = features 0..2
    probe.AddVertex(0);
    probe.AddVertex(1);
    probe.AddVertex(2);
    // A v2-reloaded engine answers bit-identically with the same external
    // ids; a v1 reload answers identically after mapping its positional
    // ids through the mutated engine's live id list.
    Ranking expected = reloaded->Query(probe, {.k = 10});
    if (!keeps_ids) {
      for (RankedResult& r : expected) {
        r.id = live_ids[static_cast<size_t>(r.id)];
      }
    }
    EXPECT_EQ(engine->Query(probe, {.k = 10}), expected);
    EXPECT_EQ(expected, testing_util::OfflineTopK({1, 1, 1, 0, 0, 0},
                                                  back_rows, live_ids, 10));
    if (keeps_ids) {
      EXPECT_EQ(reloaded->alive_ids(), live_ids);
      // Removing by external id hits the same graph in both engines.
      ASSERT_TRUE(reloaded->Remove(live_ids[1]).ok());
      ASSERT_TRUE(engine->Remove(live_ids[1]).ok());
      EXPECT_EQ(engine->Query(probe, {.k = 10}),
                reloaded->Query(probe, {.k = 10}));
    }
  }
}

TEST(IndexIoTest, PackedReaderMatchesWrittenRowsForAllFormats) {
  Rng rng(41);
  for (int p : {0, 1, 63, 64, 65, 130}) {
    for (int n : {0, 1, 17}) {
      PersistedIndex index = RandomIndex(n, p, &rng);
      if (n > 0) {
        index.ids.resize(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
          index.ids[static_cast<size_t>(i)] = 2 * i + 1;  // sparse ids
        }
      }
      for (Version version : kAllVersions) {
        const std::string path = ::testing::TempDir() + "/gdim_packed_rt" +
                                 (version == Version::kV1 ? ".idx" : ".idx2");
        ASSERT_TRUE(WriteVersion(version, index, path).ok());
        Result<PackedIndex> packed = ReadIndexFilePacked(path);
        ASSERT_TRUE(packed.ok())
            << "p=" << p << " n=" << n << ": " << packed.status().ToString();
        // v1 rows are positional with a derived counter (ids empty,
        // next_id -1); v2/v3 carry the ids and one past the largest.
        const bool v1 = version == Version::kV1;
        const int expect_next_id =
            v1 ? -1 : (index.ids.empty() ? n : index.ids.back() + 1);
        EXPECT_EQ(packed->features, index.features);
        EXPECT_EQ(packed->ids, v1 ? std::vector<int>{} : index.ids);
        EXPECT_EQ(packed->next_id, expect_next_id);
        ASSERT_EQ(packed->rows.num_rows(), n);
        ASSERT_EQ(packed->rows.num_bits(), p);
        for (int i = 0; i < n; ++i) {
          EXPECT_EQ(packed->rows.UnpackRow(i),
                    index.db_bits[static_cast<size_t>(i)])
              << "p=" << p << " row=" << i;
        }
      }
    }
  }
}

TEST(IndexIoTest, PackedReaderMasksHostilePaddingBits) {
  // p = 10 leaves 54 padding bits per word; a hostile writer can set them,
  // and the direct word-adopting load path must not let them poison the
  // popcount distances.
  const int p = 10;
  Rng rng(43);
  PersistedIndex meta = RandomIndex(3, p, &rng);
  const std::vector<uint64_t> dirty_rows = {
      0x00000000000003FFULL | 0xFFFFFFFFFFFFFC00ULL,  // all 10 bits + junk
      0x0000000000000001ULL | 0xABCDEF0000000C00ULL,  // bit 0 + junk
      0x0000000000000000ULL | 0xFFFFFFFFFFFFFC00ULL,  // no bits + junk
  };
  const std::string path = ::testing::TempDir() + "/gdim_dirty_pad.idx2";
  ASSERT_TRUE(WriteV2IndexFileWords(
                  meta.features, 3, 1,
                  [&](uint64_t i) { return &dirty_rows[i]; }, {}, -1, path)
                  .ok());
  Result<PackedIndex> packed = ReadIndexFilePacked(path);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_EQ(packed->rows.UnpackRow(0), std::vector<uint8_t>(p, 1));
  std::vector<uint8_t> bit0(p, 0);
  bit0[0] = 1;
  EXPECT_EQ(packed->rows.UnpackRow(1), bit0);
  EXPECT_EQ(packed->rows.UnpackRow(2), std::vector<uint8_t>(p, 0));
  // Distances see only the real bits: an all-ones query is 0 away from row
  // 0 and p-away from row 2 — junk would inflate the popcount.
  const std::vector<uint64_t> query =
      packed->rows.PackQuery(std::vector<uint8_t>(p, 1));
  EXPECT_EQ(packed->rows.HammingDistance(query, 0), 0);
  EXPECT_EQ(packed->rows.HammingDistance(query, 1), p - 1);
  EXPECT_EQ(packed->rows.HammingDistance(query, 2), p);
}

TEST(IndexIoTest, OpenServesIdenticallyThroughThePackedPath) {
  Rng rng(47);
  PersistedIndex index = RandomIndex(25, 70, &rng);
  const std::string path = ::testing::TempDir() + "/gdim_packed_open.idx2";
  ASSERT_TRUE(WriteV2IndexFile(index, path).ok());
  // Open() loads v2 through ReadIndexFilePacked (block read, no byte
  // detour); it must serve bit-identically to the byte-path engine and to
  // the offline ranking.
  auto packed_engine = ShardedEngine::Open(path);
  ASSERT_TRUE(packed_engine.ok()) << packed_engine.status().ToString();
  auto byte_engine = ShardedEngine::FromIndex(index);
  ASSERT_TRUE(byte_engine.ok());
  // This test body is both engines' single writer.
  ScopedRole packed_writer(&packed_engine->writer_role());
  ScopedRole byte_writer(&byte_engine->writer_role());
  EXPECT_EQ(packed_engine->num_graphs(), 25);
  for (const auto& probe_bits : RandomBitRows(6, 70, 0.35, &rng)) {
    EXPECT_EQ(packed_engine->QueryMapped(probe_bits, {.k = 8}),
              byte_engine->QueryMapped(probe_bits, {.k = 8}));
    EXPECT_EQ(packed_engine->QueryMapped(probe_bits, {.k = 8}),
              testing_util::OfflineTopK(probe_bits, index.db_bits, {}, 8));
  }
  // Mutations on a packed-loaded engine behave identically too.
  ASSERT_TRUE(packed_engine->Remove(3).ok());
  ASSERT_TRUE(byte_engine->Remove(3).ok());
  auto a = packed_engine->InsertMapped(RandomBitRows(1, 70, 0.5, &rng)[0]);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, 25);
  packed_engine->Compact();
  EXPECT_EQ(packed_engine->num_graphs(), 25);
}

// ------------------------------------------------------------------ v3 --

std::string U64(uint64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), 8);
}

/// One framed v3 section: 4-byte tag + u64 length + payload.
std::string Section(const char* tag, const std::string& payload) {
  return std::string(tag, 4) + U64(payload.size()) + payload;
}

/// A 4-row, 9-bit index with sparse external ids — the shared corpus for
/// the v3 section tests (wpc = 1 keeps handcrafted IVFX payloads short).
PersistedIndex V3Corpus() {
  Rng rng(53);
  PersistedIndex index = RandomIndex(4, 9, &rng);
  index.ids = {3, 7, 9, 40};
  return index;
}

/// The corpus written as a DIMS-only v3 file, returned as raw bytes; the
/// fuzz tests splice hostile sections onto it.
std::string V3BaseBytes() {
  const std::string path = ::testing::TempDir() + "/gdim_v3_base.idx2";
  GDIM_CHECK(WriteV3IndexFile(V3Corpus(), path).ok());
  return Slurp(path);
}

/// A valid IVFX payload for V3Corpus: two buckets covering {3,7} and
/// {9,40}.
std::string GoodIvfxPayload() {
  return U64(2) + U64(9) + U64(1) +              // buckets, num_bits, wpc
         U64(0x21) + U64(2) + U64(3) + U64(7) +  // centroid, count, ids
         U64(0x42) + U64(2) + U64(9) + U64(40);
}

/// A valid STOR payload for V3Corpus: one single-vertex graph per row.
std::string GoodStorPayload() {
  GraphDatabase graphs;
  for (int i = 0; i < 4; ++i) {
    Graph g;
    g.AddVertex(static_cast<LabelId>(i));
    graphs.push_back(g);
  }
  std::ostringstream text;
  WriteGraphStream(graphs, text);
  const std::string str = text.str();
  return U64(4) + U64(3) + U64(7) + U64(9) + U64(40) + U64(str.size()) + str;
}

StatusCode ReadCode(const std::string& path, const std::string& bytes) {
  Spit(path, bytes);
  return ReadIndexFilePacked(path).status().code();
}

TEST(IndexIoTest, V3RoundTripCarriesSections) {
  const PersistedIndex index = V3Corpus();
  const PackedBitMatrix packed = PackedBitMatrix::FromRows(index.db_bits, 9);

  PersistedMeta meta;
  meta.generation = 5;
  meta.epoch = 77;
  PersistedIvf ivf;
  ivf.num_bits = 9;
  ivf.buckets.push_back({{0x21}, {3, 7}});
  ivf.buckets.push_back({{0x42}, {9, 40}});
  GraphDatabase store_graphs;
  for (int i = 0; i < 4; ++i) {
    Graph g;
    g.AddVertex(static_cast<LabelId>(i));
    store_graphs.push_back(g);
  }
  V3Sections sections;
  sections.meta = &meta;
  sections.store_ids = &index.ids;
  sections.store_graphs = &store_graphs;
  sections.ivf = &ivf;

  const std::string path = ::testing::TempDir() + "/gdim_v3_full.idx2";
  ASSERT_TRUE(WriteIndexFileV3Words(
                  index.features, 4, 1,
                  [&](uint64_t i) { return packed.row(static_cast<int>(i)); },
                  index.ids, -1, sections, path)
                  .ok());

  Result<PackedIndex> back = ReadIndexFilePacked(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ids, index.ids);
  EXPECT_EQ(back->next_id, 41);
  ASSERT_TRUE(back->meta.has_value());
  EXPECT_EQ(back->meta->generation, 5u);
  EXPECT_EQ(back->meta->epoch, 77u);
  ASSERT_TRUE(back->store.has_value());
  EXPECT_EQ(back->store->ids, index.ids);
  ASSERT_EQ(back->store->graphs.size(), 4u);
  EXPECT_EQ(back->store->graphs[2], store_graphs[2]);
  ASSERT_TRUE(back->ivf.has_value());
  EXPECT_EQ(back->ivf->num_bits, 9);
  ASSERT_EQ(back->ivf->buckets.size(), 2u);
  EXPECT_EQ(back->ivf->buckets[0].centroid_words, std::vector<uint64_t>{0x21});
  EXPECT_EQ(back->ivf->buckets[0].ids, (std::vector<int>{3, 7}));
  EXPECT_EQ(back->ivf->buckets[1].ids, (std::vector<int>{9, 40}));

  // An engine opened from the file adopts the persisted epoch, and the
  // byte-row view still accepts the file (sections validated, dropped).
  auto engine = ShardedEngine::Open(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->epoch(), 77u);
  EXPECT_EQ(engine->ivf_buckets(), 2);
  ASSERT_TRUE(ReadIndexFileBytes(path).ok());
}

TEST(IndexIoTest, V3WriterMirrorsReaderValidation) {
  const PersistedIndex index = V3Corpus();
  const PackedBitMatrix packed = PackedBitMatrix::FromRows(index.db_bits, 9);
  const auto row_words = [&](uint64_t i) {
    return packed.row(static_cast<int>(i));
  };
  const std::string path = ::testing::TempDir() + "/gdim_v3_bad_write.idx2";
  const auto write = [&](const V3Sections& sections) {
    return WriteIndexFileV3Words(index.features, 4, 1, row_words, index.ids,
                                 -1, sections, path);
  };

  // Store ids and graphs must come as a pair.
  V3Sections lone_ids;
  lone_ids.store_ids = &index.ids;
  EXPECT_EQ(write(lone_ids).code(), StatusCode::kInvalidArgument);

  // Store row count must match the index.
  GraphDatabase three_graphs(3);
  std::vector<int> three_ids = {3, 7, 9};
  V3Sections short_store;
  short_store.store_ids = &three_ids;
  short_store.store_graphs = &three_graphs;
  EXPECT_EQ(write(short_store).code(), StatusCode::kInvalidArgument);

  // IVF postings must cover every id exactly once, with matching width.
  PersistedIvf ivf;
  ivf.num_bits = 9;
  ivf.buckets.push_back({{0x21}, {3, 7}});
  V3Sections uncovered;
  uncovered.ivf = &ivf;
  EXPECT_EQ(write(uncovered).code(), StatusCode::kInvalidArgument);

  ivf.buckets.push_back({{0x42}, {9, 40, 41}});  // 41 is not a row
  EXPECT_EQ(write(uncovered).code(), StatusCode::kInvalidArgument);

  ivf.buckets[1] = {{0x42}, {9, 40}};
  ivf.num_bits = 8;
  EXPECT_EQ(write(uncovered).code(), StatusCode::kInvalidArgument);

  ivf.num_bits = 9;
  ivf.buckets.push_back({{0x13}, {}});  // empty bucket
  EXPECT_EQ(write(uncovered).code(), StatusCode::kInvalidArgument);
}

TEST(IndexIoTest, V3RejectsHostileSectionFraming) {
  const std::string base = V3BaseBytes();
  const std::string header = base.substr(0, 16);  // magic + version + tag
  const std::string path = ::testing::TempDir() + "/gdim_v3_framing.idx2";

  // A header with no sections at all: DIMS is required.
  EXPECT_EQ(ReadCode(path, header), StatusCode::kParseError);

  // Stray bytes too short for a section header.
  EXPECT_EQ(ReadCode(path, base + "ME"), StatusCode::kParseError);
  EXPECT_EQ(ReadCode(path, base + std::string("META") + U64(16).substr(0, 3)),
            StatusCode::kParseError);

  // A section claiming more payload than the file holds.
  EXPECT_EQ(ReadCode(path, base + std::string("META") + U64(1000)),
            StatusCode::kParseError);

  // Unknown tags are rejected, not skipped: a snapshot section the reader
  // does not understand means state it would silently fail to restore.
  EXPECT_EQ(ReadCode(path, base + Section("ZZZZ", "")),
            StatusCode::kParseError);
  EXPECT_EQ(ReadCode(path, base + Section("DIM\x01", "")),
            StatusCode::kParseError);

  // Duplicate sections: a second DIMS (spliced verbatim) and a second META.
  const std::string dims_section = base.substr(16);
  EXPECT_EQ(ReadCode(path, base + dims_section), StatusCode::kParseError);
  const std::string meta_section = Section("META", U64(1) + U64(2));
  EXPECT_EQ(ReadCode(path, base + meta_section + meta_section),
            StatusCode::kParseError);

  // Sections before DIMS have nothing to validate against.
  EXPECT_EQ(ReadCode(path, header + meta_section + dims_section),
            StatusCode::kParseError);

  // Truncation anywhere inside a section payload is typed, never a crash.
  const std::string full = base + meta_section;
  for (size_t cut : {base.size() + 5, base.size() + 14, size_t{20},
                     base.size() / 2}) {
    EXPECT_EQ(ReadCode(path, full.substr(0, cut)), StatusCode::kParseError)
        << "cut=" << cut;
  }
}

TEST(IndexIoTest, V3RejectsHostileSectionPayloads) {
  const std::string base = V3BaseBytes();
  const std::string path = ::testing::TempDir() + "/gdim_v3_payload.idx2";

  // META must be exactly two u64s.
  EXPECT_EQ(ReadCode(path, base + Section("META", U64(1))),
            StatusCode::kParseError);
  EXPECT_EQ(ReadCode(path, base + Section("META", U64(1) + U64(2) + U64(3))),
            StatusCode::kParseError);

  // STOR: row count and ids must reproduce the DIMS ids exactly.
  const std::string stor = GoodStorPayload();
  ASSERT_EQ(ReadCode(path, base + Section("STOR", stor)), StatusCode::kOk);
  std::string short_count = stor;
  short_count[0] = 3;  // count 4 -> 3
  EXPECT_EQ(ReadCode(path, base + Section("STOR", short_count)),
            StatusCode::kParseError);
  std::string wrong_id = stor;
  wrong_id[8] = 4;  // first store id 3 -> 4
  EXPECT_EQ(ReadCode(path, base + Section("STOR", wrong_id)),
            StatusCode::kParseError);
  // Text length must be exactly the rest of the section.
  EXPECT_EQ(ReadCode(path, base + Section("STOR", stor + "x")),
            StatusCode::kParseError);

  // IVFX: the good payload loads; every single-field corruption is typed.
  const std::string ivfx = GoodIvfxPayload();
  ASSERT_EQ(ReadCode(path, base + Section("IVFX", ivfx)), StatusCode::kOk);

  const auto patched = [&](size_t offset, char value) {
    std::string bytes = ivfx;
    bytes[offset] = value;
    return base + Section("IVFX", bytes);
  };
  EXPECT_EQ(ReadCode(path, patched(8, 8)),    // num_bits 9 -> 8
            StatusCode::kParseError);
  EXPECT_EQ(ReadCode(path, patched(16, 2)),   // wpc 1 -> 2
            StatusCode::kParseError);
  EXPECT_EQ(ReadCode(path, patched(32, 0)),   // bucket 0 posting count -> 0
            StatusCode::kParseError);
  EXPECT_EQ(ReadCode(path, patched(40, 5)),   // posting id 3 -> 5 (not live)
            StatusCode::kParseError);
  EXPECT_EQ(ReadCode(path, patched(48, 9)),   // id 7 -> 9: duplicated by
            StatusCode::kParseError);          // bucket 1's first posting
  EXPECT_EQ(ReadCode(path, patched(48, 3)),   // ids 3,3: not ascending
            StatusCode::kParseError);
  EXPECT_EQ(ReadCode(path, patched(0, 1)),    // bucket count 2 -> 1 leaves
            StatusCode::kParseError);          // bucket 1 as trailing bytes
  // Coverage shortfall: a single well-formed bucket, so {9, 40} would be
  // unreachable by any probe.
  const std::string half = U64(1) + U64(9) + U64(1) +
                           U64(0x21) + U64(2) + U64(3) + U64(7);
  EXPECT_EQ(ReadCode(path, base + Section("IVFX", half)),
            StatusCode::kParseError);
  // A bucket count far beyond what the section could hold.
  EXPECT_EQ(ReadCode(path, patched(0, 0x7F)), StatusCode::kParseError);
}

TEST(IndexIoTest, V2FilesLoadWithoutSections) {
  // The pre-v3 degraded path: a v2 snapshot still loads, with no META (the
  // generation/epoch restart at zero), no STOR, and no IVFX.
  const PersistedIndex index = V3Corpus();
  const std::string path = ::testing::TempDir() + "/gdim_v2_compat.idx2";
  ASSERT_TRUE(WriteV2IndexFile(index, path).ok());
  Result<PackedIndex> packed = ReadIndexFilePacked(path);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_FALSE(packed->meta.has_value());
  EXPECT_FALSE(packed->store.has_value());
  EXPECT_FALSE(packed->ivf.has_value());
  EXPECT_EQ(packed->ids, index.ids);
}

// --------------------------------------------------------- durable write --

/// The names in dir, sorted, without "." and "..".
std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return names;
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(handle);
  std::sort(names.begin(), names.end());
  return names;
}

TEST(IndexIoTest, FailedWriteLeavesTheOldFileIntact) {
  // A snapshot with every section, rewritten over a good one while the
  // process's file-size limit cuts the write short at each byte offset.
  // SIGXFSZ is ignored, so write(2) fails with EFBIG instead of killing the
  // process. Every cut write must report an error, leave the old file
  // bit-identical and loadable, and leave no temp file behind.
  const PersistedIndex index = V3Corpus();
  const PackedBitMatrix packed = PackedBitMatrix::FromRows(index.db_bits, 9);
  PersistedIvf ivf;
  ivf.num_bits = 9;
  ivf.buckets.push_back({{0x21}, {3, 7}});
  ivf.buckets.push_back({{0x42}, {9, 40}});
  GraphDatabase store_graphs;
  for (int i = 0; i < 4; ++i) {
    Graph g;
    g.AddVertex(static_cast<LabelId>(i));
    store_graphs.push_back(g);
  }
  const auto write = [&](uint64_t generation, const std::string& path) {
    PersistedMeta meta;
    meta.generation = generation;
    meta.epoch = 77;
    V3Sections sections;
    sections.meta = &meta;
    sections.store_ids = &index.ids;
    sections.store_graphs = &store_graphs;
    sections.ivf = &ivf;
    return WriteIndexFileV3Words(
        index.features, 4, 1,
        [&](uint64_t i) { return packed.row(static_cast<int>(i)); },
        index.ids, -1, sections, path);
  };

  std::string dir = ::testing::TempDir() + "/gdim_durable_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/index.idx";
  ASSERT_TRUE(write(5, path).ok());
  const std::string good = Slurp(path);
  const std::string sized = dir + "/sized.idx";
  ASSERT_TRUE(write(6, sized).ok());
  const size_t new_size = Slurp(sized).size();
  ASSERT_EQ(::unlink(sized.c_str()), 0);
  ASSERT_GT(new_size, 100u);

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_NE(old_handler, SIG_ERR);
  for (size_t limit = 0; limit < new_size; ++limit) {
    rlimit capped = saved;
    capped.rlim_cur = static_cast<rlim_t>(limit);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
    const Status status = write(6, path);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    EXPECT_EQ(status.code(), StatusCode::kIoError) << "limit=" << limit;
    ASSERT_EQ(Slurp(path), good) << "limit=" << limit;
    ASSERT_EQ(ListDir(dir), std::vector<std::string>{"index.idx"})
        << "limit=" << limit;
  }
  ASSERT_NE(std::signal(SIGXFSZ, old_handler), SIG_ERR);

  Result<PackedIndex> old_file = ReadIndexFilePacked(path);
  ASSERT_TRUE(old_file.ok()) << old_file.status().ToString();
  ASSERT_TRUE(old_file->meta.has_value());
  EXPECT_EQ(old_file->meta->generation, 5u);

  // Uncut, the same write replaces the file whole.
  ASSERT_TRUE(write(6, path).ok());
  EXPECT_EQ(Slurp(path).size(), new_size);
  Result<PackedIndex> new_file = ReadIndexFilePacked(path);
  ASSERT_TRUE(new_file.ok()) << new_file.status().ToString();
  EXPECT_EQ(new_file->meta->generation, 6u);
  EXPECT_EQ(ListDir(dir), std::vector<std::string>{"index.idx"});
  EXPECT_EQ(::unlink(path.c_str()), 0);
  EXPECT_EQ(::rmdir(dir.c_str()), 0);
}

TEST(IndexIoTest, EndToEndServeFromDisk) {
  // Build a dimension, persist it with its rows, reload, and verify a query
  // answered from the reloaded artifacts matches an engine serving the
  // build.
  ChemGenOptions gen;
  gen.num_graphs = 40;
  GraphDatabase db = GenerateChemDatabase(gen);
  DimensionOptions options;
  options.selector = "DSPM";
  options.p = 24;
  options.mining.min_support = 0.1;
  options.mining.max_edges = 4;
  Result<BuiltDimension> built = BuildDimension(db, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  PersistedIndex p;
  p.features = built->features;
  p.db_bits = built->rows;
  std::string path = ::testing::TempDir() + "/gdim_served.idx";
  ASSERT_TRUE(WriteV3IndexFile(p, path).ok());
  Result<PersistedIndex> back = ReadIndexFileBytes(path);
  ASSERT_TRUE(back.ok());
  Result<ShardedEngine> live = ShardedEngine::FromIndex(std::move(p));
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  GraphDatabase queries = GenerateChemQueries(gen, 3);
  FeatureMapper mapper(back->features);
  for (const Graph& q : queries) {
    Ranking from_disk = MappedRanking(mapper.Map(q), back->db_bits);
    EXPECT_EQ(from_disk,
              live->Query(q, {.k = static_cast<int>(db.size())}));
  }
}

}  // namespace
}  // namespace gdim
