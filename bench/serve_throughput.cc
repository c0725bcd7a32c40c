// Serving hot-path throughput: packed word-popcount scans vs the seed's
// byte-vector scans, plus the SIMD kernels against each other on a tiled
// batch scan, on a synthetic mapped database.
//
//   bench_serve_throughput [--n=10000 --p=300 --queries=50 --k=10
//                           --density=0.3 --repeat=3 --seed=7
//                           --json-out=FILE]
//
// Reports scan-kernel time (Hamming distance of every row, no ranking),
// full-ranking time (scan + sort), the serving stage-3 path (a QueryEngine's
// MODE=full QueryMapped: scan with fused integer top-k), and a
// per-kernel section: every kernel this host supports runs the same
// block-tiled multi-query batch scan, checked bit-for-bit against scalar
// before timing, with speedups relative to scalar. --json-out writes the
// machine-readable form (per-kernel qps and latency percentiles, plus the
// process's active kernel) for CI trend tracking, and additionally drives
// the same corpus through a ShardedEngine in MODE=full vs MODE=approx
// (default probe width), writing the QPS/recall point to
// BENCH_approx_recall.json next to it.

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/index_io.h"
#include "core/kernels/scan_kernel.h"
#include "core/objective.h"
#include "core/packed_bits.h"
#include "core/topk.h"
#include "graph/graph.h"
#include "serve/query_engine.h"
#include "server/sharded_engine.h"

namespace gdim {
namespace {

/// The seed's scan: one BinaryMappedDistance per byte row.
void ByteScoreAll(const std::vector<uint8_t>& query,
                  const std::vector<std::vector<uint8_t>>& rows,
                  std::vector<double>* scores) {
  scores->resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    (*scores)[i] = BinaryMappedDistance(query, rows[i]);
  }
}

/// One kernel's batch-scan measurement over the whole query set.
struct KernelTiming {
  std::string name;
  double best_s = 1e30;  ///< best-of-repeats wall time for the full batch
  LatencySummary latency_ms;  ///< per-query latency (tile wall time)
  double qps = 0.0;
};

/// Runs the block-tiled multi-query Hamming scan the way the batch engines
/// tile it — kernel.tile_width() queries per pass, kScanBlockRows rows per
/// kernel call, every query of the tile scanning a block before the next
/// loads — writing raw diffs into *diffs (resized to num_queries *
/// num_rows, diffs[q * num_rows + r]).
void TiledBatchScan(const ScanKernel& kernel, const PackedBitMatrix& packed,
                    const std::vector<std::vector<uint64_t>>& queries,
                    std::vector<uint32_t>* diffs,
                    std::vector<double>* per_query_ms) {
  constexpr int kBlockRows = 256;
  const int num_rows = packed.num_rows();
  const size_t words = packed.words_per_row();
  const int tile = kernel.tile_width();
  const int num_queries = static_cast<int>(queries.size());
  diffs->resize(static_cast<size_t>(num_queries) * num_rows);
  per_query_ms->clear();
  for (int q0 = 0; q0 < num_queries; q0 += tile) {
    WallTimer timer;
    const int nq = std::min(tile, num_queries - q0);
    for (int r0 = 0; r0 < num_rows; r0 += kBlockRows) {
      const int nr = std::min(kBlockRows, num_rows - r0);
      for (int q = 0; q < nq; ++q) {
        kernel.HammingBlock(
            queries[static_cast<size_t>(q0 + q)].data(), packed.row(r0),
            words, nr,
            diffs->data() + static_cast<size_t>(q0 + q) * num_rows + r0);
      }
    }
    const double tile_ms = timer.Millis();
    for (int q = 0; q < nq; ++q) per_query_ms->push_back(tile_ms);
  }
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  // Clamp to non-degenerate shapes: the timing loops index [0]/back().
  const int n = std::max(1, flags.GetInt("n", 10000));
  const int p = std::max(1, flags.GetInt("p", 300));
  const int num_queries = std::max(1, flags.GetInt("queries", 50));
  const int k = std::max(1, flags.GetInt("k", 10));
  const int repeat = std::max(1, flags.GetInt("repeat", 3));
  const double density = flags.GetDouble("density", 0.3);
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 7)));

  std::printf("serve_throughput: n=%d p=%d queries=%d k=%d density=%.2f\n", n,
              p, num_queries, k, density);
  const std::vector<std::vector<uint8_t>> rows =
      RandomBitRows(n, p, density, &rng);
  const std::vector<std::vector<uint8_t>> queries =
      RandomBitRows(num_queries, p, density, &rng);
  const PackedBitMatrix packed = PackedBitMatrix::FromRows(rows);

  // Correctness gate: packed ranking must equal the byte reference exactly.
  for (const auto& q : queries) {
    GDIM_CHECK(MappedRanking(q, rows) == MappedRanking(q, packed))
        << "packed scan diverged from byte scan";
  }

  std::vector<std::vector<uint64_t>> packed_queries;
  packed_queries.reserve(queries.size());
  for (const auto& q : queries) {
    packed_queries.push_back(packed.PackQuery(q));
  }

  // The serving engine over the same rows, one single-letter feature per
  // bit (features are never matched here: queries arrive pre-mapped).
  PersistedIndex index;
  for (int r = 0; r < p; ++r) {
    Graph feature;
    feature.AddVertex(static_cast<LabelId>(r));
    index.features.push_back(feature);
  }
  index.db_bits = rows;
  Result<QueryEngine> engine = QueryEngine::FromIndex(index);
  GDIM_CHECK(engine.ok()) << engine.status().ToString();
  const ScanKernel& active = ActiveScanKernel();
  std::vector<uint32_t> diffs(static_cast<size_t>(n));

  double byte_scan_s = 1e30, packed_scan_s = 1e30;
  double byte_rank_s = 1e30, packed_rank_s = 1e30, packed_topk_s = 1e30;
  std::vector<double> scores;
  double sink = 0.0;  // defeat dead-code elimination
  for (int rep = 0; rep < repeat; ++rep) {
    WallTimer timer;
    for (const auto& q : queries) {
      ByteScoreAll(q, rows, &scores);
      sink += scores.back();
    }
    byte_scan_s = std::min(byte_scan_s, timer.Seconds());

    timer.Reset();
    for (const auto& q : packed_queries) {
      active.HammingBlock(q.data(), packed.row(0), packed.words_per_row(), n,
                          diffs.data());
      sink += diffs.back();
    }
    packed_scan_s = std::min(packed_scan_s, timer.Seconds());

    timer.Reset();
    for (const auto& q : queries) sink += MappedRanking(q, rows)[0].score;
    byte_rank_s = std::min(byte_rank_s, timer.Seconds());

    timer.Reset();
    for (const auto& q : queries) sink += MappedRanking(q, packed)[0].score;
    packed_rank_s = std::min(packed_rank_s, timer.Seconds());

    timer.Reset();
    for (const auto& q : queries) {
      sink += engine->QueryMapped(q, {.k = k, .scan_mode = ScanMode::kFull})[0]
                  .score;
    }
    packed_topk_s = std::min(packed_topk_s, timer.Seconds());
  }

  const double qn = static_cast<double>(num_queries);
  std::printf("byte scan kernel:    %8.1f us/query\n", byte_scan_s / qn * 1e6);
  std::printf("packed scan kernel:  %8.1f us/query  (speedup %.1fx)\n",
              packed_scan_s / qn * 1e6, byte_scan_s / packed_scan_s);
  std::printf("byte full ranking:   %8.1f us/query\n", byte_rank_s / qn * 1e6);
  std::printf("packed full ranking: %8.1f us/query  (speedup %.1fx)\n",
              packed_rank_s / qn * 1e6, byte_rank_s / packed_rank_s);
  std::printf("engine scan + topk:  %8.1f us/query  (%.0f qps, "
              "%.1fx vs byte ranking)\n",
              packed_topk_s / qn * 1e6, qn / packed_topk_s,
              byte_rank_s / packed_topk_s);

  // Multi-query kernel shoot-out: every kernel this host supports runs the
  // same block-tiled batch scan. Bit-identity against scalar is asserted on
  // the raw diff outputs before any timing — a fast wrong kernel must fail
  // here, not ship a number.
  const std::vector<const ScanKernel*> kernels = SupportedScanKernels();
  std::vector<uint32_t> scalar_diffs, kernel_diffs;
  std::vector<double> per_query_ms;
  TiledBatchScan(ScalarScanKernel(), packed, packed_queries, &scalar_diffs,
                 &per_query_ms);
  std::vector<KernelTiming> timings;
  for (const ScanKernel* kernel : kernels) {
    TiledBatchScan(*kernel, packed, packed_queries, &kernel_diffs,
                   &per_query_ms);
    GDIM_CHECK(kernel_diffs == scalar_diffs)
        << "kernel '" << kernel->name() << "' diverged from scalar";
    KernelTiming t;
    t.name = kernel->name();
    std::vector<double> best_latencies;
    for (int rep = 0; rep < repeat; ++rep) {
      WallTimer timer;
      TiledBatchScan(*kernel, packed, packed_queries, &kernel_diffs,
                     &per_query_ms);
      const double s = timer.Seconds();
      sink += kernel_diffs.back();
      if (s < t.best_s) {
        t.best_s = s;
        best_latencies = per_query_ms;
      }
    }
    t.latency_ms = SummarizeLatencies(std::move(best_latencies));
    t.qps = qn / t.best_s;
    timings.push_back(std::move(t));
  }
  const double scalar_s = timings.front().best_s;
  std::printf("active kernel: %s\n", ActiveScanKernel().name());
  for (const KernelTiming& t : timings) {
    std::printf("%-6s multi-scan:   %8.1f us/query  (%.0f qps, "
                "speedup %.1fx vs scalar)\n",
                t.name.c_str(), t.best_s / qn * 1e6, t.qps,
                scalar_s / t.best_s);
  }
  std::printf("# sink=%g\n", sink);

  const std::string json_out = flags.GetString("json-out", "");
  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   json_out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"serve_throughput\",\n"
                 "  \"n\": %d, \"p\": %d, \"queries\": %d, \"k\": %d,\n"
                 "  \"active_kernel\": \"%s\",\n  \"kernels\": [",
                 n, p, num_queries, k, ActiveScanKernel().name());
    for (size_t i = 0; i < timings.size(); ++i) {
      const KernelTiming& t = timings[i];
      std::fprintf(f,
                   "%s\n    {\"kernel\": \"%s\", \"qps\": %.1f, "
                   "\"us_per_query\": %.2f, \"p50_ms\": %.4f, "
                   "\"p99_ms\": %.4f, \"speedup_vs_scalar\": %.2f}",
                   i == 0 ? "" : ",", t.name.c_str(), t.qps,
                   t.best_s / qn * 1e6, t.latency_ms.p50, t.latency_ms.p99,
                   scalar_s / t.best_s);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("# wrote %s\n", json_out.c_str());

    // The approx-vs-full serving point: the same corpus behind a
    // ShardedEngine, MODE=full against MODE=approx at the engine's default
    // probe width. On this *uniform* corpus the IVF partition has little
    // structure to exploit, so the recorded recall is a conservative floor
    // (bench_approx_workload gates the clustered case); the point tracks
    // the QPS ratio and recall over time.
    Result<ShardedEngine> sharded =
        ShardedEngine::FromIndex(std::move(index), ShardedOptions{});
    GDIM_CHECK(sharded.ok()) << sharded.status().ToString();
    double full_s = 1e30, approx_s = 1e30;
    std::vector<Ranking> full_answers(queries.size());
    std::vector<Ranking> approx_answers(queries.size());
    long long scanned = 0;
    for (int rep = 0; rep < repeat; ++rep) {
      WallTimer timer;
      for (size_t q = 0; q < queries.size(); ++q) {
        full_answers[q] = sharded->QueryMapped(
            queries[q], {.k = k, .scan_mode = ScanMode::kFull});
      }
      full_s = std::min(full_s, timer.Seconds());
      timer.Reset();
      long long rep_scanned = 0;
      for (size_t q = 0; q < queries.size(); ++q) {
        ServeQueryStats stats;
        approx_answers[q] = sharded->QueryMapped(
            queries[q], {.k = k, .scan_mode = ScanMode::kApprox}, &stats);
        rep_scanned += stats.scanned;
      }
      approx_s = std::min(approx_s, timer.Seconds());
      scanned = rep_scanned;
    }
    double recall_sum = 0.0;
    for (size_t q = 0; q < queries.size(); ++q) {
      std::set<int> full_ids;
      for (const RankedResult& r : full_answers[q]) full_ids.insert(r.id);
      int hits = 0;
      for (const RankedResult& r : approx_answers[q]) {
        hits += full_ids.count(r.id) != 0 ? 1 : 0;
      }
      recall_sum += full_answers[q].empty()
                        ? 1.0
                        : static_cast<double>(hits) /
                              static_cast<double>(full_answers[q].size());
    }
    const double recall = recall_sum / qn;
    const double scan_frac =
        static_cast<double>(scanned) / (qn * static_cast<double>(n));
    const size_t slash = json_out.find_last_of('/');
    const std::string approx_out =
        (slash == std::string::npos ? std::string()
                                    : json_out.substr(0, slash + 1)) +
        "BENCH_approx_recall.json";
    std::FILE* af = std::fopen(approx_out.c_str(), "w");
    if (af == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   approx_out.c_str());
      return 1;
    }
    std::fprintf(af,
                 "{\n  \"bench\": \"approx_recall\",\n"
                 "  \"n\": %d, \"p\": %d, \"queries\": %d, \"k\": %d,\n"
                 "  \"ivf_buckets\": %d,\n"
                 "  \"full_qps\": %.1f, \"approx_qps\": %.1f,\n"
                 "  \"speedup\": %.2f, \"recall_at_k\": %.4f,\n"
                 "  \"scan_frac\": %.4f\n}\n",
                 n, p, num_queries, k, sharded->ivf_buckets(), qn / full_s,
                 qn / approx_s, full_s / approx_s, recall, scan_frac);
    std::fclose(af);
    std::printf("# wrote %s (approx %.0f qps vs full %.0f qps, "
                "recall@%d %.3f)\n",
                approx_out.c_str(), qn / approx_s, qn / full_s, k, recall);
  }
  return 0;
}

}  // namespace
}  // namespace gdim

int main(int argc, char** argv) { return gdim::Main(argc, argv); }
