#ifndef GDIM_SERVE_QUERY_ENGINE_H_
#define GDIM_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/index_io.h"
#include "core/mapper.h"
#include "core/packed_bits.h"
#include "core/topk.h"
#include "graph/graph.h"
#include "index/ivf_index.h"
#include "serve/query_options.h"

namespace gdim {

/// Engine-wide serving knobs, fixed at load time.
struct ServeOptions {
  /// Worker threads of the owning ShardedEngine's batches (and of its
  /// MapAll): tiles of queries run in parallel, the shards one after
  /// another inside a tile; 0 = DefaultThreadCount(). Results are identical
  /// for every thread count (queries are independent and the per-query
  /// ranking uses the deterministic score-then-id order).
  int threads = 0;

  /// Stage-2 prefilter: restrict the distance scan to database graphs that
  /// contain *every* feature of the query fingerprint (the candidate set
  /// ∩_{r ∈ φ(q)} sup(f_r) of containment search). A lossy-for-similarity
  /// heuristic — graphs missing one query feature are skipped even though
  /// they could rank in the exact top-k — so it is off by default and meant
  /// for supergraph-biased workloads. Falls back to a full scan when the
  /// filter does not actually narrow anything: no candidate survives, fewer
  /// than k candidates survive, or every live graph survives.
  bool containment_prefilter = false;

  /// Bucket count of the IVF candidate-pruning index behind ScanMode::
  /// kApprox; 0 picks ceil(sqrt(rows)) per engine (per shard). The index is
  /// always built — construction cost is one clustering pass over the base
  /// segment — so MODE=approx works out of the box on any engine.
  int ivf_buckets = 0;
};

/// Per-query observability counters from one hot-path execution.
struct ServeQueryStats {
  double latency_ms = 0.0;
  int features_on = 0;     ///< set bits in the query fingerprint
  int scanned = 0;         ///< rows scored in stage 3; the full-scan path
                           ///< scores every physical row, so removed-but-not-
                           ///< compacted rows count until Compact()
  bool prefiltered = false;  ///< stage 2 narrowed the scan (no fallback)
  bool approx = false;     ///< served from the IVF candidate path (kApprox)
  /// kApprox only: live rows the probe pruned (alive − scanned); what the
  /// approximate mode saved relative to a full scan of the live set.
  int rows_pruned = 0;
  /// Stage timings for the observability layer, microseconds; 0 when the
  /// stage did not run. On a sharded engine ivf_probe_usec sums the shard
  /// probes (like `scanned`) and gather_usec times the k-way merge.
  double ivf_probe_usec = 0.0;
  double gather_usec = 0.0;
  /// One sample per per-shard pass over the query's tile (the shard's wall
  /// time for its stage 2–3 work on the whole tile). Filled only by the
  /// sharded engine, which attributes a tile's passes to the tile's first
  /// query, so the sample count matches the passes actually run.
  std::vector<double> shard_scan_usec;
};

/// Aggregate report for one ShardedEngine batch call.
struct ServeBatchReport {
  double wall_ms = 0.0;          ///< end-to-end batch wall time
  double qps = 0.0;              ///< queries / wall second
  LatencySummary latency_ms;     ///< per-query latency distribution
  long long scanned_rows = 0;    ///< total rows scored across the batch
  size_t prefiltered_queries = 0;  ///< queries served from a narrowed scan
  size_t approx_queries = 0;     ///< queries served from the IVF path
  /// Candidate rows exact-scored by approx queries (their share of
  /// scanned_rows) and the live rows their probes pruned away.
  long long approx_candidates_scanned = 0;
  long long approx_rows_pruned = 0;
  /// Per-stage samples (microseconds) for the metric registry: every
  /// per-shard scan pass, every IVF probe that ran, and every gather merge.
  /// The executor folds these into the process-wide stage histograms.
  std::vector<double> stage_scan_usec;
  std::vector<double> stage_ivf_probe_usec;
  std::vector<double> stage_gather_usec;
};

/// Aggregates per-query stats into a batch report (qps, latency
/// percentiles, scan counters). Shared by the sharded engine's batch entry
/// points and the batch executor.
void FillServeBatchReport(double wall_ms,
                          const std::vector<ServeQueryStats>& stats,
                          ServeBatchReport* report);

/// An immutable capture of one engine's live state, taken by Freeze() for
/// asynchronous snapshotting. The sealed base segment — the part that scales
/// with database size — is shared by refcount (it is only ever *replaced*,
/// by Compact, never mutated in place), so a freeze copies just the delta
/// segment, the tombstone bitset, and the id columns: O(delta + n) small
/// fields, no O(n·p) word copying and no file I/O. A background writer can
/// then stream the capture to disk while the live engine keeps mutating.
struct FrozenEngineState {
  std::shared_ptr<const PackedBitMatrix> base;  ///< shared, never mutated
  PackedBitMatrix delta;                        ///< copied (small)
  std::vector<uint8_t> tombstones;              ///< copied; base + delta rows
  std::vector<int> row_ids;                     ///< copied; base + delta rows
  std::vector<int> by_id;  ///< copied; every row, ascending by id
  /// Copied IVF layout (centroids, bucket ranges, append lists) so a
  /// background v3 snapshot can persist the IVFX section without touching
  /// the live index.
  IvfIndex ivf;

  /// Live rows in ascending-id order as (id, packed word pointer) pairs;
  /// pointers address into this capture's own segments and stay valid for
  /// the capture's lifetime (unlike QueryEngine::LiveRowWords, which a
  /// mutation invalidates).
  std::vector<std::pair<int, const uint64_t*>> LiveRowWords() const;
};

/// The live (non-tombstoned) rows of every bucket of `ivf` lifted into
/// external-id space, ascending — the v3 IVFX payload of one engine.
/// Buckets left empty by tombstones are dropped (the reader rejects empty
/// buckets), so the result partitions exactly the live ids.
/// tombstones/row_ids are indexed by physical row, like the engine's own
/// members.
PersistedIvf PersistIvf(const IvfIndex& ivf,
                        const std::vector<uint8_t>& tombstones,
                        const std::vector<int>& row_ids);

/// One shard of the serving engine: a partition of the mapped database in
/// the packed word layout, answering stages 2–3 of the online search for
/// fingerprints its owner already mapped (stage 1, VF2, runs once per query
/// in ShardedEngine). Every candidate source — all rows, the probed IVF
/// buckets, or owner-supplied containment candidates — goes through one
/// popcount scorer with fused integer top-k: rows are selected on their
/// integer Hamming distance, and scores are computed for the k survivors
/// only. No MCS computation and no graph algorithm runs here, which is the
/// paper's whole online-search proposition.
///
/// ShardedEngine is the serving surface: it validates ids, builds its
/// shards, decides each query's stage-2 policy, merges the shards' answers,
/// and writes snapshots; shard() exposes a shard for observability.
///
/// The shard is *mutable*: the database is a sealed base segment plus an
/// append-only delta segment of packed rows, with a tombstone bitset over
/// both. The base stores its rows in IVF bucket order — each bucket one
/// contiguous slot range — so MODE=approx scans a probed bucket with the
/// same block passes as a full scan. InsertMappedWithId appends to the
/// delta (and to its bucket's append list), Remove tombstones, and Compact
/// rewrites the live rows into a fresh sealed base, laid out by bucket
/// again. Every row keeps its owner-assigned external id for its whole
/// lifetime, and selection keys on (distance, id), never on where a row is
/// stored, so answers do not depend on the mutation history that produced
/// a live set.
///
/// Mutations are not thread-safe: callers must not run mutations
/// concurrently with each other or with queries. The contract is
/// compiler-checked: every mutating method (and Freeze, which reads state a
/// mutation invalidates) REQUIRES writer_role(), which the owner asserts
/// under its own role.
class QueryEngine {
 public:
  /// The owner's shard constructor (ShardedEngine::FromPacked calls it)
  /// over an index already in the packed scan layout: the matrix is adopted
  /// as the sealed base segment, then permuted in place into bucket order.
  /// The caller has validated the width, the ids (one per row, strictly
  /// ascending) and next_id (>= 0, beyond every id); they are not checked
  /// again here. When the index carries a persisted IVF section its
  /// buckets are adopted instead of re-clustered — postings arrive in
  /// external-id space, so the shard keeps exactly the buckets holding ids
  /// it owns, after validating they cover its rows exactly once. The
  /// dimension comes from the mapper; index.features is not read.
  static Result<QueryEngine> FromPacked(PackedIndex index,
                                        FeatureMapper mapper,
                                        ServeOptions options);

  /// Generation-swap hook for a sharded owner whose epoch is a sum over
  /// shards: lifts this engine's epoch to at least `epoch`. Monotonic
  /// (never lowers), counts as a mutation for cache purposes.
  void RaiseEpochToAtLeast(uint64_t epoch) GDIM_REQUIRES(writer_role_);

  /// The single-writer capability; see the class comment. The accessor
  /// resolves to the same capability as the member, so call sites may spell
  /// either `engine.writer_role()` or (inside the class) `writer_role_`.
  ThreadRole& writer_role() const GDIM_RETURN_CAPABILITY(writer_role_) {
    return writer_role_;
  }

  /// Live (non-tombstoned) graphs.
  int num_graphs() const { return alive_; }
  int num_features() const { return mapper_.num_features(); }

  /// Monotonic mutation epoch: bumped by every successful insert/Remove and
  /// by every Compact that does work. Two queries issued at the same epoch
  /// are guaranteed bit-identical answers (the epoch is what makes cached
  /// results safe to replay); queries never bump it. A bump does not imply
  /// results changed — Compact rewrites physical rows without changing any
  /// answer but still bumps, erring on the safe side.
  uint64_t epoch() const { return epoch_; }
  const ServeOptions& options() const { return options_; }
  /// The stage-1 mapper, shared with the owner (prepared state is shared).
  const FeatureMapper& mapper() const { return mapper_; }

  /// Physical layout observability: sealed base rows, appended delta rows,
  /// and rows removed but not yet reclaimed by Compact().
  int base_rows() const { return base_->num_rows(); }
  int delta_rows() const { return delta_.num_rows(); }
  int tombstoned_rows() const { return num_tombstones_; }

  /// Buckets of the IVF candidate-pruning index (the `ivf_buckets` STATS
  /// gauge, summed over shards by the sharded engine).
  int ivf_buckets() const { return ivf_.num_buckets(); }
  /// The index itself, for tests and invariant checks.
  const IvfIndex& ivf_index() const { return ivf_; }

  /// Appends a mapped row under the owner-assigned external id. id must be
  /// >= the id this engine would assign next — per-engine ids stay strictly
  /// ascending — and the engine's id counter advances to id + 1; width must
  /// equal num_features().
  Result<int> InsertMappedWithId(const std::vector<uint8_t>& fingerprint,
                                 int id) GDIM_REQUIRES(writer_role_);

  /// Tombstones the graph with the given external id; NotFound if no live
  /// graph has that id. O(log n) + inverted-list maintenance.
  Status Remove(int id) GDIM_REQUIRES(writer_role_);

  /// Rewrites the live rows into a fresh sealed base segment laid out by
  /// IVF bucket (each bucket's base rows and appended delta rows become one
  /// contiguous range), drops tombstones, and empties the delta. External
  /// ids and centroids are unchanged. No-op on an engine with no delta rows
  /// and no tombstones.
  void Compact() GDIM_REQUIRES(writer_role_);

  /// External ids of the live graphs, ascending.
  std::vector<int> alive_ids() const;

  /// Live rows in ascending external id order as (id, packed word pointer)
  /// pairs; each pointer addresses words_per_row() words and stays valid
  /// until the next mutation. The streaming hook that lets a multi-shard
  /// owner snapshot all shards without byte materialization.
  std::vector<std::pair<int, const uint64_t*>> LiveRowWords() const;

  /// Words per packed row (= ceil(num_features() / 64)).
  size_t words_per_row() const { return base_->words_per_row(); }

  /// Captures the live state for asynchronous snapshotting: the sealed base
  /// is cloned by refcount, the delta/tombstones/ids are copied. The pause
  /// is O(delta rows · words + total rows) — independent of the sealed
  /// base's size — and the capture stays bit-exact at this epoch no matter
  /// what mutations follow. Same single-writer contract as mutations: the
  /// capture must be ordered against writers, so it REQUIRES the role.
  FrozenEngineState Freeze() const GDIM_REQUIRES(writer_role_);

  /// Stage 2 for the owner: the live physical rows surviving ∩ sup(f_r)
  /// over the fingerprint's set bits (ascending). Requires the containment
  /// prefilter to be enabled and at least one set bit (the intersection
  /// over an empty feature family is degenerate). The owner collects these
  /// from every shard, decides narrowed-vs-full over global counts, and
  /// hands the narrowed ones back through QueryMappedTile.
  std::vector<int> PrefilterCandidateRows(
      const std::vector<uint8_t>& fingerprint) const;

  /// QueryMappedTile for a tile of one.
  Ranking QueryMapped(const std::vector<uint8_t>& fingerprint,
                      const QueryOptions& options,
                      ServeQueryStats* stats = nullptr) const;

  /// Stages 2–3 for a contiguous tile of `count` pre-mapped fingerprints
  /// (widths must equal num_features()). results[q] / (*stats)[q] answer
  /// fingerprints[q] with its candidate source:
  ///  - candidates[q] when `candidates` is given and that entry is not
  ///    null: the owner's narrowed containment rows (stats report a
  ///    prefiltered scan of exactly those rows);
  ///  - otherwise, under ScanMode::kApprox, the nprobe nearest IVF buckets:
  ///    their base slot ranges plus their appended rows;
  ///  - otherwise every physical row. These queries share the row-block
  ///    passes: every block is loaded once and filtered against each of
  ///    them while L1-resident.
  /// Answers are bit-identical for every tile split and scan kernel.
  /// Per-query latency_ms reports the tile's wall time (each query waited
  /// for the shared pass).
  std::vector<Ranking> QueryMappedTile(
      const std::vector<uint8_t>* fingerprints, int count,
      const QueryOptions& options,
      std::vector<ServeQueryStats>* stats = nullptr,
      const std::vector<int>* const* candidates = nullptr) const;

 private:
  /// A contiguous range [begin, end) of physical rows inside one segment.
  struct RowRange {
    int begin;
    int end;
  };

  QueryEngine() = default;

  int total_rows() const { return base_->num_rows() + delta_.num_rows(); }

  /// Physical row of a live external id, or -1.
  int FindLiveRow(int id) const;

  /// Packed words of physical row `row` (base or delta).
  const uint64_t* RowWords(int row) const {
    const int base_n = base_->num_rows();
    return row < base_n ? base_->row(row) : delta_.row(row - base_n);
  }

  /// Rebuilds supports_ from the live rows, in physical row space.
  void BuildSupports();

  /// Stage 3, the one scorer behind every candidate source: offers the rows
  /// of `ranges` in kernel block passes, then each of `rows`, to tops[q]
  /// for every one of the `count` packed queries. Removed rows never enter.
  void Score(const uint64_t* const* queries, int count,
             const std::vector<RowRange>& ranges, const std::vector<int>& rows,
             HammingTopK* tops) const;

  ServeOptions options_;
  FeatureMapper mapper_{GraphDatabase{}};
  /// Sealed segment. Held by shared_ptr and treated as immutable — Compact
  /// installs a fresh matrix instead of mutating — so Freeze() can clone it
  /// by refcount and a background snapshot can read it safely while the
  /// engine keeps mutating. Never null once the engine is built.
  std::shared_ptr<const PackedBitMatrix> base_;
  PackedBitMatrix delta_;  ///< append-only segment (same width as base_)
  /// tombstones_[row] = 1 iff the physical row was removed; sized to
  /// total_rows().
  std::vector<uint8_t> tombstones_;
  int num_tombstones_ = 0;
  int alive_ = 0;
  /// row_ids_[row] = stable external id of physical row `row`. Base rows
  /// are in bucket order, so ids ascend only within a bucket's range.
  std::vector<int> row_ids_;
  /// Every physical row (tombstoned ones until Compact), ascending by
  /// external id: the id lookup of FindLiveRow and the id-ordered walk of
  /// alive_ids and LiveRowWords. Inserted ids only grow, so an insert
  /// appends.
  std::vector<int> by_id_;
  int next_id_ = 0;
  /// Monotonic mutation counter; see epoch().
  uint64_t epoch_ = 0;
  /// supports_[r] = ascending physical rows of live graphs containing
  /// feature r; only populated when options_.containment_prefilter.
  std::vector<std::vector<int>> supports_;
  /// IVF candidate-pruning index over the packed rows (ScanMode::kApprox),
  /// whose bucket ranges tile the base segment. Built with the engine (so
  /// a generation swap re-clusters over the new generation's
  /// fingerprints), maintained by inserts (nearest-centroid append lists)
  /// and Compact (a fresh layout); removals are lazy — scans skip
  /// tombstones. Mutated only under writer_role_, like every other member.
  IvfIndex ivf_;
  /// See writer_role(). mutable: acquiring a role is not a state change.
  mutable ThreadRole writer_role_;
};

}  // namespace gdim

#endif  // GDIM_SERVE_QUERY_ENGINE_H_
