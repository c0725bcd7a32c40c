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
  /// Worker threads for QueryBatch; 0 = DefaultThreadCount(). Results are
  /// identical for every thread count (queries are independent and the
  /// per-query ranking uses the deterministic score-then-id order).
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
  /// One sample per per-shard scan pass this query rode (the shard's wall
  /// time for its stage 2–3 work). Filled only by the sharded engine — a
  /// tiled scan attributes its per-shard passes to the tile's first query,
  /// so the sample count matches the passes actually run.
  std::vector<double> shard_scan_usec;
};

/// Aggregate report for one QueryBatch call.
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
/// percentiles, scan counters). Shared by every batch entry point — the
/// engine's own, the sharded engine's, and the batch executor's.
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

/// The online query-serving engine: loads a built index (feature dimension +
/// mapped database vectors), converts the vectors into the packed word
/// layout, and answers batched top-k queries through a three-stage hot path —
///   1. fingerprint the query onto the selected dimension (VF2 matching),
///   2. optionally prefilter candidates via the feature inverted lists,
///   3. popcount scan with fused integer top-k over one candidate source
///      (all rows, the probed IVF buckets, or the prefilter candidates):
///      rows are selected on their integer Hamming distance, and scores are
///      computed for the k survivors only.
/// No MCS computation and no graph algorithm other than stage 1 runs at
/// query time, which is the paper's whole online-search proposition.
///
/// The engine is *mutable*: the database is a sealed base segment plus an
/// append-only delta segment of packed rows, with a tombstone bitset over
/// both. The base stores its rows in IVF bucket order — each bucket one
/// contiguous slot range — so MODE=approx scans a probed bucket with the
/// same block passes as a full scan. Insert appends to the delta (and to
/// its bucket's append list), Remove tombstones, and Compact rewrites the
/// live rows into a fresh sealed base, laid out by bucket again. Every
/// graph keeps a stable external id for its whole lifetime — ids survive
/// removals of other graphs and any number of compactions — and after any
/// mutation sequence full-scan Query/QueryBatch results are bit-identical
/// to a fresh engine built over the equivalent database (same live
/// fingerprints in id order), because selection keys on (distance, id),
/// never on where a row is stored.
///
/// Mutations are not thread-safe: callers must not run Insert/Remove/Compact
/// concurrently with each other or with queries. The contract is
/// compiler-checked: every mutating method (and Freeze, which reads state a
/// mutation invalidates) REQUIRES writer_role() — the single writer
/// acquires the role once (the BatchExecutor's dispatcher thread does; a
/// single-threaded test scope uses ScopedRole) and Clang's thread-safety
/// analysis rejects any call path that never claimed it.
class QueryEngine {
 public:
  /// Builds the serving structures from an in-memory persisted index.
  /// Validates vector shape; the index is consumed. Row i keeps the
  /// persisted external id index.ids[i] (v2 snapshots carry them), or gets
  /// id i when the index has no id block (v1 files, fresh builds).
  static Result<QueryEngine> FromIndex(PersistedIndex index,
                                       ServeOptions options = {});

  /// Builds from an index already in the packed scan layout: the matrix is
  /// adopted as the sealed base segment with no unpack/repack round trip.
  /// The startup path for v2/v3 snapshots (ReadIndexFilePacked), where
  /// loading a database is a block read into this exact layout. When the
  /// index carries a persisted IVF section its buckets are adopted instead
  /// of re-clustered — postings arrive in external-id space, so the engine
  /// keeps exactly the buckets holding ids it owns (any shard partition of
  /// a snapshot works) after validating they cover its rows exactly once.
  /// Either way the adopted matrix is then permuted in place into bucket
  /// order — the base segment's layout.
  static Result<QueryEngine> FromPacked(PackedIndex index,
                                        ServeOptions options = {});

  /// FromPacked with an already-built mapper for the index's dimension:
  /// the mapper's prepared state is shared, not rebuilt. The dimension
  /// comes from the mapper; index.features is not read.
  static Result<QueryEngine> FromPacked(PackedIndex index,
                                        FeatureMapper mapper,
                                        ServeOptions options = {});

  /// Loads the index file at path (core/index_io, v1 text or v2 binary)
  /// and builds; v2 files load through the direct packed-words path.
  static Result<QueryEngine> Open(const std::string& index_path,
                                  ServeOptions options = {});

  /// Installs `next` — a freshly built engine over a new dimension
  /// generation — into *this, with epoch continuity: the adopted epoch is
  /// strictly greater than this engine's current epoch, so epoch-keyed
  /// consumers (the result cache) can never replay an answer across the
  /// generation boundary even though every other piece of state (mapper,
  /// segments, ids) is replaced wholesale. Single-writer contract: must not
  /// run concurrently with queries or mutations, like every mutation.
  void AdoptGeneration(QueryEngine next) GDIM_REQUIRES(writer_role_);

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

  /// Monotonic mutation epoch: bumped by every successful Insert/Remove and
  /// by every Compact that does work. Two queries issued at the same epoch
  /// are guaranteed bit-identical answers (the epoch is what makes cached
  /// results safe to replay); queries never bump it. A bump does not imply
  /// results changed — Compact rewrites physical rows without changing any
  /// answer but still bumps, erring on the safe side.
  uint64_t epoch() const { return epoch_; }
  const ServeOptions& options() const { return options_; }
  /// The stage-1 fingerprinting mapper (callers of QueryMapped share it).
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

  /// Inserts a graph: fingerprints it with the engine's dimension (VF2) and
  /// appends the mapped row to the delta segment. Returns the new stable
  /// external id.
  Result<int> Insert(const Graph& graph) GDIM_REQUIRES(writer_role_);

  /// Insert for callers that already hold the mapped fingerprint (bulk
  /// loads, replication, benchmarks); width must equal num_features().
  Result<int> InsertMapped(const std::vector<uint8_t>& fingerprint)
      GDIM_REQUIRES(writer_role_);

  /// InsertMapped with a caller-assigned external id, for an owner of a
  /// global id sequence (the sharded engine routes ids across shards, so a
  /// single shard sees gaps). id must be >= the id this engine would assign
  /// next — per-engine ids stay strictly ascending — and the engine's id
  /// counter advances to id + 1.
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

  /// The equivalent database of the current live state: the feature
  /// dimension plus the live fingerprints and their external ids in
  /// ascending-id order. A fresh engine built from this index answers
  /// queries bit-identically, with the same external ids.
  PersistedIndex ToPersistedIndex() const;

  /// Writes the live state to path; v2 binary by default, streaming the
  /// packed words straight from the segments (no byte materialization) and
  /// persisting external ids, so a reloaded engine keeps serving the same
  /// ids. v1 text cannot carry ids and renumbers rows positionally. v3
  /// additionally persists the IVF layout and the epoch (a reload adopts
  /// both; generation is a sharded-owner concept and is written as 0 here —
  /// ShardedEngine::WriteSnapshot is the serving snapshot path).
  Status Snapshot(const std::string& path,
                  IndexFormat format = IndexFormat::kV2Binary) const;

  /// Top-k ids + normalized mapped distances for one query, ascending
  /// score with id tie-break (identical order to TopK(MappedRanking(...))
  /// over the live rows). All per-query knobs (k, scan mode) travel in
  /// `options`: engine.Query(q, {.k = 10}).
  Ranking Query(const Graph& query, const QueryOptions& options,
                ServeQueryStats* stats = nullptr) const;

  /// Stages 2–3 for a caller that already holds the mapped fingerprint:
  /// the scatter path of a sharded engine fingerprints a query once (VF2 is
  /// the expensive stage) and fans the mapped vector out to every shard.
  /// Width must equal num_features(). With kAuto, identical to Query() on
  /// a graph with this fingerprint.
  Ranking QueryMapped(const std::vector<uint8_t>& fingerprint,
                      const QueryOptions& options,
                      ServeQueryStats* stats = nullptr) const;

  /// Stage 2 alone: the live physical rows surviving ∩ sup(f_r) over the
  /// fingerprint's set bits (ascending). Requires the containment
  /// prefilter to be enabled and at least one set bit (the intersection
  /// over an empty feature family is degenerate — callers fall back to a
  /// full scan there, as QueryMapped does). A sharded owner collects these
  /// once per shard, decides narrowed-vs-full globally, and feeds them
  /// back through QueryMappedCandidates — one intersection pass total.
  std::vector<int> PrefilterCandidateRows(
      const std::vector<uint8_t>& fingerprint) const;

  /// Stage 3 alone, over an explicit candidate row set (stage 2 already
  /// done by the owner): scores candidate_rows against the fingerprint and
  /// ranks with the usual score-then-id order, external ids in the result.
  /// stats reports a narrowed scan of candidate_rows.size() rows.
  Ranking QueryMappedCandidates(const std::vector<uint8_t>& fingerprint,
                                const QueryOptions& options,
                                const std::vector<int>& candidate_rows,
                                ServeQueryStats* stats = nullptr) const;

  /// Answers a whole batch across the thread pool. results[i] corresponds
  /// to queries[i]; output is deterministic for any thread count (and
  /// bit-identical for every scan kernel). Optional per-query stats
  /// (resized to the batch) and an aggregate report. Fingerprints the
  /// whole batch first (MapAll), then — unless the containment prefilter
  /// takes the per-query path — scans tiles of ActiveScanKernel()::
  /// tile_width() queries per row-block pass via QueryMappedTile.
  std::vector<Ranking> QueryBatch(
      const GraphDatabase& queries, const QueryOptions& options,
      ServeBatchReport* report = nullptr,
      std::vector<ServeQueryStats>* per_query = nullptr) const;

  /// Full-scan stage 3 for a contiguous tile of `count` pre-mapped
  /// fingerprints, scored together: every row block is loaded once and
  /// filtered against each of the `count` queries while L1-resident (the
  /// tiled path behind QueryBatch and the sharded engine's
  /// QueryMappedBatch). results[q] / (*stats)[q] correspond to
  /// fingerprints[q]; each equals QueryMapped(fingerprints[q],
  /// {.k = options.k, .scan_mode = ScanMode::kFull}) bit for bit. Per-query
  /// latency_ms reports the tile's wall time (each query waited for the
  /// shared pass).
  std::vector<Ranking> QueryMappedTile(
      const std::vector<uint8_t>* fingerprints, int count,
      const QueryOptions& options,
      std::vector<ServeQueryStats>* stats = nullptr) const;

 private:
  QueryEngine() = default;

  int total_rows() const { return base_->num_rows() + delta_.num_rows(); }

  /// Physical row of a live external id, or -1.
  int FindLiveRow(int id) const;

  /// Packed words of physical row `row` (base or delta).
  const uint64_t* RowWords(int row) const {
    const int base_n = base_->num_rows();
    return row < base_n ? base_->row(row) : delta_.row(row - base_n);
  }

  /// Row `row` of the segmented matrix back as a 0/1 byte vector.
  std::vector<uint8_t> RowBits(int row) const;

  /// Rebuilds supports_ from the live rows, in physical row space.
  void BuildSupports();

  /// Stage 2: ∩ sup(f_r) over the fingerprint's set bits (ascending
  /// physical rows, live rows only — the lists are maintained on mutation).
  std::vector<int> PrefilterCandidates(
      const std::vector<uint8_t>& fingerprint) const;

  /// Stage 3 over an explicit row list (prefilter candidates, IVF append
  /// lists): offers each physical row at its Hamming distance to the packed
  /// query; removed rows never enter.
  void OfferRows(const uint64_t* query, const std::vector<int>& rows,
                 HammingTopK* top) const;

  /// Stage 3 over every physical row, base then delta, for `count` packed
  /// queries at once: tops[q] selects for queries[q].
  void OfferAllRows(const uint64_t* const* queries, int count,
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
  /// alive_ids, LiveRowWords, and the snapshot writers. Inserted ids only
  /// grow, so Insert appends.
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
  /// fingerprints), maintained by Insert (nearest-centroid append lists)
  /// and Compact (a fresh layout); removals are lazy — scans skip
  /// tombstones. Mutated only under writer_role_, like every other member.
  IvfIndex ivf_;
  /// See writer_role(). mutable: acquiring a role is not a state change.
  mutable ThreadRole writer_role_;
};

}  // namespace gdim

#endif  // GDIM_SERVE_QUERY_ENGINE_H_
