#ifndef GDIM_SERVER_SHARDED_ENGINE_H_
#define GDIM_SERVER_SHARDED_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "core/index_io.h"
#include "core/mapper.h"
#include "core/topk.h"
#include "graph/graph.h"
#include "serve/query_engine.h"
#include "store/graph_store.h"

namespace gdim {

/// Knobs for the sharded serving layer.
struct ShardedOptions {
  /// Number of QueryEngine shards; must be >= 1. Results are bit-identical
  /// for every shard count (the gather merge reproduces the score-then-id
  /// total order exactly).
  int num_shards = 1;

  /// Per-shard serving options. `serve.threads` also sizes the pool that
  /// runs a batch's tiles in parallel; the prefilter flag is passed through
  /// to every shard.
  ServeOptions serve;
};

/// An immutable capture of every shard's live state plus the global
/// metadata a snapshot file needs, taken by ShardedEngine::Freeze() on the
/// engine's (single) writer thread and then streamed to disk by
/// WriteSnapshot on any thread — the engine is free to mutate in the
/// meantime. See FrozenEngineState for what the per-shard capture costs.
struct FrozenShardedState {
  GraphDatabase features;  ///< copied (small: p feature graphs)
  std::vector<FrozenEngineState> shards;
  int next_id = 0;
  size_t words_per_row = 0;
  uint64_t epoch = 0;  ///< the engine's mutation epoch at freeze time
  /// Dimension generation at freeze time; restored by a v3 reload so a
  /// restarted server reports the same `dimension_generation` gauge.
  uint64_t generation = 0;
  /// The live graph set behind the engine, when the snapshotting layer has
  /// one (the executor attaches its GraphStore's Freeze()). Persisted as the
  /// v3 STOR section so a restart can resume REINDEX without the source
  /// database. Absent (e.g. engine-only Snapshot), the section is omitted.
  std::optional<FrozenGraphSet> store;
};

/// The serving engine, and its only public query, construction, and
/// snapshot surface: the database is hash-partitioned across N >= 1
/// QueryEngine shards by stable external id (shard of id = id % N). Every
/// query is fingerprinted once (VF2), and every query entry point funnels
/// into one batch body over the fingerprints: the batch is cut into tiles
/// of the scan kernel's width, the stage-2 narrowed-vs-full decision is
/// made per query over global counts, every shard scores the whole tile
/// (QueryEngine::QueryMappedTile), and the per-shard top-k lists are
/// gather-merged per query with the ascending score-then-id total order.
///
/// Invariants:
///  - External ids are global and stable: the sharded engine owns one id
///    sequence, routes inserts/removes by id, and a snapshot/reload cycle —
///    including reloading with a *different* shard count — preserves every
///    id (the partition function is a pure function of id and N).
///  - Bit-identical answers: for any shard count, thread count, and tile
///    split, a full scan returns exactly TopK(MappedRanking(...)) over the
///    live rows in id order, before and after any interleaved
///    insert/remove/compact sequence. Each shard's top-k is a superset of
///    the global top-k restricted to that shard, and the k-way merge breaks
///    ties by id just like the offline ranking.
///
/// Mutations are not thread-safe: callers must not run Insert/Remove/Compact
/// concurrently with each other or with queries. The contract is
/// compiler-checked: every mutating method (and Freeze) REQUIRES
/// writer_role(), acquired once by the single writer — the BatchExecutor's
/// dispatcher thread in production, a ScopedRole in single-threaded
/// tests/tools. The per-shard QueryEngine roles are
/// subsumed: shards are private and reachable only through this engine, so
/// the implementation asserts each shard's role under its own.
class ShardedEngine {
 public:
  /// Partitions the persisted index across options.num_shards shards.
  /// Row ids (explicit, or positional when the index has no id block)
  /// determine placement; validation is FromPacked's.
  static Result<ShardedEngine> FromIndex(PersistedIndex index,
                                         ShardedOptions options = {});

  /// FromIndex with an already-built mapper for the index's dimension (the
  /// caller mapped rows with it); index.features is not read.
  static Result<ShardedEngine> FromIndex(PersistedIndex index,
                                         FeatureMapper mapper,
                                         ShardedOptions options = {});

  /// FromIndex over an index already in the packed scan layout: shard rows
  /// are split with word-level copies, never through byte vectors. The
  /// width, the ids (strictly ascending, one per row) and next_id (beyond
  /// every id) are validated here, once, for every shard. v3
  /// sections are adopted when present: every shard projects the persisted
  /// IVF layout onto its own partition (skipping the rebuild), and META
  /// restores the dimension generation and raises the mutation epoch to at
  /// least its pre-snapshot value, so epoch-keyed consumers (the result
  /// cache) can never confuse pre- and post-restart answers. A persisted
  /// graph store (STOR) is not engine state — the serving tool extracts it
  /// before calling this.
  static Result<ShardedEngine> FromPacked(PackedIndex index,
                                          ShardedOptions options = {});

  /// Loads the index file at path (any readable version, through
  /// ReadIndexFilePacked) and partitions it.
  static Result<ShardedEngine> Open(const std::string& index_path,
                                    ShardedOptions options = {});

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_features() const { return mapper_.num_features(); }
  const ShardedOptions& options() const { return options_; }
  /// The shared stage-1 mapper: the batch executor maps a coalesced run
  /// once (MapAll) and feeds the fingerprints to QueryMappedBatch.
  const FeatureMapper& mapper() const { return mapper_; }
  /// Live graphs across all shards.
  int num_graphs() const;
  /// Physical rows (sealed base + append-only delta) across all shards —
  /// what a full scan actually touches, tombstoned rows included.
  int physical_rows() const;
  /// Rows removed but not yet reclaimed by Compact(), across all shards.
  int tombstoned_rows() const;
  /// IVF candidate-pruning buckets across all shards (the `ivf_buckets`
  /// STATS gauge). Every shard rebuilds its index on construction (or
  /// adopts a persisted v3 layout), so a generation swap re-clusters over
  /// the new generation's fingerprints.
  int ivf_buckets() const;
  /// The largest single shard's IVF bucket count: any NPROBE at or above it
  /// makes every shard probe all of its buckets, i.e. behaves exactly like
  /// NPROBE=all. The executor normalizes cache keys on this threshold.
  int max_shard_ivf_buckets() const;
  /// The next external id this engine would assign (the global sequence).
  int next_id() const { return next_id_; }
  /// Shard observability (tests, STATS reporting).
  const QueryEngine& shard(int s) const;

  /// How many dimension generations this engine has adopted: 0 for the
  /// load-time generation, +1 per SwapGeneration. Exposed as the
  /// `dimension_generation` STATS gauge.
  uint64_t generation() const { return generation_; }

  /// Monotonic mutation epoch: the sum of the shard epochs, so every
  /// successful Insert/Remove and every working Compact bumps it (each
  /// mutation lands in exactly one shard; Compact may bump several).
  /// Queries never bump it, and two queries at the same epoch answer
  /// bit-identically — the invariant the executor's result cache keys on.
  uint64_t epoch() const;

  /// The single-writer capability; see the class comment.
  ThreadRole& writer_role() const GDIM_RETURN_CAPABILITY(writer_role_) {
    return writer_role_;
  }

  /// Inserts a graph: assigns the next global id, fingerprints once, and
  /// appends to the owning shard. Returns the stable external id; ids are
  /// assigned in sequence whatever the shard count.
  Result<int> Insert(const Graph& graph) GDIM_REQUIRES(writer_role_);

  /// Insert for callers that already hold the mapped fingerprint.
  Result<int> InsertMapped(const std::vector<uint8_t>& fingerprint)
      GDIM_REQUIRES(writer_role_);

  /// Tombstones the graph with the given external id in its owning shard;
  /// NotFound if no live graph has that id.
  Status Remove(int id) GDIM_REQUIRES(writer_role_);

  /// Compacts every shard (reclaims tombstones, seals deltas). Ids are
  /// unchanged.
  void Compact() GDIM_REQUIRES(writer_role_);

  /// Installs a freshly built engine — a new dimension *generation*, the
  /// product of a background reindex over the live graph set — into *this*
  /// atomically from the caller's (single writer) point of view: mapper,
  /// shards, and id sequence are replaced wholesale, the generation counter
  /// increments, and the mutation epoch is guaranteed to come out strictly
  /// greater than it was before the swap. The epoch guarantee is what makes
  /// the swap safe under the epoch-keyed result cache: an answer computed
  /// against the old generation can never be replayed against the new one,
  /// even though the two generations may rank differently (different
  /// dimensions) for the same live set. `next` would normally be built with
  /// the same options/shard count, but any valid engine is installable.
  /// Same single-writer contract as every mutation.
  void SwapGeneration(ShardedEngine next) GDIM_REQUIRES(writer_role_);

  /// External ids of the live graphs across all shards, ascending.
  std::vector<int> alive_ids() const;

  /// The equivalent database: live fingerprints and ids in ascending-id
  /// order plus the global id counter. An engine of any shard count built
  /// from this answers queries bit-identically.
  PersistedIndex ToPersistedIndex() const;

  /// Writes the merged live state to one v3 index file:
  /// WriteSnapshot(Freeze(), path), run inline, so it carries Freeze's
  /// ordering contract. The engine has no graph store, so the STOR section
  /// is never written here — callers that hold one attach it to the frozen
  /// capture and call WriteSnapshot themselves.
  Status Snapshot(const std::string& path) const GDIM_REQUIRES(writer_role_);

  /// Captures all shards for asynchronous snapshotting: sealed bases are
  /// cloned by refcount, deltas/tombstones/ids copied — a bounded pause
  /// independent of sealed-base size, on the engine's writer thread (the
  /// capture must be ordered against writers, hence REQUIRES). The capture
  /// answers for exactly this epoch's live set forever.
  FrozenShardedState Freeze() const GDIM_REQUIRES(writer_role_);

  /// Streams a frozen capture to one v3 index file, shard-count
  /// independent, word-level (no byte materialization) — safe on any
  /// thread, concurrent with live mutations, because the capture owns or
  /// shares everything it reads. The file carries DIMS (the merged live
  /// rows in global id order), META (generation + epoch), the shards' live
  /// IVF postings lifted to external ids (IVFX, in shard order), and —
  /// when the capture has one — the frozen graph store (STOR). A reload
  /// with any shard count keeps serving the same ids, and skips the
  /// O(n·sqrt(n)) IVF rebuild. The only path that writes an index file;
  /// see WriteIndexFileV3Words for its durability contract.
  static Status WriteSnapshot(const FrozenShardedState& frozen,
                              const std::string& path);

  /// Top-k for one query: VF2-fingerprint it, then QueryMapped. stats
  /// aggregates over shards (scanned rows, pruned rows and probe time are
  /// summed; prefiltered means the global decision narrowed the scan), and
  /// latency_ms includes the mapping. Per-query knobs travel in `options`:
  /// engine.Query(q, {.k = 10}).
  Ranking Query(const Graph& query, const QueryOptions& options,
                ServeQueryStats* stats = nullptr) const;

  /// Query for a pre-mapped fingerprint (width must be num_features()): a
  /// QueryMappedBatch of one.
  Ranking QueryMapped(const std::vector<uint8_t>& fingerprint,
                      const QueryOptions& options,
                      ServeQueryStats* stats = nullptr) const;

  /// Answers a whole batch: one MapAll fingerprinting pass, then
  /// QueryMappedBatch. Deterministic for any thread count and bit-identical
  /// for every scan kernel. The report's wall time includes the mapping.
  std::vector<Ranking> QueryBatch(
      const GraphDatabase& queries, const QueryOptions& options,
      ServeBatchReport* report = nullptr,
      std::vector<ServeQueryStats>* per_query = nullptr) const;

  /// QueryBatch over pre-mapped fingerprints — the one query body behind
  /// every entry point, and the one the batch executor coalesces concurrent
  /// network queries into. The batch is cut into tiles of
  /// ActiveScanKernel()::tile_width() queries, run in parallel on
  /// `serve.threads`; see ScanTile. Each query's answer and stats equal
  /// those of a batch of one, whatever the tile split.
  std::vector<Ranking> QueryMappedBatch(
      const std::vector<std::vector<uint8_t>>& fingerprints,
      const QueryOptions& options, ServeBatchReport* report = nullptr,
      std::vector<ServeQueryStats>* per_query = nullptr) const;

 private:
  ShardedEngine() = default;

  /// FromPacked with an already-built mapper; index.features is not read.
  /// The engine and every shard share the mapper's prepared state.
  static Result<ShardedEngine> FromPacked(PackedIndex index,
                                          FeatureMapper mapper,
                                          ShardedOptions options);

  int ShardOf(int id) const {
    return id % static_cast<int>(shards_.size());
  }

  /// One tile of QueryMappedBatch: decides each query's stage-2 policy over
  /// global candidate counts, lets every shard (serially) score the whole
  /// tile, and gather-merges per query into results[0, count) and
  /// stats[0, count).
  void ScanTile(const std::vector<uint8_t>* fingerprints, int count,
                const QueryOptions& options, Ranking* results,
                ServeQueryStats* stats) const;

  ShardedOptions options_;
  FeatureMapper mapper_{GraphDatabase{}};
  std::vector<QueryEngine> shards_;
  /// The global id sequence; see next_id().
  int next_id_ = 0;
  /// Dimension generations adopted; see generation().
  uint64_t generation_ = 0;
  /// See writer_role(). mutable: acquiring a role is not a state change.
  mutable ThreadRole writer_role_;
};

}  // namespace gdim

#endif  // GDIM_SERVER_SHARDED_ENGINE_H_
