#include "server/sharded_engine.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/kernels/scan_kernel.h"
#include "core/packed_bits.h"

namespace gdim {

namespace {

/// Deterministic k-way gather: every partial is sorted ascending by
/// (score, id), ids are globally unique, so repeatedly taking the smallest
/// head reproduces the unsharded total order exactly.
Ranking MergeTopK(const std::vector<Ranking>& partials, int k) {
  Ranking out;
  if (k <= 0) return out;
  size_t total = 0;
  for (const Ranking& p : partials) total += p.size();
  out.reserve(std::min(static_cast<size_t>(k), total));
  std::vector<size_t> cursor(partials.size(), 0);
  while (static_cast<int>(out.size()) < k) {
    size_t best = partials.size();
    for (size_t s = 0; s < partials.size(); ++s) {
      if (cursor[s] >= partials[s].size()) continue;
      if (best == partials.size()) {
        best = s;
        continue;
      }
      const RankedResult& c = partials[s][cursor[s]];
      const RankedResult& b = partials[best][cursor[best]];
      if (c.score < b.score || (c.score == b.score && c.id < b.id)) best = s;
    }
    if (best == partials.size()) break;  // every partial exhausted
    out.push_back(partials[best][cursor[best]++]);
  }
  return out;
}

/// The live rows of every shard (live engines or frozen captures) as
/// (id, packed word pointer) pairs in global ascending-id order.
template <typename Shards>
std::vector<std::pair<int, const uint64_t*>> LiveRowsById(
    const Shards& shards) {
  std::vector<std::pair<int, const uint64_t*>> live;
  for (const auto& shard : shards) {
    const auto shard_live = shard.LiveRowWords();
    live.insert(live.end(), shard_live.begin(), shard_live.end());
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return live;
}

std::vector<int> IdsOf(
    const std::vector<std::pair<int, const uint64_t*>>& live) {
  std::vector<int> ids;
  ids.reserve(live.size());
  for (const auto& row : live) ids.push_back(row.first);
  return ids;
}

}  // namespace

Result<ShardedEngine> ShardedEngine::FromIndex(PersistedIndex index,
                                               ShardedOptions options) {
  FeatureMapper mapper(std::move(index.features));
  return FromIndex(std::move(index), std::move(mapper), options);
}

Result<ShardedEngine> ShardedEngine::FromIndex(PersistedIndex index,
                                               FeatureMapper mapper,
                                               ShardedOptions options) {
  const size_t p = static_cast<size_t>(mapper.num_features());
  for (size_t i = 0; i < index.db_bits.size(); ++i) {
    if (index.db_bits[i].size() != p) {
      return Status::InvalidArgument(
          "index row " + std::to_string(i) + " has " +
          std::to_string(index.db_bits[i].size()) + " bits, expected " +
          std::to_string(p));
    }
  }
  PackedIndex packed;
  packed.rows = PackedBitMatrix::FromRows(index.db_bits, static_cast<int>(p));
  packed.ids = std::move(index.ids);
  packed.next_id = index.next_id;
  return FromPacked(std::move(packed), std::move(mapper), options);
}

Result<ShardedEngine> ShardedEngine::FromPacked(PackedIndex index,
                                                ShardedOptions options) {
  FeatureMapper mapper(std::move(index.features));
  return FromPacked(std::move(index), std::move(mapper), options);
}

Result<ShardedEngine> ShardedEngine::FromPacked(PackedIndex index,
                                                FeatureMapper mapper,
                                                ShardedOptions options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument(
        "num_shards must be >= 1, got " + std::to_string(options.num_shards));
  }
  const int p = mapper.num_features();
  if (index.rows.num_bits() != p) {
    return Status::InvalidArgument(
        "packed rows are " + std::to_string(index.rows.num_bits()) +
        " bits wide, feature dimension is " + std::to_string(p));
  }
  const int n = index.rows.num_rows();
  // The one id validation: shards trust it. Checking per shard would only
  // see ascending subsequences, so e.g. a globally unsorted id list could
  // split into shards that each look fine.
  if (!index.ids.empty()) {
    if (index.ids.size() != static_cast<size_t>(n)) {
      return Status::InvalidArgument("index id count does not match rows");
    }
    for (size_t i = 0; i < index.ids.size(); ++i) {
      if (index.ids[i] < 0 || (i > 0 && index.ids[i] <= index.ids[i - 1])) {
        return Status::InvalidArgument("index ids must be strictly ascending");
      }
    }
    if (index.ids.back() == std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("index id out of range");
    }
  }
  const int64_t min_next_id = index.ids.empty()
                                  ? static_cast<int64_t>(n)
                                  : int64_t{index.ids.back()} + 1;
  if (index.next_id >= 0 && index.next_id < min_next_id) {
    return Status::InvalidArgument("index next_id must exceed every id");
  }
  const int next_id =
      index.next_id >= 0 ? index.next_id : static_cast<int>(min_next_id);

  ShardedEngine engine;
  engine.options_ = options;
  engine.next_id_ = next_id;

  // Partition rows by id % N with word-level copies (no byte detour).
  const int num_shards = options.num_shards;
  std::vector<PackedBitMatrix> shard_rows;
  shard_rows.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shard_rows.push_back(PackedBitMatrix::WithWidth(p));
  }
  std::vector<std::vector<int>> shard_ids(static_cast<size_t>(num_shards));
  const auto id_of = [&index](int row) {
    return index.ids.empty() ? row : index.ids[static_cast<size_t>(row)];
  };
  // Sized exactly up front: the partition briefly holds the rows twice,
  // and growth slack would add to that peak.
  std::vector<int> shard_n(static_cast<size_t>(num_shards), 0);
  for (int row = 0; row < n; ++row) {
    ++shard_n[static_cast<size_t>(id_of(row) % num_shards)];
  }
  for (int s = 0; s < num_shards; ++s) {
    const int rows = shard_n[static_cast<size_t>(s)];
    shard_rows[static_cast<size_t>(s)].Reserve(rows);
    shard_ids[static_cast<size_t>(s)].reserve(static_cast<size_t>(rows));
  }
  for (int row = 0; row < n; ++row) {
    const int id = id_of(row);
    const int s = id % num_shards;
    shard_rows[static_cast<size_t>(s)].AppendRowFrom(index.rows, row);
    shard_ids[static_cast<size_t>(s)].push_back(id);
  }
  // The shards own copies now; release the input before building them.
  index.rows = PackedBitMatrix();
  index.ids = {};
  // A persisted v3 IVF layout is split by the same id % N rule: each shard
  // adopts only the postings of its partition (the postings are
  // external-id, so this works at any shard count). Bucket order is kept,
  // and a bucket holding none of a shard's ids is left out, as the shard
  // would skip it itself.
  std::vector<std::optional<PersistedIvf>> shard_ivf(
      static_cast<size_t>(num_shards));
  if (index.ivf.has_value()) {
    for (std::optional<PersistedIvf>& part : shard_ivf) {
      part.emplace().num_bits = index.ivf->num_bits;
    }
    std::vector<std::vector<int>> split(static_cast<size_t>(num_shards));
    for (const PersistedIvfBucket& bucket : index.ivf->buckets) {
      for (const int id : bucket.ids) {
        if (id < 0) continue;  // matches no row of any shard
        split[static_cast<size_t>(id % num_shards)].push_back(id);
      }
      for (int s = 0; s < num_shards; ++s) {
        std::vector<int>& ids = split[static_cast<size_t>(s)];
        if (ids.empty()) continue;
        shard_ivf[static_cast<size_t>(s)]->buckets.push_back(
            PersistedIvfBucket{bucket.centroid_words, std::move(ids)});
        ids = {};
      }
    }
    index.ivf.reset();
  }
  engine.shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    PackedIndex shard;
    shard.rows = std::move(shard_rows[static_cast<size_t>(s)]);
    shard.ids = std::move(shard_ids[static_cast<size_t>(s)]);
    // The global counter exceeds every id, so it is a valid per-shard
    // counter too; it keeps reload-then-insert from re-issuing any id.
    shard.next_id = next_id;
    shard.ivf = std::move(shard_ivf[static_cast<size_t>(s)]);
    Result<QueryEngine> built =
        QueryEngine::FromPacked(std::move(shard), mapper, options.serve);
    if (!built.ok()) return built.status();
    engine.shards_.push_back(std::move(built).value());
  }
  if (index.meta.has_value()) {
    // Restore the persisted generation and raise the epoch sum to at least
    // its pre-snapshot value. Fresh shards each start at epoch 0, so
    // raising shard 0 alone sets the sum — which shard is immaterial, the
    // sum is the contract (see SwapGeneration).
    engine.generation_ = index.meta->generation;
    // Engine under construction: its shards are reachable only by this
    // thread, so the single-writer contract trivially holds here.
    engine.shards_[0].writer_role().Assert();
    engine.shards_[0].RaiseEpochToAtLeast(index.meta->epoch);
  }
  engine.mapper_ = std::move(mapper);
  return engine;
}

Result<ShardedEngine> ShardedEngine::Open(const std::string& index_path,
                                          ShardedOptions options) {
  Result<PackedIndex> index = ReadIndexFilePacked(index_path);
  if (!index.ok()) return index.status();
  return FromPacked(std::move(index).value(), options);
}

int ShardedEngine::num_graphs() const {
  int alive = 0;
  for (const QueryEngine& shard : shards_) alive += shard.num_graphs();
  return alive;
}

int ShardedEngine::physical_rows() const {
  int rows = 0;
  for (const QueryEngine& shard : shards_) {
    rows += shard.base_rows() + shard.delta_rows();
  }
  return rows;
}

int ShardedEngine::tombstoned_rows() const {
  int tombstones = 0;
  for (const QueryEngine& shard : shards_) {
    tombstones += shard.tombstoned_rows();
  }
  return tombstones;
}

int ShardedEngine::ivf_buckets() const {
  int buckets = 0;
  for (const QueryEngine& shard : shards_) buckets += shard.ivf_buckets();
  return buckets;
}

int ShardedEngine::max_shard_ivf_buckets() const {
  int buckets = 0;
  for (const QueryEngine& shard : shards_) {
    buckets = std::max(buckets, shard.ivf_buckets());
  }
  return buckets;
}

const QueryEngine& ShardedEngine::shard(int s) const {
  GDIM_CHECK(s >= 0 && s < num_shards());
  return shards_[static_cast<size_t>(s)];
}

uint64_t ShardedEngine::epoch() const {
  uint64_t sum = 0;
  for (const QueryEngine& shard : shards_) sum += shard.epoch();
  return sum;
}

Result<int> ShardedEngine::Insert(const Graph& graph) {
  return InsertMapped(mapper_.Map(graph));
}

Result<int> ShardedEngine::InsertMapped(
    const std::vector<uint8_t>& fingerprint) {
  const int id = next_id_;
  QueryEngine& shard = shards_[static_cast<size_t>(ShardOf(id))];
  // Shards are private to this engine and reachable only through it, so
  // holding writer_role_ (this method's REQUIRES) is holding every shard's
  // role; the analysis cannot derive that ownership, hence the Assert.
  shard.writer_role().Assert();
  Result<int> inserted = shard.InsertMappedWithId(fingerprint, id);
  // Advance the global sequence only on success, so a rejected insert (bad
  // width, exhausted id space) does not burn an id.
  if (inserted.ok()) ++next_id_;
  return inserted;
}

Status ShardedEngine::Remove(int id) {
  if (id < 0) {
    return Status::NotFound("no live graph with id " + std::to_string(id));
  }
  QueryEngine& shard = shards_[static_cast<size_t>(ShardOf(id))];
  // Private shard under the engine's writer_role_; see InsertMapped.
  shard.writer_role().Assert();
  return shard.Remove(id);
}

void ShardedEngine::Compact() {
  for (QueryEngine& shard : shards_) {
    // Private shard under the engine's writer_role_; see InsertMapped.
    shard.writer_role().Assert();
    shard.Compact();
  }
}

void ShardedEngine::SwapGeneration(ShardedEngine next) {
  // The new generation's shards start at epoch 0 (they are fresh builds);
  // the installed epoch must exceed the pre-swap one so epoch-keyed
  // consumers treat the swap as a mutation. Raising one shard's epoch
  // raises the sum — which shard is immaterial, the sum is the contract.
  const uint64_t floor = epoch() + 1;
  options_ = std::move(next.options_);
  mapper_ = std::move(next.mapper_);
  shards_ = std::move(next.shards_);
  next_id_ = next.next_id_;
  ++generation_;
  const uint64_t now = epoch();
  if (now < floor) {
    // Private shard under the engine's writer_role_; see InsertMapped.
    shards_[0].writer_role().Assert();
    shards_[0].RaiseEpochToAtLeast(shards_[0].epoch() + (floor - now));
  }
}

std::vector<int> ShardedEngine::alive_ids() const {
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(num_graphs()));
  for (const QueryEngine& shard : shards_) {
    const std::vector<int> shard_ids = shard.alive_ids();
    ids.insert(ids.end(), shard_ids.begin(), shard_ids.end());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

PersistedIndex ShardedEngine::ToPersistedIndex() const {
  const std::vector<std::pair<int, const uint64_t*>> live =
      LiveRowsById(shards_);
  PersistedIndex index;
  index.features = mapper_.features();
  index.db_bits.reserve(live.size());
  const size_t p = static_cast<size_t>(num_features());
  for (const auto& [id, words] : live) {
    std::vector<uint8_t>& bits = index.db_bits.emplace_back(p);
    for (size_t r = 0; r < p; ++r) bits[r] = (words[r / 64] >> (r % 64)) & 1;
  }
  index.ids = IdsOf(live);
  index.next_id = next_id_;
  return index;
}

Status ShardedEngine::Snapshot(const std::string& path) const {
  return WriteSnapshot(Freeze(), path);
}

FrozenShardedState ShardedEngine::Freeze() const {
  FrozenShardedState frozen;
  frozen.features = mapper_.features();
  frozen.shards.reserve(shards_.size());
  for (const QueryEngine& shard : shards_) {
    // Private shard under the engine's writer_role_; see InsertMapped.
    shard.writer_role().Assert();
    frozen.shards.push_back(shard.Freeze());
  }
  frozen.next_id = next_id_;
  frozen.words_per_row = shards_.empty() ? 0 : shards_[0].words_per_row();
  frozen.epoch = epoch();
  frozen.generation = generation_;
  return frozen;
}

Status ShardedEngine::WriteSnapshot(const FrozenShardedState& frozen,
                                    const std::string& path) {
  // Stream every frozen shard's packed rows in global id order — word-level
  // pointers into the capture's segments, no byte materialization.
  const std::vector<std::pair<int, const uint64_t*>> live =
      LiveRowsById(frozen.shards);

  PersistedMeta meta;
  meta.generation = frozen.generation;
  meta.epoch = frozen.epoch;

  // The IVFX section concatenates every shard's live buckets in shard
  // order, postings lifted to external ids. Restore at any shard count
  // re-partitions by keeping the buckets owning each shard's ids; at an
  // unchanged count the relative bucket order (and so the probe tiebreak)
  // is reproduced exactly.
  PersistedIvf ivf;
  ivf.num_bits = frozen.features.empty()
                     ? 0
                     : static_cast<int>(frozen.features.size());
  for (const FrozenEngineState& shard : frozen.shards) {
    PersistedIvf part = PersistIvf(shard.ivf, shard.tombstones,
                                   shard.row_ids);
    ivf.num_bits = part.num_bits;
    for (PersistedIvfBucket& bucket : part.buckets) {
      ivf.buckets.push_back(std::move(bucket));
    }
  }

  V3Sections sections;
  sections.meta = &meta;
  sections.ivf = &ivf;
  if (frozen.store.has_value()) {
    sections.store_ids = &frozen.store->ids;
    sections.store_graphs = &frozen.store->graphs;
  }
  return WriteIndexFileV3Words(
      frozen.features, static_cast<uint64_t>(live.size()),
      static_cast<uint64_t>(frozen.words_per_row),
      [&](uint64_t i) { return live[i].second; }, IdsOf(live),
      frozen.next_id, sections, path);
}

void ShardedEngine::ScanTile(const std::vector<uint8_t>* fingerprints,
                             int count, const QueryOptions& options,
                             Ranking* results, ServeQueryStats* stats) const {
  WallTimer tile_timer;
  const size_t n = static_cast<size_t>(count);
  // Stage-2 policy is decided ONCE per query, over global counts, and the
  // shards only carry it out. Left to a per-shard rule they would diverge
  // from the unsharded answer: a shard locally holding fewer than k
  // candidates would widen to a full scan the global rule never runs. The
  // rule narrows only when it actually narrows: some candidate survived (an
  // empty intersection is a degenerate "scan of zero rows", not a narrowed
  // scan — the documented fallback applies, also at k == 0), enough to
  // fill k, and strictly fewer than the live rows. The candidate rows
  // collected here feed the narrowed scans — one intersection per shard.
  std::vector<std::vector<std::vector<int>>> candidates(shards_.size());
  std::vector<std::vector<const std::vector<int>*>> narrowed(
      shards_.size(), std::vector<const std::vector<int>*>(n, nullptr));
  if (options_.serve.containment_prefilter &&
      options.scan_mode == ScanMode::kAuto) {
    for (std::vector<std::vector<int>>& rows : candidates) rows.resize(n);
    for (size_t q = 0; q < n; ++q) {
      const std::vector<uint8_t>& fp = fingerprints[q];
      if (std::none_of(fp.begin(), fp.end(),
                       [](uint8_t b) { return b != 0; })) {
        continue;
      }
      long long total = 0;
      for (size_t s = 0; s < shards_.size(); ++s) {
        candidates[s][q] = shards_[s].PrefilterCandidateRows(fp);
        total += static_cast<long long>(candidates[s][q].size());
      }
      if (total == 0 || total < std::max(options.k, 0) ||
          total >= num_graphs()) {
        continue;
      }
      for (size_t s = 0; s < shards_.size(); ++s) {
        narrowed[s][q] = &candidates[s][q];
      }
    }
  }

  // Every shard scores the whole tile; the shards run one after another,
  // the tiles in parallel.
  std::vector<std::vector<Ranking>> partials(shards_.size());
  std::vector<std::vector<ServeQueryStats>> shard_stats(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    partials[s] = shards_[s].QueryMappedTile(fingerprints, count, options,
                                             &shard_stats[s],
                                             narrowed[s].data());
  }
  std::vector<Ranking> per_shard(shards_.size());
  for (size_t q = 0; q < n; ++q) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      per_shard[s] = std::move(partials[s][q]);
    }
    ServeQueryStats& st = stats[q];
    WallTimer gather_timer;
    results[q] = MergeTopK(per_shard, options.k);
    st.gather_usec = gather_timer.Micros();
    // Every shard took the same stage-2 side, so shard 0 reports it.
    st.features_on = shard_stats[0][q].features_on;
    st.prefiltered = shard_stats[0][q].prefiltered;
    st.approx = shard_stats[0][q].approx;
    for (const std::vector<ServeQueryStats>& shard : shard_stats) {
      st.scanned += shard[q].scanned;
      st.rows_pruned += shard[q].rows_pruned;
      st.ivf_probe_usec += shard[q].ivf_probe_usec;
    }
  }
  const double tile_ms = tile_timer.Millis();
  for (size_t q = 0; q < n; ++q) stats[q].latency_ms = tile_ms;
  // One scan sample per shard pass over the tile, attributed to the tile's
  // first query (every query's shard latency is that pass's wall time).
  for (const std::vector<ServeQueryStats>& shard : shard_stats) {
    stats[0].shard_scan_usec.push_back(shard[0].latency_ms * 1e3);
  }
}

Ranking ShardedEngine::Query(const Graph& query, const QueryOptions& options,
                             ServeQueryStats* stats) const {
  WallTimer timer;
  Ranking top = QueryMapped(mapper_.Map(query), options, stats);
  if (stats != nullptr) stats->latency_ms = timer.Millis();  // include VF2
  return top;
}

Ranking ShardedEngine::QueryMapped(const std::vector<uint8_t>& fingerprint,
                                   const QueryOptions& options,
                                   ServeQueryStats* stats) const {
  std::vector<ServeQueryStats> per_query;
  std::vector<Ranking> results = QueryMappedBatch(
      {fingerprint}, options, nullptr, stats != nullptr ? &per_query : nullptr);
  if (stats != nullptr) *stats = std::move(per_query[0]);
  return std::move(results[0]);
}

std::vector<Ranking> ShardedEngine::QueryBatch(
    const GraphDatabase& queries, const QueryOptions& options,
    ServeBatchReport* report,
    std::vector<ServeQueryStats>* per_query) const {
  WallTimer batch_timer;
  std::vector<ServeQueryStats> stats;
  std::vector<Ranking> results =
      QueryMappedBatch(mapper_.MapAll(queries, options_.serve.threads),
                       options, nullptr, &stats);
  if (report != nullptr) {
    FillServeBatchReport(batch_timer.Millis(), stats, report);
  }
  if (per_query != nullptr) *per_query = std::move(stats);
  return results;
}

std::vector<Ranking> ShardedEngine::QueryMappedBatch(
    const std::vector<std::vector<uint8_t>>& fingerprints,
    const QueryOptions& options, ServeBatchReport* report,
    std::vector<ServeQueryStats>* per_query) const {
  WallTimer batch_timer;
  const int n = static_cast<int>(fingerprints.size());
  std::vector<Ranking> results(fingerprints.size());
  std::vector<ServeQueryStats> stats(fingerprints.size());
  // Tile boundaries never affect answers: every query's scores are
  // bit-identical for every kernel and tile split.
  const int tile = ActiveScanKernel().tile_width();
  ParallelFor(
      0, (n + tile - 1) / tile,
      [&](int t) {
        const int begin = t * tile;
        ScanTile(fingerprints.data() + begin, std::min(tile, n - begin),
                 options, results.data() + begin, stats.data() + begin);
      },
      options_.serve.threads);
  if (report != nullptr) {
    FillServeBatchReport(batch_timer.Millis(), stats, report);
  }
  if (per_query != nullptr) *per_query = std::move(stats);
  return results;
}

}  // namespace gdim
