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
/// head reproduces the single-engine total order exactly.
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
  // Global id validation up front: per-shard validation only sees ascending
  // subsequences, so e.g. a globally unsorted id list could split into
  // shards that each look fine.
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
  // Merge the shards' live rows back into ascending-id order.
  std::vector<std::pair<int, std::vector<uint8_t>>> rows;
  rows.reserve(static_cast<size_t>(num_graphs()));
  for (const QueryEngine& shard : shards_) {
    PersistedIndex part = shard.ToPersistedIndex();
    for (size_t i = 0; i < part.db_bits.size(); ++i) {
      rows.emplace_back(part.ids[i], std::move(part.db_bits[i]));
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  PersistedIndex index;
  index.features = mapper_.features();
  index.db_bits.reserve(rows.size());
  index.ids.reserve(rows.size());
  for (auto& [id, bits] : rows) {
    index.ids.push_back(id);
    index.db_bits.push_back(std::move(bits));
  }
  index.next_id = next_id_;
  return index;
}

Status ShardedEngine::Snapshot(const std::string& path,
                               IndexFormat format) const {
  if (format == IndexFormat::kV3Sectioned) {
    // The synchronous v3 path is the asynchronous one run inline, so both
    // are one code path: freeze (cheap), then stream the capture.
    return WriteSnapshot(Freeze(), path);
  }
  if (format == IndexFormat::kV2Binary) {
    // Compatibility escape hatch: the merged live rows in global id order,
    // word-level, without the v3 sections.
    const FrozenShardedState frozen = Freeze();
    std::vector<std::pair<int, const uint64_t*>> live;
    for (const FrozenEngineState& shard : frozen.shards) {
      const auto shard_live = shard.LiveRowWords();
      live.insert(live.end(), shard_live.begin(), shard_live.end());
    }
    std::sort(live.begin(), live.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<int> ids;
    ids.reserve(live.size());
    for (const auto& row : live) ids.push_back(row.first);
    return WriteIndexFileV2Words(
        frozen.features, static_cast<uint64_t>(live.size()),
        static_cast<uint64_t>(frozen.words_per_row),
        [&](uint64_t i) { return live[i].second; }, ids, frozen.next_id,
        path);
  }
  return WriteIndexFile(ToPersistedIndex(), path, format);
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
  // pointers into the capture's segments, no byte materialization, exactly
  // like the single-engine snapshot path.
  std::vector<std::pair<int, const uint64_t*>> live;
  for (const FrozenEngineState& shard : frozen.shards) {
    const auto shard_live = shard.LiveRowWords();
    live.insert(live.end(), shard_live.begin(), shard_live.end());
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<int> ids;
  ids.reserve(live.size());
  for (const auto& row : live) ids.push_back(row.first);

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
      [&](uint64_t i) { return live[i].second; }, ids, frozen.next_id,
      sections, path);
}

Ranking ShardedEngine::ScatterGather(const std::vector<uint8_t>& fingerprint,
                                     const QueryOptions& options,
                                     ServeQueryStats* stats,
                                     int scatter_threads) const {
  const int k = options.k;
  WallTimer timer;
  const int n_shards = num_shards();

  // Stage-2 policy is decided ONCE, over global counts, then forced onto
  // every shard. Left to their per-shard fallback heuristics the shards
  // diverge from the single engine: a shard locally holding fewer than k
  // candidates would widen to a full scan the single engine never runs.
  // The global rule is exactly the single engine's (some candidate
  // survived, enough to fill k, strictly narrower than a full scan), and
  // the candidate rows collected here feed straight into the narrowed
  // scans — one intersection pass per shard total.
  bool narrowed = false;
  int features_on = 0;
  for (uint8_t b : fingerprint) features_on += b != 0 ? 1 : 0;
  std::vector<std::vector<int>> candidates;
  if (options_.serve.containment_prefilter &&
      options.scan_mode == ScanMode::kAuto && features_on > 0) {
    candidates.resize(static_cast<size_t>(n_shards));
    long long total = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      candidates[s] = shards_[s].PrefilterCandidateRows(fingerprint);
      total += static_cast<long long>(candidates[s].size());
    }
    narrowed = total > 0 && total >= std::max(k, 0) && total < num_graphs();
  }

  std::vector<Ranking> partials(static_cast<size_t>(n_shards));
  std::vector<ServeQueryStats> shard_stats(static_cast<size_t>(n_shards));
  // kApprox travels to every shard as-is: each shard probes its own IVF
  // index with the same nprobe, so the gather merges per-shard approximate
  // top-k lists. At kNprobeAll every shard's candidate set is its full live
  // set and the merge is bit-identical to the forced-full path.
  const bool approx = options.scan_mode == ScanMode::kApprox;
  const QueryOptions forced =
      approx ? options
             : QueryOptions{.k = options.k, .scan_mode = ScanMode::kFull};
  ParallelScatter(
      n_shards,
      [&](int s) {
        const size_t i = static_cast<size_t>(s);
        partials[i] =
            narrowed
                ? shards_[i].QueryMappedCandidates(fingerprint, options,
                                                   candidates[i],
                                                   &shard_stats[i])
                : shards_[i].QueryMapped(fingerprint, forced,
                                         &shard_stats[i]);
      },
      scatter_threads);
  WallTimer gather_timer;
  Ranking merged = MergeTopK(partials, k);
  const double gather_usec = gather_timer.Micros();
  if (stats != nullptr) {
    stats->latency_ms = timer.Millis();
    stats->features_on = features_on;
    stats->scanned = 0;
    stats->rows_pruned = 0;
    stats->ivf_probe_usec = 0.0;
    // Per-shard stage samples, collected in this serial tail (after the
    // scatter join) so no shard writes a shared slot concurrently.
    stats->shard_scan_usec.clear();
    stats->shard_scan_usec.reserve(static_cast<size_t>(n_shards));
    for (int s = 0; s < n_shards; ++s) {
      stats->scanned += shard_stats[static_cast<size_t>(s)].scanned;
      stats->rows_pruned += shard_stats[static_cast<size_t>(s)].rows_pruned;
      stats->ivf_probe_usec +=
          shard_stats[static_cast<size_t>(s)].ivf_probe_usec;
      stats->shard_scan_usec.push_back(
          shard_stats[static_cast<size_t>(s)].latency_ms * 1e3);
    }
    stats->prefiltered = narrowed;
    stats->approx = approx;
    stats->gather_usec = gather_usec;
  }
  return merged;
}

Ranking ShardedEngine::Query(const Graph& query, const QueryOptions& options,
                             ServeQueryStats* stats) const {
  WallTimer timer;
  Ranking top = ScatterGather(mapper_.Map(query), options, stats,
                              options_.serve.threads);
  if (stats != nullptr) stats->latency_ms = timer.Millis();  // include VF2
  return top;
}

Ranking ShardedEngine::QueryMapped(const std::vector<uint8_t>& fingerprint,
                                   const QueryOptions& options,
                                   ServeQueryStats* stats) const {
  return ScatterGather(fingerprint, options, stats, options_.serve.threads);
}

void ShardedEngine::ScanMappedBatch(
    const std::vector<std::vector<uint8_t>>& fingerprints,
    const QueryOptions& options, std::vector<Ranking>* results,
    std::vector<ServeQueryStats>* stats) const {
  const int n = static_cast<int>(fingerprints.size());
  if (options.scan_mode == ScanMode::kApprox ||
      (options_.serve.containment_prefilter &&
       options.scan_mode == ScanMode::kAuto)) {
    // The stage-2 narrowed-vs-full decision is global and per query, so
    // queries cannot share row passes: one pool over queries, each
    // scattering over shards serially (no nested pools). kApprox takes the
    // same per-query path — the tiled path below forces full scans, which
    // would silently ignore the probe.
    ParallelFor(
        0, n,
        [&](int i) {
          WallTimer query_timer;
          (*results)[static_cast<size_t>(i)] =
              ScatterGather(fingerprints[static_cast<size_t>(i)], options,
                            &(*stats)[static_cast<size_t>(i)], 1);
          (*stats)[static_cast<size_t>(i)].latency_ms = query_timer.Millis();
        },
        options_.serve.threads);
    return;
  }
  // Block-tiled multi-query path: cut the batch into tiles of the active
  // kernel's width and let every shard score a whole tile per row-block
  // pass (QueryEngine::QueryMappedTile), then gather-merge per query. The
  // merge is the same deterministic k-way MergeTopK as the scatter path, so
  // answers are bit-identical to one-query-at-a-time scattering for every
  // tile split, shard count, and kernel.
  const QueryOptions full{.k = options.k, .scan_mode = ScanMode::kFull};
  const int tile = ActiveScanKernel().tile_width();
  const int num_tiles = tile > 0 ? (n + tile - 1) / tile : 0;
  ParallelFor(
      0, num_tiles,
      [&](int t) {
        const int begin = t * tile;
        const int count = std::min(tile, n - begin);
        WallTimer tile_timer;
        std::vector<std::vector<Ranking>> partials(shards_.size());
        std::vector<std::vector<ServeQueryStats>> shard_stats(
            shards_.size());
        for (size_t s = 0; s < shards_.size(); ++s) {
          partials[s] = shards_[s].QueryMappedTile(
              fingerprints.data() + begin, count, full, &shard_stats[s]);
        }
        for (int q = 0; q < count; ++q) {
          std::vector<Ranking> per_shard;
          per_shard.reserve(shards_.size());
          for (size_t s = 0; s < shards_.size(); ++s) {
            per_shard.push_back(
                std::move(partials[s][static_cast<size_t>(q)]));
          }
          WallTimer gather_timer;
          (*results)[static_cast<size_t>(begin + q)] =
              MergeTopK(per_shard, options.k);
          (*stats)[static_cast<size_t>(begin + q)].gather_usec =
              gather_timer.Micros();
        }
        const double tile_ms = tile_timer.Millis();
        for (int q = 0; q < count; ++q) {
          ServeQueryStats& s = (*stats)[static_cast<size_t>(begin + q)];
          s.latency_ms = tile_ms;
          s.features_on = shard_stats[0][static_cast<size_t>(q)].features_on;
          s.scanned = 0;
          for (size_t sh = 0; sh < shards_.size(); ++sh) {
            s.scanned += shard_stats[sh][static_cast<size_t>(q)].scanned;
          }
          s.prefiltered = false;
        }
        // One scan sample per per-shard tile pass, attributed to the tile's
        // first query (QueryMappedTile reports the pass's wall time in every
        // query's latency slot) — each ParallelFor iteration owns its tile's
        // stats slots, so no cross-thread writes.
        ServeQueryStats& first = (*stats)[static_cast<size_t>(begin)];
        first.shard_scan_usec.clear();
        first.shard_scan_usec.reserve(shards_.size());
        for (size_t sh = 0; sh < shards_.size(); ++sh) {
          first.shard_scan_usec.push_back(shard_stats[sh][0].latency_ms *
                                          1e3);
        }
      },
      options_.serve.threads);
}

std::vector<Ranking> ShardedEngine::QueryBatch(
    const GraphDatabase& queries, const QueryOptions& options,
    ServeBatchReport* report,
    std::vector<ServeQueryStats>* per_query) const {
  WallTimer batch_timer;
  std::vector<Ranking> results(queries.size());
  std::vector<ServeQueryStats> stats(queries.size());
  // One stage-1 pass over the whole batch, then packed scans only.
  const std::vector<std::vector<uint8_t>> fingerprints =
      mapper_.MapAll(queries, options_.serve.threads);
  ScanMappedBatch(fingerprints, options, &results, &stats);
  const double wall_ms = batch_timer.Millis();
  if (report != nullptr) FillServeBatchReport(wall_ms, stats, report);
  if (per_query != nullptr) *per_query = std::move(stats);
  return results;
}

std::vector<Ranking> ShardedEngine::QueryMappedBatch(
    const std::vector<std::vector<uint8_t>>& fingerprints,
    const QueryOptions& options, ServeBatchReport* report,
    std::vector<ServeQueryStats>* per_query) const {
  WallTimer batch_timer;
  std::vector<Ranking> results(fingerprints.size());
  std::vector<ServeQueryStats> stats(fingerprints.size());
  ScanMappedBatch(fingerprints, options, &results, &stats);
  const double wall_ms = batch_timer.Millis();
  if (report != nullptr) FillServeBatchReport(wall_ms, stats, report);
  if (per_query != nullptr) *per_query = std::move(stats);
  return results;
}

}  // namespace gdim
