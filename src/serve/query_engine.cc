#include "serve/query_engine.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/binary_db.h"
#include "core/kernels/scan_kernel.h"

namespace gdim {

Result<QueryEngine> QueryEngine::FromIndex(PersistedIndex index,
                                           ServeOptions options) {
  const size_t p = index.features.size();
  for (size_t i = 0; i < index.db_bits.size(); ++i) {
    if (index.db_bits[i].size() != p) {
      return Status::InvalidArgument(
          "index row " + std::to_string(i) + " has " +
          std::to_string(index.db_bits[i].size()) + " bits, expected " +
          std::to_string(p));
    }
  }
  PackedIndex packed;
  packed.rows =
      PackedBitMatrix::FromRows(index.db_bits, static_cast<int>(p));
  packed.features = std::move(index.features);
  packed.ids = std::move(index.ids);
  packed.next_id = index.next_id;
  return FromPacked(std::move(packed), options);
}

Result<QueryEngine> QueryEngine::FromPacked(PackedIndex index,
                                            ServeOptions options) {
  FeatureMapper mapper(std::move(index.features));
  return FromPacked(std::move(index), std::move(mapper), options);
}

Result<QueryEngine> QueryEngine::FromPacked(PackedIndex index,
                                            FeatureMapper mapper,
                                            ServeOptions options) {
  const int p = mapper.num_features();
  if (index.rows.num_bits() != p) {
    return Status::InvalidArgument(
        "packed rows are " + std::to_string(index.rows.num_bits()) +
        " bits wide, feature dimension is " + std::to_string(p));
  }
  const int n = index.rows.num_rows();
  if (!index.ids.empty()) {
    if (index.ids.size() != static_cast<size_t>(n)) {
      return Status::InvalidArgument("index id count does not match rows");
    }
    for (size_t i = 0; i < index.ids.size(); ++i) {
      if (index.ids[i] < 0 ||
          (i > 0 && index.ids[i] <= index.ids[i - 1])) {
        return Status::InvalidArgument("index ids must be strictly ascending");
      }
    }
    // next_id_ = ids.back() + 1 must stay representable.
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
  // Until the layout below, physical row i is input row i, ascending by id.
  const auto input_row = [&index, n](int id) {
    if (index.ids.empty()) return id >= 0 && id < n ? id : -1;
    const auto it = std::lower_bound(index.ids.begin(), index.ids.end(), id);
    return it != index.ids.end() && *it == id
               ? static_cast<int>(it - index.ids.begin())
               : -1;
  };
  IvfIndex ivf;
  if (index.ivf.has_value()) {
    // Adopt the persisted IVF layout instead of re-clustering: reload skips
    // the O(n·sqrt(n)) Build. Snapshot postings are in external-id space
    // and may span a different shard partition than this engine's, so keep
    // exactly the buckets holding ids this engine owns, mapped to input
    // rows. Relative bucket order is preserved, so at an unchanged shard
    // count the probe's (distance, bucket id) ranking reproduces the
    // snapshotted engine's exactly.
    const PersistedIvf& persisted = *index.ivf;
    if (persisted.num_bits != p) {
      return Status::InvalidArgument("IVF width does not match the index");
    }
    const size_t wpc = index.rows.words_per_row();
    std::vector<uint64_t> centroid_words;
    std::vector<std::vector<int>> members;
    std::vector<uint8_t> seen(static_cast<size_t>(n), 0);
    int covered = 0;
    for (const PersistedIvfBucket& bucket : persisted.buckets) {
      if (bucket.centroid_words.size() != wpc) {
        return Status::InvalidArgument(
            "IVF centroid stride does not match width");
      }
      std::vector<int> rows;
      for (const int id : bucket.ids) {
        const int row = input_row(id);
        if (row < 0) continue;  // another shard's row under this partition
        if (seen[static_cast<size_t>(row)] != 0) {
          return Status::InvalidArgument("duplicate IVF posting id");
        }
        seen[static_cast<size_t>(row)] = 1;
        ++covered;
        // Bucket ids ascend and the id→row map is monotone, so each
        // adopted list stays sorted.
        rows.push_back(row);
      }
      if (rows.empty()) continue;  // no rows of this engine's partition
      centroid_words.insert(centroid_words.end(),
                            bucket.centroid_words.begin(),
                            bucket.centroid_words.end());
      members.push_back(std::move(rows));
    }
    // Strict coverage: every owned row reachable by some probe, or
    // NPROBE=all would silently diverge from MODE=full after a restart.
    if (covered != n) {
      return Status::InvalidArgument(
          "IVF postings do not cover this engine's rows");
    }
    // Count first: the by-value parameter's move-construction below is
    // unsequenced with the other argument's members.size() read.
    const int num_buckets = static_cast<int>(members.size());
    ivf = IvfIndex::FromParts(
        PackedBitMatrix::FromWords(num_buckets, p, std::move(centroid_words)),
        std::move(members));
    index.ivf.reset();
  } else {
    // No persisted layout: the IVF index is rebuilt with the engine — which
    // is exactly what gives a generation swap fresh clusters over the
    // refreshed fingerprints (zero stale buckets by construction).
    ivf = IvfIndex::Build(index.rows, options.ivf_buckets);
  }

  QueryEngine engine;
  engine.options_ = options;
  engine.delta_ = PackedBitMatrix::WithWidth(p);
  engine.tombstones_.assign(static_cast<size_t>(n), 0);
  engine.alive_ = n;
  // Resume the persisted id counter when present (so ids of removed graphs
  // are never re-issued after a reload); otherwise derive it.
  engine.next_id_ =
      index.next_id >= 0 ? index.next_id : static_cast<int>(min_next_id);
  // Store the base in bucket order: slot s holds input row order[s], and
  // every bucket becomes one contiguous range. The rows are permuted in
  // place, so the base is never held twice.
  const std::vector<int> order = ivf.LayOut(engine.tombstones_);
  GDIM_CHECK(order.size() == static_cast<size_t>(n));
  index.rows.PermuteRows(order);
  engine.row_ids_.resize(static_cast<size_t>(n));
  engine.by_id_.resize(static_cast<size_t>(n));
  for (int slot = 0; slot < n; ++slot) {
    const int row = order[static_cast<size_t>(slot)];
    engine.row_ids_[static_cast<size_t>(slot)] =
        index.ids.empty() ? row : index.ids[static_cast<size_t>(row)];
    // Input rows ascend by id, so the by-id order inverts the layout.
    engine.by_id_[static_cast<size_t>(row)] = slot;
  }
  engine.base_ =
      std::make_shared<const PackedBitMatrix>(std::move(index.rows));
  engine.ivf_ = std::move(ivf);
  // The inverted lists only serve the prefilter; skip the pass and their
  // memory when it is disabled.
  if (options.containment_prefilter) engine.BuildSupports();
  if (index.meta.has_value()) {
    // Resume the persisted mutation epoch so epoch-keyed consumers (the
    // result cache) never mistake a pre-restart answer for a fresh one.
    engine.epoch_ = index.meta->epoch;
  }
  engine.mapper_ = std::move(mapper);
  return engine;
}

Result<QueryEngine> QueryEngine::Open(const std::string& index_path,
                                      ServeOptions options) {
  // The packed reader adopts a v2 snapshot's word block as the base segment
  // in one block read — cold start never round-trips through byte rows.
  Result<PackedIndex> index = ReadIndexFilePacked(index_path);
  if (!index.ok()) return index.status();
  return FromPacked(std::move(index).value(), options);
}

void QueryEngine::AdoptGeneration(QueryEngine next) {
  const uint64_t floor = epoch_ + 1;
  *this = std::move(next);
  if (epoch_ < floor) epoch_ = floor;
}

void QueryEngine::RaiseEpochToAtLeast(uint64_t epoch) {
  if (epoch_ < epoch) epoch_ = epoch;
}

Result<int> QueryEngine::Insert(const Graph& graph) {
  return InsertMapped(mapper_.Map(graph));
}

Result<int> QueryEngine::InsertMapped(
    const std::vector<uint8_t>& fingerprint) {
  return InsertMappedWithId(fingerprint, next_id_);
}

Result<int> QueryEngine::InsertMappedWithId(
    const std::vector<uint8_t>& fingerprint, int id) {
  if (fingerprint.size() != static_cast<size_t>(num_features())) {
    return Status::InvalidArgument(
        "fingerprint has " + std::to_string(fingerprint.size()) +
        " bits, engine dimension is " + std::to_string(num_features()));
  }
  // INT_MAX itself is unassignable: next_id_ would overflow, and the v2
  // reader's id cap would reject the engine's own snapshot.
  if (id == std::numeric_limits<int>::max()) {
    return Status::ResourceExhausted("graph id space exhausted");
  }
  // Per-engine ids must stay strictly ascending: by_id_ appends the new
  // row, and a snapshot's id column must stay sorted.
  if (id < next_id_) {
    return Status::InvalidArgument(
        "id " + std::to_string(id) + " not after the engine's id cursor " +
        std::to_string(next_id_));
  }
  const int row = base_->num_rows() + delta_.AppendRow(fingerprint);
  tombstones_.push_back(0);
  row_ids_.push_back(id);
  by_id_.push_back(row);
  ++alive_;
  ivf_.AddRow(delta_.row(row - base_->num_rows()), delta_.words_per_row(),
              row);
  if (options_.containment_prefilter) {
    for (size_t r = 0; r < fingerprint.size(); ++r) {
      // Rows only grow, so appending keeps each list sorted.
      if (fingerprint[r] != 0) supports_[r].push_back(row);
    }
  }
  next_id_ = id + 1;
  ++epoch_;
  return id;
}

Status QueryEngine::Remove(int id) {
  const int row = FindLiveRow(id);
  if (row < 0) {
    return Status::NotFound("no live graph with id " + std::to_string(id));
  }
  tombstones_[static_cast<size_t>(row)] = 1;
  ++num_tombstones_;
  --alive_;
  if (options_.containment_prefilter) {
    const std::vector<uint8_t> bits = RowBits(row);
    for (size_t r = 0; r < bits.size(); ++r) {
      if (bits[r] == 0) continue;
      std::vector<int>& list = supports_[r];
      const auto it = std::lower_bound(list.begin(), list.end(), row);
      GDIM_DCHECK(it != list.end() && *it == row);
      list.erase(it);
    }
  }
  ++epoch_;
  return Status::OK();
}

void QueryEngine::Compact() {
  if (num_tombstones_ == 0 && delta_.num_rows() == 0) return;
  // Lay the live rows out again by bucket, folding each bucket's appended
  // delta rows into its range; the copy below is the one Compact always
  // made, now in bucket order. Centroids are kept — only a generation swap
  // re-clusters.
  const std::vector<int> order = ivf_.LayOut(tombstones_);
  GDIM_CHECK(order.size() == static_cast<size_t>(alive_));
  PackedBitMatrix merged = PackedBitMatrix::WithWidth(num_features());
  merged.Reserve(alive_);
  std::vector<int> new_ids(order.size());
  std::vector<int> old_to_new(static_cast<size_t>(total_rows()), -1);
  const int base_n = base_->num_rows();
  for (size_t slot = 0; slot < order.size(); ++slot) {
    const int row = order[slot];
    if (row < base_n) {
      merged.AppendRowFrom(*base_, row);
    } else {
      merged.AppendRowFrom(delta_, row - base_n);
    }
    new_ids[slot] = row_ids_[static_cast<size_t>(row)];
    old_to_new[static_cast<size_t>(row)] = static_cast<int>(slot);
  }
  // The by-id order keeps its order; only the tombstoned rows drop out.
  size_t kept = 0;
  for (const int row : by_id_) {
    const int slot = old_to_new[static_cast<size_t>(row)];
    if (slot >= 0) by_id_[kept++] = slot;
  }
  by_id_.resize(kept);
  // Install a fresh sealed segment rather than mutating in place: frozen
  // snapshots may still hold a refcount on the old one.
  base_ = std::make_shared<const PackedBitMatrix>(std::move(merged));
  delta_ = PackedBitMatrix::WithWidth(num_features());
  row_ids_ = std::move(new_ids);
  tombstones_.assign(static_cast<size_t>(alive_), 0);
  num_tombstones_ = 0;
  ++epoch_;
  if (options_.containment_prefilter) BuildSupports();
}

void QueryEngine::BuildSupports() {
  supports_.assign(static_cast<size_t>(base_->num_bits()), {});
  const size_t words = words_per_row();
  for (int row = 0; row < total_rows(); ++row) {
    if (tombstones_[static_cast<size_t>(row)] != 0) continue;
    const uint64_t* row_words = RowWords(row);
    for (size_t w = 0; w < words; ++w) {
      // Padding bits are always zero, so every set bit is a feature.
      for (uint64_t bits = row_words[w]; bits != 0; bits &= bits - 1) {
        supports_[w * 64 + static_cast<size_t>(std::countr_zero(bits))]
            .push_back(row);
      }
    }
  }
}

std::vector<int> QueryEngine::alive_ids() const {
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(alive_));
  for (const int row : by_id_) {
    if (tombstones_[static_cast<size_t>(row)] == 0) {
      ids.push_back(row_ids_[static_cast<size_t>(row)]);
    }
  }
  return ids;
}

PersistedIndex QueryEngine::ToPersistedIndex() const {
  PersistedIndex index;
  index.features = mapper_.features();
  index.db_bits.reserve(static_cast<size_t>(alive_));
  for (const int row : by_id_) {
    if (tombstones_[static_cast<size_t>(row)] == 0) {
      index.db_bits.push_back(RowBits(row));
    }
  }
  index.ids = alive_ids();
  index.next_id = next_id_;
  return index;
}

std::vector<std::pair<int, const uint64_t*>> QueryEngine::LiveRowWords()
    const {
  std::vector<std::pair<int, const uint64_t*>> live;
  live.reserve(static_cast<size_t>(alive_));
  for (const int row : by_id_) {
    if (tombstones_[static_cast<size_t>(row)] != 0) continue;
    live.emplace_back(row_ids_[static_cast<size_t>(row)], RowWords(row));
  }
  return live;
}

std::vector<std::pair<int, const uint64_t*>> FrozenEngineState::LiveRowWords()
    const {
  std::vector<std::pair<int, const uint64_t*>> live;
  live.reserve(by_id.size());
  const int base_n = base->num_rows();
  for (const int row : by_id) {
    if (tombstones[static_cast<size_t>(row)] != 0) continue;
    live.emplace_back(row_ids[static_cast<size_t>(row)],
                      row < base_n ? base->row(row)
                                   : delta.row(row - base_n));
  }
  return live;
}

FrozenEngineState QueryEngine::Freeze() const {
  FrozenEngineState frozen;
  frozen.base = base_;  // refcount clone; Compact replaces, never mutates
  frozen.delta = delta_;
  frozen.tombstones = tombstones_;
  frozen.row_ids = row_ids_;
  frozen.by_id = by_id_;
  frozen.ivf = ivf_;
  return frozen;
}

PersistedIvf PersistIvf(const IvfIndex& ivf,
                        const std::vector<uint8_t>& tombstones,
                        const std::vector<int>& row_ids) {
  PersistedIvf persisted;
  persisted.num_bits = ivf.centroids().num_bits();
  const size_t wpc = ivf.centroids().words_per_row();
  for (int b = 0; b < ivf.num_buckets(); ++b) {
    // Persist live rows only, lifted to external ids: the snapshot has no
    // notion of this engine's physical row space, and tombstoned rows
    // would violate the reader's live-coverage invariant. A range holds
    // ascending ids and every appended id is newer, so the list ascends.
    PersistedIvfBucket bucket;
    const auto persist = [&](int row) {
      if (tombstones[static_cast<size_t>(row)] == 0) {
        bucket.ids.push_back(row_ids[static_cast<size_t>(row)]);
      }
    };
    const IvfBucket& rows = ivf.posting(b);
    for (int row = rows.begin; row < rows.end; ++row) persist(row);
    for (const int row : rows.appended) persist(row);
    // The reader rejects empty buckets, and a bucket emptied by tombstones
    // carries no information worth restoring.
    if (bucket.ids.empty()) continue;
    const uint64_t* words = ivf.centroids().row(b);
    bucket.centroid_words.assign(words, words + wpc);
    persisted.buckets.push_back(std::move(bucket));
  }
  return persisted;
}

Status QueryEngine::Snapshot(const std::string& path,
                             IndexFormat format) const {
  if (format == IndexFormat::kV2Binary) {
    // Stream the live rows' packed words straight from the segments — no
    // per-row byte materialization, no unpack/repack round trip.
    const std::vector<std::pair<int, const uint64_t*>> live = LiveRowWords();
    return WriteIndexFileV2Words(
        mapper_.features(), static_cast<uint64_t>(live.size()),
        static_cast<uint64_t>(base_->words_per_row()),
        [&](uint64_t i) { return live[i].second; }, alive_ids(), next_id_,
        path);
  }
  if (format == IndexFormat::kV3Sectioned) {
    // The single-engine v3 snapshot carries DIMS + META + IVFX. The engine
    // tracks no reindex generation of its own (that is ShardedEngine state),
    // so META records generation 0 alongside the mutation epoch.
    const std::vector<std::pair<int, const uint64_t*>> live = LiveRowWords();
    const PersistedIvf ivf = PersistIvf(ivf_, tombstones_, row_ids_);
    PersistedMeta meta;
    meta.generation = 0;
    meta.epoch = epoch_;
    V3Sections sections;
    sections.meta = &meta;
    sections.ivf = &ivf;
    return WriteIndexFileV3Words(
        mapper_.features(), static_cast<uint64_t>(live.size()),
        static_cast<uint64_t>(base_->words_per_row()),
        [&](uint64_t i) { return live[i].second; }, alive_ids(), next_id_,
        sections, path);
  }
  return WriteIndexFile(ToPersistedIndex(), path, format);
}

int QueryEngine::FindLiveRow(int id) const {
  const auto it = std::lower_bound(
      by_id_.begin(), by_id_.end(), id, [this](int row, int wanted) {
        return row_ids_[static_cast<size_t>(row)] < wanted;
      });
  if (it == by_id_.end() || row_ids_[static_cast<size_t>(*it)] != id) {
    return -1;
  }
  return tombstones_[static_cast<size_t>(*it)] == 0 ? *it : -1;
}

std::vector<uint8_t> QueryEngine::RowBits(int row) const {
  return row < base_->num_rows()
             ? base_->UnpackRow(row)
             : delta_.UnpackRow(row - base_->num_rows());
}

std::vector<int> QueryEngine::PrefilterCandidateRows(
    const std::vector<uint8_t>& fingerprint) const {
  GDIM_DCHECK(options_.containment_prefilter);
  return PrefilterCandidates(fingerprint);
}

Ranking QueryEngine::QueryMappedCandidates(
    const std::vector<uint8_t>& fingerprint, const QueryOptions& options,
    const std::vector<int>& candidate_rows, ServeQueryStats* stats) const {
  WallTimer timer;
  const std::vector<uint64_t> packed_query = base_->PackQuery(fingerprint);
  HammingTopK top(options.k);
  OfferRows(packed_query.data(), candidate_rows, &top);
  Ranking ranking = top.Take(num_features());
  if (stats != nullptr) {
    stats->latency_ms = timer.Millis();
    int features_on = 0;
    for (uint8_t b : fingerprint) features_on += b != 0 ? 1 : 0;
    stats->features_on = features_on;
    stats->scanned = static_cast<int>(candidate_rows.size());
    stats->prefiltered = true;
  }
  return ranking;
}

std::vector<int> QueryEngine::PrefilterCandidates(
    const std::vector<uint8_t>& fingerprint) const {
  // Collect the inverted lists of the set bits, smallest support first so
  // the running intersection shrinks as fast as possible.
  std::vector<const std::vector<int>*> lists;
  for (size_t r = 0; r < fingerprint.size(); ++r) {
    if (fingerprint[r] != 0) lists.push_back(&supports_[r]);
  }
  return IntersectSupports(std::move(lists));
}

void QueryEngine::OfferRows(const uint64_t* query,
                            const std::vector<int>& rows,
                            HammingTopK* top) const {
  const size_t words = words_per_row();
  for (const int row : rows) {
    top->Offer(HammingWords(query, RowWords(row), words),
               row_ids_[static_cast<size_t>(row)],
               &tombstones_[static_cast<size_t>(row)]);
  }
}

void QueryEngine::OfferAllRows(const uint64_t* const* queries, int count,
                               HammingTopK* tops) const {
  const ScanKernel& kernel = ActiveScanKernel();
  const int base_n = base_->num_rows();
  ScanTopK(kernel, *base_, 0, base_n, queries, count, row_ids_.data(),
           tombstones_.data(), tops);
  ScanTopK(kernel, delta_, 0, delta_.num_rows(), queries, count,
           row_ids_.data() + base_n, tombstones_.data() + base_n, tops);
}

Ranking QueryEngine::Query(const Graph& query, const QueryOptions& options,
                           ServeQueryStats* stats) const {
  WallTimer timer;
  // Stage 1: fingerprint the query onto the selected dimension, then hand
  // the mapped vector to the scan stages.
  Ranking top = QueryMapped(mapper_.Map(query), options, stats);
  // The mapped path timed only stages 2–3; charge the VF2 mapping too.
  if (stats != nullptr) stats->latency_ms = timer.Millis();
  return top;
}

Ranking QueryEngine::QueryMapped(const std::vector<uint8_t>& fingerprint,
                                 const QueryOptions& options,
                                 ServeQueryStats* stats) const {
  // A malformed k must not abort the serving process; k < 0 answers like
  // k == 0 (empty ranking). The tool boundary additionally rejects it.
  const int k = std::max(options.k, 0);
  WallTimer timer;

  int features_on = 0;
  for (uint8_t b : fingerprint) features_on += b != 0 ? 1 : 0;
  const std::vector<uint64_t> packed_query = base_->PackQuery(fingerprint);

  // Stage 2: optional containment prefilter over the inverted lists.
  bool prefiltered = false;
  std::vector<int> candidates;
  if (options.scan_mode == ScanMode::kAuto &&
      options_.containment_prefilter && features_on > 0) {
    candidates = PrefilterCandidates(fingerprint);
    // Take the narrowed path only when it actually narrows: some candidate
    // survived (an empty intersection is a degenerate "scan of zero rows",
    // not a narrowed scan — the documented fallback applies, also at
    // k == 0), enough candidates to answer, and fewer than a full scan of
    // the live rows would touch.
    prefiltered = !candidates.empty() &&
                  static_cast<int>(candidates.size()) >= k &&
                  static_cast<int>(candidates.size()) < alive_;
  }

  // Stage 3: popcount distance scan of one candidate source — the narrowed
  // candidates, the probed IVF buckets, or every physical row — into the
  // fused integer top-k selector, which keys on (distance, external id):
  // the score-then-id order, wherever a row is stored.
  //
  // Approximate stage 2 (MODE=approx) scans the nprobe nearest centroid
  // buckets: each bucket's contiguous base range in kernel block passes,
  // then its few appended rows one by one. The answer differs from kFull
  // only by rows the probe pruned — at NPROBE=all every physical row is
  // offered and the ranking is bit-identical to a full scan.
  const bool approx = options.scan_mode == ScanMode::kApprox;
  double ivf_probe_usec = 0.0;
  HammingTopK top(k);
  int scanned;
  if (prefiltered) {
    OfferRows(packed_query.data(), candidates, &top);
    scanned = static_cast<int>(candidates.size());
  } else if (approx) {
    const int nprobe =
        options.nprobe > 0 ? options.nprobe : ivf_.default_nprobe();
    WallTimer probe_timer;
    const std::vector<int> buckets =
        ivf_.NearestBuckets(packed_query.data(), nprobe);
    ivf_probe_usec = probe_timer.Micros();
    const ScanKernel& kernel = ActiveScanKernel();
    const uint64_t* queries[] = {packed_query.data()};
    scanned = 0;
    // Buckets arrive in slot order, so the ranges are read front to back.
    for (const int b : buckets) {
      const IvfBucket& bucket = ivf_.posting(b);
      ScanTopK(kernel, *base_, bucket.begin, bucket.end, queries, 1,
               row_ids_.data(), tombstones_.data(), &top);
      OfferRows(packed_query.data(), bucket.appended, &top);
      scanned += static_cast<int>(bucket.size());
      // Buckets keep removed rows until Compact; the scan count reports
      // live rows only, so count the dead ones aside.
      if (num_tombstones_ > 0) {
        for (int row = bucket.begin; row < bucket.end; ++row) {
          scanned -= tombstones_[static_cast<size_t>(row)];
        }
        for (const int row : bucket.appended) {
          scanned -= tombstones_[static_cast<size_t>(row)];
        }
      }
    }
  } else {
    const uint64_t* queries[] = {packed_query.data()};
    OfferAllRows(queries, 1, &top);
    scanned = total_rows();
  }
  Ranking ranking = top.Take(num_features());

  if (stats != nullptr) {
    stats->latency_ms = timer.Millis();
    stats->features_on = features_on;
    stats->scanned = scanned;
    stats->prefiltered = prefiltered;
    stats->approx = approx;
    stats->rows_pruned = approx ? alive_ - scanned : 0;
    stats->ivf_probe_usec = ivf_probe_usec;
  }
  return ranking;
}

void FillServeBatchReport(double wall_ms,
                          const std::vector<ServeQueryStats>& stats,
                          ServeBatchReport* report) {
  report->wall_ms = wall_ms;
  report->qps = wall_ms > 0.0
                    ? static_cast<double>(stats.size()) / (wall_ms * 1e-3)
                    : 0.0;
  std::vector<double> latencies;
  latencies.reserve(stats.size());
  report->scanned_rows = 0;
  report->prefiltered_queries = 0;
  report->approx_queries = 0;
  report->approx_candidates_scanned = 0;
  report->approx_rows_pruned = 0;
  report->stage_scan_usec.clear();
  report->stage_ivf_probe_usec.clear();
  report->stage_gather_usec.clear();
  for (const ServeQueryStats& s : stats) {
    latencies.push_back(s.latency_ms);
    report->scanned_rows += s.scanned;
    report->prefiltered_queries += s.prefiltered ? 1 : 0;
    if (s.approx) {
      ++report->approx_queries;
      report->approx_candidates_scanned += s.scanned;
      report->approx_rows_pruned += s.rows_pruned;
    }
    report->stage_scan_usec.insert(report->stage_scan_usec.end(),
                                   s.shard_scan_usec.begin(),
                                   s.shard_scan_usec.end());
    if (s.ivf_probe_usec > 0.0) {
      report->stage_ivf_probe_usec.push_back(s.ivf_probe_usec);
    }
    if (s.gather_usec > 0.0) {
      report->stage_gather_usec.push_back(s.gather_usec);
    }
  }
  report->latency_ms = SummarizeLatencies(std::move(latencies));
}

std::vector<Ranking> QueryEngine::QueryMappedTile(
    const std::vector<uint8_t>* fingerprints, int count,
    const QueryOptions& options, std::vector<ServeQueryStats>* stats) const {
  const int k = std::max(options.k, 0);
  WallTimer timer;
  std::vector<Ranking> results(static_cast<size_t>(std::max(count, 0)));
  if (stats != nullptr) {
    stats->assign(static_cast<size_t>(std::max(count, 0)),
                  ServeQueryStats{});
  }
  if (count <= 0) return results;

  const int total = total_rows();
  std::vector<std::vector<uint64_t>> packed(static_cast<size_t>(count));
  std::vector<const uint64_t*> query_ptrs(static_cast<size_t>(count));
  for (int q = 0; q < count; ++q) {
    packed[static_cast<size_t>(q)] =
        base_->PackQuery(fingerprints[q]);
    query_ptrs[static_cast<size_t>(q)] =
        packed[static_cast<size_t>(q)].data();
  }
  // One selector per query, fed by the same row-block passes.
  std::vector<HammingTopK> tops(static_cast<size_t>(count), HammingTopK(k));
  OfferAllRows(query_ptrs.data(), count, tops.data());
  for (int q = 0; q < count; ++q) {
    results[static_cast<size_t>(q)] =
        tops[static_cast<size_t>(q)].Take(num_features());
  }

  if (stats != nullptr) {
    const double tile_ms = timer.Millis();
    for (int q = 0; q < count; ++q) {
      ServeQueryStats& s = (*stats)[static_cast<size_t>(q)];
      s.latency_ms = tile_ms;
      int features_on = 0;
      for (uint8_t b : fingerprints[q]) features_on += b != 0 ? 1 : 0;
      s.features_on = features_on;
      s.scanned = total;
      s.prefiltered = false;
    }
  }
  return results;
}

std::vector<Ranking> QueryEngine::QueryBatch(
    const GraphDatabase& queries, const QueryOptions& options,
    ServeBatchReport* report,
    std::vector<ServeQueryStats>* per_query) const {
  WallTimer batch_timer;
  const int n = static_cast<int>(queries.size());
  std::vector<Ranking> results(queries.size());
  std::vector<ServeQueryStats> stats(queries.size());
  // Stage 1 for the whole batch in one parallel pass; the scans below then
  // touch packed words only.
  const std::vector<std::vector<uint8_t>> fingerprints =
      mapper_.MapAll(queries, options_.threads);
  if (options.scan_mode == ScanMode::kApprox ||
      (options.scan_mode == ScanMode::kAuto &&
       options_.containment_prefilter)) {
    // The stage-2 decision (prefilter intersection or IVF probe) yields a
    // per-query candidate pool, so the batch cannot share row passes; keep
    // the per-query path.
    ParallelFor(
        0, n,
        [&](int i) {
          results[static_cast<size_t>(i)] =
              QueryMapped(fingerprints[static_cast<size_t>(i)], options,
                          &stats[static_cast<size_t>(i)]);
        },
        options_.threads);
  } else {
    // Block-tiled multi-query scan: tiles of tile_width() queries share
    // every row-block pass. Tile boundaries never affect results — scores
    // are bit-identical for every kernel and tile split.
    const int tile = ActiveScanKernel().tile_width();
    const int num_tiles = (n + tile - 1) / tile;
    ParallelFor(
        0, num_tiles,
        [&](int t) {
          const int begin = t * tile;
          const int count = std::min(tile, n - begin);
          std::vector<ServeQueryStats> tile_stats;
          std::vector<Ranking> tile_results = QueryMappedTile(
              fingerprints.data() + begin, count, options, &tile_stats);
          for (int j = 0; j < count; ++j) {
            results[static_cast<size_t>(begin + j)] =
                std::move(tile_results[static_cast<size_t>(j)]);
            stats[static_cast<size_t>(begin + j)] =
                tile_stats[static_cast<size_t>(j)];
          }
        },
        options_.threads);
  }
  const double wall_ms = batch_timer.Millis();

  if (report != nullptr) FillServeBatchReport(wall_ms, stats, report);
  if (per_query != nullptr) *per_query = std::move(stats);
  return results;
}

}  // namespace gdim
