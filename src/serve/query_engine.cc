#include "serve/query_engine.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "core/binary_db.h"
#include "core/kernels/scan_kernel.h"

namespace gdim {

Result<QueryEngine> QueryEngine::FromPacked(PackedIndex index,
                                            FeatureMapper mapper,
                                            ServeOptions options) {
  const int p = mapper.num_features();
  const int n = index.rows.num_rows();
  GDIM_DCHECK(index.rows.num_bits() == p);
  GDIM_DCHECK(index.ids.size() == static_cast<size_t>(n));
  GDIM_DCHECK(index.next_id >= 0);
  // Until the layout below, physical row i is input row i, ascending by id.
  const auto input_row = [&index](int id) {
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
  engine.next_id_ = index.next_id;
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
        index.ids[static_cast<size_t>(row)];
    // Input rows ascend by id, so the by-id order inverts the layout.
    engine.by_id_[static_cast<size_t>(row)] = slot;
  }
  engine.base_ =
      std::make_shared<const PackedBitMatrix>(std::move(index.rows));
  engine.ivf_ = std::move(ivf);
  // The inverted lists only serve the prefilter; skip the pass and their
  // memory when it is disabled.
  if (options.containment_prefilter) engine.BuildSupports();
  engine.mapper_ = std::move(mapper);
  return engine;
}

void QueryEngine::RaiseEpochToAtLeast(uint64_t epoch) {
  if (epoch_ < epoch) epoch_ = epoch;
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
    const uint64_t* row_words = RowWords(row);
    for (size_t w = 0; w < words_per_row(); ++w) {
      for (uint64_t bits = row_words[w]; bits != 0; bits &= bits - 1) {
        std::vector<int>& list =
            supports_[w * 64 + static_cast<size_t>(std::countr_zero(bits))];
        const auto it = std::lower_bound(list.begin(), list.end(), row);
        GDIM_DCHECK(it != list.end() && *it == row);
        list.erase(it);
      }
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

std::vector<int> QueryEngine::PrefilterCandidateRows(
    const std::vector<uint8_t>& fingerprint) const {
  GDIM_DCHECK(options_.containment_prefilter);
  // Collect the inverted lists of the set bits, smallest support first so
  // the running intersection shrinks as fast as possible.
  std::vector<const std::vector<int>*> lists;
  for (size_t r = 0; r < fingerprint.size(); ++r) {
    if (fingerprint[r] != 0) lists.push_back(&supports_[r]);
  }
  return IntersectSupports(std::move(lists));
}

void QueryEngine::Score(const uint64_t* const* queries, int count,
                        const std::vector<RowRange>& ranges,
                        const std::vector<int>& rows,
                        HammingTopK* tops) const {
  const ScanKernel& kernel = ActiveScanKernel();
  const int base_n = base_->num_rows();
  for (const RowRange& range : ranges) {
    if (range.begin < base_n) {
      ScanTopK(kernel, *base_, range.begin, range.end, queries, count,
               row_ids_.data(), tombstones_.data(), tops);
    } else {
      ScanTopK(kernel, delta_, range.begin - base_n, range.end - base_n,
               queries, count, row_ids_.data() + base_n,
               tombstones_.data() + base_n, tops);
    }
  }
  const size_t words = words_per_row();
  for (int q = 0; q < count; ++q) {
    for (const int row : rows) {
      tops[q].Offer(HammingWords(queries[q], RowWords(row), words),
                    row_ids_[static_cast<size_t>(row)],
                    &tombstones_[static_cast<size_t>(row)]);
    }
  }
}

Ranking QueryEngine::QueryMapped(const std::vector<uint8_t>& fingerprint,
                                 const QueryOptions& options,
                                 ServeQueryStats* stats) const {
  std::vector<ServeQueryStats> tile_stats;
  Ranking ranking = std::move(QueryMappedTile(
      &fingerprint, 1, options, stats != nullptr ? &tile_stats : nullptr)[0]);
  if (stats != nullptr) *stats = std::move(tile_stats[0]);
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
    const QueryOptions& options, std::vector<ServeQueryStats>* stats,
    const std::vector<int>* const* candidates) const {
  // A malformed k must not abort the serving process; k < 0 answers like
  // k == 0 (empty ranking). The tool boundary additionally rejects it.
  const int k = std::max(options.k, 0);
  WallTimer timer;
  const size_t n = static_cast<size_t>(std::max(count, 0));
  std::vector<Ranking> results(n);
  std::vector<ServeQueryStats> tile_stats(n);
  std::vector<std::vector<uint64_t>> packed(n);
  for (size_t q = 0; q < n; ++q) packed[q] = base_->PackQuery(fingerprints[q]);

  // Stage 3 over each query's candidate source. Narrowed and probed
  // queries each get their own pass; the rest share full passes below.
  const bool approx = options.scan_mode == ScanMode::kApprox;
  std::vector<const uint64_t*> shared_queries;
  std::vector<size_t> shared;
  for (size_t q = 0; q < n; ++q) {
    const uint64_t* query = packed[q].data();
    ServeQueryStats& s = tile_stats[q];
    const std::vector<int>* narrowed =
        candidates != nullptr ? candidates[q] : nullptr;
    if (narrowed == nullptr && !approx) {
      shared_queries.push_back(query);
      shared.push_back(q);
      continue;
    }
    HammingTopK top(k);
    if (narrowed != nullptr) {
      Score(&query, 1, {}, *narrowed, &top);
      s.scanned = static_cast<int>(narrowed->size());
      s.prefiltered = true;
    } else {
      // Scan the nprobe nearest centroid buckets: each bucket's contiguous
      // base range in kernel block passes, then its few appended rows. The
      // answer differs from a full scan only by rows the probe pruned — at
      // NPROBE=all every physical row is offered and the ranking is
      // bit-identical to a full scan.
      const int nprobe =
          options.nprobe > 0 ? options.nprobe : ivf_.default_nprobe();
      WallTimer probe_timer;
      const std::vector<int> buckets = ivf_.NearestBuckets(query, nprobe);
      s.ivf_probe_usec = probe_timer.Micros();
      std::vector<RowRange> ranges;
      std::vector<int> appended;
      ranges.reserve(buckets.size());
      // Buckets arrive in slot order, so the ranges are read front to back.
      for (const int b : buckets) {
        const IvfBucket& bucket = ivf_.posting(b);
        ranges.push_back({bucket.begin, bucket.end});
        appended.insert(appended.end(), bucket.appended.begin(),
                        bucket.appended.end());
        s.scanned += static_cast<int>(bucket.size());
        // Buckets keep removed rows until Compact; the scan count reports
        // live rows only, so count the dead ones aside.
        if (num_tombstones_ > 0) {
          for (int row = bucket.begin; row < bucket.end; ++row) {
            s.scanned -= tombstones_[static_cast<size_t>(row)];
          }
          for (const int row : bucket.appended) {
            s.scanned -= tombstones_[static_cast<size_t>(row)];
          }
        }
      }
      Score(&query, 1, ranges, appended, &top);
      s.approx = true;
      s.rows_pruned = alive_ - s.scanned;
    }
    results[q] = top.Take(num_features());
  }
  if (!shared.empty()) {
    // Every physical row, base then delta, one selector per query fed by
    // the same row-block passes.
    std::vector<HammingTopK> tops(shared.size(), HammingTopK(k));
    Score(shared_queries.data(), static_cast<int>(shared.size()),
          {{0, base_->num_rows()}, {base_->num_rows(), total_rows()}}, {},
          tops.data());
    for (size_t j = 0; j < shared.size(); ++j) {
      results[shared[j]] = tops[j].Take(num_features());
      tile_stats[shared[j]].scanned = total_rows();
    }
  }

  if (stats != nullptr) {
    const double tile_ms = timer.Millis();
    for (size_t q = 0; q < n; ++q) {
      tile_stats[q].latency_ms = tile_ms;
      tile_stats[q].features_on = static_cast<int>(std::count_if(
          fingerprints[q].begin(), fingerprints[q].end(),
          [](uint8_t b) { return b != 0; }));
    }
    *stats = std::move(tile_stats);
  }
  return results;
}

}  // namespace gdim
