#include "server/batch_executor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <iterator>
#include <memory>
#include <system_error>
#include <utility>

#include "common/logging.h"
#include "core/kernels/scan_kernel.h"

namespace gdim {

namespace {

const char* ScanModeName(ScanMode mode) {
  switch (mode) {
    case ScanMode::kAuto:
      return "auto";
    case ScanMode::kFull:
      return "full";
    case ScanMode::kApprox:
      return "approx";
  }
  return "?";
}

}  // namespace

BatchExecutor::BatchExecutor(ShardedEngine* engine,
                             BatchExecutorOptions options)
    : engine_(engine), options_(options) {
  GDIM_CHECK(engine_ != nullptr);
  GDIM_CHECK(options_.queue_capacity >= 1)
      << "queue_capacity must be >= 1, got " << options_.queue_capacity;
  GDIM_CHECK(options_.max_batch >= 1)
      << "max_batch must be >= 1, got " << options_.max_batch;
  GDIM_CHECK(options_.latency_window >= 1);
  GDIM_CHECK(options_.reindex_every >= 0);
  GDIM_CHECK(options_.reindex_every == 0 || options_.store != nullptr)
      << "reindex_every needs a live graph store";
  store_ = options_.store;
  latency_window_.resize(static_cast<size_t>(options_.latency_window), 0.0);
  if (options_.cache_bytes > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache_bytes);
  }
  // Resolve every metric cell before the dispatcher (or any client) can
  // record: the hot paths then touch only lock-free atomics.
  c_accepted_ = registry_.GetCounter(
      "gdim_requests_accepted_total",
      "Requests admitted past the admission queue bound");
  c_rejected_ = registry_.GetCounter(
      "gdim_requests_rejected_total",
      "Submits refused with ResourceExhausted (queue full or stopping)");
  c_completed_ = registry_.GetCounter("gdim_requests_completed_total",
                                      "Requests finished, any outcome");
  c_batches_ = registry_.GetCounter("gdim_query_batches_total",
                                    "Coalesced query batches executed");
  c_mutations_ = registry_.GetCounter(
      "gdim_mutations_total", "Insert/Remove/Compact/Snapshot ops executed");
  c_approx_queries_ = registry_.GetCounter(
      "gdim_approx_queries_total", "MODE=approx queries that reached a scan");
  c_approx_candidates_scanned_ =
      registry_.GetCounter("gdim_approx_candidates_scanned_total",
                           "Rows the IVF probes admitted to exact scoring");
  c_approx_rows_pruned_ = registry_.GetCounter(
      "gdim_approx_rows_pruned_total", "Live rows the IVF probes skipped");
  c_snapshots_completed_ = registry_.GetCounter(
      "gdim_snapshots_completed_total",
      "Background snapshot writes finished");
  c_reindexes_completed_ = registry_.GetCounter(
      "gdim_reindexes_completed_total",
      "Dimension generations successfully swapped in");
  c_slow_queries_ = registry_.GetCounter(
      "gdim_slow_queries_total",
      "Queries at or over the --slow-query-usec threshold");
  g_queue_depth_ = registry_.GetGauge(
      "gdim_queue_depth", "Admitted-but-unfinished requests right now");
  g_queue_high_watermark_ = registry_.GetGauge(
      "gdim_queue_high_watermark",
      "Largest admission-queue depth ever observed");
  g_uptime_seconds_ = registry_.GetGauge(
      "gdim_uptime_seconds", "Seconds since the executor started");
  g_start_epoch_ = registry_.GetGauge(
      "gdim_start_epoch_seconds",
      "Executor start time as a Unix epoch, seconds");
  const std::string kernel_label =
      std::string("kernel=\"") + ActiveScanKernel().name() + "\"";
  h_admission_wait_ = registry_.GetStageHistogram(
      kStageAdmissionWait, "Admission-queue wait, submit to dispatch (usec)");
  h_cache_probe_ = registry_.GetStageHistogram(
      kStageCacheProbe,
      "Result-cache key computation + lookup per coalesced run (usec)");
  h_map_all_ = registry_.GetStageHistogram(
      kStageMapAll,
      "Stage-1 VF2 mapping of one coalesced query run (usec)");
  h_scan_exact_ = registry_.GetStageHistogram(
      kStageScanExact, "Per-shard exact scan pass (usec)", kernel_label);
  h_scan_approx_ = registry_.GetStageHistogram(
      kStageScanApprox, "Per-shard MODE=approx scan pass (usec)",
      kernel_label);
  h_ivf_probe_ = registry_.GetStageHistogram(
      kStageIvfProbe, "IVF bucket probe per approx query (usec)");
  h_gather_merge_ = registry_.GetStageHistogram(
      kStageGatherMerge, "K-way merge of per-shard top-k lists (usec)");
  h_mutation_apply_ = registry_.GetStageHistogram(
      kStageMutationApply, "One Insert/Remove/Compact applied (usec)");
  h_snapshot_freeze_ = registry_.GetStageHistogram(
      kStageSnapshotFreeze, "SNAPSHOT dispatcher-side freeze pause (usec)");
  h_snapshot_write_ = registry_.GetStageHistogram(
      kStageSnapshotWrite, "SNAPSHOT background file write (usec)");
  h_reindex_build_ = registry_.GetStageHistogram(
      kStageReindexBuild, "REINDEX background selection, freeze "
                          "handoff to finished generation (usec)");
  h_reindex_swap_ = registry_.GetStageHistogram(
      kStageReindexSwap, "REINDEX reconcile + generation swap (usec)");
  start_epoch_ = static_cast<long long>(std::time(nullptr));
  g_start_epoch_->Set(start_epoch_);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

BatchExecutor::~BatchExecutor() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
    paused_ = false;  // a paused executor must still drain on shutdown
  }
  cv_.NotifyAll();
  dispatcher_.join();
  // Background snapshot writers only read their own frozen captures, but
  // they signal completion through this object — wait them out.
  MutexLock lock(&mu_);
  while (snapshots_in_progress_ != 0) snapshot_cv_.Wait(&mu_);
}

Status BatchExecutor::Admit(Request r) {
  MutexLock lock(&mu_);
  if (stop_) {
    c_rejected_->Increment();
    return Status::Internal("executor is shutting down");
  }
  if (in_flight_ >= static_cast<size_t>(options_.queue_capacity)) {
    c_rejected_->Increment();
    return Status::ResourceExhausted(
        "admission queue full (" +
        std::to_string(options_.queue_capacity) + " in flight)");
  }
  c_accepted_->Increment();
  ++in_flight_;
  if (in_flight_ > queue_high_watermark_) queue_high_watermark_ = in_flight_;
  queue_.push_back(std::move(r));
  // Notify while still holding mu_: once this submitter releases the lock
  // it may never run again, and the executor may be destroyed the moment
  // the queue drains — an unlocked notify could then signal a destroyed
  // condition variable. Holding the lock orders the notify strictly before
  // any destruction (the destructor's first step takes mu_).
  cv_.NotifyOne();
  return Status::OK();
}

Result<Ranking> BatchExecutor::Query(Graph query,
                                     const QueryOptions& options) {
  return Query(std::move(query), options, nullptr);
}

Result<Ranking> BatchExecutor::Query(Graph query, const QueryOptions& options,
                                     QueryTrace* trace) {
  Request r;
  r.kind = Request::Kind::kQuery;
  r.graph = std::move(query);
  r.query_options = options;
  r.trace = trace;
  std::future<Result<Ranking>> done = r.ranking.get_future();
  Status admitted = Admit(std::move(r));
  if (!admitted.ok()) return admitted;
  return done.get();
}

Result<int> BatchExecutor::Insert(Graph graph) {
  Request r;
  r.kind = Request::Kind::kInsert;
  r.graph = std::move(graph);
  std::future<Result<int>> done = r.inserted.get_future();
  Status admitted = Admit(std::move(r));
  if (!admitted.ok()) return admitted;
  return done.get();
}

Status BatchExecutor::Remove(int id) {
  Request r;
  r.kind = Request::Kind::kRemove;
  r.id = id;
  std::future<Status> done = r.status.get_future();
  Status admitted = Admit(std::move(r));
  if (!admitted.ok()) return admitted;
  return done.get();
}

Result<int> BatchExecutor::Compact() {
  Request r;
  r.kind = Request::Kind::kCompact;
  std::future<Result<int>> done = r.compacted.get_future();
  Status admitted = Admit(std::move(r));
  if (!admitted.ok()) return admitted;
  return done.get();
}

Result<ReindexReport> BatchExecutor::Reindex(int p) {
  Request r;
  r.kind = Request::Kind::kReindex;
  r.p = p;
  std::future<Result<ReindexReport>> done = r.reindexed.get_future();
  Status admitted = Admit(std::move(r));
  if (!admitted.ok()) return admitted;
  return done.get();
}

Status BatchExecutor::Snapshot(std::string path) {
  Request r;
  r.kind = Request::Kind::kSnapshot;
  r.path = std::move(path);
  std::future<Status> done = r.status.get_future();
  Status admitted = Admit(std::move(r));
  if (!admitted.ok()) return admitted;
  return done.get();
}

Result<EngineGauges> BatchExecutor::Gauges() {
  Request r;
  r.kind = Request::Kind::kGauges;
  std::future<Result<EngineGauges>> done = r.gauges.get_future();
  Status admitted = Admit(std::move(r));
  if (!admitted.ok()) return admitted;
  return done.get();
}

BatchExecutorStats BatchExecutor::Stats() const {
  MutexLock lock(&mu_);
  BatchExecutorStats stats;
  // The cells are atomics, but every writer updates them while holding mu_
  // (see the member comment), so this snapshot under mu_ is as mutually
  // consistent as the old plain-field one.
  stats.accepted = c_accepted_->value();
  stats.rejected = c_rejected_->value();
  stats.completed = c_completed_->value();
  stats.batches = c_batches_->value();
  stats.mutations = c_mutations_->value();
  stats.queued = in_flight_;
  stats.queue_high_watermark = queue_high_watermark_;
  stats.uptime_seconds = uptime_.Seconds();
  stats.start_epoch = start_epoch_;
  stats.approx_queries = c_approx_queries_->value();
  stats.approx_candidates_scanned = c_approx_candidates_scanned_->value();
  stats.approx_rows_pruned = c_approx_rows_pruned_->value();
  stats.snapshots_in_progress = snapshots_in_progress_;
  stats.snapshots_completed = c_snapshots_completed_->value();
  stats.reindexes_in_progress = reindex_in_flight_ ? 1 : 0;
  stats.reindexes_completed = c_reindexes_completed_->value();
  if (cache_ != nullptr) stats.cache = cache_->Stats();
  std::vector<double> window(
      latency_window_.begin(),
      latency_full_ ? latency_window_.end()
                    : latency_window_.begin() +
                          static_cast<std::ptrdiff_t>(latency_next_));
  stats.latency_ms = SummarizeLatencies(std::move(window));
  return stats;
}

std::string BatchExecutor::MetricsText() {
  {
    MutexLock lock(&mu_);
    g_queue_depth_->Set(static_cast<int64_t>(in_flight_));
    g_queue_high_watermark_->Set(
        static_cast<int64_t>(queue_high_watermark_));
  }
  g_uptime_seconds_->Set(
      static_cast<int64_t>(std::llround(uptime_.Seconds())));
  return registry_.ExpositionText();
}

void BatchExecutor::Pause() {
  MutexLock lock(&mu_);
  paused_ = true;
}

void BatchExecutor::Resume() {
  {
    MutexLock lock(&mu_);
    paused_ = false;
  }
  cv_.NotifyAll();
}

void BatchExecutor::DispatcherLoop() {
  // The dispatcher IS the engine's (and the store's) single writer: it
  // claims the writer role for its whole lifetime, which is what lets
  // Execute and the reindex helpers carry checked REQUIRES clauses instead
  // of the old prose contract. A no-op at runtime.
  engine_->writer_role().Acquire();
  for (;;) {
    std::vector<Request> batch;
    {
      MutexLock lock(&mu_);
      while (!((!queue_.empty() && !paused_) || stop_)) cv_.Wait(&mu_);
      if (queue_.empty() || paused_) {
        if (stop_) break;  // paused && stop: ~BatchExecutor cleared paused_
        continue;
      }
      // Pop the leading run: either a coalescible run of queries (up to
      // max_batch) or exactly one mutation. FIFO order across kinds is what
      // gives submit-then-query read-your-write semantics per producer.
      if (queue_.front().kind == Request::Kind::kQuery) {
        while (!queue_.empty() &&
               queue_.front().kind == Request::Kind::kQuery &&
               batch.size() < static_cast<size_t>(options_.max_batch)) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      } else {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    const std::vector<std::function<void()>> fulfill = Execute(&batch);
    {
      MutexLock lock(&mu_);
      // Counters are published BEFORE the submitters are released, so a
      // client that just got its answer always sees itself completed in
      // Stats() (and the STATS verb never under-reports). The internal
      // generation-adoption step is invisible to the client-facing
      // accepted/completed/latency numbers (its admission skipped accepted_
      // too) — a reindex must not fabricate a phantom request in the STATS
      // arithmetic clients do.
      const bool internal =
          batch.front().kind == Request::Kind::kAdoptGeneration;
      if (!internal) {
        for (const Request& r : batch) {
          latency_window_[latency_next_] = r.queued_at.Millis();
          latency_next_ = (latency_next_ + 1) % latency_window_.size();
          if (latency_next_ == 0) latency_full_ = true;
        }
        c_completed_->Increment(batch.size());
      }
      in_flight_ -= batch.size();
      if (batch.front().kind == Request::Kind::kQuery) {
        c_batches_->Increment();
      } else if (batch.front().kind != Request::Kind::kGauges &&
                 batch.front().kind != Request::Kind::kReindex &&
                 batch.front().kind != Request::Kind::kAdoptGeneration) {
        // Reindex traffic has its own gauges (reindex_in_progress /
        // reindex_completed); counting it as a mutation would skew the
        // auto-trigger arithmetic clients do from STATS deltas.
        c_mutations_->Increment();
      }
    }
    for (const std::function<void()>& f : fulfill) f();
  }
  engine_->writer_role().Release();
}

std::vector<std::function<void()>> BatchExecutor::Execute(
    std::vector<Request>* batch) {
  // Engine work happens here; the returned closures only fulfill promises,
  // and the dispatcher runs them after publishing the counters (pointers
  // into *batch stay valid until then).
  std::vector<std::function<void()>> fulfill;
  fulfill.reserve(batch->size());
  // Stamp every request's admission wait at dispatch. The internal adopt
  // step skips the histogram like it skips accepted/completed — it is
  // bookkeeping, not a client request.
  for (Request& r : *batch) {
    r.queue_wait_usec = r.queued_at.Micros();
    if (r.kind != Request::Kind::kAdoptGeneration) {
      h_admission_wait_->Record(r.queue_wait_usec);
    }
  }
  if (batch->front().kind != Request::Kind::kQuery) {
    Request& r = batch->front();
    switch (r.kind) {
      case Request::Kind::kInsert: {
        WallTimer apply_timer;
        Result<int> id = engine_->Insert(r.graph);
        if (id.ok() && store_ != nullptr) {
          // Keep the store in lockstep with the engine: same id, same
          // graph, same thread. A divergence here would hand a future
          // reindex the wrong corpus. The store shares the engine's single
          // writer (this thread), so holding the engine's role — Execute's
          // REQUIRES — is holding the store's; the analysis cannot derive
          // that, hence the Assert.
          store_->writer_role().Assert();
          Status put = store_->Put(*id, std::move(r.graph));
          GDIM_CHECK(put.ok()) << put.ToString();
        }
        h_mutation_apply_->Record(apply_timer.Micros());
        if (id.ok()) {
          ++mutations_since_reindex_;
          MaybeAutoReindex();
        }
        fulfill.push_back(
            [&r, id = std::move(id)] { r.inserted.set_value(id); });
        break;
      }
      case Request::Kind::kRemove: {
        WallTimer apply_timer;
        Status status = engine_->Remove(r.id);
        if (status.ok() && store_ != nullptr) {
          // The store shares the engine's single writer; see kInsert.
          store_->writer_role().Assert();
          Status removed = store_->Remove(r.id);
          GDIM_CHECK(removed.ok()) << removed.ToString();
        }
        h_mutation_apply_->Record(apply_timer.Micros());
        if (status.ok()) {
          ++mutations_since_reindex_;
          MaybeAutoReindex();
        }
        fulfill.push_back(
            [&r, status = std::move(status)] { r.status.set_value(status); });
        break;
      }
      case Request::Kind::kCompact: {
        WallTimer apply_timer;
        const int reclaimed = engine_->tombstoned_rows();
        engine_->Compact();
        if (store_ != nullptr) {
          // The store shares the engine's single writer; see kInsert.
          store_->writer_role().Assert();
          store_->Compact();
        }
        h_mutation_apply_->Record(apply_timer.Micros());
        fulfill.push_back(
            [&r, reclaimed] { r.compacted.set_value(reclaimed); });
        break;
      }
      case Request::Kind::kReindex: {
        // Freeze + launch only; the promise travels to the background
        // selection and comes home with the kAdoptGeneration request. The
        // dispatcher (and this request, for counting purposes) is done the
        // moment the handoff happens — exactly the SNAPSHOT shape.
        StartReindex(r.p, std::move(r.reindexed));
        break;
      }
      case Request::Kind::kAdoptGeneration: {
        WallTimer swap_timer;
        Result<ReindexReport> outcome = InstallGeneration(r.built.get());
        h_reindex_swap_->Record(swap_timer.Micros());
        {
          MutexLock lock(&mu_);
          reindex_in_flight_ = false;
          if (outcome.ok()) c_reindexes_completed_->Increment();
        }
        fulfill.push_back([&r, outcome = std::move(outcome)] {
          r.reindexed.set_value(outcome);
        });
        break;
      }
      case Request::Kind::kSnapshot: {
        // Freeze on the dispatcher (the only thread allowed to touch the
        // engine) — a bounded pause, no file I/O. The write itself moves to
        // a background thread spawned from the fulfill closure, so the
        // handoff happens after the dispatcher publishes this request's
        // completion counters; the submitter's promise travels with it and
        // resolves only once the file is durable.
        WallTimer freeze_timer;
        auto frozen =
            std::make_shared<FrozenShardedState>(engine_->Freeze());
        if (store_ != nullptr) {
          // The snapshot carries the live graph set (v3 STOR section) so a
          // restart can serve REINDEX without the source database. The
          // store shares the engine's single writer; see kInsert.
          store_->writer_role().Assert();
          frozen->store = store_->Freeze();
        }
        h_snapshot_freeze_->Record(freeze_timer.Micros());
        fulfill.push_back([this, &r, frozen] {
          StartAsyncSnapshot(std::move(*frozen), std::move(r.path),
                             std::move(r.status));
        });
        break;
      }
      case Request::Kind::kGauges: {
        EngineGauges gauges;
        gauges.graphs = engine_->num_graphs();
        gauges.shards = engine_->num_shards();
        gauges.features = engine_->num_features();
        gauges.epoch = engine_->epoch();
        gauges.physical_rows = engine_->physical_rows();
        gauges.tombstones = engine_->tombstoned_rows();
        gauges.generation = engine_->generation();
        gauges.ivf_buckets = engine_->ivf_buckets();
        fulfill.push_back([&r, gauges] { r.gauges.set_value(gauges); });
        break;
      }
      case Request::Kind::kQuery:
        break;  // unreachable
    }
    return fulfill;
  }
  // Coalesced query run: one stage-1 mapping pass over the whole run
  // (MapAll parallelizes the VF2 work), then the result cache, then packed
  // multi-query scans for the misses only.
  GraphDatabase queries;
  queries.reserve(batch->size());
  for (Request& r : *batch) queries.push_back(std::move(r.graph));
  WallTimer map_timer;
  std::vector<std::vector<uint8_t>> fingerprints =
      engine_->mapper().MapAll(queries, engine_->options().serve.threads);
  const double map_usec = map_timer.Micros();
  h_map_all_->Record(map_usec);

  // The epoch is sampled here, on the dispatcher: mutations are FIFO with
  // query batches, so it is exact for every query in this run, and a hit at
  // this epoch replays a result the engine produced at this exact state.
  const uint64_t epoch = engine_->epoch();
  // Normalize saturated probe depths: once nprobe reaches the largest
  // shard's bucket count, every shard probes all of its buckets and the
  // answer is exactly NPROBE=all's. Rewriting the option (before keys are
  // computed) makes NPROBE=<huge> and NPROBE=all share one cache entry and
  // one scan span instead of answering identically under distinct keys.
  // Epoch-safe: any change to a bucket count is a mutation, which bumps the
  // epoch and invalidates every cached entry anyway.
  const int nprobe_all_threshold = engine_->max_shard_ivf_buckets();
  if (nprobe_all_threshold > 0) {
    for (Request& r : *batch) {
      QueryOptions& options = r.query_options;
      if (options.scan_mode == ScanMode::kApprox && options.nprobe > 0 &&
          options.nprobe >= nprobe_all_threshold) {
        options.nprobe = kNprobeAll;
      }
    }
  }
  // Results depend on every per-query knob, so the cache key carries the
  // scan mode alongside the engine-level prefilter flag in its tag byte.
  const uint8_t prefilter_tag =
      engine_->options().serve.containment_prefilter ? 1 : 0;
  std::vector<Ranking> results(batch->size());
  std::vector<std::string> keys(batch->size());
  std::vector<size_t> misses;
  misses.reserve(batch->size());
  std::vector<uint8_t> was_hit(batch->size(), 0);
  WallTimer cache_timer;
  for (size_t i = 0; i < batch->size(); ++i) {
    if (cache_ != nullptr) {
      const QueryOptions& options = (*batch)[i].query_options;
      const bool approx = options.scan_mode == ScanMode::kApprox;
      const uint8_t mode_tag = static_cast<uint8_t>(
          prefilter_tag | (options.scan_mode == ScanMode::kFull ? 2 : 0) |
          (approx ? 4 : 0));
      // nprobe is part of the key only for approx queries: different probe
      // depths legitimately rank differently, while exact modes ignore it.
      keys[i] = ResultCache::MakeKey(fingerprints[i], options.k, mode_tag,
                                     approx ? options.nprobe : 0);
      if (std::optional<Ranking> hit = cache_->Lookup(keys[i], epoch)) {
        results[i] = std::move(*hit);
        was_hit[i] = 1;
        continue;
      }
    }
    misses.push_back(i);
  }
  const double cache_usec = cache_ != nullptr ? cache_timer.Micros() : 0.0;
  if (cache_ != nullptr) h_cache_probe_->Record(cache_usec);

  // Scatter the misses. Requests may carry different options, so scans go
  // per equal-options span of the miss list; one closed-loop workload
  // almost always lands in a single span.
  std::vector<double> span_usec(batch->size(), 0.0);
  size_t begin = 0;
  while (begin < misses.size()) {
    const QueryOptions options = (*batch)[misses[begin]].query_options;
    size_t end = begin + 1;
    while (end < misses.size() &&
           (*batch)[misses[end]].query_options == options) {
      ++end;
    }
    std::vector<std::vector<uint8_t>> span;
    span.reserve(end - begin);
    for (size_t j = begin; j < end; ++j) {
      span.push_back(std::move(fingerprints[misses[j]]));
    }
    ServeBatchReport span_report;
    WallTimer span_timer;
    std::vector<Ranking> scanned =
        engine_->QueryMappedBatch(span, options, &span_report);
    const double scan_usec = span_timer.Micros();
    // Fold the engine's per-stage samples into the registry. The per-shard
    // scan passes arrive pre-binnable, so one Merge replaces a cell
    // round-trip per sample; the scan family is split exact/approx by the
    // span's mode (an approx span's passes are probe-narrowed scans).
    {
      BucketHistogram shard_scans(StageLatencyBucketBoundsUsec());
      for (double v : span_report.stage_scan_usec) shard_scans.Record(v);
      (options.scan_mode == ScanMode::kApprox ? h_scan_approx_
                                              : h_scan_exact_)
          ->Merge(shard_scans);
    }
    for (double v : span_report.stage_ivf_probe_usec) h_ivf_probe_->Record(v);
    for (double v : span_report.stage_gather_usec) h_gather_merge_->Record(v);
    if (span_report.approx_queries > 0) {
      // Publish the approx scan-work counters as this span lands. Execute
      // EXCLUDES mu_, so take it briefly — same shape as kAdoptGeneration's
      // in-Execute accounting.
      MutexLock lock(&mu_);
      c_approx_queries_->Increment(span_report.approx_queries);
      c_approx_candidates_scanned_->Increment(
          static_cast<uint64_t>(span_report.approx_candidates_scanned));
      c_approx_rows_pruned_->Increment(
          static_cast<uint64_t>(span_report.approx_rows_pruned));
    }
    for (size_t j = begin; j < end; ++j) {
      const size_t i = misses[j];
      span_usec[i] = scan_usec;
      results[i] = std::move(scanned[j - begin]);
      if (cache_ != nullptr) cache_->Insert(keys[i], epoch, results[i]);
    }
    begin = end;
  }

  const bool slow_log = options_.slow_query_usec > 0;
  for (size_t i = 0; i < batch->size(); ++i) {
    Request& r = (*batch)[i];
    if (r.trace != nullptr || slow_log) {
      // Non-overlapping dispatcher segments of this query's life: their sum
      // is <= total, and total (taken here, before the promise resolves) is
      // <= whatever latency the client measures around its submit.
      const double total_usec = r.queued_at.Micros();
      const bool hit = was_hit[i] != 0;
      if (r.trace != nullptr) {
        r.trace->queue_usec = r.queue_wait_usec;
        r.trace->map_usec = map_usec;
        r.trace->cache_usec = cache_usec;
        r.trace->scan_usec = span_usec[i];
        r.trace->total_usec = total_usec;
        r.trace->cache_hit = hit;
      }
      if (slow_log &&
          total_usec >= static_cast<double>(options_.slow_query_usec)) {
        c_slow_queries_->Increment();
        char line[256];
        std::snprintf(
            line, sizeof(line),
            "slow-query total_usec=%lld queue=%lld map=%lld cache=%lld "
            "scan=%lld k=%d mode=%s cache_hit=%d",
            static_cast<long long>(std::llround(total_usec)),
            static_cast<long long>(std::llround(r.queue_wait_usec)),
            static_cast<long long>(std::llround(map_usec)),
            static_cast<long long>(std::llround(cache_usec)),
            static_cast<long long>(std::llround(span_usec[i])),
            r.query_options.k, ScanModeName(r.query_options.scan_mode),
            hit ? 1 : 0);
        if (options_.slow_query_sink) {
          options_.slow_query_sink(line);
        } else {
          std::fprintf(stderr, "%s\n", line);
        }
      }
    }
    fulfill.push_back([&r, result = std::move(results[i])]() mutable {
      r.ranking.set_value(std::move(result));
    });
  }
  return fulfill;
}

void BatchExecutor::AdmitInternal(Request r) {
  {
    MutexLock lock(&mu_);
    if (!stop_) {
      // in_flight_ must balance the dispatcher's decrement, but accepted
      // stays client-only — the adopt step is bookkeeping, not a request.
      ++in_flight_;
      if (in_flight_ > queue_high_watermark_) {
        queue_high_watermark_ = in_flight_;
      }
      queue_.push_back(std::move(r));
      cv_.NotifyOne();  // under mu_, same lifetime reasoning as Admit
      return;
    }
    // The dispatcher is gone; nobody will ever install this generation.
    reindex_in_flight_ = false;
  }
  r.reindexed.set_value(Status::Internal("executor is shutting down"));
}

void BatchExecutor::StartReindex(int p,
                                 std::promise<Result<ReindexReport>> done) {
  if (store_ == nullptr) {
    done.set_value(Status::InvalidArgument(
        "reindex unavailable: the server has no live graph store "
        "(serve-net needs --db)"));
    return;
  }
  {
    MutexLock lock(&mu_);
    if (reindex_in_flight_) {
      done.set_value(
          Status::ResourceExhausted("a reindex is already in progress"));
      return;
    }
    reindex_in_flight_ = true;
  }
  // The freeze: the dispatcher's only synchronous contribution. Everything
  // the background selection reads is copied out here, so churn that
  // follows can never race it. The store shares the engine's single writer
  // (this method's REQUIRES), hence the Assert.
  store_->writer_role().Assert();
  FrozenGraphSet frozen = store_->Freeze();
  if (frozen.empty()) {
    MutexLock lock(&mu_);
    reindex_in_flight_ = false;
    done.set_value(Status::InvalidArgument("cannot reindex an empty database"));
    return;
  }
  RefreshOptions refresh = options_.refresh;
  refresh.p = p > 0 ? p
              : refresh.p > 0 ? refresh.p
                              : engine_->num_features();
  mutations_since_reindex_ = 0;
  // Shared so the promise survives the trip through the refresh thread's
  // closure and back into a Request.
  auto promise =
      std::make_shared<std::promise<Result<ReindexReport>>>(std::move(done));
  Status started = refresher_.Start(
      std::move(frozen), std::move(refresh),
      [this, promise, build_timer = WallTimer()](
          Result<RefreshedGeneration> built) {
        // Freeze handoff → finished generation, measured on the refresher
        // thread; the histogram cells are lock-free, so recording off the
        // dispatcher is safe.
        h_reindex_build_->Record(build_timer.Micros());
        Request adopt;
        adopt.kind = Request::Kind::kAdoptGeneration;
        adopt.built =
            std::make_shared<Result<RefreshedGeneration>>(std::move(built));
        adopt.reindexed = std::move(*promise);
        AdmitInternal(std::move(adopt));
      });
  if (!started.ok()) {
    // Unreachable while reindex_in_flight_ gates Start, but a refresher
    // refusal must not leave the gauge stuck or the submitter hanging.
    MutexLock lock(&mu_);
    reindex_in_flight_ = false;
    promise->set_value(started);
  }
}

void BatchExecutor::MaybeAutoReindex() {
  if (options_.reindex_every <= 0 || store_ == nullptr) return;
  if (mutations_since_reindex_ < options_.reindex_every) return;
  {
    MutexLock lock(&mu_);
    if (reindex_in_flight_) return;
  }
  // Fire-and-forget: the report is discarded (no future attached); success
  // shows up as a dimension_generation bump, failure as reindex_in_progress
  // falling with no bump.
  StartReindex(0, std::promise<Result<ReindexReport>>());
}

Result<ReindexReport> BatchExecutor::InstallGeneration(
    Result<RefreshedGeneration>* built) {
  if (!built->ok()) return built->status();
  RefreshedGeneration& generation = **built;
  // Reconcile the generation (built over the freeze-time live set) with
  // the churn that happened during selection: ids still live keep their
  // frozen fingerprints, ids inserted since are VF2-mapped with the NEW
  // mapper, ids removed since are dropped. The cost is proportional to the
  // churn during the refresh, not the database.
  FeatureMapper mapper(std::move(generation.features));
  PersistedIndex index;
  const std::vector<int> live = store_->live_ids();
  index.ids.reserve(live.size());
  index.db_bits.reserve(live.size());
  int remapped = 0;
  for (int id : live) {
    const auto it = std::lower_bound(generation.ids.begin(),
                                     generation.ids.end(), id);
    if (it != generation.ids.end() && *it == id) {
      index.db_bits.push_back(std::move(
          generation.rows[static_cast<size_t>(
              it - generation.ids.begin())]));
    } else {
      const Graph* graph = store_->FindLive(id);
      GDIM_CHECK(graph != nullptr);
      index.db_bits.push_back(mapper.Map(*graph));
      ++remapped;
    }
    index.ids.push_back(id);
  }
  index.next_id = engine_->next_id();
  Result<ShardedEngine> next =
      ShardedEngine::FromIndex(std::move(index), std::move(mapper),
                               engine_->options());
  if (!next.ok()) return next.status();
  engine_->SwapGeneration(std::move(next).value());
  ReindexReport report;
  report.generation = engine_->generation();
  report.features = engine_->num_features();
  report.remapped = remapped;
  return report;
}

void BatchExecutor::StartAsyncSnapshot(FrozenShardedState frozen,
                                       std::string path,
                                       std::promise<Status> done) {
  // Shared so the promise survives a failed thread spawn (a lambda capture
  // would be destroyed with the lambda, breaking the submitter's future).
  auto promise = std::make_shared<std::promise<Status>>(std::move(done));
  {
    MutexLock lock(&mu_);
    ++snapshots_in_progress_;
  }
  // Detached: the thread reads only its own frozen capture, then signals
  // through mu_/snapshot_cv_ (which the destructor waits on) before
  // releasing the submitter — so neither the executor nor the engine can
  // disappear under it, and a client that got its OK is guaranteed the
  // gauge already ticked over.
  try {
    std::thread([this, frozen = std::move(frozen), path = std::move(path),
                 promise]() mutable {
      WallTimer write_timer;
      Status status = ShardedEngine::WriteSnapshot(frozen, path);
      h_snapshot_write_->Record(write_timer.Micros());
      {
        MutexLock lock(&mu_);
        --snapshots_in_progress_;
        c_snapshots_completed_->Increment();
        snapshot_cv_.NotifyAll();
      }
      promise->set_value(std::move(status));
    }).detach();
  } catch (const std::system_error& e) {
    // Thread/resource exhaustion must fail the one SNAPSHOT request, not
    // kill the dispatcher or wedge the destructor on a leaked gauge.
    {
      MutexLock lock(&mu_);
      --snapshots_in_progress_;
      snapshot_cv_.NotifyAll();
    }
    promise->set_value(Status::Internal(
        std::string("cannot spawn snapshot writer: ") + e.what()));
  }
}

}  // namespace gdim
