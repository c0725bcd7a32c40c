#ifndef GDIM_SERVER_RESULT_CACHE_H_
#define GDIM_SERVER_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "core/topk.h"

namespace gdim {

/// Counter + occupancy snapshot of one ResultCache (the cache_* fields of
/// the STATS wire verb). Taken under the cache lock, so the counters are
/// mutually consistent: hits + misses equals the number of Lookup calls at
/// the instant of the snapshot.
struct ResultCacheStats {
  uint64_t hits = 0;        ///< lookups answered from the cache
  uint64_t misses = 0;      ///< lookups not answered (absent or stale)
  uint64_t evictions = 0;   ///< entries dropped (LRU pressure or staleness)
  uint64_t insertions = 0;  ///< entries stored
  size_t entries = 0;       ///< live entries right now
  size_t bytes = 0;         ///< estimated bytes charged right now
  size_t max_bytes = 0;     ///< configured budget
};

/// An epoch-versioned LRU cache of query results for the serving layer:
/// maps (packed fingerprint words, k, scan-mode) → the exact Ranking the
/// engine returned, valid for one mutation epoch.
///
/// Correctness under churn comes from the epoch, not from enumeration: a
/// mutation bumps the engine's epoch, and a Lookup presents the *current*
/// epoch — an entry stored at an older epoch can never be returned. Stale
/// entries are purged lazily (on the touch that discovers them, or by LRU
/// pressure); no mutation ever walks the cache. A hit is therefore
/// guaranteed bit-identical to a cold query at the same epoch: the entry
/// was produced by the engine at that exact epoch and queries don't change
/// engine state.
///
/// Eviction is LRU under a byte budget: every entry is charged its key +
/// ranking payload plus a fixed bookkeeping overhead, and inserts evict
/// from the cold end until the budget holds. An entry larger than the whole
/// budget is not cached.
///
/// Thread-safe: every method takes an internal lock. The intended caller —
/// the BatchExecutor's dispatcher — is single-threaded anyway; the lock is
/// for Stats() readers (the STATS verb) on other threads.
class ResultCache {
 public:
  /// Budget of 0 disables storage: every lookup misses, nothing is kept.
  explicit ResultCache(size_t max_bytes);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Builds the lookup key for a query: the fingerprint packed into 64-bit
  /// words (8x smaller than the byte form and exactly what the scan kernels
  /// hash on) plus k, the scan-mode tag, the width, and nprobe (0 for exact
  /// modes; approximate answers at different probe depths differ, so they
  /// must never share an entry). The epoch is NOT part of the key — it is
  /// checked against the stored entry, so a stale entry is found (and
  /// purged) rather than leaked until LRU pressure.
  static std::string MakeKey(const std::vector<uint8_t>& fingerprint, int k,
                             uint8_t scan_mode, int nprobe = 0);

  /// The cached ranking for key at exactly this epoch, or nullopt. A hit
  /// refreshes the entry's LRU position; finding an entry from an older
  /// epoch purges it and counts a miss (plus an eviction).
  std::optional<Ranking> Lookup(const std::string& key, uint64_t epoch)
      GDIM_EXCLUDES(mu_);

  /// Stores ranking for key at epoch, replacing any entry under the same
  /// key, then evicts LRU entries until the byte budget holds.
  void Insert(const std::string& key, uint64_t epoch, const Ranking& ranking)
      GDIM_EXCLUDES(mu_);

  ResultCacheStats Stats() const GDIM_EXCLUDES(mu_);

 private:
  /// One cached answer, its payload in a single allocation: the key bytes,
  /// then the ranking's ids, then its scores (packed, without the padding
  /// a RankedResult array carries). Memory per entry is what bounds the
  /// cache's footprint on a stream of distinct queries.
  struct Entry {
    uint64_t epoch = 0;
    uint32_t key_size = 0;
    uint32_t num_results = 0;
    std::unique_ptr<char[]> data;

    std::string_view key() const { return {data.get(), key_size}; }
  };
  using Lru = std::list<Entry>;

  /// Unlinks *it from the map, the LRU list, and the byte accounting.
  void EvictLocked(Lru::iterator it) GDIM_REQUIRES(mu_);

  const size_t max_bytes_;
  mutable Mutex mu_;
  size_t bytes_ GDIM_GUARDED_BY(mu_) = 0;
  uint64_t hits_ GDIM_GUARDED_BY(mu_) = 0;
  uint64_t misses_ GDIM_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GDIM_GUARDED_BY(mu_) = 0;
  uint64_t insertions_ GDIM_GUARDED_BY(mu_) = 0;
  Lru lru_ GDIM_GUARDED_BY(mu_);  ///< front = most recently used
  /// Keyed by views of the entries' own keys (entries never move their
  /// payload), so each key is stored once.
  std::unordered_map<std::string_view, Lru::iterator> index_
      GDIM_GUARDED_BY(mu_);
};

}  // namespace gdim

#endif  // GDIM_SERVER_RESULT_CACHE_H_
