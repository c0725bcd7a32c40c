#include "server/result_cache.h"

#include <cstring>
#include <memory>
#include <utility>

#include "core/packed_bits.h"

namespace gdim {

namespace {

/// Fixed per-entry charge covering the list node and the map slot — so a
/// budget of N bytes bounds real memory at roughly N, not N plus unbounded
/// bookkeeping.
constexpr size_t kEntryOverheadBytes = 128;

/// Payload bytes per ranked result: the id, then the score.
constexpr size_t kResultBytes = sizeof(int) + sizeof(double);

size_t EntryBytes(size_t key_size, size_t num_results) {
  return kEntryOverheadBytes + key_size + num_results * kResultBytes;
}

}  // namespace

ResultCache::ResultCache(size_t max_bytes) : max_bytes_(max_bytes) {}

std::string ResultCache::MakeKey(const std::vector<uint8_t>& fingerprint,
                                 int k, uint8_t scan_mode, int nprobe) {
  const std::vector<uint64_t> words = PackedBitMatrix::PackBits(fingerprint);
  const uint32_t width = static_cast<uint32_t>(fingerprint.size());
  const int32_t k32 = k;
  const int32_t nprobe32 = nprobe;
  std::string key;
  key.resize(words.size() * sizeof(uint64_t) + sizeof(width) + sizeof(k32) +
             1 + sizeof(nprobe32));
  char* out = key.data();
  std::memcpy(out, words.data(), words.size() * sizeof(uint64_t));
  out += words.size() * sizeof(uint64_t);
  // The width disambiguates fingerprints whose packed words collide (a set
  // bit count is not enough: trailing zero bits pack away).
  std::memcpy(out, &width, sizeof(width));
  out += sizeof(width);
  std::memcpy(out, &k32, sizeof(k32));
  out += sizeof(k32);
  *out = static_cast<char>(scan_mode);
  ++out;
  std::memcpy(out, &nprobe32, sizeof(nprobe32));
  return key;
}

std::optional<Ranking> ResultCache::Lookup(const std::string& key,
                                           uint64_t epoch) {
  MutexLock lock(&mu_);
  const auto found = index_.find(key);
  if (found == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  if (found->second->epoch != epoch) {
    // Stale: a mutation bumped the epoch since this was stored. The entry
    // can never be served again (epochs are monotonic), so purge it now.
    EvictLocked(found->second);
    ++evictions_;
    ++misses_;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, found->second);
  ++hits_;
  const Entry& entry = *found->second;
  const char* ids = entry.data.get() + entry.key_size;
  const char* scores = ids + entry.num_results * sizeof(int);
  Ranking ranking(entry.num_results);
  for (size_t i = 0; i < ranking.size(); ++i) {
    std::memcpy(&ranking[i].id, ids + i * sizeof(int), sizeof(int));
    std::memcpy(&ranking[i].score, scores + i * sizeof(double),
                sizeof(double));
  }
  return ranking;
}

void ResultCache::Insert(const std::string& key, uint64_t epoch,
                         const Ranking& ranking) {
  const size_t bytes = EntryBytes(key.size(), ranking.size());
  if (bytes > max_bytes_) return;  // larger than the whole budget
  Entry entry;
  entry.epoch = epoch;
  entry.key_size = static_cast<uint32_t>(key.size());
  entry.num_results = static_cast<uint32_t>(ranking.size());
  entry.data = std::make_unique_for_overwrite<char[]>(
      key.size() + ranking.size() * kResultBytes);
  char* out = entry.data.get();
  std::memcpy(out, key.data(), key.size());
  out += key.size();
  for (const RankedResult& r : ranking) {
    std::memcpy(out, &r.id, sizeof(int));
    out += sizeof(int);
  }
  for (const RankedResult& r : ranking) {
    std::memcpy(out, &r.score, sizeof(double));
    out += sizeof(double);
  }
  MutexLock lock(&mu_);
  const auto found = index_.find(key);
  if (found != index_.end()) {
    // Same query re-executed (typically at a newer epoch): replace.
    EvictLocked(found->second);
    ++evictions_;
  }
  lru_.push_front(std::move(entry));
  index_.emplace(lru_.front().key(), lru_.begin());
  bytes_ += bytes;
  ++insertions_;
  while (bytes_ > max_bytes_) {
    EvictLocked(std::prev(lru_.end()));
    ++evictions_;
  }
}

void ResultCache::EvictLocked(Lru::iterator it) {
  bytes_ -= EntryBytes(it->key_size, it->num_results);
  index_.erase(it->key());
  lru_.erase(it);
}

ResultCacheStats ResultCache::Stats() const {
  MutexLock lock(&mu_);
  ResultCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.insertions = insertions_;
  stats.entries = lru_.size();
  stats.bytes = bytes_;
  stats.max_bytes = max_bytes_;
  return stats;
}

}  // namespace gdim
