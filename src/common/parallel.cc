#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace gdim {

int DefaultThreadCount() {
  unsigned hc = std::thread::hardware_concurrency();
  if (hc == 0) hc = 1;
  return static_cast<int>(std::min(hc, 16u));
}

void ParallelFor(int begin, int end, const std::function<void(int)>& fn,
                 int threads) {
  if (end <= begin) return;
  if (threads <= 0) threads = DefaultThreadCount();
  const int range = end - begin;
  if (threads == 1 || range < 64) {
    for (int i = begin; i < end; ++i) fn(i);
    return;
  }
  threads = std::min(threads, range);
  // Small chunks keep load balanced when item costs vary (MCS pairs).
  const int chunk = std::max(1, range / (threads * 8));
  std::atomic<int> cursor{begin};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&cursor, &fn, end, chunk]() {
      for (;;) {
        int lo = cursor.fetch_add(chunk);
        if (lo >= end) return;
        int hi = std::min(lo + chunk, end);
        for (int i = lo; i < hi; ++i) fn(i);
      }
    });
  }
  for (auto& th : pool) th.join();
}

}  // namespace gdim
