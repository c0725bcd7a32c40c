#include "core/kernels/scan_kernel.h"

#include <bit>
#include <cstdio>
#include <cstdlib>

namespace gdim {

namespace {

/// popcount(query ^ row) over words_per_row words, one POPCNT per word.
inline uint32_t RowDistance(const uint64_t* query, const uint64_t* row,
                            size_t words_per_row) {
  uint32_t diff = 0;
  for (size_t w = 0; w < words_per_row; ++w) {
    diff += static_cast<uint32_t>(std::popcount(query[w] ^ row[w]));
  }
  return diff;
}

class ScalarKernel final : public ScanKernel {
 public:
  const char* name() const override { return "scalar"; }

  void HammingBlock(const uint64_t* query, const uint64_t* rows,
                    size_t words_per_row, int num_rows,
                    uint32_t* diffs) const override {
    const uint64_t* row = rows;
    for (int r = 0; r < num_rows; ++r, row += words_per_row) {
      diffs[r] = RowDistance(query, row, words_per_row);
    }
  }
};

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool CpuHasAvx512() {
#if defined(__x86_64__) || defined(__i386__)
  // The AVX-512 kernel popcounts with VPOPCNTDQ; plain avx512f hosts
  // (Skylake-SP era) fall back to avx2 rather than carrying a second
  // AVX-512 popcount implementation.
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vpopcntdq");
#else
  return false;
#endif
}

const ScanKernel* PickActiveKernel() {
  if (const char* forced = std::getenv("GDIM_FORCE_KERNEL");
      forced != nullptr && forced[0] != '\0') {
    if (const ScanKernel* kernel = FindScanKernel(forced)) return kernel;
    std::fprintf(stderr,
                 "gdim: GDIM_FORCE_KERNEL=%s is not runnable on this host; "
                 "falling back to automatic kernel selection\n",
                 forced);
  }
  if (const ScanKernel* kernel = FindScanKernel("avx512")) return kernel;
  if (const ScanKernel* kernel = FindScanKernel("avx2")) return kernel;
  return &ScalarScanKernel();
}

}  // namespace

int ScanKernel::HammingWithin(const uint64_t* query, const uint64_t* rows,
                              size_t words_per_row, int num_rows,
                              uint32_t max_distance, int* hit_rows,
                              uint32_t* hit_dists) const {
  auto filter = [&](size_t width) {
    int hits = 0;
    const uint64_t* row = rows;
    for (int r = 0; r < num_rows; ++r, row += width) {
      const uint32_t diff = RowDistance(query, row, width);
      if (diff > max_distance) continue;
      hit_rows[hits] = r;
      hit_dists[hits++] = diff;
    }
    return hits;
  };
  // The serving widths (p = 128 and 256) pass a constant, so the inlined
  // word loop unrolls; a run-time word count costs a loop per row.
  if (words_per_row == 2) return filter(2);
  if (words_per_row == 4) return filter(4);
  return filter(words_per_row);
}

const ScanKernel& ScalarScanKernel() {
  static const ScalarKernel kernel;
  return kernel;
}

const ScanKernel* FindScanKernel(const std::string& name) {
  if (name == "scalar") return &ScalarScanKernel();
  if (name == "avx2") return CpuHasAvx2() ? Avx2ScanKernelOrNull() : nullptr;
  if (name == "avx512") {
    return CpuHasAvx512() ? Avx512ScanKernelOrNull() : nullptr;
  }
  return nullptr;
}

std::vector<const ScanKernel*> SupportedScanKernels() {
  std::vector<const ScanKernel*> kernels = {&ScalarScanKernel()};
  for (const char* name : {"avx2", "avx512"}) {
    if (const ScanKernel* kernel = FindScanKernel(name)) {
      kernels.push_back(kernel);
    }
  }
  return kernels;
}

const ScanKernel& ActiveScanKernel() {
  static const ScanKernel* active = PickActiveKernel();
  return *active;
}

}  // namespace gdim
