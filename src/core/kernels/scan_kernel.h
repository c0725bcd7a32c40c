#ifndef GDIM_CORE_KERNELS_SCAN_KERNEL_H_
#define GDIM_CORE_KERNELS_SCAN_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gdim {

/// A Hamming-scan kernel: XOR-popcount of packed fingerprint words against a
/// contiguous block of packed database rows — the innermost loop of the
/// serving hot path, and the one place ISA-specific code is allowed to live.
///
/// Contract: every kernel is bit-identical to the scalar one. Hamming
/// distances are exact integers and the (shared) score conversion runs
/// outside the kernel, so "identical" means byte-for-byte equal diff
/// outputs for any width, any padding content (callers guarantee padding
/// bits are zero in both query and rows; PackedBitMatrix enforces that at
/// load), and any row count — which in turn makes scores and top-k tie
/// order identical for every kernel. HammingWithin returns the same hit
/// set on every kernel for the same reason.
class ScanKernel {
 public:
  virtual ~ScanKernel() = default;

  /// Stable lowercase identifier ("scalar", "avx2", "avx512"); what
  /// GDIM_FORCE_KERNEL matches and what STATS reports as kernel=.
  virtual const char* name() const = 0;

  /// Number of queries that share one pass over each row block — how wide
  /// the engines tile QueryMappedBatch. Every query of a tile filters the
  /// block while it is still L1-resident, so a wider tile amortizes each
  /// row load from L2 over more queries. Each query makes its own
  /// HammingWithin call, so the width does not depend on the kernel.
  int tile_width() const { return 8; }

  /// diffs[r] = popcount(query ^ rows[r]) for num_rows consecutive rows of
  /// words_per_row words each, rows row-major starting at `rows`. The query
  /// also spans words_per_row words.
  virtual void HammingBlock(const uint64_t* query, const uint64_t* rows,
                            size_t words_per_row, int num_rows,
                            uint32_t* diffs) const = 0;

  /// The fused scan-and-filter behind stage 3: writes exactly the rows r
  /// (0 <= r < num_rows, same layout as HammingBlock) whose distance
  /// popcount(query ^ rows[r]) is <= max_distance — row index to
  /// hit_rows[i], distance to hit_dists[i], in no particular order — and
  /// returns how many. Both outputs need room for num_rows entries. A row
  /// above the bound never leaves the kernel, so with a tight bound a
  /// block costs only XOR, POPCNT and one compare per row.
  ///
  /// ScanTopK passes a selector's current kth distance as max_distance,
  /// read once at the start of a block. That is exact, not a heuristic:
  /// the bound only tightens while the block's hits are offered, so the
  /// block-start bound admits a superset of the rows that can still enter,
  /// and the selector re-checks each hit against its live (distance, id)
  /// bound. Ties at the bound must pass (<=): a row at the kth distance
  /// with a smaller id still displaces the kth key.
  ///
  /// The default, which the scalar and avx2 kernels use, filters each
  /// row's distance (one POPCNT per word) as it is computed: no distance
  /// buffer and no second pass.
  virtual int HammingWithin(const uint64_t* query, const uint64_t* rows,
                            size_t words_per_row, int num_rows,
                            uint32_t max_distance, int* hit_rows,
                            uint32_t* hit_dists) const;
};

/// The portable baseline kernel; always available.
const ScanKernel& ScalarScanKernel();

/// Kernel by name ("scalar" | "avx2" | "avx512"), or nullptr when the name
/// is unknown, the kernel was not compiled in, or this host's CPU lacks the
/// ISA. The differential tests iterate FindScanKernel over all names and
/// skip the nullptrs.
const ScanKernel* FindScanKernel(const std::string& name);

/// Every kernel this binary can run on this host, scalar first.
std::vector<const ScanKernel*> SupportedScanKernels();

/// The kernel every scan in the process uses: the widest supported ISA
/// (avx512 > avx2 > scalar), overridable with GDIM_FORCE_KERNEL=
/// scalar|avx2|avx512 for CI determinism. A forced kernel this host cannot
/// run falls back to the auto pick with a warning on stderr — a test matrix
/// entry must degrade, not crash. Resolved once, on first use.
const ScanKernel& ActiveScanKernel();

/// Per-ISA factory hooks, defined in translation units compiled with the
/// matching -m flags (scan_kernel_avx2.cc / scan_kernel_avx512.cc); each
/// returns nullptr when the compiler could not target the ISA at all.
/// Callers must still gate on CPUID — FindScanKernel does.
const ScanKernel* Avx2ScanKernelOrNull();
const ScanKernel* Avx512ScanKernelOrNull();

}  // namespace gdim

#endif  // GDIM_CORE_KERNELS_SCAN_KERNEL_H_
