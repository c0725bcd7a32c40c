// AVX-512 scan kernel (VPOPCNTDQ: hardware per-lane popcount, Ice Lake+).
// Compiled with -mavx512f -mavx512bw -mavx512vpopcntdq (see CMakeLists.txt)
// and only ever dispatched to after runtime CPUID confirms all three, so the
// binary keeps running on hosts without them.
//
// Rows are processed in groups of eight, each group reduced to one vector
// of eight 64-bit row distances. Narrow rows — 2 or 4 words, the serving
// widths p = 128 and 256 — are packed several to a vector: a group's 8·W
// words fill exactly W vectors, the query is broadcast to match, and
// two-source permutes + adds fold each row's word counts together, in row
// order.
// Other widths keep one accumulator per row, masked loads for the
// non-multiple-of-8 word tail, and a shuffle tree across the eight rows.
// HammingBlock narrows and stores the distances; HammingWithin compares
// them against the bound and stores only the lanes that pass, so a group
// with no hit stores nothing.
#include "core/kernels/scan_kernel.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VPOPCNTDQ__)

// GCC 12 flags the self-initialized placeholders its AVX-512 intrinsics use
// for don't-care operands; silence that inside the header only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#ifndef __clang__
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <bit>

namespace gdim {

namespace {

/// Mask of the low `n` of eight lanes (none for n <= 0, all for n >= 8).
inline __mmask8 LowLanes(int n) {
  if (n <= 0) return 0;
  return n >= 8 ? static_cast<__mmask8>(0xFF)
                : static_cast<__mmask8>((1u << n) - 1);
}

/// Distances of a group of eight W-word rows (W = 2 or 4), which fill
/// exactly W vectors, against the query broadcast to match.
template <int W>
struct PackedSums {
  explicit PackedSums(const uint64_t* q) {
    if constexpr (W == 2) {
      query = _mm512_broadcast_i32x4(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(q)));
    } else {
      query = _mm512_broadcast_i64x4(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q)));
    }
  }

  /// Distances of the first n <= 8 rows at `group`, in row order. Words
  /// past row n are not read; their lanes hold garbage.
  __m512i operator()(const uint64_t* group, int n) const {
    __m512i v[W];
    for (int j = 0; j < W; ++j) {
      const uint64_t* words = group + static_cast<size_t>(j) * 8;
      const int valid = W * n - 8 * j;  // words of rows < n in vector j
      const __m512i d = valid >= 8 ? _mm512_loadu_si512(words)
                                   : _mm512_maskz_loadu_epi64(
                                         LowLanes(valid), words);
      v[j] = _mm512_popcnt_epi64(_mm512_xor_si512(query, d));
    }
    if constexpr (W == 2) {
      // v[0] holds rows 0-3 and v[1] rows 4-7: one two-source permute
      // gathers every row's word 0, another its word 1.
      const __m512i word0 = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
      const __m512i word1 = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
      return _mm512_add_epi64(_mm512_permutex2var_epi64(v[0], word0, v[1]),
                              _mm512_permutex2var_epi64(v[0], word1, v[1]));
    } else {
      // v[j] holds rows 2j and 2j+1. The unpack + add sums words 0+1 and
      // 2+3 of rows 0-3 into a = [r0 r2 r0' r2' r1 r3 r1' r3'] (' marks
      // words 2+3), and of rows 4-7 into b; two two-source permutes line
      // the halves up in row order.
      const __m512i a = _mm512_add_epi64(_mm512_unpacklo_epi64(v[0], v[1]),
                                         _mm512_unpackhi_epi64(v[0], v[1]));
      const __m512i b = _mm512_add_epi64(_mm512_unpacklo_epi64(v[2], v[3]),
                                         _mm512_unpackhi_epi64(v[2], v[3]));
      const __m512i first = _mm512_setr_epi64(0, 4, 1, 5, 8, 12, 9, 13);
      const __m512i second = _mm512_setr_epi64(2, 6, 3, 7, 10, 14, 11, 15);
      return _mm512_add_epi64(_mm512_permutex2var_epi64(a, first, b),
                              _mm512_permutex2var_epi64(a, second, b));
    }
  }

  __m512i query;
};

/// Reduces eight per-row lane-sum vectors to the eight row totals.
/// Stage 1 pairs rows within 128-bit lanes (unpack + add), stages 2-3 pair
/// 128-bit lanes across vectors (shuffle + add); qword i of the result is
/// the full lane sum of s[i].
inline __m512i RowSums8(const __m512i s[8]) {
  const __m512i a = _mm512_add_epi64(_mm512_unpacklo_epi64(s[0], s[1]),
                                     _mm512_unpackhi_epi64(s[0], s[1]));
  const __m512i b = _mm512_add_epi64(_mm512_unpacklo_epi64(s[2], s[3]),
                                     _mm512_unpackhi_epi64(s[2], s[3]));
  const __m512i c = _mm512_add_epi64(_mm512_unpacklo_epi64(s[4], s[5]),
                                     _mm512_unpackhi_epi64(s[4], s[5]));
  const __m512i d = _mm512_add_epi64(_mm512_unpacklo_epi64(s[6], s[7]),
                                     _mm512_unpackhi_epi64(s[6], s[7]));
  const __m512i ab = _mm512_add_epi64(_mm512_shuffle_i64x2(a, b, 0x44),
                                      _mm512_shuffle_i64x2(a, b, 0xEE));
  const __m512i cd = _mm512_add_epi64(_mm512_shuffle_i64x2(c, d, 0x44),
                                      _mm512_shuffle_i64x2(c, d, 0xEE));
  return _mm512_add_epi64(_mm512_shuffle_i64x2(ab, cd, 0x88),
                          _mm512_shuffle_i64x2(ab, cd, 0xDD));
}

/// Distances of a group of eight rows of any other width, in row order:
/// one accumulator per row over whole vectors and a masked word tail, then
/// RowSums8.
struct WideSums {
  __m512i operator()(const uint64_t* group, int n) const {
    const size_t vec_words = words_per_row & ~size_t{7};
    const __mmask8 tail_mask =
        LowLanes(static_cast<int>(words_per_row - vec_words));
    __m512i acc[8];
    for (int j = 0; j < 8; ++j) acc[j] = _mm512_setzero_si512();
    size_t w = 0;
    for (; w < vec_words; w += 8) {
      const __m512i q = _mm512_loadu_si512(query + w);
      for (int j = 0; j < n; ++j) {
        const __m512i d = _mm512_loadu_si512(
            group + static_cast<size_t>(j) * words_per_row + w);
        acc[j] = _mm512_add_epi64(
            acc[j], _mm512_popcnt_epi64(_mm512_xor_si512(q, d)));
      }
    }
    if (tail_mask != 0) {
      const __m512i q = _mm512_maskz_loadu_epi64(tail_mask, query + w);
      for (int j = 0; j < n; ++j) {
        const __m512i d = _mm512_maskz_loadu_epi64(
            tail_mask, group + static_cast<size_t>(j) * words_per_row + w);
        acc[j] = _mm512_add_epi64(
            acc[j], _mm512_popcnt_epi64(_mm512_xor_si512(q, d)));
      }
    }
    return RowSums8(acc);
  }

  const uint64_t* query;
  size_t words_per_row;
};

/// Calls emit(first_row, n, sums(group, n)) for each group of n rows (n = 8
/// except possibly the last; lanes at and past n are garbage).
template <typename Sums, typename Emit>
void ForEachGroup(const Sums& sums, const uint64_t* rows,
                  size_t words_per_row, int num_rows, const Emit& emit) {
  int r = 0;
  for (; r + 8 <= num_rows; r += 8) {
    emit(r, 8, sums(rows + static_cast<size_t>(r) * words_per_row, 8));
  }
  if (r < num_rows) {
    emit(r, num_rows - r,
         sums(rows + static_cast<size_t>(r) * words_per_row, num_rows - r));
  }
}

/// The one scan loop behind both entry points, in the layout the width
/// takes.
template <typename Emit>
void ScanGroups(const uint64_t* query, const uint64_t* rows,
                size_t words_per_row, int num_rows, const Emit& emit) {
  switch (words_per_row) {
    case 2:
      return ForEachGroup(PackedSums<2>(query), rows, 2, num_rows, emit);
    case 4:
      return ForEachGroup(PackedSums<4>(query), rows, 4, num_rows, emit);
    default:
      return ForEachGroup(WideSums{query, words_per_row}, rows, words_per_row,
                          num_rows, emit);
  }
}

class Avx512Kernel final : public ScanKernel {
 public:
  const char* name() const override { return "avx512"; }

  void HammingBlock(const uint64_t* query, const uint64_t* rows,
                    size_t words_per_row, int num_rows,
                    uint32_t* diffs) const override {
    ScanGroups(query, rows, words_per_row, num_rows,
               [diffs](int r, int n, __m512i sums) {
                 _mm512_mask_cvtepi64_storeu_epi32(diffs + r, LowLanes(n),
                                                   sums);
               });
  }

  int HammingWithin(const uint64_t* query, const uint64_t* rows,
                    size_t words_per_row, int num_rows, uint32_t max_distance,
                    int* hit_rows, uint32_t* hit_dists) const override {
    const __m512i bound = _mm512_set1_epi64(max_distance);
    int hits = 0;
    ScanGroups(query, rows, words_per_row, num_rows,
               [&](int r, int n, __m512i sums) {
                 __mmask8 pass =
                     _mm512_mask_cmple_epu64_mask(LowLanes(n), sums, bound);
                 // No hit, the common case once a selector is full.
                 if (pass == 0) return;
                 alignas(64) uint64_t dists[8];
                 _mm512_store_si512(dists, sums);
                 for (; pass != 0; pass &= static_cast<__mmask8>(pass - 1)) {
                   const int lane = std::countr_zero(pass);
                   hit_rows[hits] = r + lane;
                   hit_dists[hits] = static_cast<uint32_t>(dists[lane]);
                   ++hits;
                 }
               });
    return hits;
  }
};

}  // namespace

const ScanKernel* Avx512ScanKernelOrNull() {
  static const Avx512Kernel kernel;
  return &kernel;
}

}  // namespace gdim

#else  // compiler cannot target the AVX-512 subset the kernel needs

namespace gdim {

const ScanKernel* Avx512ScanKernelOrNull() { return nullptr; }

}  // namespace gdim

#endif
