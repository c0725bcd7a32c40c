// AVX2 scan kernel. This translation unit is compiled with -mavx2 (see
// CMakeLists.txt); nothing in it is referenced unless runtime CPUID says the
// host can execute it, so the rest of the binary stays runnable on older
// machines. When the compiler cannot target AVX2 at all, the factory
// degrades to nullptr and dispatch never offers the kernel.
//
// Rows are processed in groups of four so the per-row horizontal reduction
// collapses into one unpack/permute tree — four lane-sum vectors in, one
// vector of four row totals out — instead of four sequential extract+add
// chains, which at serving widths cost as much as the scans themselves.
#include "core/kernels/scan_kernel.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>

namespace gdim {

namespace {

/// Positional popcount of the four 64-bit lanes (Muła's nibble-lookup
/// scheme): per-byte counts via two PSHUFB table lookups, then horizontal
/// sums into the 64-bit lanes with PSADBW.
inline __m256i PopcountEpi64(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts =
      _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                      _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

inline uint32_t HorizontalSumEpi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<uint32_t>(
      _mm_cvtsi128_si64(sum) + _mm_cvtsi128_si64(_mm_unpackhi_epi64(sum, sum)));
}

/// Reduces four per-row lane-sum vectors to the four row totals, as u32 in
/// the low lanes. Stage 1 pairs rows within 128-bit lanes (unpack + add),
/// stage 2 pairs the lanes across vectors (permute + add); dword i of the
/// result is the full lane sum of s[i].
inline __m128i RowSums4(const __m256i s[4]) {
  const __m256i a = _mm256_add_epi64(_mm256_unpacklo_epi64(s[0], s[1]),
                                     _mm256_unpackhi_epi64(s[0], s[1]));
  const __m256i b = _mm256_add_epi64(_mm256_unpacklo_epi64(s[2], s[3]),
                                     _mm256_unpackhi_epi64(s[2], s[3]));
  const __m256i sums =
      _mm256_add_epi64(_mm256_permute2x128_si256(a, b, 0x20),
                       _mm256_permute2x128_si256(a, b, 0x31));
  const __m256i narrow = _mm256_permutevar8x32_epi32(
      sums, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
  return _mm256_castsi256_si128(narrow);
}

class Avx2Kernel final : public ScanKernel {
 public:
  const char* name() const override { return "avx2"; }

  void HammingBlock(const uint64_t* query, const uint64_t* rows,
                    size_t words_per_row, int num_rows,
                    uint32_t* diffs) const override {
    const size_t vec_words = words_per_row & ~size_t{3};
    int r = 0;
    for (; r + 4 <= num_rows; r += 4) {
      const uint64_t* row = rows + static_cast<size_t>(r) * words_per_row;
      __m256i acc[4];
      for (int j = 0; j < 4; ++j) acc[j] = _mm256_setzero_si256();
      size_t w = 0;
      for (; w < vec_words; w += 4) {
        const __m256i q =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(query + w));
        for (int j = 0; j < 4; ++j) {
          const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
              row + static_cast<size_t>(j) * words_per_row + w));
          acc[j] = _mm256_add_epi64(acc[j],
                                    PopcountEpi64(_mm256_xor_si256(q, d)));
        }
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(diffs + r), RowSums4(acc));
      for (; w < words_per_row; ++w) {
        for (int j = 0; j < 4; ++j) {
          diffs[r + j] += static_cast<uint32_t>(std::popcount(
              query[w] ^ row[static_cast<size_t>(j) * words_per_row + w]));
        }
      }
    }
    // Row remainder (< 4 rows): per-row horizontal reduce.
    const uint64_t* row = rows + static_cast<size_t>(r) * words_per_row;
    for (; r < num_rows; ++r, row += words_per_row) {
      __m256i acc = _mm256_setzero_si256();
      size_t w = 0;
      for (; w < vec_words; w += 4) {
        const __m256i q =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(query + w));
        const __m256i d =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + w));
        acc = _mm256_add_epi64(acc, PopcountEpi64(_mm256_xor_si256(q, d)));
      }
      uint32_t diff = HorizontalSumEpi64(acc);
      for (; w < words_per_row; ++w) {
        diff += static_cast<uint32_t>(std::popcount(query[w] ^ row[w]));
      }
      diffs[r] = diff;
    }
  }
};

}  // namespace

const ScanKernel* Avx2ScanKernelOrNull() {
  static const Avx2Kernel kernel;
  return &kernel;
}

}  // namespace gdim

#else  // !defined(__AVX2__)

namespace gdim {

const ScanKernel* Avx2ScanKernelOrNull() { return nullptr; }

}  // namespace gdim

#endif
