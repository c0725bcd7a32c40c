#include "core/packed_bits.h"

#include <algorithm>
#include <vector>

namespace gdim {

PackedBitMatrix PackedBitMatrix::WithWidth(int num_bits) {
  GDIM_CHECK(num_bits >= 0);
  PackedBitMatrix m;
  m.num_bits_ = num_bits;
  m.words_per_row_ = (static_cast<size_t>(num_bits) + 63) / 64;
  return m;
}

PackedBitMatrix PackedBitMatrix::FromRows(
    const std::vector<std::vector<uint8_t>>& rows) {
  return FromRows(rows, rows.empty() ? 0 : static_cast<int>(rows[0].size()));
}

PackedBitMatrix PackedBitMatrix::FromRows(
    const std::vector<std::vector<uint8_t>>& rows, int num_bits) {
  PackedBitMatrix m = WithWidth(num_bits);
  m.num_rows_ = static_cast<int>(rows.size());
  m.words_.assign(static_cast<size_t>(m.num_rows_) * m.words_per_row_, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    GDIM_CHECK(rows[i].size() == static_cast<size_t>(m.num_bits_))
        << "ragged bit rows: row " << i << " has " << rows[i].size()
        << " bits, expected " << m.num_bits_;
    uint64_t* out = m.words_.data() + i * m.words_per_row_;
    for (size_t r = 0; r < rows[i].size(); ++r) {
      if (rows[i][r] != 0) out[r >> 6] |= uint64_t{1} << (r & 63);
    }
  }
  return m;
}

PackedBitMatrix PackedBitMatrix::FromWords(int num_rows, int num_bits,
                                           std::vector<uint64_t> words) {
  PackedBitMatrix m = WithWidth(num_bits);
  GDIM_CHECK(num_rows >= 0);
  GDIM_CHECK(words.size() ==
             static_cast<size_t>(num_rows) * m.words_per_row_)
      << "word block has " << words.size() << " words, expected "
      << static_cast<size_t>(num_rows) * m.words_per_row_;
  m.num_rows_ = num_rows;
  m.words_ = std::move(words);
  // Scan kernels popcount whole words, so stray padding bits would corrupt
  // every distance; clear them rather than trusting the producer.
  const int tail_bits = num_bits & 63;
  if (tail_bits != 0 && m.words_per_row_ > 0) {
    const uint64_t mask = (uint64_t{1} << tail_bits) - 1;
    for (size_t i = m.words_per_row_ - 1; i < m.words_.size();
         i += m.words_per_row_) {
      m.words_[i] &= mask;
    }
  }
  return m;
}

std::vector<uint64_t> PackedBitMatrix::PackBits(
    const std::vector<uint8_t>& bits) {
  std::vector<uint64_t> words((bits.size() + 63) / 64, 0);
  for (size_t r = 0; r < bits.size(); ++r) {
    if (bits[r] != 0) words[r >> 6] |= uint64_t{1} << (r & 63);
  }
  return words;
}

void PackedBitMatrix::Reserve(int rows) {
  GDIM_CHECK(rows >= 0);
  words_.reserve(static_cast<size_t>(rows) * words_per_row_);
}

int PackedBitMatrix::AppendRow(const std::vector<uint8_t>& bits) {
  GDIM_CHECK(bits.size() == static_cast<size_t>(num_bits_))
      << "appended row has " << bits.size() << " bits, expected " << num_bits_;
  words_.resize(words_.size() + words_per_row_, 0);
  uint64_t* out =
      words_.data() + static_cast<size_t>(num_rows_) * words_per_row_;
  for (size_t r = 0; r < bits.size(); ++r) {
    if (bits[r] != 0) out[r >> 6] |= uint64_t{1} << (r & 63);
  }
  return num_rows_++;
}

void PackedBitMatrix::PermuteRows(const std::vector<int>& order) {
  GDIM_CHECK(order.size() == static_cast<size_t>(num_rows_))
      << "row order has " << order.size() << " entries, expected "
      << num_rows_;
  const size_t w = words_per_row_;
  std::vector<bool> placed(order.size(), false);
  std::vector<uint64_t> held(w);
  for (size_t start = 0; start < order.size(); ++start) {
    if (placed[start]) continue;
    // Walk the cycle through `start`: each row pulls in its source row, and
    // start's own row waits aside until the cycle closes on it.
    std::copy_n(words_.data() + start * w, w, held.data());
    size_t slot = start;
    for (;;) {
      placed[slot] = true;
      const size_t from = static_cast<size_t>(order[slot]);
      if (from == start) {
        std::copy_n(held.data(), w, words_.data() + slot * w);
        break;
      }
      GDIM_CHECK(from < order.size() && !placed[from])
          << "row order is not a permutation";
      std::copy_n(words_.data() + from * w, w, words_.data() + slot * w);
      slot = from;
    }
  }
}

int PackedBitMatrix::AppendRowFrom(const PackedBitMatrix& src, int src_row) {
  GDIM_CHECK(src.num_bits_ == num_bits_)
      << "cannot append a " << src.num_bits_ << "-bit row to a " << num_bits_
      << "-bit matrix";
  GDIM_DCHECK(src_row >= 0 && src_row < src.num_rows_);
  // Resize before taking the source pointer so self-appends survive the
  // reallocation.
  words_.resize(words_.size() + words_per_row_);
  const uint64_t* from =
      src.words_.data() + static_cast<size_t>(src_row) * src.words_per_row_;
  std::copy(from, from + words_per_row_,
            words_.end() - static_cast<std::ptrdiff_t>(words_per_row_));
  return num_rows_++;
}

bool PackedBitMatrix::GetBit(int row_id, int bit) const {
  GDIM_DCHECK(bit >= 0 && bit < num_bits_);
  return (row(row_id)[bit >> 6] >> (bit & 63)) & 1;
}

std::vector<uint8_t> PackedBitMatrix::UnpackRow(int row_id) const {
  const uint64_t* words = row(row_id);
  std::vector<uint8_t> bits(static_cast<size_t>(num_bits_), 0);
  for (int r = 0; r < num_bits_; ++r) {
    bits[static_cast<size_t>(r)] =
        static_cast<uint8_t>((words[r >> 6] >> (r & 63)) & 1);
  }
  return bits;
}

int PackedBitMatrix::HammingDistance(const std::vector<uint64_t>& query,
                                     int row_id) const {
  GDIM_CHECK(query.size() == words_per_row_) << "query width mismatch";
  return static_cast<int>(
      HammingWords(query.data(), row(row_id), words_per_row_));
}

}  // namespace gdim
