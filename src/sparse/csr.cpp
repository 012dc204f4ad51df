#include "sparse/csr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace tsbo::sparse {

std::uint64_t CsrMatrix::checksum() const {
  // FNV-1a, folding the raw bit patterns (not numeric values): a
  // flipped exponent bit changes the sum even where the numeric
  // difference would cancel, and -0.0 vs 0.0 are distinct.
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  const auto fold = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= kPrime;
    }
  };
  fold(&rows, sizeof(rows));
  fold(&cols, sizeof(cols));
  fold(row_ptr.data(), row_ptr.size() * sizeof(offset));
  fold(col_idx.data(), col_idx.size() * sizeof(ord));
  fold(values.data(), values.size() * sizeof(double));
  return h;
}

double CsrMatrix::at(ord i, ord j) const {
  assert(i >= 0 && i < rows);
  const auto b = col_idx.begin() + row_ptr[i];
  const auto e = col_idx.begin() + row_ptr[i + 1];
  const auto it = std::lower_bound(b, e, j);
  if (it == e || *it != j) return 0.0;
  return values[static_cast<std::size_t>(it - col_idx.begin())];
}

CsrMatrix csr_from_triplets(ord rows, ord cols,
                            std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      throw std::out_of_range("csr_from_triplets: triplet out of range");
    }
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.assign(static_cast<std::size_t>(rows) + 1, 0);
  m.col_idx.reserve(triplets.size());
  m.values.reserve(triplets.size());

  std::size_t i = 0;
  while (i < triplets.size()) {
    const ord r = triplets[i].row;
    const ord c = triplets[i].col;
    double v = 0.0;
    while (i < triplets.size() && triplets[i].row == r && triplets[i].col == c) {
      v += triplets[i].value;
      ++i;
    }
    m.col_idx.push_back(c);
    m.values.push_back(v);
    m.row_ptr[static_cast<std::size_t>(r) + 1] =
        static_cast<offset>(m.col_idx.size());
  }
  // Fill gaps for empty rows.
  for (std::size_t r = 1; r <= static_cast<std::size_t>(rows); ++r) {
    m.row_ptr[r] = std::max(m.row_ptr[r], m.row_ptr[r - 1]);
  }
  return m;
}

CsrMatrix transpose(const CsrMatrix& a) {
  CsrMatrix t;
  t.rows = a.cols;
  t.cols = a.rows;
  t.row_ptr.assign(static_cast<std::size_t>(a.cols) + 1, 0);
  t.col_idx.resize(static_cast<std::size_t>(a.nnz()));
  t.values.resize(static_cast<std::size_t>(a.nnz()));

  for (offset k = 0; k < a.nnz(); ++k) {
    t.row_ptr[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(k)]) + 1] += 1;
  }
  for (std::size_t r = 1; r <= static_cast<std::size_t>(a.cols); ++r) {
    t.row_ptr[r] += t.row_ptr[r - 1];
  }
  std::vector<offset> next(t.row_ptr.begin(), t.row_ptr.end() - 1);
  for (ord i = 0; i < a.rows; ++i) {
    for (offset k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const ord j = a.col_idx[static_cast<std::size_t>(k)];
      const offset pos = next[static_cast<std::size_t>(j)]++;
      t.col_idx[static_cast<std::size_t>(pos)] = i;
      t.values[static_cast<std::size_t>(pos)] = a.values[static_cast<std::size_t>(k)];
    }
  }
  return t;
}

bool approx_equal(const CsrMatrix& a, const CsrMatrix& b, double tol) {
  if (a.rows != b.rows || a.cols != b.cols) return false;
  if (a.row_ptr != b.row_ptr || a.col_idx != b.col_idx) return false;
  for (std::size_t k = 0; k < a.values.size(); ++k) {
    if (std::abs(a.values[k] - b.values[k]) > tol) return false;
  }
  return true;
}

CsrMatrix extract_rows(const CsrMatrix& a, ord begin, ord end) {
  assert(begin >= 0 && begin <= end && end <= a.rows);
  CsrMatrix m;
  m.rows = end - begin;
  m.cols = a.cols;
  m.row_ptr.assign(static_cast<std::size_t>(m.rows) + 1, 0);
  const offset k0 = a.row_ptr[begin];
  const offset k1 = a.row_ptr[end];
  m.col_idx.assign(a.col_idx.begin() + k0, a.col_idx.begin() + k1);
  m.values.assign(a.values.begin() + k0, a.values.begin() + k1);
  for (ord i = 0; i < m.rows; ++i) {
    m.row_ptr[static_cast<std::size_t>(i) + 1] = a.row_ptr[begin + i + 1] - k0;
  }
  return m;
}

}  // namespace tsbo::sparse
