#pragma once
// Compressed sparse row matrices.
//
// The library's sparse substrate: CSR storage, a COO assembly path for
// generators/IO, and structural helpers.  Row ids are 64-bit capable
// via std::int64_t row_ptr; column ids are 32-bit (the paper's largest
// problem, n = 4e6, fits comfortably).

#include "util/aligned.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace tsbo::sparse {

using ord = std::int32_t;    // row/column ordinal
using offset = std::int64_t; // nnz offset

/// One COO entry used during assembly.
struct Triplet {
  ord row = 0;
  ord col = 0;
  double value = 0.0;
};

/// CSR sparse matrix.  `rows` counts the stored (possibly rank-local)
/// rows; `cols` is the global column count.  Column indices within each
/// row are strictly increasing.
///
/// The arrays are 64-byte aligned for the SIMD SpMV path; col_idx and
/// values additionally skip the serial zero-fill on resize (their
/// producers — the threaded generator builder and transpose — write
/// every element, so the writing threads are the first touch).
struct CsrMatrix {
  ord rows = 0;
  ord cols = 0;
  util::aligned_vector<offset> row_ptr;        // size rows + 1
  util::aligned_uninit_vector<ord> col_idx;    // size nnz
  util::aligned_uninit_vector<double> values;  // size nnz

  [[nodiscard]] offset nnz() const {
    return row_ptr.empty() ? 0 : row_ptr.back();
  }
  [[nodiscard]] double nnz_per_row() const {
    return rows == 0 ? 0.0 : static_cast<double>(nnz()) / rows;
  }

  /// Entry lookup (binary search within the row); 0 when not stored.
  [[nodiscard]] double at(ord i, ord j) const;

  /// Heap bytes held by the three CSR arrays (capacity, not size) —
  /// the operator cache budgets entries with this.
  [[nodiscard]] std::size_t storage_bytes() const {
    return row_ptr.capacity() * sizeof(offset) +
           col_idx.capacity() * sizeof(ord) +
           values.capacity() * sizeof(double);
  }

  /// Deterministic FNV-1a fold over the dimensions, structure, and
  /// value bits.  The operator cache stores it at insert and
  /// re-validates after a corrupted-verdict solve: a mutated cached
  /// matrix (soft error, stray write) is detected and the entry
  /// rebuilt instead of poisoning every future job that hits it.
  [[nodiscard]] std::uint64_t checksum() const;
};

/// Builds CSR from triplets; duplicate (row, col) entries are summed.
/// Triplets may arrive in any order.
CsrMatrix csr_from_triplets(ord rows, ord cols, std::vector<Triplet> triplets);

/// Explicit transpose.
CsrMatrix transpose(const CsrMatrix& a);

/// Structural + numerical equality within tolerance (tests).
bool approx_equal(const CsrMatrix& a, const CsrMatrix& b, double tol);

/// Extracts rows [begin, end) keeping global column indices.
CsrMatrix extract_rows(const CsrMatrix& a, ord begin, ord end);

}  // namespace tsbo::sparse
