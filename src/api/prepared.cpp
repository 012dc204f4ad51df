#include "api/prepared.hpp"

#include "precond/chebyshev.hpp"
#include "precond/gauss_seidel.hpp"

#include <algorithm>

namespace tsbo::api {

std::size_t PreparedPiece::bytes() const {
  std::size_t b = dist.footprint_bytes() + x.capacity() * sizeof(double);
  if (multicolor) b += multicolor->bytes();
  if (chebyshev) b += chebyshev->bytes();
  return b;
}

PreparedOperator::PreparedOperator(const sparse::CsrMatrix& a, int ranks) {
  const sparse::RowPartition part(a.rows, ranks);
  pieces_.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) pieces_.emplace_back(a, part, r);
}

bool PreparedOperator::setups_reused() const {
  return !pieces_.empty() &&
         std::all_of(pieces_.begin(), pieces_.end(),
                     [](const PreparedPiece& p) { return p.setup_reused; });
}

std::size_t PreparedOperator::bytes() const {
  std::size_t b = 0;
  for (const PreparedPiece& p : pieces_) b += p.bytes();
  return b;
}

}  // namespace tsbo::api
