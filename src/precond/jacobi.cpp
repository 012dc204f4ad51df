#include "precond/jacobi.hpp"

#include <cassert>

namespace tsbo::precond {

Jacobi::Jacobi(const sparse::DistCsr& a)
    : inv_diag_(static_cast<std::size_t>(a.n_local()), 1.0) {
  // Diagonal entry: global column row_begin+i maps to local column i.
  a.for_each_local_row([this](sparse::ord i, std::span<const sparse::ord> cols,
                              std::span<const double> vals) {
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == i) {
        if (vals[k] != 0.0) {
          inv_diag_[static_cast<std::size_t>(i)] = 1.0 / vals[k];
        }
        break;
      }
    }
  });
}

void Jacobi::apply(std::span<const double> x, std::span<double> y) const {
  assert(x.size() == inv_diag_.size() && y.size() == inv_diag_.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] * inv_diag_[i];
}

}  // namespace tsbo::precond
