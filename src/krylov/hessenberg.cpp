#include "krylov/hessenberg.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace tsbo::krylov {

void assemble_hessenberg(dense::ConstMatrixView r, dense::ConstMatrixView l,
                         const KrylovBasis& basis, index_t s, index_t c0,
                         index_t c1, dense::MatrixView h, index_t b) {
  assert(b >= 1);
  assert(c0 >= 0 && c0 <= c1 && c1 <= h.cols);
  assert(r.rows >= c1 + b && l.rows >= c1 + b);

  std::vector<double> rhat(static_cast<std::size_t>(c1 + b));
  for (index_t k = c0; k < c1; ++k) {
    const index_t kb = k / b;  // block step index
    const BasisStep& st = basis.step(kb);

    // Rhat(:, k) = gamma R(:, k+b) + theta L(:, k) + sigma rep(v_{k-b}),
    // nonzero in rows 0..k+b.
    for (index_t i = 0; i <= k + b; ++i) {
      double v = st.gamma * r(i, k + b);
      if (st.theta != 0.0) v += st.theta * l(i, k);
      if (st.sigma != 0.0 && kb >= 1) {
        const bool prev_is_start = ((kb - 1) % s) == 0;
        v += st.sigma * (prev_is_start ? l(i, k - b) : r(i, k - b));
      }
      rhat[static_cast<std::size_t>(i)] = v;
    }

    // Solve H(:, k) L(k, k) = Rhat(:, k) - sum_{j<k} H(:, j) L(j, k).
    for (index_t j = 0; j < k; ++j) {
      const double ljk = l(j, k);
      if (ljk == 0.0) continue;
      for (index_t i = 0; i <= j + b; ++i) {
        rhat[static_cast<std::size_t>(i)] -= h(i, j) * ljk;
      }
    }
    const double lkk = l(k, k);
    if (lkk == 0.0 || !std::isfinite(lkk)) {
      throw std::runtime_error(
          "assemble_hessenberg: singular basis representation (L diagonal)");
    }
    const double inv = 1.0 / lkk;
    for (index_t i = 0; i <= k + b; ++i) {
      h(i, k) = rhat[static_cast<std::size_t>(i)] * inv;
    }
    for (index_t i = k + b + 1; i < h.rows; ++i) h(i, k) = 0.0;
  }
}

}  // namespace tsbo::krylov
