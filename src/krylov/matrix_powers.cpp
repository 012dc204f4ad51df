#include "krylov/matrix_powers.hpp"

#include <cassert>

namespace tsbo::krylov {

void PrecOperator::apply(par::Communicator& comm, dense::ConstMatrixView x,
                         dense::MatrixView y, util::PhaseTimers* timers) const {
  if (m_ == nullptr) {
    a_.spmm(comm, x, y, timers);
    return;
  }
  const auto need =
      static_cast<std::size_t>(x.rows) * static_cast<std::size_t>(x.cols);
  if (tmp_.size() < need) tmp_.resize(need);
  const dense::MatrixView mx{tmp_.data(), x.rows, x.cols, x.rows};
  apply_minv(x, mx, timers);
  a_.spmm(comm, mx, y, timers);
}

void PrecOperator::apply_minv(dense::ConstMatrixView x, dense::MatrixView y,
                              util::PhaseTimers* timers) const {
  if (m_ == nullptr) {
    dense::copy(x, y);
    return;
  }
  const util::ScopedPhase t(timers, util::Phase::kPrecond);
  m_->apply_multi(static_cast<std::size_t>(x.rows),
                  static_cast<std::size_t>(x.cols), x.data,
                  static_cast<std::size_t>(x.ld), y.data,
                  static_cast<std::size_t>(y.ld));
}

void matrix_powers(par::Communicator& comm, const PrecOperator& op,
                   const KrylovBasis& basis, dense::MatrixView basis_cols,
                   index_t first_out, index_t s,
                   util::PhaseTimers* timers, index_t b) {
  assert(first_out >= 1 && b >= 1);
  assert((first_out + s) * b <= basis_cols.cols + b);
  const auto nloc = static_cast<std::size_t>(basis_cols.rows);

  for (index_t k = 0; k < s; ++k) {
    const index_t out_block = first_out + k;
    const index_t in_block = out_block - 1;
    const BasisStep& st = basis.step(in_block);

    dense::ConstMatrixView x = basis_cols.columns(in_block * b, b);
    dense::MatrixView v = basis_cols.columns(out_block * b, b);
    op.apply(comm, x, v, timers);

    if (st.theta != 0.0 || st.sigma != 0.0 || st.gamma != 1.0) {
      const double inv_gamma = 1.0 / st.gamma;
      for (index_t t = 0; t < b; ++t) {
        const double* xc = x.col(t);
        const double* prev =
            st.sigma != 0.0 ? basis_cols.col((in_block - 1) * b + t) : nullptr;
        double* vc = v.col(t);
        for (std::size_t i = 0; i < nloc; ++i) {
          double tv = vc[i] - st.theta * xc[i];
          if (prev != nullptr) tv -= st.sigma * prev[i];
          vc[i] = tv * inv_gamma;
        }
      }
    }
  }
}

}  // namespace tsbo::krylov
