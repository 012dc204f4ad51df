#include "krylov/matrix_powers.hpp"

#include <algorithm>
#include <cassert>

namespace tsbo::krylov {

void PrecOperator::apply(par::Communicator& comm, std::span<const double> x,
                         std::span<double> y, util::PhaseTimers* timers) const {
  if (m_ != nullptr) {
    if (timers) timers->start("precond");
    m_->apply(x, tmp_);
    if (timers) timers->stop("precond");
    a_.spmv(comm, tmp_, y, timers);
  } else {
    a_.spmv(comm, x, y, timers);
  }
}

void PrecOperator::apply_block(par::Communicator& comm,
                               dense::ConstMatrixView x, dense::MatrixView y,
                               util::PhaseTimers* timers) const {
  const auto nloc = static_cast<std::size_t>(x.rows);
  if (x.cols == 1) {
    apply(comm, std::span<const double>(x.col(0), nloc),
          std::span<double>(y.col(0), nloc), timers);
    return;
  }
  if (m_ != nullptr) {
    tmp_multi_.resize(nloc * static_cast<std::size_t>(x.cols));
    dense::MatrixView mx{tmp_multi_.data(), x.rows, x.cols, x.rows};
    if (timers) timers->start("precond");
    m_->apply_multi(nloc, static_cast<std::size_t>(x.cols), x.data,
                    static_cast<std::size_t>(x.ld), mx.data,
                    static_cast<std::size_t>(mx.ld));
    if (timers) timers->stop("precond");
    a_.spmm(comm, mx, y, timers);
  } else {
    a_.spmm(comm, x, y, timers);
  }
}

void PrecOperator::apply_minv(std::span<const double> x, std::span<double> y,
                              util::PhaseTimers* timers) const {
  if (m_ != nullptr) {
    if (timers) timers->start("precond");
    m_->apply(x, y);
    if (timers) timers->stop("precond");
  } else {
    std::copy(x.begin(), x.end(), y.begin());
  }
}

void PrecOperator::apply_minv_multi(dense::ConstMatrixView x,
                                    dense::MatrixView y,
                                    util::PhaseTimers* timers) const {
  const auto nloc = static_cast<std::size_t>(x.rows);
  if (x.cols == 1) {
    apply_minv(std::span<const double>(x.col(0), nloc),
               std::span<double>(y.col(0), nloc), timers);
    return;
  }
  if (m_ != nullptr) {
    if (timers) timers->start("precond");
    m_->apply_multi(nloc, static_cast<std::size_t>(x.cols), x.data,
                    static_cast<std::size_t>(x.ld), y.data,
                    static_cast<std::size_t>(y.ld));
    if (timers) timers->stop("precond");
  } else {
    for (index_t t = 0; t < x.cols; ++t) {
      std::copy(x.col(t), x.col(t) + nloc, y.col(t));
    }
  }
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
    op.apply_block(comm, x, v, timers);

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
