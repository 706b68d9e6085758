// Blocked syrk / gemmt: partition C into db x db diagonal blocks; every
// off-diagonal panel update is a plain gemm (level-3 speed), and each
// diagonal block is computed by gemm into a small scratch tile whose
// referenced triangle is then merged into C. Only the `uplo` triangle of C
// is ever read or written. Templated over the scalar (float/double
// instantiations below).
#include <cmath>
#include <vector>

#include "blas/blas.hpp"
#include "blas/tuning.hpp"
#include "support/check.hpp"

namespace conflux::xblas {

namespace {

// View of the ib rows of op(A) starting at row i0 (k columns deep).
template <typename T>
ConstMatrixView<T> op_rows(Trans trans, ConstMatrixView<T> a, index_t i0,
                           index_t ib, index_t k) {
  return (trans == Trans::None) ? a.block(i0, 0, ib, k) : a.block(0, i0, k, ib);
}

// View of the jb columns of op(B) starting at column j0 (k rows deep).
template <typename T>
ConstMatrixView<T> op_cols(Trans trans, ConstMatrixView<T> b, index_t j0,
                           index_t jb, index_t k) {
  return (trans == Trans::None) ? b.block(0, j0, k, jb) : b.block(j0, 0, jb, k);
}

// Per-scalar thread-local diagonal-block scratch (at most db x db), so
// per-step Schur updates are allocation-free in steady state; concrete
// thread_locals for the LeakSanitizer reason documented in gemm.cpp.
thread_local std::vector<double> tls_diag_d;
thread_local std::vector<float> tls_diag_f;
template <typename T>
std::vector<T>& tls_diag();
template <>
std::vector<double>& tls_diag<double>() {
  return tls_diag_d;
}
template <>
std::vector<float>& tls_diag<float>() {
  return tls_diag_f;
}

}  // namespace

template <typename T>
void gemmt(UpLo uplo, Trans transa, Trans transb, std::type_identity_t<T> alpha,
           ConstMatrixView<T> a, ConstMatrixView<T> b,
           std::type_identity_t<T> beta, MatrixView<T> c) {
  const index_t n = c.rows();
  expects(c.cols() == n, "gemmt: C must be square");
  const index_t k = (transa == Trans::None) ? a.cols() : a.rows();
  expects(((transa == Trans::None) ? a.rows() : a.cols()) == n, "gemmt: A/C shape");
  expects(((transb == Trans::None) ? b.rows() : b.cols()) == k, "gemmt: inner dim");
  expects(((transb == Trans::None) ? b.cols() : b.rows()) == n, "gemmt: B/C shape");
  if (n == 0) return;

  const index_t nb = std::max<index_t>(1, tuning().db);
  const index_t db = std::min(nb, n);
  std::vector<T>& diag_buf = tls_diag<T>();
  if (static_cast<index_t>(diag_buf.size()) < db * db)
    diag_buf.resize(static_cast<std::size_t>(db * db));
  MatrixView<T> diag(diag_buf.data(), db, db, db);
  for (index_t i0 = 0; i0 < n; i0 += nb) {
    const index_t ib = std::min(nb, n - i0);
    const ConstMatrixView<T> arows = op_rows<T>(transa, a, i0, ib, k);
    // Off-diagonal panel of this block row: full rectangle, plain gemm.
    if (uplo == UpLo::Lower) {
      if (i0 > 0) {
        gemm<T>(transa, transb, alpha, arows, op_cols<T>(transb, b, 0, i0, k),
                beta, c.block(i0, 0, ib, i0));
      }
    } else {
      const index_t j1 = i0 + ib;
      if (j1 < n) {
        gemm<T>(transa, transb, alpha, arows,
                op_cols<T>(transb, b, j1, n - j1, k), beta,
                c.block(i0, j1, ib, n - j1));
      }
    }
    // Diagonal block: gemm into scratch, merge the referenced triangle.
    MatrixView<T> d = diag.block(0, 0, ib, ib);
    gemm<T>(transa, transb, alpha, arows, op_cols<T>(transb, b, i0, ib, k),
            T{}, d);
    MatrixView<T> cd = c.block(i0, i0, ib, ib);
    for (index_t i = 0; i < ib; ++i) {
      const index_t jlo = (uplo == UpLo::Lower) ? 0 : i;
      const index_t jhi = (uplo == UpLo::Lower) ? i : ib - 1;
      if (beta == T{}) {
        for (index_t j = jlo; j <= jhi; ++j) cd(i, j) = d(i, j);
      } else {
        for (index_t j = jlo; j <= jhi; ++j)
          cd(i, j) = beta * cd(i, j) + d(i, j);
      }
    }
  }
}

template <typename T>
void syrk(UpLo uplo, Trans trans, std::type_identity_t<T> alpha,
          ConstMatrixView<T> a, std::type_identity_t<T> beta, MatrixView<T> c) {
  const index_t n = c.rows();
  expects(c.cols() == n, "syrk: C must be square");
  expects(((trans == Trans::None) ? a.rows() : a.cols()) == n, "syrk: A/C shape");
  // C = alpha*op(A)*op(A)^T + beta*C is gemmt with B = A and the opposite
  // transposition on the B side.
  const Trans transb =
      (trans == Trans::None) ? Trans::Transpose : Trans::None;
  gemmt<T>(uplo, trans, transb, alpha, a, a, beta, c);
}

template <typename T>
double norm_frobenius(ConstMatrixView<T> a) {
  double sum = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      const double v = static_cast<double>(a(i, j));
      sum += v * v;
    }
  }
  return std::sqrt(sum);
}

template <typename T>
double norm_max(ConstMatrixView<T> a) {
  double best = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      const double v = std::abs(static_cast<double>(a(i, j)));
      if (v > best) best = v;
    }
  }
  return best;
}

template void gemmt<float>(UpLo, Trans, Trans, float, ConstViewF, ConstViewF,
                           float, ViewF);
template void gemmt<double>(UpLo, Trans, Trans, double, ConstViewD, ConstViewD,
                            double, ViewD);
template void syrk<float>(UpLo, Trans, float, ConstViewF, float, ViewF);
template void syrk<double>(UpLo, Trans, double, ConstViewD, double, ViewD);
template double norm_frobenius<float>(ConstViewF);
template double norm_frobenius<double>(ConstViewD);
template double norm_max<float>(ConstViewF);
template double norm_max<double>(ConstViewD);

}  // namespace conflux::xblas
