// Blocked triangular solve: the triangle is processed in db x db diagonal
// blocks. Each diagonal block is solved by a register-tiled substitution
// kernel (O(db^2 n) work), and the remaining right-hand-side panel is
// updated with a rank-db gemm — so asymptotically all trsm flops run at
// gemm speed. Only the stored triangle of T is ever referenced. Templated
// over the scalar (instantiated for float and double below); the blocked
// structure is precision-agnostic, the panel gemms inherit the per-scalar
// register tile.
#include <algorithm>
#include <cstring>
#include <vector>

#include "blas/blas.hpp"
#include "blas/tuning.hpp"
#include "support/check.hpp"

namespace conflux::xblas {

namespace {

// ---- diagonal-block kernels (register-tiled substitution) ---------------
//
// Bitwise contract: every solved element runs its own chain
//   acc = b;  acc -= x_q * coef(q)  for each already-solved q, in a fixed
//   order;  acc *= 1 / t(d, d)  (NonUnit only)
// where x_q are solved elements of the same RHS column (Left) or row
// (Right). Different columns (Left) / rows (Right) never mix, so the
// kernels vectorize ACROSS them — vector lanes and several accumulators
// over independent elements — and only change who runs a chain, never its
// operations or their order. The orders are those of the textbook
// unblocked loops (tests/blas_test.cpp keeps them as the bitwise oracle):
//   Left  forward  (LLN, LUT): row i subtracts rows 0..i-1, ascending;
//   Left  backward (LUN, LLT): row i subtracts rows i+1..m-1, ascending —
//         nearest first, so row i cannot start before row i+1 is final
//         and rows are not register-blocked (columns still are);
//   Right forward  (RUN, RLT): column j subtracts columns 0..j-1, ascending;
//   Right backward (RLN, RUT): column j subtracts columns n-1..j+1,
//         descending.
// Every forward/backward chain runs far-to-near, so R rows of the solve
// share one load of each already-solved row (Goto & van de Geijn's
// register blocking, TOMS 2008), then finish their small R x R triangle
// in registers. Fusion of `acc -= x * c` follows the build exactly as the
// unblocked loops' `b -= c * x` did (same expression shape, same TU flags).

// The solve runs on a "panel": d rows (the triangle's dimension), row k at
// x + k * ld, each W vectors of L independent lanes wide. Left solves use
// B itself as the panel (lanes = RHS columns); Right solves pack a tile of
// B rows transposed into scratch (lanes = RHS rows).
enum class Chain { kForward, kBackward, kBackwardNearFirst };

#if defined(__AVX512F__)
constexpr int kVecBytes = 64;
#else
constexpr int kVecBytes = 32;
#endif

// GCC vector extension: one register of L scalars; arithmetic with a scalar
// operand broadcasts it. The lowering follows the build target.
template <typename T, int L>
struct Lanes {
  typedef T type __attribute__((vector_size(L * sizeof(T))));
};
template <typename T, int L>
using Vec = typename Lanes<T, L>::type;

template <typename T>
constexpr int kLanes = kVecBytes / static_cast<int>(sizeof(T));
// Vectors per panel row, and solved rows per register block: R x W
// accumulators plus W operand vectors fit the register file. Near-first
// chains solve one row at a time, so they take a wider strip to keep more
// independent accumulator chains in flight.
constexpr int kW = 2;
constexpr int kR = 4;
constexpr int kWNearFirst = 4;

template <typename T, int L>
inline Vec<T, L> vload(const T* p) {
  Vec<T, L> v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
template <typename T, int L>
inline void vstore(T* p, const Vec<T, L>& v) {
  std::memcpy(p, &v, sizeof(v));
}

// coef(k, q): the triangle entry row k's chain multiplies solved row q by —
// t(k, q), or t(q, k) when the panel reads the triangle transposed.
template <typename T, bool Transposed>
struct Coef {
  const T* t;
  index_t ld;
  T operator()(index_t k, index_t q) const {
    return Transposed ? t[q * ld + k] : t[k * ld + q];
  }
};

// Solve panel rows k0..k0+R-1, all rows outside the block that their chains
// read being final already.
template <typename T, int L, int W, int R, Chain C, typename CoefT>
inline void solve_rows(index_t d, index_t k0, const CoefT& coef, const T* inv,
                       T* x, index_t ld) {
  static_assert(C != Chain::kBackwardNearFirst || R == 1);
  using V = Vec<T, L>;
  V acc[R][W];
  for (int r = 0; r < R; ++r) {
    for (int w = 0; w < W; ++w) acc[r][w] = vload<T, L>(x + (k0 + r) * ld + w * L);
  }
  const auto apply = [&](index_t q) {
    V xq[W];
    for (int w = 0; w < W; ++w) xq[w] = vload<T, L>(x + q * ld + w * L);
    for (int r = 0; r < R; ++r) {
      const T c = coef(k0 + r, q);
      for (int w = 0; w < W; ++w) acc[r][w] -= xq[w] * c;
    }
  };
  const auto finish = [&](int r) {
    if (inv != nullptr) {
      for (int w = 0; w < W; ++w) acc[r][w] *= inv[k0 + r];
    }
  };
  if constexpr (C == Chain::kForward) {
    for (index_t q = 0; q < k0; ++q) apply(q);
    for (int r = 0; r < R; ++r) {
      for (int s = 0; s < r; ++s) {
        const T c = coef(k0 + r, k0 + s);
        for (int w = 0; w < W; ++w) acc[r][w] -= acc[s][w] * c;
      }
      finish(r);
    }
  } else if constexpr (C == Chain::kBackward) {
    for (index_t q = d - 1; q >= k0 + R; --q) apply(q);
    for (int r = R - 1; r >= 0; --r) {
      for (int s = R - 1; s > r; --s) {
        const T c = coef(k0 + r, k0 + s);
        for (int w = 0; w < W; ++w) acc[r][w] -= acc[s][w] * c;
      }
      finish(r);
    }
  } else {
    for (index_t q = k0 + 1; q < d; ++q) apply(q);
    finish(0);
  }
  for (int r = 0; r < R; ++r) {
    for (int w = 0; w < W; ++w) vstore<T, L>(x + (k0 + r) * ld + w * L, acc[r][w]);
  }
}

template <typename T, int W, Chain C, typename CoefT>
void solve_panel(index_t d, const CoefT& coef, const T* inv, T* x, index_t ld) {
  constexpr int L = kLanes<T>;
  constexpr int R = (C == Chain::kBackwardNearFirst) ? 1 : kR;
  if constexpr (C == Chain::kForward) {
    index_t k0 = 0;
    for (; k0 + R <= d; k0 += R) solve_rows<T, L, W, R, C>(d, k0, coef, inv, x, ld);
    for (; k0 < d; ++k0) solve_rows<T, L, W, 1, C>(d, k0, coef, inv, x, ld);
  } else {
    index_t k1 = d;
    for (; k1 >= R; k1 -= R) solve_rows<T, L, W, R, C>(d, k1 - R, coef, inv, x, ld);
    for (; k1 > 0; --k1) solve_rows<T, L, W, 1, C>(d, k1 - 1, coef, inv, x, ld);
  }
}

// Per-scalar thread-local scratch (inverse diagonal, packed tiles),
// persisting across calls so per-step panel solves are allocation-free in
// steady state (the pool's workers and the master each get their own
// buffer). Concrete thread_locals behind a traits accessor for the same
// LeakSanitizer reason as gemm's pack buffers (see gemm.cpp).
thread_local std::vector<double> tls_scratch_d;
thread_local std::vector<float> tls_scratch_f;
template <typename T>
std::vector<T>& tls_scratch();
template <>
std::vector<double>& tls_scratch<double>() {
  return tls_scratch_d;
}
template <>
std::vector<float>& tls_scratch<float>() {
  return tls_scratch_f;
}

// Solve a panel nvec <= W vectors wide (the padded Left tail).
template <typename T, int W, Chain C, typename CoefT>
void solve_narrow(index_t nvec, index_t d, const CoefT& coef, const T* inv,
                  T* x, index_t ld) {
  if (nvec == W) {
    solve_panel<T, W, C>(d, coef, inv, x, ld);
  } else if constexpr (W > 1) {
    solve_narrow<T, W - 1, C>(nvec, d, coef, inv, x, ld);
  }
}

// Left: the panel is B (lanes = columns). Full strips solve in place; the
// ragged column tail is copied into a zero-padded scratch panel of whole
// vectors, solved there in one pass, and copied back (padding lanes compute
// throwaway values).
template <typename T, Chain C, bool Transposed>
void left_solve(ConstMatrixView<T> t, const T* inv, MatrixView<T> b, T* pad) {
  constexpr index_t L = kLanes<T>;
  constexpr int W = (C == Chain::kBackwardNearFirst) ? kWNearFirst : kW;
  constexpr index_t strip = W * L;
  const Coef<T, Transposed> coef{t.data(), t.ld()};
  const index_t m = b.rows();
  const index_t n = b.cols();
  index_t c0 = 0;
  for (; c0 + strip <= n; c0 += strip) {
    solve_panel<T, W, C>(m, coef, inv, b.data() + c0, b.ld());
  }
  const index_t tail = n - c0;
  if (tail == 0) return;
  const index_t width = (tail + L - 1) / L * L;
  for (index_t i = 0; i < m; ++i) {
    T* dst = pad + i * width;
    std::copy_n(b.row(i) + c0, tail, dst);
    std::fill(dst + tail, dst + width, T{0});
  }
  solve_narrow<T, W, C>(width / L, m, coef, inv, pad, width);
  for (index_t i = 0; i < m; ++i) std::copy_n(pad + i * width, tail, b.row(i) + c0);
}

// Right: rows of B are independent, so tiles of kW * L rows are packed
// transposed (column j of the tile becomes panel row j), solved, and
// unpacked; the last tile is zero-padded.
template <typename T, Chain C, bool Transposed>
void right_solve(ConstMatrixView<T> t, const T* inv, MatrixView<T> b, T* pack) {
  constexpr index_t lanes = kW * kLanes<T>;
  const Coef<T, Transposed> coef{t.data(), t.ld()};
  const index_t m = b.rows();
  const index_t n = b.cols();
  for (index_t i0 = 0; i0 < m; i0 += lanes) {
    const index_t rows = std::min(lanes, m - i0);
    for (index_t r = 0; r < rows; ++r) {
      const T* src = b.row(i0 + r);
      for (index_t j = 0; j < n; ++j) pack[j * lanes + r] = src[j];
    }
    for (index_t j = 0; j < n; ++j) {
      std::fill(pack + j * lanes + rows, pack + (j + 1) * lanes, T{0});
    }
    // Start the next tile's rows on their way while this one computes:
    // panels with a power-of-two leading dimension stream from memory.
    for (index_t r = i0 + lanes; r < std::min(m, i0 + 2 * lanes); ++r) {
      for (index_t j = 0; j < n; j += 64 / static_cast<index_t>(sizeof(T))) {
        __builtin_prefetch(b.row(r) + j, 1);
      }
    }
    solve_panel<T, kW, C>(n, coef, inv, pack, lanes);
    for (index_t r = 0; r < rows; ++r) {
      T* dst = b.row(i0 + r);
      for (index_t j = 0; j < n; ++j) dst[j] = pack[j * lanes + r];
    }
  }
}

template <typename T>
void small_solve(Side side, UpLo uplo, Trans trans, Diag diag,
                 ConstMatrixView<T> t, MatrixView<T> b) {
  const index_t dim = t.rows();
  const bool tr = trans == Trans::Transpose;
  // Scratch: dim inverse diagonals, then one padded panel — a Left tail
  // (dim rows x <= kWNearFirst vectors) or a Right tile (dim x kW vectors).
  std::vector<T>& scratch = tls_scratch<T>();
  scratch.resize(static_cast<std::size_t>(
      dim * (1 + std::max(kW, kWNearFirst) * kLanes<T>)));
  const T* inv = nullptr;
  if (diag == Diag::NonUnit) {
    for (index_t j = 0; j < dim; ++j) {
      scratch[static_cast<std::size_t>(j)] = T{1} / t(j, j);
    }
    inv = scratch.data();
  }
  T* panel = scratch.data() + dim;
  if (side == Side::Left) {
    // Left coefficient t(k, q) untransposed; forward for LLN/LUT.
    if ((uplo == UpLo::Lower) != tr) {
      tr ? left_solve<T, Chain::kForward, true>(t, inv, b, panel)
         : left_solve<T, Chain::kForward, false>(t, inv, b, panel);
    } else {
      tr ? left_solve<T, Chain::kBackwardNearFirst, true>(t, inv, b, panel)
         : left_solve<T, Chain::kBackwardNearFirst, false>(t, inv, b, panel);
    }
  } else {
    // X * op(T) = B: column k of X reads op(T)(q, k), i.e. t(q, k)
    // untransposed; forward for RUN/RLT.
    if ((uplo == UpLo::Upper) != tr) {
      tr ? right_solve<T, Chain::kForward, false>(t, inv, b, panel)
         : right_solve<T, Chain::kForward, true>(t, inv, b, panel);
    } else {
      tr ? right_solve<T, Chain::kBackward, false>(t, inv, b, panel)
         : right_solve<T, Chain::kBackward, true>(t, inv, b, panel);
    }
  }
}

// ---- blocked drivers ------------------------------------------------------
// Right-looking: solve one db-wide diagonal block, then downdate every
// still-unsolved block of B with a single gemm against the corresponding
// off-diagonal panel of the stored triangle. The traversal direction per
// case matches the substitution order of the small kernels above.

template <typename T>
void blocked_left(UpLo uplo, Trans trans, Diag diag, ConstMatrixView<T> t,
                  MatrixView<T> b, index_t db) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  const index_t nblocks = (m + db - 1) / db;
  // Forward traversal for LLN/LUT, backward for LUN/LLT.
  const bool forward =
      (uplo == UpLo::Lower) == (trans == Trans::None);
  for (index_t s = 0; s < nblocks; ++s) {
    const index_t bi = forward ? s : nblocks - 1 - s;
    const index_t k0 = bi * db;
    const index_t kb = std::min(db, m - k0);
    const index_t k1 = k0 + kb;
    MatrixView<T> bk = b.block(k0, 0, kb, n);
    small_solve<T>(Side::Left, uplo, trans, diag, t.block(k0, k0, kb, kb), bk);
    if (uplo == UpLo::Lower && trans == Trans::None && k1 < m) {
      gemm<T>(Trans::None, Trans::None, T{-1}, t.block(k1, k0, m - k1, kb), bk,
              T{1}, b.block(k1, 0, m - k1, n));
    } else if (uplo == UpLo::Upper && trans == Trans::None && k0 > 0) {
      gemm<T>(Trans::None, Trans::None, T{-1}, t.block(0, k0, k0, kb), bk, T{1},
              b.block(0, 0, k0, n));
    } else if (uplo == UpLo::Lower && trans == Trans::Transpose && k0 > 0) {
      gemm<T>(Trans::Transpose, Trans::None, T{-1}, t.block(k0, 0, kb, k0), bk,
              T{1}, b.block(0, 0, k0, n));
    } else if (uplo == UpLo::Upper && trans == Trans::Transpose && k1 < m) {
      gemm<T>(Trans::Transpose, Trans::None, T{-1}, t.block(k0, k1, kb, m - k1),
              bk, T{1}, b.block(k1, 0, m - k1, n));
    }
  }
}

template <typename T>
void blocked_right(UpLo uplo, Trans trans, Diag diag, ConstMatrixView<T> t,
                   MatrixView<T> b, index_t db) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  const index_t nblocks = (n + db - 1) / db;
  // Forward traversal for RUN/RLT, backward for RLN/RUT.
  const bool forward =
      (uplo == UpLo::Upper) == (trans == Trans::None);
  for (index_t s = 0; s < nblocks; ++s) {
    const index_t bj = forward ? s : nblocks - 1 - s;
    const index_t j0 = bj * db;
    const index_t jb = std::min(db, n - j0);
    const index_t j1 = j0 + jb;
    MatrixView<T> bj_view = b.block(0, j0, m, jb);
    small_solve<T>(Side::Right, uplo, trans, diag, t.block(j0, j0, jb, jb),
                   bj_view);
    if (uplo == UpLo::Upper && trans == Trans::None && j1 < n) {
      gemm<T>(Trans::None, Trans::None, T{-1}, bj_view,
              t.block(j0, j1, jb, n - j1), T{1}, b.block(0, j1, m, n - j1));
    } else if (uplo == UpLo::Lower && trans == Trans::None && j0 > 0) {
      gemm<T>(Trans::None, Trans::None, T{-1}, bj_view, t.block(j0, 0, jb, j0),
              T{1}, b.block(0, 0, m, j0));
    } else if (uplo == UpLo::Lower && trans == Trans::Transpose && j1 < n) {
      gemm<T>(Trans::None, Trans::Transpose, T{-1}, bj_view,
              t.block(j1, j0, n - j1, jb), T{1}, b.block(0, j1, m, n - j1));
    } else if (uplo == UpLo::Upper && trans == Trans::Transpose && j0 > 0) {
      gemm<T>(Trans::None, Trans::Transpose, T{-1}, bj_view,
              t.block(0, j0, j0, jb), T{1}, b.block(0, 0, m, j0));
    }
  }
}

}  // namespace

template <typename T>
void trsm(Side side, UpLo uplo, Trans trans, Diag diag,
          std::type_identity_t<T> alpha, ConstMatrixView<T> t, MatrixView<T> b) {
  const index_t dim = (side == Side::Left) ? b.rows() : b.cols();
  expects(t.rows() == dim && t.cols() == dim, "trsm: triangle must match B side");

  if (alpha != T{1}) {
    for (index_t i = 0; i < b.rows(); ++i) {
      T* bi = b.row(i);
      for (index_t j = 0; j < b.cols(); ++j) bi[j] *= alpha;
    }
  }
  if (b.rows() == 0 || b.cols() == 0) return;

  const index_t db = std::max<index_t>(1, tuning().db);
  if (dim <= db) {
    small_solve<T>(side, uplo, trans, diag, t, b);
  } else if (side == Side::Left) {
    blocked_left<T>(uplo, trans, diag, t, b, db);
  } else {
    blocked_right<T>(uplo, trans, diag, t, b, db);
  }
}

template <typename T>
void trsv(UpLo uplo, Trans trans, Diag diag, ConstMatrixView<T> t, T* b) {
  MatrixView<T> bv(b, t.rows(), 1, 1);
  trsm<T>(Side::Left, uplo, trans, diag, T{1}, t, bv);
}

template void trsm<float>(Side, UpLo, Trans, Diag, float, ConstViewF, ViewF);
template void trsm<double>(Side, UpLo, Trans, Diag, double, ConstViewD, ViewD);
template void trsv<float>(UpLo, Trans, Diag, ConstViewF, float*);
template void trsv<double>(UpLo, Trans, Diag, ConstViewD, double*);

}  // namespace conflux::xblas
