#include "factor/mixed.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "blas/blas.hpp"
#include "sched/rank_parallel.hpp"
#include "support/check.hpp"

namespace conflux::factor {

namespace {

using xblas::Trans;

// Process-wide ladder counters (relaxed: they are statistics, not
// synchronization; bench reads them after all solves have joined).
std::atomic<long long> g_solves{0};
std::atomic<long long> g_fp64_fallbacks{0};
std::atomic<long long> g_ir_steps{0};

/// ||A||_inf (max absolute row sum).
double norm_inf(ConstViewD a) {
  double best = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row(i);
    double sum = 0.0;
    for (index_t j = 0; j < a.cols(); ++j) sum += std::abs(row[j]);
    best = std::max(best, sum);
  }
  return best;
}

/// Per-column infinity norms of a panel, written into out[0..cols).
void col_norms_inf(ConstViewD m, std::vector<double>& out) {
  out.assign(static_cast<std::size_t>(m.cols()), 0.0);
  for (index_t i = 0; i < m.rows(); ++i) {
    const double* row = m.row(i);
    for (index_t j = 0; j < m.cols(); ++j) {
      out[static_cast<std::size_t>(j)] =
          std::max(out[static_cast<std::size_t>(j)], std::abs(row[j]));
    }
  }
}

bool all_finite(ConstViewD m) {
  for (index_t i = 0; i < m.rows(); ++i) {
    const double* row = m.row(i);
    for (index_t j = 0; j < m.cols(); ++j) {
      if (!std::isfinite(row[j])) return false;
    }
  }
  return true;
}

double backward_error(double anorm, ConstViewD x, ConstViewD b, ConstViewD r) {
  std::vector<double> xn, bn, rn;
  col_norms_inf(x, xn);
  col_norms_inf(b, bn);
  col_norms_inf(r, rn);
  double worst = 0.0;
  for (std::size_t j = 0; j < rn.size(); ++j) {
    const double denom = anorm * xn[j] + bn[j];
    if (denom > 0.0) worst = std::max(worst, rn[j] / denom);
    else if (rn[j] > 0.0) worst = std::numeric_limits<double>::infinity();
  }
  return worst;
}

/// The shared refinement loop; `solve32` solves the fp32 system for a whole
/// multi-RHS fp32 panel in place.
template <typename Solve32>
RefineReport refine(ConstViewD a, ViewD b, const RefineOptions& opt,
                    Solve32&& solve32) {
  const index_t n = a.rows();
  const index_t nrhs = b.cols();
  expects(a.cols() == n && b.rows() == n, "refine: shape mismatch");

  const double tol = opt.tolerance > 0.0
                         ? opt.tolerance
                         : 2.0 * std::sqrt(static_cast<double>(n)) *
                               std::numeric_limits<double>::epsilon();
  const double anorm = norm_inf(a);

  MatrixD x(n, nrhs, 0.0);     // fp64 solution accumulator
  MatrixD best(n, nrhs, 0.0);  // best iterate so far (corrections can overshoot)
  MatrixD r(n, nrhs);          // fp64 residual B - A X (initially B)
  MatrixD d(n, nrhs);          // fp64 copy of each correction
  MatrixF rf(n, nrhs);         // fp32 staging panel for the solves
  copy<double>(b, r.view());

  RefineReport report;
  // Default classification: the loop ran out of steps without converging.
  report.code = StatusCode::kRefineStagnated;
  double prev = std::numeric_limits<double>::infinity();
  double best_err = std::numeric_limits<double>::infinity();
  // Iteration 0 is the initial fp32 solve (steps = 0); each further pass is
  // one refinement correction. Every pass: demote the residual, solve the
  // whole panel in fp32, promote, accumulate, and re-form the fp64 residual
  // with one gemm.
  for (int pass = 0; pass <= opt.max_steps; ++pass) {
    convert<double, float>(r.view(), rf.view());
    solve32(rf.view());
    convert<float, double>(rf.view(), d.view());
    for (index_t i = 0; i < n; ++i) {
      const double* di = d.view().row(i);
      double* xi = x.view().row(i);
      for (index_t j = 0; j < nrhs; ++j) xi[j] += di[j];
    }
    copy<double>(b, r.view());
    xblas::gemm(Trans::None, Trans::None, -1.0, a, x.view(), 1.0, r.view());

    // A singular (or fp32-overflowed) factorization poisons x with inf/NaN.
    // The max-based norms inside backward_error silently DROP NaNs
    // (std::max(0, NaN) is 0), so the error metric cannot be trusted to
    // flag the poisoning — scan the residual itself and stop immediately;
    // the best-iterate logic decides what the caller gets.
    if (!all_finite(x.view()) || !all_finite(r.view())) {
      report.code = StatusCode::kNonFinite;
      break;
    }
    // Near the cond(A)*eps_fp32 ~ 1 edge a correction can overshoot and
    // WORSEN the solution; the caller must never receive such an iterate,
    // so the report tracks the best one, not the last one.
    const double err = backward_error(anorm, x.view(), b, r.view());
    if (err < best_err) {
      best_err = err;
      report.steps = pass;  // corrections applied to reach the best iterate
      copy<double>(x.view(), best.view());
    }
    if (err <= tol) {
      report.converged = true;
      report.code = StatusCode::kOk;
      break;
    }
    // Stagnation guard (LAPACK dsgesv-style): if a correction failed to
    // shrink the backward error by at least 2x, fp32 information is
    // exhausted (cond(A) * eps_fp32 too large) — stop rather than loop.
    if (pass > 0 && err > 0.5 * prev) {
      report.code = err > prev ? StatusCode::kRefineDiverged
                               : StatusCode::kRefineStagnated;
      break;
    }
    prev = err;
  }
  report.backward_error = best_err;
  // No finite iterate at all (e.g. the fp32 factors are exactly singular):
  // leave the caller's RHS panel untouched rather than overwriting it with
  // the zero/NaN wreckage; report.converged stays false and
  // backward_error is inf, which is the caller's signal.
  if (std::isfinite(best_err)) copy<double>(best.view(), b);
  else report.code = StatusCode::kNonFinite;
  return report;
}

/// The shared degradation ladder (DESIGN.md "Failure model and degradation
/// ladder"). `factor32(af)` returns the fp32 Result, `refine_leg(f)` runs
/// refinement against the (possibly degraded) fp32 factors, `factor64()`
/// returns the fp64 Result, `solve64(f, b)` solves directly in fp64.
template <typename Factor32, typename RefineLeg, typename Factor64,
          typename Solve64>
MixedSolveReport solve_ladder(ConstViewD a, ViewD b,
                              const MixedSolveOptions& opt, Factor32&& factor32,
                              RefineLeg&& refine_leg, Factor64&& factor64,
                              Solve64&& solve64) {
  g_solves.fetch_add(1, std::memory_order_relaxed);
  MixedSolveReport rep;
  MatrixD b0(b.rows(), b.cols());
  copy<double>(b, b0.view());  // ladder restore point

  // Rung 1: fp32 factorization + fp64 refinement. Degraded fp32 factors
  // still get their refinement shot — the achieved backward error is the
  // ground truth, and near-singular / growth flags can be pessimistic.
  StatusCode f32_code = StatusCode::kOk;
  {
    // Unfilled, then converted in parallel row blocks so its pages fault
    // in on every thread. Entries beyond fp32 range convert to inf; the
    // factorization's input scan classifies that as kNonFinite and the
    // ladder steps down.
    MatrixF af(a.rows(), a.cols(), kUnfilled);
    sched::for_row_blocks(a.rows(), [&](index_t, index_t i0, index_t i1) {
      convert<double, float>(a.block(i0, 0, i1 - i0, a.cols()),
                             af.block(i0, 0, i1 - i0, a.cols()));
    });
    auto f32 = factor32(af.view());
    f32_code = f32.status().code();
    if (f32.has_value()) {
      rep.refine = refine_leg(f32.value());
      g_ir_steps.fetch_add(rep.refine.steps, std::memory_order_relaxed);
    } else {
      rep.refine.converged = false;
      rep.refine.backward_error = std::numeric_limits<double>::infinity();
      rep.refine.code = f32_code;
    }
  }
  if (rep.refine.converged) {
    rep.code = StatusCode::kOk;
    rep.backward_error = rep.refine.backward_error;
    return rep;
  }
  rep.fallback_reason =
      f32_code != StatusCode::kOk ? f32_code : rep.refine.code;

  if (!opt.allow_fp64_fallback) {
    rep.code = rep.fallback_reason;
    rep.backward_error = rep.refine.backward_error;
    return rep;
  }

  // Rung 2: fp64 re-factorization + direct solve. Whatever the fp32 leg
  // left in B is dropped first so the direct solve starts from the
  // caller's RHS.
  rep.fp64_fallback = true;
  g_fp64_fallbacks.fetch_add(1, std::memory_order_relaxed);
  copy<double>(b0.view(), b);
  auto f64 = factor64();
  if (!f64.has_value()) {
    rep.code = f64.status().code();
    rep.backward_error = std::numeric_limits<double>::infinity();
    return rep;
  }
  solve64(f64.value(), b);
  const double berr = solve_backward_error(a, b, b0.view());
  rep.backward_error = berr;
  if (!std::isfinite(berr)) {
    // Total failure keeps the "RHS untouched" contract of the fp32 leg.
    copy<double>(b0.view(), b);
    rep.code = StatusCode::kNonFinite;
    return rep;
  }
  rep.code = f64.ok() ? StatusCode::kOk : f64.status().code();
  return rep;
}

}  // namespace

double solve_backward_error(ConstViewD a, ConstViewD x, ConstViewD b) {
  expects(a.rows() == a.cols() && x.rows() == a.rows() && b.rows() == a.rows() &&
              x.cols() == b.cols(),
          "solve_backward_error: shape mismatch");
  MatrixD r(b.rows(), b.cols());
  copy<double>(b, r.view());
  xblas::gemm(Trans::None, Trans::None, -1.0, a, x, 1.0, r.view());
  return backward_error(norm_inf(a), x, b, r.view());
}

RefineReport refine_lu(const LuResultF& lu, ConstViewD a, ViewD b,
                       const RefineOptions& opt) {
  expects(lu.factors.rows() == a.rows(), "refine_lu: factorization size mismatch");
  return refine(a, b, opt, [&](ViewF panel) { conflux_lu_solve(lu, panel); });
}

RefineReport refine_cholesky(const CholResultF& chol, ConstViewD a, ViewD b,
                             const RefineOptions& opt) {
  expects(chol.factors.rows() == a.rows(),
          "refine_cholesky: factorization size mismatch");
  return refine(a, b, opt, [&](ViewF panel) { confchox_solve(chol, panel); });
}

MixedSolveReport conflux_lu_solve_mixed_ex(xsim::Machine& m,
                                           const grid::Grid3D& g, ConstViewD a,
                                           ViewD b,
                                           const MixedSolveOptions& opt) {
  return solve_ladder(
      a, b, opt,
      [&](ConstViewF af) { return try_conflux_lu(m, g, af, opt.factor); },
      [&](const LuResultF& lu) { return refine_lu(lu, a, b, opt.refine); },
      [&] { return try_conflux_lu(m, g, a, opt.factor); },
      [](const LuResult& lu, ViewD rhs) { conflux_lu_solve(lu, rhs); });
}

MixedSolveReport confchox_solve_mixed_ex(xsim::Machine& m,
                                         const grid::Grid3D& g, ConstViewD a,
                                         ViewD b,
                                         const MixedSolveOptions& opt) {
  return solve_ladder(
      a, b, opt,
      [&](ConstViewF af) { return try_confchox(m, g, af, opt.factor); },
      [&](const CholResultF& ch) {
        return refine_cholesky(ch, a, b, opt.refine);
      },
      [&] { return try_confchox(m, g, a, opt.factor); },
      [](const CholResult& ch, ViewD rhs) { confchox_solve(ch, rhs); });
}

// Legacy one-call drivers: the fp32 + refinement rung only, with the
// original RefineReport shape. A hard fp32 factorization failure comes back
// as a non-converged report (backward_error = inf, code = the
// classification) instead of an exception.
RefineReport conflux_lu_solve_mixed(xsim::Machine& m, const grid::Grid3D& g,
                                    ConstViewD a, ViewD b,
                                    const FactorOptions& fopt,
                                    const RefineOptions& ropt) {
  MixedSolveOptions opt;
  opt.factor = fopt;
  opt.refine = ropt;
  opt.allow_fp64_fallback = false;
  return conflux_lu_solve_mixed_ex(m, g, a, b, opt).refine;
}

RefineReport confchox_solve_mixed(xsim::Machine& m, const grid::Grid3D& g,
                                  ConstViewD a, ViewD b,
                                  const FactorOptions& fopt,
                                  const RefineOptions& ropt) {
  MixedSolveOptions opt;
  opt.factor = fopt;
  opt.refine = ropt;
  opt.allow_fp64_fallback = false;
  return confchox_solve_mixed_ex(m, g, a, b, opt).refine;
}

MixedCounters mixed_counters() {
  MixedCounters c;
  c.solves = g_solves.load(std::memory_order_relaxed);
  c.fp64_fallbacks = g_fp64_fallbacks.load(std::memory_order_relaxed);
  c.ir_steps = g_ir_steps.load(std::memory_order_relaxed);
  return c;
}

void reset_mixed_counters() {
  g_solves.store(0, std::memory_order_relaxed);
  g_fp64_fallbacks.store(0, std::memory_order_relaxed);
  g_ir_steps.store(0, std::memory_order_relaxed);
}

}  // namespace conflux::factor
