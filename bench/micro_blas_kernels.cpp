// Local-kernel throughput microbenchmarks for the level-3 BLAS substrate.
//
// Self-timed (no external benchmark dependency) so the numbers land in a
// machine-readable JSON file: each kernel x shape row records GF/s and the
// best wall time, written to --out=BENCH_blas.json for later PRs to track
// the perf trajectory.
//
// Usage:
//   micro_blas_kernels [--out=BENCH_blas.json] [--threads=1] [--large]
//                      [--min-time=0.3]
//   --large     adds n = 2048 shapes
//
// Block sizes come from the compiled-in Tuning defaults and XBLAS_*
// overrides (src/blas/tuning.hpp); bench/ablation_block_size.cpp sweeps
// them. Every row records the measured ISA, the tuning source, and git
// describe; per-ISA gemm rows (`gemm_isa_*`) cover each kernel the host can
// run, and the dispatched-vs-portable fp64 gate fails the run (and CI) if
// runtime dispatch ever picks a slower kernel than the portable baseline.
// The `trsm_panel_*` rows time the factorizations' panel solves and record
// `pct_gemm`, their rate as a percentage of gemm at the same shape.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <utility>
#include <fstream>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "blas/lapack.hpp"
#include "blas/microkernel.hpp"
#include "blas/tuning.hpp"
#include "support/buildinfo.hpp"
#include "support/json.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "tensor/random_matrix.hpp"

namespace xblas = conflux::xblas;
using conflux::ConstViewD;
using conflux::index_t;
using conflux::MatrixD;
using conflux::ViewD;

namespace {

// ---- timing harness -------------------------------------------------------

struct Result {
  std::string kernel;
  index_t n;
  double gflops;
  double seconds;  // best single-run wall time
  int reps;
  // Microkernel ISA active while this row was measured (rows under a
  // ScopedIsa force record the forced ISA, not the dispatched one).
  std::string isa = xblas::isa_name(xblas::active_isa());
  // Panel-solve rows only: GF/s as a percentage of a gemm with the same
  // shape at the same thread count (negative = not recorded).
  double pct_gemm = -1.0;
};

// Thread count the whole run was measured with; recorded per JSON row so
// the cross-PR perf trajectory never mixes thread scaling with kernel
// quality.
int g_threads = 1;

// Run fn repeatedly (after one warmup) until min_time total or min 3 reps;
// report the best run. fn performs one run and returns the seconds of the
// timed section only, so kernels that must restore their input each rep
// (trsm/getrf/potrf) keep the O(n^2) copy out of the measurement.
template <typename Fn>
Result time_kernel(const std::string& name, index_t n, double flops, Fn&& fn,
                   double min_time) {
  fn();  // warmup
  double best = 1e300;
  double total = 0.0;
  int reps = 0;
  while (total < min_time || reps < 3) {
    const double s = fn();
    best = std::min(best, s);
    total += s;
    ++reps;
  }
  return Result{name, n, flops / best * 1e-9, best, reps};
}

// Wrap an untimed setup step and a timed kernel run.
template <typename Setup, typename Kernel>
auto timed_run(Setup&& setup, Kernel&& kernel) {
  return [setup, kernel]() {
    setup();
    conflux::Stopwatch sw;
    kernel();
    return sw.seconds();
  };
}

template <typename Kernel>
auto timed_run(Kernel&& kernel) {
  return timed_run([] {}, std::forward<Kernel>(kernel));
}

void print_result(const Result& r) {
  std::printf("%-18s n=%-5lld %8.2f GF/s  (best %.4fs over %d reps, %s)\n",
              r.kernel.c_str(), static_cast<long long>(r.n), r.gflops,
              r.seconds, r.reps, r.isa.c_str());
}

bool write_json(const std::string& path, const std::vector<Result>& results) {
  std::ofstream out(path);
  conflux::json::Writer w(out);
  w.begin_array();
  for (const Result& r : results) {
    w.begin_object();
    w.field("kernel", std::string_view(r.kernel));
    w.field("n", static_cast<long long>(r.n));
    w.field("gflops", r.gflops);
    w.field("best_seconds", r.seconds);
    w.field("reps", r.reps);
    w.field("threads", g_threads);
    w.field("isa", std::string_view(r.isa));
    w.field("tuning_source", xblas::tuning_source());
    w.field("git_describe", conflux::git_describe());
    if (r.pct_gemm >= 0.0) w.field("pct_gemm", r.pct_gemm);
    w.end_object();
  }
  w.end_array();
  out << "\n";
  return out.good();
}

double find_gflops(const std::vector<Result>& results, const std::string& kernel,
                   index_t n) {
  for (const Result& r : results) {
    if (r.kernel == kernel && r.n == n) return r.gflops;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const conflux::Cli cli(argc, argv);
  const std::string out_path = cli.get_string("out", "BENCH_blas.json");
  // Default to 1 thread so kernel-quality numbers are comparable across
  // machines, but let XBLAS_THREADS (already folded into tuning()) win when
  // the flag is not given explicitly. 0 means "library default", which is
  // resolved to the real OpenMP thread count below so the JSON rows stay
  // honest.
  const int env_threads =
      std::getenv("XBLAS_THREADS") ? xblas::tuning().threads : 1;
  int threads = static_cast<int>(cli.get_int("threads", env_threads));
  if (threads == 0) {
#ifdef _OPENMP
    threads = omp_get_max_threads();
#else
    threads = 1;
#endif
  }
  const double min_time = cli.get_double("min-time", 0.3);
  const bool large = cli.get_flag("large");
  cli.check_unused();

  std::printf("isa: %s (dispatched)  tuning_source: %s  build: %s\n",
              xblas::isa_name(xblas::active_isa()), xblas::tuning_source(),
              conflux::git_describe());

  xblas::tuning().threads = threads;
  g_threads = threads;

  std::vector<index_t> shapes = {256, 512, 1024};
  if (large) shapes.push_back(2048);
  const index_t nmax = shapes.back();

  std::vector<Result> results;
  for (const index_t n : shapes) {
    const MatrixD a = conflux::random_matrix(n, n, 1);
    const MatrixD b = conflux::random_matrix(n, n, 2);
    MatrixD c(n, n, 0.0);
    const double gemm_fl = xblas::gemm_flops(n, n, n);

    results.push_back(time_kernel("gemm", n, gemm_fl, timed_run([&] {
      xblas::gemm(xblas::Trans::None, xblas::Trans::None, 1.0, a.view(),
                  b.view(), 0.0, c.view());
    }), min_time));
    print_result(results.back());

    // syrk touches only the triangle: half the gemm flops.
    results.push_back(time_kernel("syrk", n, gemm_fl / 2.0, timed_run([&] {
      xblas::syrk(xblas::UpLo::Lower, xblas::Trans::None, 1.0, a.view(), 0.0,
                  c.view());
    }), min_time));
    print_result(results.back());

    results.push_back(time_kernel("gemmt", n, gemm_fl / 2.0, timed_run([&] {
      xblas::gemmt(xblas::UpLo::Lower, xblas::Trans::None, xblas::Trans::None,
                   1.0, a.view(), b.view(), 0.0, c.view());
    }), min_time));
    print_result(results.back());

    MatrixD t = conflux::random_matrix(n, n, 3);
    for (index_t i = 0; i < n; ++i) t(i, i) += 4.0;
    MatrixD x(n, n, 0.0);
    results.push_back(time_kernel(
        "trsm", n, xblas::trsm_flops(n, n, xblas::Side::Left),
        timed_run([&] { conflux::copy<double>(b.view(), x.view()); },
                  [&] {
                    xblas::trsm(xblas::Side::Left, xblas::UpLo::Lower,
                                xblas::Trans::None, xblas::Diag::NonUnit, 1.0,
                                t.view(), x.view());
                  }),
        min_time));
    print_result(results.back());

    // fp32 rows: same shapes, converted inputs. The fp32/fp64 gemm ratio at
    // the largest shape is the throughput half of the mixed-precision story
    // (the other half, refinement convergence, lives in BENCH_factor.json).
    conflux::MatrixF af(n, n), bf(n, n), cf(n, n, 0.0f);
    conflux::convert<double, float>(a.view(), af.view());
    conflux::convert<double, float>(b.view(), bf.view());
    results.push_back(time_kernel("gemm_f32", n, gemm_fl, timed_run([&] {
      xblas::gemm(xblas::Trans::None, xblas::Trans::None, 1.0f, af.view(),
                  bf.view(), 0.0f, cf.view());
    }), min_time));
    print_result(results.back());

    conflux::MatrixF tf(n, n), xf(n, n, 0.0f);
    conflux::convert<double, float>(t.view(), tf.view());
    results.push_back(time_kernel(
        "trsm_f32", n, xblas::trsm_flops(n, n, xblas::Side::Left),
        timed_run([&] { conflux::convert<double, float>(b.view(), xf.view()); },
                  [&] {
                    xblas::trsm(xblas::Side::Left, xblas::UpLo::Lower,
                                xblas::Trans::None, xblas::Diag::NonUnit, 1.0f,
                                tf.view(), xf.view());
                  }),
        min_time));
    print_result(results.back());

    MatrixD lu(n, n);
    std::vector<index_t> ipiv;
    results.push_back(time_kernel(
        "getrf", n, 2.0 * n * n * n / 3.0,
        timed_run([&] { conflux::copy<double>(a.view(), lu.view()); },
                  [&] { xblas::getrf(lu.view(), ipiv); }),
        min_time));
    print_result(results.back());

    const MatrixD spd = conflux::random_spd_matrix(n, 6);
    MatrixD ch(n, n);
    results.push_back(time_kernel(
        "potrf", n, 1.0 * n * n * n / 3.0,
        timed_run([&] { conflux::copy<double>(spd.view(), ch.view()); },
                  [&] { xblas::potrf(ch.view()); }),
        min_time));
    print_result(results.back());
  }

  // ---- panel solves at the factorizations' shapes ----
  // The triangle is one 64 x 64 diagonal block (v = 64 at the n = 2048
  // P = 64 cell), the right-hand side 2048 long: LU's A10 solve
  // (rows x 64, Right/Upper), its A01 solve (64 x cols, Left/Lower/Unit),
  // and Cholesky's L10 solve (Right/Lower/Transpose). Each row also reports
  // its rate as a share of gemm at the same shape — the rank-64 product
  // with the RHS panel's dimensions — and the same thread count.
  {
    const index_t db = 64;
    const index_t len = 2048;
    MatrixD tri = conflux::random_matrix(db, db, 7);
    for (index_t i = 0; i < db; ++i) tri(i, i) += 4.0;
    const MatrixD tall = conflux::random_matrix(len, db, 8);
    const MatrixD wide = conflux::random_matrix(db, len, 9);
    const auto gemm_gflops = [&](const MatrixD& a, const MatrixD& b) {
      MatrixD c(a.rows(), b.cols(), 0.0);
      return time_kernel("gemm", len, xblas::gemm_flops(a.rows(), b.cols(), db),
                         timed_run([&] {
                           xblas::gemm(xblas::Trans::None, xblas::Trans::None,
                                       1.0, a.view(), b.view(), 0.0, c.view());
                         }),
                         min_time)
          .gflops;
    };
    const double gemm_tall = gemm_gflops(tall, tri);
    const double gemm_wide = gemm_gflops(tri, wide);
    struct PanelCase {
      const char* name;
      xblas::Side side;
      xblas::UpLo uplo;
      xblas::Trans trans;
      xblas::Diag diag;
    };
    const PanelCase cases[] = {
        {"trsm_panel_run", xblas::Side::Right, xblas::UpLo::Upper,
         xblas::Trans::None, xblas::Diag::NonUnit},
        {"trsm_panel_lln", xblas::Side::Left, xblas::UpLo::Lower,
         xblas::Trans::None, xblas::Diag::Unit},
        {"trsm_panel_rlt", xblas::Side::Right, xblas::UpLo::Lower,
         xblas::Trans::Transpose, xblas::Diag::NonUnit},
    };
    std::printf("\nPanel solves (64-wide triangle, RHS length %lld):\n",
                static_cast<long long>(len));
    for (const PanelCase& pc : cases) {
      const bool left = pc.side == xblas::Side::Left;
      const MatrixD& rhs = left ? wide : tall;
      MatrixD x(rhs.rows(), rhs.cols());
      Result r = time_kernel(
          pc.name, len, xblas::trsm_flops(rhs.rows(), rhs.cols(), pc.side),
          timed_run([&] { conflux::copy<double>(rhs.view(), x.view()); },
                    [&] {
                      xblas::trsm(pc.side, pc.uplo, pc.trans, pc.diag, 1.0,
                                  tri.view(), x.view());
                    }),
          min_time);
      const double gemm_gf = left ? gemm_wide : gemm_tall;
      r.pct_gemm = 100.0 * r.gflops / gemm_gf;
      results.push_back(r);
      print_result(r);
      std::printf("%-18s %.1f%% of gemm %lldx%lldx%lld (%.2f GF/s, %d threads)\n",
                  "", r.pct_gemm, static_cast<long long>(rhs.rows()),
                  static_cast<long long>(rhs.cols()), static_cast<long long>(db),
                  gemm_gf, threads);
    }
  }

  // ---- per-ISA gemm rows + the dispatch regression gate ----
  // Every kernel the host can run gets its own fp64/fp32 row at n = 1024
  // (forced via ScopedIsa, recorded in the row's `isa` field), then runtime
  // dispatch itself is gated: the dispatched fp64 kernel must be at least
  // as fast as the portable baseline. Both legs interleave their reps in
  // one loop so they see the same machine state; like the factor_schedule
  // lookahead gate, a 5% margin covers OS-scheduler noise on shared
  // runners — a real regression (a mis-dispatched kernel) is far larger.
  bool gates_ok = true;
  {
    const index_t ni = 1024;
    const MatrixD a = conflux::random_matrix(ni, ni, 1);
    const MatrixD b = conflux::random_matrix(ni, ni, 2);
    MatrixD c(ni, ni, 0.0);
    conflux::MatrixF af(ni, ni), bf(ni, ni), cf(ni, ni, 0.0f);
    conflux::convert<double, float>(a.view(), af.view());
    conflux::convert<double, float>(b.view(), bf.view());
    const double fl = xblas::gemm_flops(ni, ni, ni);

    std::printf("\nPer-ISA gemm (n=%lld):\n", static_cast<long long>(ni));
    for (int i = 0; i < xblas::kIsaCount; ++i) {
      const xblas::Isa isa = static_cast<xblas::Isa>(i);
      if (!xblas::isa_available(isa)) continue;
      xblas::ScopedIsa force(isa);
      results.push_back(time_kernel(
          std::string("gemm_isa_") + xblas::isa_name(isa), ni, fl, timed_run([&] {
            xblas::gemm(xblas::Trans::None, xblas::Trans::None, 1.0, a.view(),
                        b.view(), 0.0, c.view());
          }),
          min_time));
      print_result(results.back());
      results.push_back(time_kernel(
          std::string("gemm_f32_isa_") + xblas::isa_name(isa), ni, fl,
          timed_run([&] {
            xblas::gemm(xblas::Trans::None, xblas::Trans::None, 1.0f, af.view(),
                        bf.view(), 0.0f, cf.view());
          }),
          min_time));
      print_result(results.back());
    }

    const xblas::Isa dispatched = xblas::active_isa();
    const auto one_rep = [&](xblas::Isa isa) {
      xblas::ScopedIsa force(isa);
      conflux::Stopwatch sw;
      xblas::gemm(xblas::Trans::None, xblas::Trans::None, 1.0, a.view(),
                  b.view(), 0.0, c.view());
      return sw.seconds();
    };
    one_rep(xblas::Isa::Portable);  // warm both code paths
    one_rep(dispatched);
    double best_port = 1e300, best_disp = 1e300, total = 0.0;
    int reps = 0;
    const double gate_time = 2.0 * std::max(min_time, 0.3);
    while (total < gate_time || reps < 6) {
      const double sp = one_rep(xblas::Isa::Portable);
      const double sd = one_rep(dispatched);
      best_port = std::min(best_port, sp);
      best_disp = std::min(best_disp, sd);
      total += sp + sd;
      reps += 2;
    }
    const double gf_port = fl / best_port * 1e-9;
    const double gf_disp = fl / best_disp * 1e-9;
    Result rp{"gemm_gate_portable", ni, gf_port, best_port, reps / 2};
    rp.isa = xblas::isa_name(xblas::Isa::Portable);
    results.push_back(rp);
    Result rd{"gemm_gate_dispatched", ni, gf_disp, best_disp, reps / 2};
    rd.isa = xblas::isa_name(dispatched);
    results.push_back(rd);
    const bool pass =
        std::isfinite(gf_disp) && gf_disp > 0.0 && 1.05 * gf_disp >= gf_port;
    std::printf("gate %-22s %-22s measured %11.4g vs gated %11.4g "
                "(ratio %.3fx) %s\n",
                "dispatch-speed",
                (std::string("gemm n=1024 ") + xblas::isa_name(dispatched))
                    .c_str(),
                gf_disp, gf_port, gf_disp / gf_port, pass ? "PASS" : "FAIL");
    if (!pass) gates_ok = false;
  }

  const double gemm_gf = find_gflops(results, "gemm", nmax);
  const double syrk_gf = find_gflops(results, "syrk", nmax);
  const double trsm_gf = find_gflops(results, "trsm", nmax);
  const double gemm_f32_gf = find_gflops(results, "gemm_f32", nmax);
  if (gemm_gf > 0.0) {
    std::printf("\nsyrk/gemm throughput ratio @ n=%lld: %.2f   "
                "trsm/gemm: %.2f\n",
                static_cast<long long>(nmax), syrk_gf / gemm_gf,
                trsm_gf / gemm_gf);
    std::printf("fp32/fp64 gemm throughput ratio: %.2fx\n", gemm_f32_gf / gemm_gf);
  }

  if (!write_json(out_path, results)) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), results.size());
  return gates_ok ? 0 : 1;
}
