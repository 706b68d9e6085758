// Factorization schedule benchmark: Real-mode wall time plus all four
// modeled times (strict BSP, bounded-overlap timeline, lookahead-pipelined
// timeline, perfect overlap) for COnfLUX and COnfCHOX over a small
// (n, grid) sweep, written to BENCH_factor.json so factorization
// performance is tracked across PRs the same way BENCH_blas.json tracks
// the local kernels.
//
// Each cell runs the schedule three times:
//   - Real mode step-synchronous, timed with a wall clock;
//   - Real mode with lookahead pipelining on the persistent task pool
//     (identical factors by construction; lookahead_wall_s plus the pool's
//     urgent/lazy busy and idle breakdown are recorded, and at the --large
//     n=2048 P=64 cell with >= 2 threads lookahead being no slower than
//     step-synchronous is a hard acceptance gate);
//   - Trace mode with event recording, replayed through sched::Timeline
//     for the model times (identical charges, no matrix data).
//
// Usage:
//   factor_schedule [--out=BENCH_factor.json] [--large] [--serial-baseline]
//                   [--trace=conflux_lu_trace.json] [--reps=1]
//   --large            adds the n=2048, P=64 acceptance cell
//   --serial-baseline  re-times Real mode with 1 OpenMP thread and reports
//                      the rank-parallel speedup per cell
//   --trace=FILE       writes a Chrome trace (about:tracing) of the last
//                      LU cell's bounded-overlap timeline
#include <algorithm>
#include <cmath>
#include <limits>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "factor/confchox.hpp"
#include "factor/conflux_lu.hpp"
#include "factor/mixed.hpp"
#include "models/models.hpp"
#include "obs/audit.hpp"
#include "recover/options.hpp"
#include "recover/snapshot.hpp"
#include "sched/chrome_trace.hpp"
#include "sched/event.hpp"
#include "sched/taskpool.hpp"
#include "sched/timeline.hpp"
#include "blas/microkernel.hpp"
#include "blas/tuning.hpp"
#include "support/buildinfo.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/stopwatch.hpp"
#include "tensor/random_matrix.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace conflux;

namespace {

struct Cell {
  index_t n;
  int px, py, pz;
  index_t v;
};

// One acceptance-gate verdict, recorded in the row it judged.
struct GateResult {
  std::string name;
  double measured = 0.0;
  double limit = 0.0;
  bool pass = false;
};

struct Row {
  std::string algo;
  Cell cell;
  double real_wall_s = 0.0;
  double serial_wall_s = 0.0;  // 0 when --serial-baseline is off
  double real_gflops = 0.0;    // factorization flops / real_wall_s
  double workspace_peak_words = 0.0;  // Real-mode resident data-path words
  double t_bsp = 0.0;
  double t_timeline = 0.0;
  double t_lookahead = 0.0;  // lookahead-pipelined model time
  double t_overlap = 0.0;
  int threads = 1;
  // Lookahead real-execution record: wall time plus the task pool's
  // busy/idle split over the timed run (la_idle_s ~ threads * wall - busy).
  double lookahead_wall_s = 0.0;
  double la_urgent_busy_s = 0.0;
  double la_lazy_busy_s = 0.0;
  double la_other_busy_s = 0.0;
  double la_idle_s = 0.0;
  // Mixed-precision solve record (LU and Cholesky cells): fp32 factor + fp64
  // iterative refinement vs the all-fp64 direct solve, judged by the same
  // normwise backward error. The acceptance bar (ISSUE 4): refinement reaches
  // the direct-solve backward error within 10x in <= 3 steps.
  int ir_steps = 0;
  double ir_backward_error = 0.0;
  double direct_backward_error = 0.0;
  double fp32_wall_s = 0.0;  // fp32 factorization wall time (same schedule)
  // Degradation-ladder record (ISSUE 6): the solve leg runs through the
  // _ex ladder driver, so fallback engagement is measured, and the healthy
  // gate below asserts it stays at zero on these well-conditioned inputs.
  long long ladder_solves = 0;
  long long ladder_fp64_fallbacks = 0;
  bool fallback_engaged = false;
  // Metrics leg (tentpole): the same lookahead run with the registry armed.
  // metrics_off_wall_s re-times the disarmed run adjacent to the armed one,
  // so the <= 1.02x overhead gate compares back-to-back measurements.
  double metrics_wall_s = 0.0;
  double metrics_off_wall_s = 0.0;
  // min over interleaved (disarmed, armed) pairs of armed/disarmed — the
  // overhead estimate the gate uses (drift-immune: both runs of a pair
  // execute back to back).
  double metrics_pair_ratio = 0.0;
  // Recovery legs (ISSUE 8): the lookahead run re-timed with (a) step
  // checkpointing at the recommended default interval and (b) ABFT checksum
  // verification armed. Both are bitwise inert on healthy runs
  // (recover_test pins that), so only time is at stake; the pair ratios
  // follow the same interleaved min-over-pairs scheme as the metrics gate.
  double ckpt_wall_s = 0.0;
  double ckpt_off_wall_s = 0.0;
  double ckpt_pair_ratio = 0.0;
  double ckpt_saves_per_run = 0.0;   // recover.ckpt.saves per armed run
  double ckpt_bytes_per_run = 0.0;   // recover.ckpt.bytes per armed run
  double ckpt_seconds_per_run = 0.0;  // serialization time per armed run
  double abft_wall_s = 0.0;
  double abft_off_wall_s = 0.0;
  double abft_pair_ratio = 0.0;
  double abft_verified_per_run = 0.0;  // recover.abft.verified per armed run
  obs::DataMovementAudit audit;
  // Task-pool runtime metrics over the audited run.
  double pool_tasks_run = 0.0;
  long long lat_urgent_count = 0;
  double lat_urgent_sum_s = 0.0;
  long long lat_lazy_count = 0;
  double lat_lazy_sum_s = 0.0;
  double ready_depth_max = 0.0;
  double ready_lazy_depth_max = 0.0;
  std::vector<GateResult> gates;
};

xsim::MachineSpec spec_for(const Cell& c) {
  xsim::MachineSpec spec;  // Piz Daint-like defaults (xsim/machine.hpp)
  spec.num_ranks = c.px * c.py * c.pz;
  spec.memory_words = static_cast<double>(c.pz) * static_cast<double>(c.n) *
                      static_cast<double>(c.n) / static_cast<double>(spec.num_ranks);
  return spec;
}

int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

double best_wall(int reps, const auto& run) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    run();
    best = std::min(best, sw.seconds());
  }
  return best;
}

/// Time one (off, on) overhead pair: `arm(on)` switches the feature under
/// test, then one run is timed. The leg that runs first alternates with
/// `rep`: the first run after a switch pays a warm-up cost tens of percent
/// wide, which a fixed order would charge to one leg every time.
template <typename Arm, typename Run>
std::pair<double, double> overhead_pair(int rep, const Arm& arm, const Run& run) {
  double wall[2] = {0.0, 0.0};
  for (int leg = 0; leg < 2; ++leg) {
    const bool on = (leg == 1) != (rep % 2 == 1);
    arm(on);
    wall[on ? 1 : 0] = best_wall(1, run);
  }
  return {wall[0], wall[1]};
}

Row run_cell(const std::string& algo, const Cell& c, int reps, bool serial_baseline,
             sched::EventLog* trace_log, xsim::MachineSpec* trace_spec) {
  const grid::Grid3D g(c.px, c.py, c.pz);
  const xsim::MachineSpec spec = spec_for(c);
  factor::FactorOptions opt;
  opt.block_size = c.v;
  const bool lu = algo == "conflux_lu";

  Row row{algo, c};
  row.threads = max_threads();

  // Real mode: actual numerics, wall-clocked. The last rep's factors are
  // kept — the direct-solve baseline below reuses them (the factorization
  // is deterministic, so every rep produces bitwise the same result).
  const MatrixD a = lu ? random_matrix(c.n, c.n, 1) : random_spd_matrix(c.n, 2);
  factor::LuResult lud;
  factor::CholResult chold;
  const auto real_run = [&] {
    xsim::Machine m(spec, xsim::ExecMode::Real);
    if (lu) {
      lud = factor::conflux_lu(m, g, a.view(), opt);
      row.workspace_peak_words = lud.workspace_words;
    } else {
      chold = factor::confchox(m, g, a.view(), opt);
      row.workspace_peak_words = chold.workspace_words;
    }
  };
  row.real_wall_s = best_wall(reps, real_run);
  const double nd = static_cast<double>(c.n);
  const double factor_flops = lu ? 2.0 * nd * nd * nd / 3.0 : nd * nd * nd / 3.0;
  row.real_gflops = factor_flops / row.real_wall_s / 1e9;
#ifdef _OPENMP
  if (serial_baseline) {
    const int saved = omp_get_max_threads();
    omp_set_num_threads(1);
    row.serial_wall_s = best_wall(reps, real_run);
    omp_set_num_threads(saved);
  }
#else
  (void)serial_baseline;
#endif

  // Lookahead leg: same schedule, urgent/lazy tasks pipelined on the
  // persistent pool (bitwise-identical factors — packed_factor_test).
  {
    factor::FactorOptions la_opt = opt;
    la_opt.lookahead = 1;
    sched::TaskPool& pool = sched::TaskPool::instance();
    const auto la_run = [&] {
      xsim::Machine m(spec, xsim::ExecMode::Real);
      if (lu) {
        factor::conflux_lu(m, g, a.view(), la_opt);
      } else {
        factor::confchox(m, g, a.view(), la_opt);
      }
    };
    la_run();  // warm the pool's workers and TLS buffers
    pool.reset_stats();
    row.lookahead_wall_s = best_wall(reps, la_run);
    const sched::TaskPoolStats st = pool.stats();
    // Stats accumulate over all reps; scale to one (best) run for the
    // recorded busy split.
    const double scale = 1.0 / static_cast<double>(reps);
    row.la_urgent_busy_s = st.urgent_busy_s * scale;
    row.la_lazy_busy_s = st.lazy_busy_s * scale;
    row.la_other_busy_s = st.other_busy_s * scale;
    const double busy =
        row.la_urgent_busy_s + row.la_lazy_busy_s + row.la_other_busy_s;
    const double capacity =
        static_cast<double>(row.threads) * row.lookahead_wall_s;
    row.la_idle_s = capacity > busy ? capacity - busy : 0.0;
  }

  // Metrics leg (tentpole): the lookahead run with the registry armed. One
  // audited run brackets a metrics snapshot pair — the measured dm.* bytes
  // become the data-movement audit against the Section 6 lower bound — and
  // the timed pair (disarmed vs armed, back to back, best-of-reps) feeds
  // the instrumentation-overhead gate. Instrumentation is read-only on the
  // data path, so every run here produces bitwise the same factors.
  {
    const bool was_enabled = metrics::enabled();
    factor::FactorOptions la_opt = opt;
    la_opt.lookahead = 1;
    const auto la_run = [&] {
      xsim::Machine m(spec, xsim::ExecMode::Real);
      if (lu) {
        factor::conflux_lu(m, g, a.view(), la_opt);
      } else {
        factor::confchox(m, g, a.view(), la_opt);
      }
    };
    // Overhead measurement at the acceptance cell is best-of-5 even with
    // --reps=1, and the disarmed/armed legs INTERLEAVE rep by rep: a 2%
    // gate is tighter than this container's slow thermal/scheduler drift,
    // so each leg must sample every phase of it. Disarmed runs leave the
    // registry untouched (obs_test pins that), so the audit snapshots can
    // bracket the whole interleaved block and still see only armed runs.
    const int gate_reps = c.n >= 2048 ? std::max(reps, 5) : reps;
    metrics::set_enabled(false);
    la_run();  // warm
    metrics::set_enabled(true);
    const metrics::Snapshot before = metrics::snapshot();
    row.metrics_off_wall_s = std::numeric_limits<double>::infinity();
    row.metrics_wall_s = std::numeric_limits<double>::infinity();
    row.metrics_pair_ratio = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < gate_reps; ++rep) {
      const auto [off, on] = overhead_pair(
          rep, [](bool armed) { metrics::set_enabled(armed); }, la_run);
      row.metrics_off_wall_s = std::min(row.metrics_off_wall_s, off);
      row.metrics_wall_s = std::min(row.metrics_wall_s, on);
      // The pair ratio bounds the true overhead from above whenever ONE
      // pair lands in a quiet scheduling window; min over pairs is the
      // tightest such bound this container can produce.
      if (off > 0.0) row.metrics_pair_ratio = std::min(row.metrics_pair_ratio, on / off);
    }
    const metrics::Snapshot after = metrics::snapshot();
    metrics::set_enabled(was_enabled);
    // The dm.* counters accumulated over gate_reps identical runs.
    const double per_run = 1.0 / static_cast<double>(gate_reps);
    const double modeled_words =
        lu ? models::conflux_lu_volume_exact(c.n, g, c.v)
           : models::confchox_volume_exact(c.n, g, c.v);
    row.audit = obs::audit_data_movement(
        lu ? obs::Kernel::kLu : obs::Kernel::kCholesky, before, after,
        static_cast<double>(c.n), static_cast<double>(spec.num_ranks),
        spec.memory_words, modeled_words);
    row.audit.measured_bytes *= per_run;
    row.audit.measured_words_per_rank *= per_run;
    row.audit.measured_ratio *= per_run;
    for (auto& b : row.audit.breakdown) b.bytes *= per_run;
    row.pool_tasks_run =
        (after.value("pool.tasks_run") - before.value("pool.tasks_run")) *
        per_run;
    if (const metrics::MetricValue* h = after.find("pool.latency_urgent_s")) {
      const metrics::MetricValue* h0 = before.find("pool.latency_urgent_s");
      row.lat_urgent_count = h->count - (h0 != nullptr ? h0->count : 0);
      row.lat_urgent_sum_s = h->sum - (h0 != nullptr ? h0->sum : 0.0);
    }
    if (const metrics::MetricValue* h = after.find("pool.latency_lazy_s")) {
      const metrics::MetricValue* h0 = before.find("pool.latency_lazy_s");
      row.lat_lazy_count = h->count - (h0 != nullptr ? h0->count : 0);
      row.lat_lazy_sum_s = h->sum - (h0 != nullptr ? h0->sum : 0.0);
    }
    if (const metrics::MetricValue* g2 = after.find("pool.ready_depth")) {
      row.ready_depth_max = g2->max;
    }
    if (const metrics::MetricValue* g2 = after.find("pool.ready_lazy_depth")) {
      row.ready_lazy_depth_max = g2->max;
    }
  }

  // Recovery legs (ISSUE 8): re-time the lookahead run with checkpointing
  // at the recommended default interval, then with ABFT verification armed.
  // Interleaved back-to-back (off, on) pairs, min pair ratio — same drift
  // rationale as the metrics gate. The registry stays armed across both
  // legs so the recover.* counters record what each armed run actually did
  // (saves, bytes, verified steps); both sides of every pair see the same
  // registry state, so the comparison stays fair.
  {
    const bool was_enabled = metrics::enabled();
    factor::FactorOptions la_opt = opt;
    la_opt.lookahead = 1;
    const auto la_run = [&] {
      xsim::Machine m(spec, xsim::ExecMode::Real);
      if (lu) {
        factor::conflux_lu(m, g, a.view(), la_opt);
      } else {
        factor::confchox(m, g, a.view(), la_opt);
      }
    };
    const int gate_reps = c.n >= 2048 ? std::max(reps, 5) : reps;
    metrics::set_enabled(true);

    recover::Options ckpt_on;
    ckpt_on.ckpt_every = recover::kDefaultCkptEvery;
    const metrics::Snapshot ck0 = metrics::snapshot();
    row.ckpt_off_wall_s = std::numeric_limits<double>::infinity();
    row.ckpt_wall_s = std::numeric_limits<double>::infinity();
    row.ckpt_pair_ratio = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < gate_reps; ++rep) {
      const auto [off, on] = overhead_pair(
          rep,
          [&](bool armed) {
            if (armed) {
              recover::configure(ckpt_on);
            } else {
              recover::reset();
            }
          },
          la_run);
      recover::reset();
      row.ckpt_off_wall_s = std::min(row.ckpt_off_wall_s, off);
      row.ckpt_wall_s = std::min(row.ckpt_wall_s, on);
      if (off > 0.0) row.ckpt_pair_ratio = std::min(row.ckpt_pair_ratio, on / off);
    }
    const metrics::Snapshot ck1 = metrics::snapshot();
    const double per_run = 1.0 / static_cast<double>(gate_reps);
    row.ckpt_saves_per_run =
        (ck1.value("recover.ckpt.saves") - ck0.value("recover.ckpt.saves")) *
        per_run;
    row.ckpt_bytes_per_run =
        (ck1.value("recover.ckpt.bytes") - ck0.value("recover.ckpt.bytes")) *
        per_run;
    row.ckpt_seconds_per_run =
        (ck1.value("recover.ckpt.seconds") - ck0.value("recover.ckpt.seconds")) *
        per_run;

    recover::Options abft_on;
    abft_on.abft = true;
    const metrics::Snapshot ab0 = metrics::snapshot();
    row.abft_off_wall_s = std::numeric_limits<double>::infinity();
    row.abft_wall_s = std::numeric_limits<double>::infinity();
    row.abft_pair_ratio = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < gate_reps; ++rep) {
      const auto [off, on] = overhead_pair(
          rep,
          [&](bool armed) {
            if (armed) {
              recover::configure(abft_on);
            } else {
              recover::reset();
            }
          },
          la_run);
      recover::reset();
      row.abft_off_wall_s = std::min(row.abft_off_wall_s, off);
      row.abft_wall_s = std::min(row.abft_wall_s, on);
      if (off > 0.0) row.abft_pair_ratio = std::min(row.abft_pair_ratio, on / off);
    }
    const metrics::Snapshot ab1 = metrics::snapshot();
    row.abft_verified_per_run =
        (ab1.value("recover.abft.verified") - ab0.value("recover.abft.verified")) *
        per_run;
    metrics::set_enabled(was_enabled);
    recover::clear();  // drop this cell's snapshots before the next one
  }

  // Mixed-precision solve: fp32 factorization (timed with the same
  // best-of-reps harness as the fp64 wall above, so the published ratio
  // compares equal footing) + blocked fp64 refinement over an 8-column RHS
  // panel, against the all-fp64 direct solve on the identical problem.
  {
    const index_t nrhs = 8;
    const MatrixD b0 = random_matrix(c.n, nrhs, 3);
    MatrixF af(c.n, c.n);
    convert<double, float>(a.view(), af.view());
    factor::LuResultF luf;
    factor::CholResultF cholf;
    const auto fp32_run = [&] {
      xsim::Machine mf(spec, xsim::ExecMode::Real);
      if (lu) {
        luf = factor::conflux_lu(mf, g, af.view(), opt);
      } else {
        cholf = factor::confchox(mf, g, af.view(), opt);
      }
    };
    row.fp32_wall_s = best_wall(reps, fp32_run);
    // The solve goes through the degradation-ladder driver with the fp64
    // fallback armed: on these healthy inputs the fp32 + refinement rung
    // must deliver, and the counters prove it (zero-fallbacks gate below).
    factor::reset_mixed_counters();
    MatrixD bx = b0;
    factor::MixedSolveOptions mopt;
    mopt.factor = opt;
    xsim::Machine ms(spec, xsim::ExecMode::Real);
    const factor::MixedSolveReport mrep =
        lu ? factor::conflux_lu_solve_mixed_ex(ms, g, a.view(), bx.view(), mopt)
           : factor::confchox_solve_mixed_ex(ms, g, a.view(), bx.view(), mopt);
    row.ir_steps = mrep.refine.steps;
    row.ir_backward_error = mrep.refine.backward_error;
    row.fallback_engaged = mrep.fp64_fallback;
    const factor::MixedCounters mc = factor::mixed_counters();
    row.ladder_solves = mc.solves;
    row.ladder_fp64_fallbacks = mc.fp64_fallbacks;

    MatrixD bd = b0;
    if (lu) {
      factor::conflux_lu_solve(lud, bd.view());
    } else {
      factor::confchox_solve(chold, bd.view());
    }
    row.direct_backward_error =
        factor::solve_backward_error(a.view(), bd.view(), b0.view());
  }

  // Trace mode with event recording: the three model times.
  xsim::Machine m(spec, xsim::ExecMode::Trace);
  sched::EventLog log;
  {
    sched::ScopedRecord rec(m, log);
    if (lu) {
      factor::conflux_lu_trace(m, g, c.n, opt);
    } else {
      factor::confchox_trace(m, g, c.n, opt);
    }
  }
  const sched::Timeline tl(log, spec);
  row.t_bsp = m.elapsed_time();
  row.t_timeline = tl.modeled_time();
  row.t_lookahead = tl.modeled_time_lookahead();
  row.t_overlap = m.modeled_time_overlap();
  if (lu && trace_log != nullptr) {
    *trace_log = std::move(log);
    *trace_spec = spec;
  }
  return row;
}

void print_row(const Row& r) {
  std::printf(
      "%-11s n=%-5lld grid %dx%dx%d v=%-3lld  wall %.3fs (%.2f GF/s, ws %.2fM words)",
      r.algo.c_str(), static_cast<long long>(r.cell.n), r.cell.px, r.cell.py,
      r.cell.pz, static_cast<long long>(r.cell.v), r.real_wall_s, r.real_gflops,
      r.workspace_peak_words / 1e6);
  if (r.serial_wall_s > 0.0) {
    std::printf(" (1-thread %.3fs, %.2fx)", r.serial_wall_s,
                r.serial_wall_s / r.real_wall_s);
  }
  std::printf(
      "  model BSP %.4fs >= timeline %.4fs >= lookahead %.4fs >= overlap %.4fs\n",
      r.t_bsp, r.t_timeline, r.t_lookahead, r.t_overlap);
  std::printf(
      "            lookahead wall %.3fs (%.2fx of sync) | busy urgent %.3fs"
      " lazy %.3fs other %.3fs idle %.3fs\n",
      r.lookahead_wall_s,
      r.lookahead_wall_s > 0.0 ? r.lookahead_wall_s / r.real_wall_s : 0.0,
      r.la_urgent_busy_s, r.la_lazy_busy_s, r.la_other_busy_s, r.la_idle_s);
  std::printf(
      "            fp32 factor %.3fs (%.2fx) | IR %d steps, berr %.2e vs direct"
      " %.2e | fp64 fallbacks %lld/%lld\n",
      r.fp32_wall_s, r.fp32_wall_s > 0.0 ? r.real_wall_s / r.fp32_wall_s : 0.0,
      r.ir_steps, r.ir_backward_error, r.direct_backward_error,
      r.ladder_fp64_fallbacks, r.ladder_solves);
  std::printf(
      "            metrics on %.3fs vs off %.3fs (%.3fx) | measured %.3gM"
      " words/rank vs bound %.3gM (%.1fx, model %.1fx) | %lld urgent /"
      " %lld lazy tasks\n",
      r.metrics_wall_s, r.metrics_off_wall_s, r.metrics_pair_ratio,
      r.audit.measured_words_per_rank / 1e6, r.audit.lower_bound_words / 1e6,
      r.audit.measured_ratio, r.audit.model_ratio, r.lat_urgent_count,
      r.lat_lazy_count);
  std::printf(
      "            ckpt on %.3fs vs off %.3fs (%.3fx, %.0f saves %.2gMB"
      " %.3fs/run) | abft on %.3fs vs off %.3fs (%.3fx, %.0f steps verified)\n",
      r.ckpt_wall_s, r.ckpt_off_wall_s, r.ckpt_pair_ratio, r.ckpt_saves_per_run,
      r.ckpt_bytes_per_run / 1e6, r.ckpt_seconds_per_run, r.abft_wall_s,
      r.abft_off_wall_s, r.abft_pair_ratio, r.abft_verified_per_run);
}

bool write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  json::Writer w(out);
  w.begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.field("algo", std::string_view(r.algo));
    w.field("n", static_cast<long long>(r.cell.n));
    w.field("px", r.cell.px);
    w.field("py", r.cell.py);
    w.field("pz", r.cell.pz);
    w.field("v", static_cast<long long>(r.cell.v));
    w.field("real_wall_s", r.real_wall_s);
    w.field("serial_wall_s", r.serial_wall_s);
    w.field("real_gflops", r.real_gflops);
    w.field("workspace_peak_words", r.workspace_peak_words);
    w.field("model_bsp_s", r.t_bsp);
    w.field("model_timeline_s", r.t_timeline);
    w.field("model_lookahead_s", r.t_lookahead);
    w.field("model_overlap_s", r.t_overlap);
    w.field("lookahead_wall_s", r.lookahead_wall_s);
    w.field("la_urgent_busy_s", r.la_urgent_busy_s);
    w.field("la_lazy_busy_s", r.la_lazy_busy_s);
    w.field("la_other_busy_s", r.la_other_busy_s);
    w.field("la_idle_s", r.la_idle_s);
    w.field("fp32_wall_s", r.fp32_wall_s);
    w.field("ir_steps", r.ir_steps);
    w.field("ir_backward_error", r.ir_backward_error);
    w.field("direct_backward_error", r.direct_backward_error);
    w.field("ladder_solves", r.ladder_solves);
    w.field("fp64_fallbacks", r.ladder_fp64_fallbacks);
    w.field("threads", r.threads);
    w.field("isa", conflux::xblas::isa_name(conflux::xblas::active_isa()));
    w.field("tuning_source", conflux::xblas::tuning_source());
    w.field("git_describe", conflux::git_describe());
    // Metrics section: overhead pair, the measured data-movement audit,
    // and the task-pool runtime metrics of the audited lookahead run.
    w.key("metrics");
    w.begin_object();
    w.field("metrics_wall_s", r.metrics_wall_s);
    w.field("metrics_off_wall_s", r.metrics_off_wall_s);
    w.field("overhead_ratio", r.metrics_off_wall_s > 0.0
                                  ? r.metrics_wall_s / r.metrics_off_wall_s
                                  : 0.0);
    w.field("overhead_pair_ratio", r.metrics_pair_ratio);
    w.key("data_movement_audit");
    obs::write_json(w, r.audit);
    w.key("pool");
    w.begin_object();
    w.field("tasks_run", r.pool_tasks_run);
    w.field("latency_urgent_count", r.lat_urgent_count);
    w.field("latency_urgent_sum_s", r.lat_urgent_sum_s);
    w.field("latency_lazy_count", r.lat_lazy_count);
    w.field("latency_lazy_sum_s", r.lat_lazy_sum_s);
    w.field("ready_depth_max", r.ready_depth_max);
    w.field("ready_lazy_depth_max", r.ready_lazy_depth_max);
    w.end_object();
    w.end_object();
    // Recovery section: checkpoint and ABFT overhead pairs plus the
    // per-run recover.* counter deltas of the armed legs.
    w.key("recovery");
    w.begin_object();
    w.field("ckpt_wall_s", r.ckpt_wall_s);
    w.field("ckpt_off_wall_s", r.ckpt_off_wall_s);
    w.field("ckpt_overhead_pair_ratio", r.ckpt_pair_ratio);
    w.field("ckpt_saves_per_run", r.ckpt_saves_per_run);
    w.field("ckpt_bytes_per_run", r.ckpt_bytes_per_run);
    w.field("ckpt_seconds_per_run", r.ckpt_seconds_per_run);
    w.field("abft_wall_s", r.abft_wall_s);
    w.field("abft_off_wall_s", r.abft_off_wall_s);
    w.field("abft_overhead_pair_ratio", r.abft_pair_ratio);
    w.field("abft_verified_per_run", r.abft_verified_per_run);
    w.end_object();
    w.key("gates");
    w.begin_array();
    for (const GateResult& g : r.gates) {
      w.begin_object();
      w.field("name", std::string_view(g.name));
      w.field("measured", g.measured);
      w.field("limit", g.limit);
      w.field("pass", g.pass);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  out << "\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string out_path = cli.get_string("out", "BENCH_factor.json");
  const std::string trace_path = cli.get_string("trace", "");
  const bool large = cli.get_flag("large");
  const bool serial_baseline = cli.get_flag("serial-baseline");
  const int reps = static_cast<int>(cli.get_int("reps", 1));
  cli.check_unused();

  std::vector<Cell> cells = {
      {512, 2, 2, 1, 32},
      {512, 2, 2, 2, 32},
      {1024, 4, 4, 2, 32},
      {1024, 2, 2, 4, 32},
  };
  if (large) cells.push_back({2048, 4, 4, 4, 64});  // the n=2048, P=64 cell

  std::vector<Row> rows;
  sched::EventLog last_lu_log;
  xsim::MachineSpec last_lu_spec;
  for (const Cell& c : cells) {
    for (const char* algo : {"conflux_lu", "confchox"}) {
      rows.push_back(run_cell(algo, c, reps, serial_baseline,
                              trace_path.empty() ? nullptr : &last_lu_log,
                              &last_lu_spec));
      print_row(rows.back());
    }
  }

  // Sanity + acceptance gates for CI's perf-smoke job. Every gate prints
  // its measured value against the gated threshold — pass or fail — so a
  // run that squeaks by with no margin is visible in the log long before
  // it turns into a red build. Each verdict is also recorded in its row,
  // and the record is written whether or not every gate passed.
  bool gates_ok = true;
  for (Row& r : rows) {
    const std::string where =
        r.algo + " n=" + std::to_string(static_cast<long long>(r.cell.n));
    const auto gate = [&](const char* name, double measured, double limit,
                          bool pass) {
      if (limit > 0.0 && std::isfinite(measured)) {
        std::printf("gate %-22s %-22s measured %11.4g vs gated %11.4g "
                    "(ratio %.3fx) %s\n",
                    name, where.c_str(), measured, limit, measured / limit,
                    pass ? "PASS" : "FAIL");
      } else {
        std::printf("gate %-22s %-22s measured %11.4g vs gated %11.4g %s\n",
                    name, where.c_str(), measured, limit,
                    pass ? "PASS" : "FAIL");
      }
      r.gates.push_back({name, measured, limit, pass});
      if (!pass) gates_ok = false;
      return pass;
    };
    const bool at_gate_cell =
        r.cell.n == 2048 && r.cell.px * r.cell.py * r.cell.pz == 64;
    // A hung clock, NaN time, or NaN model output must fail the run, not
    // silently land in the record.
    const bool finite_ok =
        std::isfinite(r.real_wall_s) && r.real_wall_s > 0.0 &&
        std::isfinite(r.real_gflops) && std::isfinite(r.t_bsp) &&
        std::isfinite(r.t_timeline) && std::isfinite(r.t_overlap) &&
        std::isfinite(r.t_lookahead) && std::isfinite(r.lookahead_wall_s) &&
        r.lookahead_wall_s > 0.0 && std::isfinite(r.workspace_peak_words);
    gate("finite-measurements", r.real_wall_s, 0.0, finite_ok);
    // Model ordering must hold in the record itself: bsp >= timeline >=
    // lookahead >= overlap. Printed as overlap vs bsp (the outer pair).
    const bool order_ok = r.t_bsp >= r.t_timeline &&
                          r.t_timeline >= r.t_lookahead &&
                          r.t_lookahead >= r.t_overlap;
    gate("model-ordering", r.t_overlap, r.t_bsp, order_ok);
    // Lookahead acceptance gate (ISSUE 5): at the n=2048 P=64 cell with at
    // least two host threads, pipelined execution must be no slower than
    // step-synchronous. Both legs run best-of-reps of bitwise-identical
    // arithmetic, so any true regression shows up as a systematic gap; the
    // 5% margin covers OS-scheduler noise when the threads oversubscribe
    // the cores (CI runners, containers).
    if (at_gate_cell && r.threads >= 2) {
      gate("lookahead-speed", r.lookahead_wall_s, 1.05 * r.real_wall_s,
           r.lookahead_wall_s <= 1.05 * r.real_wall_s);
    }
    // Mixed-precision acceptance gate (ISSUE 4): the refined solve must
    // reach the fp64 direct solve's backward error within 10x in <= 3 steps
    // — or have converged by the dsgesv-style 2*sqrt(n)*eps criterion the
    // refinement loop itself targets (it stops there by design, so when
    // that tolerance sits above 10x an unusually good direct solve, the
    // stricter bar would punish legitimate early convergence).
    const double dsgesv_tol = 2.0 * std::sqrt(static_cast<double>(r.cell.n)) *
                              std::numeric_limits<double>::epsilon();
    const double ir_limit =
        std::max(10.0 * r.direct_backward_error, dsgesv_tol);
    const bool ir_ok = r.ir_steps <= 3 && std::isfinite(r.ir_backward_error) &&
                       r.ir_backward_error <= ir_limit;
    if (!gate("mixed-precision-berr", r.ir_backward_error, ir_limit, ir_ok)) {
      std::fprintf(stderr,
                   "error: mixed-precision solve off the bar for %s n=%lld "
                   "(steps %d, berr %.3e vs direct %.3e)\n",
                   r.algo.c_str(), static_cast<long long>(r.cell.n), r.ir_steps,
                   r.ir_backward_error, r.direct_backward_error);
    }
    // Degradation-ladder gate (ISSUE 6): the bench inputs are healthy and
    // well conditioned, so the fp64 rung engaging would mean either a
    // numerics regression or an over-eager breakdown classifier.
    gate("no-fp64-fallback", static_cast<double>(r.ladder_fp64_fallbacks), 0.0,
         !r.fallback_engaged && r.ladder_fp64_fallbacks == 0);
    // Data-movement audit gate: the measured per-rank volume must exceed
    // the lower bound (counting every workspace touch, it cannot be below
    // a valid bound) and stay within a fixed constant factor of it — the
    // implementation moves O(lower bound) data. The constant covers the
    // shared-memory accounting (each operand touch counted, both sides of
    // every copy) across all bench cells; a regression that loses the
    // asymptotics (for example re-reading the trailing matrix per step
    // without blocking) overshoots it by orders of magnitude.
    const bool audit_ok = std::isfinite(r.audit.measured_ratio) &&
                          r.audit.measured_ratio >= 1.0 &&
                          r.audit.measured_ratio <= 80.0;
    if (!gate("data-movement-audit", r.audit.measured_ratio, 80.0,
              audit_ok)) {
      std::fprintf(stderr,
                   "error: measured data movement off the bound for %s "
                   "n=%lld (%.3g words/rank vs bound %.3g, ratio %.2f)\n",
                   r.algo.c_str(), static_cast<long long>(r.cell.n),
                   r.audit.measured_words_per_rank, r.audit.lower_bound_words,
                   r.audit.measured_ratio);
    }
    // Instrumentation-overhead gate (acceptance): at the n=2048 P=64 cell
    // the armed run must cost at most 2% over the disarmed run. The gated
    // statistic is the min over interleaved back-to-back (disarmed, armed)
    // pairs: the registry's overhead is deterministic (one TLS add per
    // record), while this container's scheduling noise is several percent
    // between runs minutes apart — a single quiet pair bounds the true
    // overhead from above, where min-per-leg over independent runs does
    // not.
    if (at_gate_cell) {
      gate("metrics-overhead", r.metrics_pair_ratio, 1.02,
           r.metrics_pair_ratio <= 1.02);
      // Recovery-overhead gates (ISSUE 8, acceptance): checkpointing at the
      // default interval costs at most 5% and per-step ABFT verification at
      // most 10% over the plain lookahead run. Same min-over-interleaved-
      // pairs statistic as the metrics gate.
      gate("checkpoint-overhead", r.ckpt_pair_ratio, 1.05,
           r.ckpt_pair_ratio <= 1.05);
      gate("abft-overhead", r.abft_pair_ratio, 1.10,
           r.abft_pair_ratio <= 1.10);
    }
  }
  if (!write_json(out_path, rows)) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), rows.size());

  // CONFLUX_TRACE=<file>: one merged Chrome trace of the first cell's LU
  // lookahead run — task-pool worker slices, the factor core's annotated
  // phase spans, and the sampled counter tracks, in a single timeline.
  if (const std::string& unified_path = prof::trace_path(); !unified_path.empty()) {
    const Cell& c = cells.front();
    const grid::Grid3D g(c.px, c.py, c.pz);
    const MatrixD a = random_matrix(c.n, c.n, 1);
    factor::FactorOptions opt;
    opt.block_size = c.v;
    opt.lookahead = 1;
    const bool was_enabled = metrics::enabled();
    metrics::set_enabled(true);
    sched::TaskPool& pool = sched::TaskPool::instance();
    pool.start_recording();
    prof::start_capture();
    {
      xsim::Machine m(spec_for(c), xsim::ExecMode::Real);
      factor::conflux_lu(m, g, a.view(), opt);
    }
    const prof::Capture capture = prof::stop_capture();
    const std::vector<sched::TaskSlice> slices = pool.stop_recording();
    metrics::set_enabled(was_enabled);
    if (sched::write_unified_trace_file(unified_path, slices, capture)) {
      std::printf(
          "wrote unified trace %s (%zu task slices, %zu spans, %zu samples)\n",
          unified_path.c_str(), slices.size(), capture.spans.size(),
          capture.samples.size());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", unified_path.c_str());
      return 1;
    }
  }

  if (!trace_path.empty() && !last_lu_log.events().empty()) {
    sched::TimelineOptions opt;
    opt.record_slices = true;
    const sched::Timeline tl(last_lu_log, last_lu_spec, opt);
    if (sched::write_chrome_trace_file(trace_path, tl)) {
      std::printf("wrote Chrome trace %s (%zu slices; open in about:tracing)\n",
                  trace_path.c_str(), tl.slices().size());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", trace_path.c_str());
      return 1;
    }
  }

  if (!gates_ok) {
    std::fprintf(stderr, "error: one or more acceptance gates failed\n");
    return 1;
  }
  return 0;
}
