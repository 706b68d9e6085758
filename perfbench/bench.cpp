// Repo benchmark binary: one process runs one workload for a fixed time and
// prints one record. perfbench/run.py builds this binary, pins the thread
// widths a workload asks for, and turns the record into the benchmark's
// result line; README.md in this directory explains the workloads and what
// each metric should move.
//
//   conflux_perfbench --workload=dense-2048|serve-mix --seed=N --seconds=S
//                     [--trace=0|1] [--smoke=0|1] [--spans=FILE]
//
// dense-2048-1t runs the dense-2048 code path; run.py pins its widths to 1,
// and those of dense-2048 to 2.
//
// Untraced runs (--trace=0) measure the end-to-end metrics, timings in
// reference seconds (see Calibration) and in wall seconds. Traced runs
// (--trace=1) arm the metrics registry, record benchmark-side spans around
// every call into a layer, measure the per-layer metrics and the tracing
// overhead, and write the spans to --spans at exit.
//
// The last line of stdout is "RESULT " followed by one JSON object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "blas/blas.hpp"
#include "blas/lapack.hpp"
#include "blas/microkernel.hpp"
#include "blas/tuning.hpp"
#include "factor/confchox.hpp"
#include "factor/conflux_lu.hpp"
#include "factor/mixed.hpp"
#include "obs/audit.hpp"
#include "sched/taskpool.hpp"
#include "serve/fingerprint.hpp"
#include "serve/service.hpp"
#include "support/buildinfo.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "tensor/example_problems.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace conflux;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

// ---------------------------------------------------------------- spans ----

/// One benchmark-side span: a call into a layer, timed from outside it.
struct Span {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  long long id = 0;
  long long parent = 0;   ///< 0 = root
  long long request = -1; ///< serve-mix: every span of one request shares it
  int tid = 0;
};

/// In-memory span store. Spans are appended under a mutex and written out
/// once at exit, so the timed loops never touch the file system.
class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  long long begin() { return next_id_.fetch_add(1) + 1; }

  void add(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }

  /// Chrome trace format: one complete ("X") event per span.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    json::Writer w(out);
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      w.begin_object();
      w.field("name", std::string_view(s.name));
      w.field("ph", "X");
      w.field("ts", s.t0 * 1e6);
      w.field("dur", (s.t1 - s.t0) * 1e6);
      w.field("pid", 0);
      w.field("tid", s.tid);
      w.key("args");
      w.begin_object();
      w.field("id", s.id);
      w.field("parent", s.parent);
      w.field("request", s.request);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << "\n";
    return out.good();
  }

 private:
  bool on_ = false;
  std::atomic<long long> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tracer;
thread_local std::vector<long long> tls_span_stack;
thread_local long long tls_request = -1;

int thread_tag() {
  static std::atomic<int> next{0};
  thread_local const int tag = next.fetch_add(1);
  return tag;
}

/// Makes the spans opened in its scope children of one serve request's
/// root span, tagged with the request id.
class RequestScope {
 public:
  RequestScope(long long request, long long root) : pushed_(root != 0) {
    tls_request = request;
    if (pushed_) tls_span_stack.push_back(root);
  }
  ~RequestScope() {
    if (pushed_) tls_span_stack.pop_back();
    tls_request = -1;
  }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  bool pushed_;
};

/// RAII span around one call. A no-op unless the tracer is on.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) {
    if (!g_tracer.on()) return;
    span_.name = name;
    span_.id = g_tracer.begin();
    span_.parent = tls_span_stack.empty() ? 0 : tls_span_stack.back();
    span_.request = tls_request;
    span_.tid = thread_tag();
    tls_span_stack.push_back(span_.id);
    span_.t0 = now_s();
  }
  ~SpanGuard() {
    if (span_.id == 0) return;
    span_.t1 = now_s();
    tls_span_stack.pop_back();
    g_tracer.add(std::move(span_));
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Span span_;
};

// ------------------------------------------------------------ statistics ----

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

template <typename F>
double time_call(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

// ---------------------------------------------------------------- record ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long long samples = 0;
};

struct Record {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  bool smoke = false;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  ///< first few failed checks, for the log
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;  ///< metric -> why
  std::vector<std::pair<std::string, std::string>> digests;
  std::vector<std::pair<std::string, double>> checks;  ///< one-off check values
  /// A median-valued metric is emitted as its samples, not as a value:
  /// run.py pools the samples of all processes of a run and takes the one
  /// median (see pool() there).
  struct Samples {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  std::vector<Samples> raw;

  void add(std::string name, double value, std::string unit, long long samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// A median-valued metric: its samples.
  void add_samples(std::string name, std::vector<double> v, std::string unit) {
    raw.push_back({std::move(name), std::move(unit), std::move(v)});
  }
  void note(std::string name, std::string why) {
    notes.emplace_back(std::move(name), std::move(why));
  }
  /// Count one operation; a false `ok` counts it as failed.
  void count(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(what);
    }
  }
};

/// CPU time the hypervisor has stolen from this machine so far, in seconds
/// summed over CPUs (the steal column of /proc/stat; 0 where absent). The
/// record reports the steal during the run, so a run on a busy host can be
/// spotted.
double steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (double& x : v) in >> x;
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? v[7] / static_cast<double>(hz) : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ----------------------------------------------------------- calibration ----

/// Wall time of one calibration run at two threads on the host the bounds
/// were set on (4-vCPU AVX-512 Xeon VM, 2.1 GHz, quiet minutes): the unit
/// of the reference seconds every end-to-end timing is reported in. Both
/// kinds of calibration work are sized to take about this long there.
constexpr double kCalibrationRefS = 0.030;

/// A fixed amount of the benchmark's own work, timed right after each timed
/// sample at the same width, so that the sample can be reported at the
/// host's reference speed. The host is a VM shared with neighbours, and
/// its speed drifts by up to 2x over minutes (steal, contention for cores,
/// caches and memory): far more than the changes the benchmark has to see.
/// A sample of wall time w next to a calibration of wall time c is
/// reported as w * kCalibrationRefS / c. The calibration does not call the
/// library, so a change to the library moves the timings and not it.
///
/// The work is the kind whose time moved in proportion to the workload's
/// on the reference host (log-log slope near 1, over 16 to 22 processes):
/// copying for the dense operations (slope 0.9-1.0; a multiply-add kernel
/// moved a third as much as they did), multiply-adds for the small-n
/// serve requests (slope 1.1-1.3; copying moved more than they did).
class Calibration {
 public:
  enum class Work { kCopy, kMultiplyAdd };

  /// Allocates and faults in the copy buffers. The first run() may also
  /// start an OpenMP team of this width, so callers make one before timing.
  Calibration(int width, Work work) : width_(std::max(1, width)), work_(work) {
    if (work_ == Work::kCopy) {
      a_.assign(kWords, 1.0);
      b_.assign(kWords, 0.0);
    }
  }

  /// Wall time of one calibration. Copy: each thread copies its share of
  /// two 64 MB buffers back and forth kRounds times. Multiply-add: each
  /// thread runs kSteps steps of eight independent vector multiply-add
  /// chains, which keeps its core's arithmetic units busy.
  double run() {
    SpanGuard sg("calibration");
    const double t0 = now_s();
    double sink = 0.0;
#ifdef _OPENMP
#pragma omp parallel num_threads(width_) reduction(+ : sink)
#endif
    {
#ifdef _OPENMP
      const int t = omp_get_thread_num(), nt = omp_get_num_threads();
#else
      const int t = 0, nt = 1;
#endif
      if (work_ == Work::kCopy) {
        const std::size_t chunk = kWords / static_cast<std::size_t>(nt);
        double* a = a_.data() + static_cast<std::size_t>(t) * chunk;
        double* b = b_.data() + static_cast<std::size_t>(t) * chunk;
        for (int r = 0; r < kRounds; ++r) {
          std::memcpy(b, a, chunk * sizeof(double));
          std::memcpy(a, b, chunk * sizeof(double));
        }
      } else {
        sink += multiply_add();
      }
    }
    sink_ += sink;
    return now_s() - t0;
  }

 private:
  using Lanes = double __attribute__((vector_size(64)));
  static constexpr std::size_t kWords = std::size_t{8} << 20;  // 64 MB per buffer
  static constexpr int kRounds = 4;
  static constexpr long kSteps = 6000000;

  static double multiply_add() {
    Lanes acc[8];
    Lanes m, c;
    for (int i = 0; i < 8; ++i) {
      m[i] = 0.999999999;
      c[i] = 1e-9;
      for (int j = 0; j < 8; ++j) acc[j][i] = 1.0 + 1e-9 * (i + 8 * j);
    }
    for (long k = 0; k < kSteps; ++k) {
      for (Lanes& x : acc) x = x * m + c;
      asm volatile("" : : "r"(acc) : "memory");  // keeps every step
    }
    double s = 0.0;
    for (const Lanes& x : acc) {
      for (int i = 0; i < 8; ++i) s += x[i];
    }
    return s;
  }

  int width_;
  Work work_;
  std::vector<double> a_, b_;
  double sink_ = 0.0;  ///< the chains' result, so they are not optimized away
};

int omp_width() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

int blas_width() {
  const int t = xblas::tuning().threads;
  return t > 0 ? t : omp_width();
}

// ---------------------------------------------------------------- inputs ----

/// Uniform [-1, 1) entries: the LU input (nonsymmetric, pivoting active).
MatrixD gen_general(index_t rows, index_t cols, Rng& rng) {
  MatrixD a(rows, cols);
  double* p = a.data();
  for (index_t i = 0; i < rows * cols; ++i) p[i] = rng.uniform(-1.0, 1.0);
  return a;
}

/// Symmetric uniform [-1, 1) plus n on the diagonal: SPD by strict diagonal
/// dominance, generated in O(n^2).
MatrixD gen_spd(index_t n, Rng& rng) {
  MatrixD a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < i; ++j) {
      const double x = rng.uniform(-1.0, 1.0);
      a(i, j) = x;
      a(j, i) = x;
    }
    a(i, i) = rng.uniform(-1.0, 1.0) + static_cast<double>(n);
  }
  return a;
}

template <typename T>
bool same_bits(const Matrix<T>& x, const Matrix<T>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), sizeof(T) * static_cast<std::size_t>(x.size())) == 0;
}

std::string digest(const MatrixD& f, const std::vector<index_t>* perm) {
  serve::Fingerprint fp = serve::fingerprint(f.view());
  if (perm != nullptr) {
    for (index_t p : *perm) fp = serve::fingerprint_combine(fp, static_cast<std::uint64_t>(p));
  }
  return fp.hex();
}

// ------------------------------------------------------------ blas probes ----

/// Time `call` until at least `min_s` have passed (and at least 3 calls),
/// each call in a span named `layer`; records the median GF/s over the
/// calls as `<layer>_gflops` and returns it. `reset` restores the operands
/// a call overwrites; it runs before each call, outside the timed region.
template <typename R, typename F>
double probe_gflops(Record& rec, const std::string& layer, double flops, double min_s,
                    R&& reset, F&& call) {
  std::vector<double> rates;
  const double start = now_s();
  while (rates.size() < 3 || now_s() - start < min_s) {
    reset();
    double t = 0.0;
    {
      SpanGuard sg(layer.c_str());
      t = time_call(call);
    }
    rates.push_back(flops / std::max(t, 1e-9) / 1e9);
  }
  const double rate = median(rates);
  rec.add(layer + "_gflops", rate, "GF/s", static_cast<long long>(rates.size()));
  return rate;
}

/// The blas layer at one workload's shapes: gemm at the Schur-update shape
/// (rank-v update of a half-size trailing block), getrf on the 2v x v
/// tournament block, potrf on the v x v diagonal block, the panel trsm.
/// Returns the fp64 gemm rate, the base of the factor layer's ratios.
double probe_blas(Record& rec, index_t n, index_t v, double min_s, Rng& rng) {
  using namespace xblas;
  const index_t m = std::max<index_t>(n / 2, v);
  const double vd = static_cast<double>(v);
  // The gemms accumulate into c; its values do not matter, so no reset.
  const auto no_reset = [] {};
  double gemm_f64 = 0.0;
  {
    const MatrixD a = gen_general(m, v, rng), b = gen_general(v, m, rng);
    MatrixD c = gen_general(m, m, rng);
    gemm_f64 = probe_gflops(rec, "blas.gemm_f64", gemm_flops(m, m, v), min_s, no_reset, [&] {
      gemm(Trans::None, Trans::None, -1.0, a.view(), b.view(), 1.0, c.view());
    });
  }
  {
    MatrixF a(m, v), b(v, m), c(m, m);
    const MatrixD ad = gen_general(m, v, rng), bd = gen_general(v, m, rng);
    convert<double, float>(ad.view(), a.view());
    convert<double, float>(bd.view(), b.view());
    probe_gflops(rec, "blas.gemm_f32", gemm_flops(m, m, v), min_s, no_reset, [&] {
      gemm(Trans::None, Trans::None, -1.0f, a.view(), b.view(), 1.0f, c.view());
    });
  }
  {
    const MatrixD src = gen_general(2 * v, v, rng);
    MatrixD a(2 * v, v);
    std::vector<index_t> ipiv;
    const double flops = 2.0 * vd * vd * vd - 2.0 * vd * vd * vd / 3.0;  // m n^2 - n^3/3, m = 2v
    probe_gflops(rec, "blas.getrf", flops, min_s, [&] { a = src; },
                 [&] { getrf(a.view(), ipiv); });
  }
  {
    Rng r2(rng());
    const MatrixD src = gen_spd(v, r2);
    MatrixD a(v, v);
    probe_gflops(rec, "blas.potrf", vd * vd * vd / 3.0, min_s, [&] { a = src; },
                 [&] { potrf(a.view()); });
  }
  {
    Rng r2(rng());
    const MatrixD t = gen_spd(v, r2);  // well-conditioned triangle
    const index_t rows = std::max<index_t>(n - v, v);
    const MatrixD src = gen_general(rows, v, rng);
    MatrixD b(rows, v);
    probe_gflops(rec, "blas.trsm", trsm_flops(rows, v, Side::Right), min_s, [&] { b = src; }, [&] {
      trsm(Side::Right, UpLo::Upper, Trans::None, Diag::NonUnit, 1.0, t.view(), b.view());
    });
  }
  return gemm_f64;
}

// --------------------------------------------------- factor-layer probes ----

struct FactorShape {
  index_t n = 0;
  grid::Grid3D g{1, 1, 1};
  index_t v = 0;
  xsim::MachineSpec spec;
};

/// Factorization GF/s as a percentage of the gemm rate at the same thread
/// count, from one LU and one Cholesky time at size n.
void add_pct_gemm(Record& rec, index_t n, double lu_s, double chol_s, double gemm_gflops,
                  long long samples) {
  const double nd = static_cast<double>(n);
  const double lu_gf = 2.0 * nd * nd * nd / 3.0 / lu_s / 1e9;
  const double chol_gf = nd * nd * nd / 3.0 / chol_s / 1e9;
  rec.add("factor.lu_pct_gemm", 100.0 * lu_gf / gemm_gflops, "%", samples);
  rec.add("factor.chol_pct_gemm", 100.0 * chol_gf / gemm_gflops, "%", samples);
}

/// The counted layers of one LU at the workload's shape: Table 1 step
/// costs, workspace, simulated per-rank traffic, and the measured dm.*
/// bytes against the I/O lower bound. All of these are exact counts.
void probe_lu_counts(Record& rec, const FactorShape& s, const MatrixD& a) {
  factor::FactorOptions opt;
  opt.block_size = s.v;
  opt.record_step_costs = true;
  xsim::Machine m(s.spec, xsim::ExecMode::Real);
  factor::LuResult lu;
  {
    SpanGuard sg("factor.conflux_lu.step_costs");
    lu = factor::conflux_lu(m, s.g, a.view(), opt);
  }
  factor::StepCosts sum;
  for (const factor::StepCosts& c : lu.step_costs) {
    sum.pivoting_words += c.pivoting_words;
    sum.a00_words += c.a00_words;
    sum.panels_words += c.panels_words;
    sum.a11_words += c.a11_words;
  }
  rec.add("factor.workspace_mb", lu.workspace_words * 8.0 / 1e6, "MB", 1);
  rec.add("factor.words.pivoting", sum.pivoting_words, "words", 1);
  rec.add("factor.words.a00", sum.a00_words, "words", 1);
  rec.add("factor.words.panels", sum.panels_words, "words", 1);
  rec.add("factor.words.a11", sum.a11_words, "words", 1);
  long long msgs = 0;
  for (int r = 0; r < m.ranks(); ++r) {
    const xsim::RankCounters& c = m.counters(r);
    msgs = std::max(msgs, std::max(c.messages_sent, c.messages_received));
  }
  rec.add("xsim.words_per_rank", m.max_comm_volume(), "words", 1);
  rec.add("xsim.msgs_per_rank", static_cast<double>(msgs), "count", 1);

  // Measured data movement: one more LU with the registry armed,
  // bracketed by snapshots (counts are exact at quiescent points).
  const bool was = metrics::enabled();
  metrics::set_enabled(true);
  opt.record_step_costs = false;
  const metrics::Snapshot before = metrics::snapshot();
  {
    SpanGuard sg("factor.conflux_lu.audited");
    xsim::Machine m2(s.spec, xsim::ExecMode::Real);
    factor::conflux_lu(m2, s.g, a.view(), opt);
  }
  const metrics::Snapshot after = metrics::snapshot();
  metrics::set_enabled(was);
  const obs::DataMovementAudit audit = obs::audit_data_movement(
      obs::Kernel::kLu, before, after, static_cast<double>(s.n),
      static_cast<double>(s.spec.num_ranks), s.spec.memory_words);
  // The trailing accumulator's read-modify-writes in the Schur update.
  double schur = 0.0;
  for (const obs::CounterDelta& d : audit.breakdown) {
    if (d.name == "dm.schur_update.bytes") schur = d.bytes;
  }
  rec.add("obs.dm_bytes", audit.measured_bytes, "bytes", 1);
  rec.add("obs.schur_bytes_frac",
          audit.measured_bytes > 0.0 ? schur / audit.measured_bytes : 0.0, "frac", 1);
  rec.add("obs.io_ratio", audit.measured_ratio, "x", 1);
}

/// The mixed layer in isolation: the fp32 factorization and the fp64
/// refinement, timed separately (registry disarmed), plus the IR step count.
void probe_mixed(Record& rec, const FactorShape& s, const MatrixD& a,
                 const MatrixD& b0, int reps) {
  factor::FactorOptions opt;
  opt.block_size = s.v;
  MatrixF af(s.n, s.n);
  convert<double, float>(a.view(), af.view());
  std::vector<double> tf, tr;
  factor::LuResultF luf;
  for (int r = 0; r < reps; ++r) {
    SpanGuard sg("mixed.fp32_factor");
    tf.push_back(time_call([&] {
      xsim::Machine m(s.spec, xsim::ExecMode::Real);
      luf = factor::conflux_lu(m, s.g, af.view(), opt);
    }));
  }
  factor::RefineReport rep;
  for (int r = 0; r < reps; ++r) {
    MatrixD x = b0;
    SpanGuard sg("mixed.refine_lu");
    tr.push_back(time_call([&] { rep = factor::refine_lu(luf, a.view(), x.view()); }));
  }
  rec.add("mixed.fp32_factor_s", median(tf), "s", static_cast<long long>(tf.size()));
  rec.add("mixed.refine_s", median(tr), "s", static_cast<long long>(tr.size()));
  rec.add("mixed.ir_steps", rep.steps, "count", 1);
}

/// TaskPool::stats() over a traced loop; busy time and tasks per round
/// (dense) or per request (serve-mix).
void add_sched(Record& rec, const sched::TaskPoolStats& st, double wall, double per) {
  const int width = sched::TaskPool::instance().width();
  const double busy = st.busy_total_s();
  rec.add("sched.busy_s", busy / per, "s", 1);
  rec.add("sched.idle_frac",
          wall > 0.0 ? std::max(0.0, 1.0 - busy / (static_cast<double>(width) * wall)) : 0.0,
          "frac", 1);
  rec.add("sched.tasks_run", static_cast<double>(st.tasks_run) / per, "count", 1);
  if (st.tasks_run == 0) {
    const char* why =
        "TaskPool::stats() recorded no tasks: the default synchronous path runs "
        "parallel_for jobs, which it does not count";
    for (const char* m : {"sched.busy_s", "sched.idle_frac", "sched.tasks_run"}) rec.note(m, why);
  }
}

/// The serve layer's metrics from per-request samples (milliseconds):
/// queue wait, factor leg over misses only, solve leg, and total latency.
void add_serve_metrics(Record& rec, const std::vector<double>& q,
                       const std::vector<double>& f, const std::vector<double>& so,
                       const std::vector<double>& total, long long hits, long long n,
                       const serve::SolveService::Stats& st,
                       const serve::SolveRequest& probe,
                       const serve::ServiceOptions& sopt) {
  rec.add("serve.queue_ms_p50", median(q), "ms", static_cast<long long>(q.size()));
  rec.add("serve.factor_ms_p50", median(f), "ms", static_cast<long long>(f.size()));
  rec.add("serve.solve_ms_p50", median(so), "ms", static_cast<long long>(so.size()));
  rec.add("serve.hit_frac", n > 0 ? static_cast<double>(hits) / static_cast<double>(n) : 0.0,
          "frac", n);
  rec.add("serve.evictions", static_cast<double>(st.cache.evictions), "count", 1);
  rec.add("serve.rejected", static_cast<double>(st.admission_rejected), "count", 1);
  // The p99 has at least 10 samples beyond it only from 1000 samples on.
  rec.add("serve.latency_p50_ms", percentile(total, 0.50), "ms", static_cast<long long>(total.size()));
  rec.add("serve.latency_p99_ms", percentile(total, 0.99), "ms", static_cast<long long>(total.size()));
  if (total.size() < 1000) {
    rec.note("serve.latency_p99_ms", "fewer than 1000 samples, so under 10 beyond the p99");
  }
  std::vector<double> fp;
  const double start = now_s();
  while (fp.size() < 5 || now_s() - start < 0.05) {
    SpanGuard sg("serve.request_key");
    fp.push_back(1e3 * time_call([&] { (void)serve::request_key(probe, sopt); }));
  }
  rec.add("serve.fingerprint_ms", median(fp), "ms", static_cast<long long>(fp.size()));
}

/// Set-up times as samples: in reference seconds (setup_s), each scaled by
/// the calibration run right after it, and in wall seconds.
void add_setup(Record& rec, const std::vector<double>& wall, const std::vector<double>& cal) {
  std::vector<double> ref;
  for (std::size_t i = 0; i < wall.size(); ++i) ref.push_back(wall[i] * kCalibrationRefS / cal[i]);
  rec.add_samples("setup_s", ref, "s");
  rec.add_samples("wall.setup_s", wall, "s");
}

// ---------------------------------------------------------------- dense ----

struct DenseTimes {
  std::vector<double> lu, chol, mixed, round;
  std::vector<double> cal;  ///< the calibration run after each round
};

class Dense {
 public:
  Dense(Record& rec, bool smoke, std::uint64_t seed)
      : rec_(rec), cal_(omp_width(), Calibration::Work::kCopy) {
    // The factor_schedule --large cell: n = 2048 on a 4 x 4 x 4 grid
    // (P = 64 simulated ranks), v = 64, M = pz n^2 / P. Smoke runs use
    // n = 512 and v = 32 on the same grid.
    s_.n = smoke ? 512 : 2048;
    s_.g = grid::Grid3D(4, 4, 4);
    s_.v = smoke ? 32 : 64;
    s_.spec.num_ranks = 64;
    s_.spec.memory_words = 4.0 * static_cast<double>(s_.n) * static_cast<double>(s_.n) / 64.0;
    opt_.block_size = s_.v;
    mopt_.factor = opt_;
    Rng rng(seed);
    a_lu_ = gen_general(s_.n, s_.n, rng);
    a_chol_ = gen_spd(s_.n, rng);
    b_ = gen_general(s_.n, kNrhs, rng);
  }

  /// The set-up: every timed operation once, which also pays the library's
  /// lazy initialization (ISA dispatch, tuning, pool and OpenMP teams,
  /// thread-local pack buffers). Its outputs become the reference every
  /// timed rep is compared against.
  void setup() {
    SpanGuard sg("setup");
    ref_lu_ = run_lu();
    ref_chol_ = run_chol();
    ref_x_ = b_;
    const factor::MixedSolveReport rep = run_mixed(ref_x_);
    ref_mixed_ok_ = rep.ok() && !rep.fp64_fallback;
  }

  /// The once-per-run residual checks on the reference factors (outside
  /// every timed region) and the factor digests.
  void check_reference() {
    SpanGuard sg("check.residuals");
    const double lu_res = xblas::lu_residual(a_lu_.view(), ref_lu_.factors.view(), ref_lu_.perm);
    const double ch_res = xblas::cholesky_residual(a_chol_.view(), ref_chol_.factors.view());
    rec_.checks.emplace_back("lu_residual", lu_res);
    rec_.checks.emplace_back("chol_residual", ch_res);
    rec_.checks.emplace_back("residual_bound", kResidualBound);
    rec_.count(std::isfinite(lu_res) && lu_res <= kResidualBound,
               "LU residual " + std::to_string(lu_res) + " over bound");
    rec_.count(std::isfinite(ch_res) && ch_res <= kResidualBound,
               "Cholesky residual " + std::to_string(ch_res) + " over bound");
    rec_.count(ref_mixed_ok_, "reference mixed solve not ok or fell back to fp64");
    rec_.digests.emplace_back("lu", digest(ref_lu_.factors, &ref_lu_.perm));
    rec_.digests.emplace_back("chol", digest(ref_chol_.factors, nullptr));
  }

  /// Interleaved timed reps: LU, Cholesky, mixed, round-robin, then a
  /// calibration, until `seconds` have passed (and at least `min_rounds`
  /// rounds ran), so slow drift hits all three metrics alike. Every rep is
  /// checked bitwise against the reference outside its timed region.
  DenseTimes timed_loop(double seconds, int min_rounds) {
    DenseTimes t;
    const double start = now_s();
    while (static_cast<int>(t.round.size()) < min_rounds || now_s() - start < seconds) {
      SpanGuard sg("round");
      factor::LuResult lu;
      const double a = time_call([&] { lu = run_lu(); });
      {
        SpanGuard c("check.bitwise");
        rec_.count(same_bits(lu.factors, ref_lu_.factors) && lu.perm == ref_lu_.perm,
                   "LU rep factors differ from the first rep");
      }
      lu = factor::LuResult();
      factor::CholResult ch;
      const double b = time_call([&] { ch = run_chol(); });
      {
        SpanGuard c("check.bitwise");
        rec_.count(same_bits(ch.factors, ref_chol_.factors),
                   "Cholesky rep factors differ from the first rep");
      }
      ch = factor::CholResult();
      MatrixD x = b_;
      factor::MixedSolveReport rep;
      const double c = time_call([&] { rep = run_mixed(x); });
      {
        SpanGuard cs("check.mixed");
        rec_.count(rep.ok() && !rep.fp64_fallback && same_bits(x, ref_x_),
                   "mixed solve not ok, fell back to fp64, or differs from the first");
      }
      t.lu.push_back(a);
      t.chol.push_back(b);
      t.mixed.push_back(c);
      t.round.push_back(a + b + c);
      t.cal.push_back(cal_.run());
    }
    return t;
  }

  /// The timings of a loop as samples, in reference seconds (see
  /// Calibration) and in wall seconds (wall.*).
  void add_timings(const DenseTimes& t) {
    std::vector<double> ref[4], rate;
    for (std::size_t i = 0; i < t.round.size(); ++i) {
      const double k = kCalibrationRefS / t.cal[i];
      ref[0].push_back(t.lu[i] * k);
      ref[1].push_back(t.chol[i] * k);
      ref[2].push_back(t.mixed[i] * k);
      // Operations per second of each round (LU + Cholesky + mixed).
      ref[3].push_back(3.0 / (t.round[i] * k));
      rate.push_back(3.0 / t.round[i]);
    }
    rec_.add_samples("lu_ref_s", ref[0], "s");
    rec_.add_samples("chol_ref_s", ref[1], "s");
    rec_.add_samples("mixed_ref_s", ref[2], "s");
    rec_.add_samples("ops_per_ref_s", ref[3], "1/s");
    rec_.add_samples("wall.lu_s", t.lu, "s");
    rec_.add_samples("wall.chol_s", t.chol, "s");
    rec_.add_samples("wall.mixed_s", t.mixed, "s");
    rec_.add_samples("wall.ops_per_s", rate, "1/s");
    rec_.add_samples("calibration_s", t.cal, "s");
  }

  double calibrate() { return cal_.run(); }

  /// Per-layer probes at this workload's shapes and thread count.
  void probe_layers(const DenseTimes& untraced, double min_s) {
    Rng rng(0x5eed);
    const double gemm = probe_blas(rec_, s_.n, s_.v, min_s, rng);
    add_pct_gemm(rec_, s_.n, median(untraced.lu), median(untraced.chol), gemm,
                 static_cast<long long>(untraced.lu.size()));
    probe_lu_counts(rec_, s_, a_lu_);
    probe_mixed(rec_, s_, a_lu_, b_, 3);
  }

  /// The serve layer at this workload's shape: one LU request on the dense
  /// matrix through a fresh service (a miss), then three repeats (hits).
  void probe_serve() {
    serve::ServiceOptions sopt;
    sopt.threads = 2;
    serve::SolveService svc(sopt);
    serve::SolveRequest req;
    req.a = a_lu_.view();
    req.b = b_.view();
    std::vector<double> q, f, so, total;
    long long hits = 0, n = 0, bad = 0;
    for (int i = 0; i < 4; ++i) {
      SpanGuard sg("serve.solve");
      const serve::SolveResponse r = svc.solve(req);
      ++n;
      if (!r.ok()) ++bad;
      hits += r.cache_hit ? 1 : 0;
      q.push_back(r.queue_s * 1e3);
      if (!r.cache_hit) f.push_back(r.factor_s * 1e3);
      so.push_back(r.solve_s * 1e3);
      total.push_back(r.total_s * 1e3);
    }
    rec_.count(bad == 0, "serve probe request failed");
    add_serve_metrics(rec_, q, f, so, total, hits, n, svc.stats(), req, sopt);
    rec_.note("serve.hit_frac", "dense workload: one cold LU request then three repeats");
  }

 private:
  static constexpr index_t kNrhs = 16;
  // Scaled residuals (||.||_F / (||A||_F n eps)) of a backward-stable
  // factorization sit at O(1) (about 0.03 on these inputs); 10 leaves room.
  static constexpr double kResidualBound = 10.0;

  factor::LuResult run_lu() {
    SpanGuard sg("factor.conflux_lu");
    xsim::Machine m(s_.spec, xsim::ExecMode::Real);
    return factor::conflux_lu(m, s_.g, a_lu_.view(), opt_);
  }
  factor::CholResult run_chol() {
    SpanGuard sg("factor.confchox");
    xsim::Machine m(s_.spec, xsim::ExecMode::Real);
    return factor::confchox(m, s_.g, a_chol_.view(), opt_);
  }
  factor::MixedSolveReport run_mixed(MatrixD& x) {
    SpanGuard sg("mixed.conflux_lu_solve_mixed_ex");
    xsim::Machine m(s_.spec, xsim::ExecMode::Real);
    return factor::conflux_lu_solve_mixed_ex(m, s_.g, a_lu_.view(), x.view(), mopt_);
  }

  Record& rec_;
  Calibration cal_;
  FactorShape s_;
  factor::FactorOptions opt_;
  factor::MixedSolveOptions mopt_;
  MatrixD a_lu_, a_chol_, b_;
  bool ref_mixed_ok_ = false;
  factor::LuResult ref_lu_;
  factor::CholResult ref_chol_;
  MatrixD ref_x_;
};

void run_dense(Record& rec, double seconds, bool trace) {
  const int min_rounds = rec.smoke ? 2 : 5;
  Dense d(rec, rec.smoke, rec.seed);
  // One set-up per process: run.py runs several processes and takes the
  // median over their set-ups.
  const double setup = time_call([&] { d.setup(); });
  add_setup(rec, {setup}, {d.calibrate()});
  d.check_reference();  // golden work, after the set-up sample

  if (!trace) {
    d.add_timings(d.timed_loop(seconds, min_rounds));
    return;
  }
  // Traced run: an untraced segment and a traced one (registry armed,
  // spans on) of equal length, then the layer probes.
  const DenseTimes u = d.timed_loop(seconds / 3.0, std::max(2, min_rounds / 2));
  d.add_timings(u);
  sched::TaskPool& pool = sched::TaskPool::instance();
  metrics::set_enabled(true);
  g_tracer.set_on(true);
  factor::reset_mixed_counters();
  pool.reset_stats();
  const double t0 = now_s();
  const DenseTimes t = d.timed_loop(seconds / 3.0, std::max(2, min_rounds / 2));
  const double wall = now_s() - t0;
  const sched::TaskPoolStats st = pool.stats();
  const factor::MixedCounters mc = factor::mixed_counters();
  metrics::set_enabled(false);
  add_sched(rec, st, wall, static_cast<double>(t.round.size()));
  rec.add("mixed.fallback_frac",
          mc.solves > 0 ? static_cast<double>(mc.fp64_fallbacks) / static_cast<double>(mc.solves) : 0.0,
          "frac", mc.solves);
  d.probe_layers(u, rec.smoke ? 0.02 : 0.25);
  d.probe_serve();
  // Compared in calibrated time: the host's drift between the two
  // segments would otherwise swamp the cost of tracing.
  const auto scaled = [](const DenseTimes& x) {
    std::vector<double> v;
    for (std::size_t i = 0; i < x.lu.size(); ++i) v.push_back(x.lu[i] / x.cal[i]);
    return median(v);
  };
  const double lu_u = median(u.lu), lu_t = median(t.lu);
  rec.add("trace.overhead_pct", 100.0 * (scaled(t) - scaled(u)) / scaled(u), "%",
          static_cast<long long>(t.lu.size()));
  rec.checks.emplace_back("untraced_lu_s", lu_u);
  rec.checks.emplace_back("traced_lu_s", lu_t);
  rec.checks.emplace_back("untraced_chol_s", median(u.chol));
  rec.checks.emplace_back("traced_chol_s", median(t.chol));
  rec.checks.emplace_back("untraced_mixed_s", median(u.mixed));
  rec.checks.emplace_back("traced_mixed_s", median(t.mixed));
}

// ------------------------------------------------------------ serve-mix ----

struct Problem {
  MatrixD a, b;
};

struct Kind {
  serve::Method method;
  serve::Precision precision;
};
constexpr Kind kKinds[4] = {
    {serve::Method::kLu, serve::Precision::kFp64},
    {serve::Method::kCholesky, serve::Precision::kFp64},
    {serve::Method::kLu, serve::Precision::kMixed},
    {serve::Method::kCholesky, serve::Precision::kMixed},
};

struct ServeSample {
  int kind = 0;
  double total_s = 0.0, queue_s = 0.0, factor_s = 0.0, solve_s = 0.0;
  double done_at = 0.0;  ///< seconds since the loop started
  bool hit = false;
  bool fallback = false;
};

/// Verified responses in each whole one-second interval of the loop: the
/// throughput is their median, so a few seconds of host contention move it
/// less than one count over the loop would. A loop shorter than a second
/// gives its mean rate as the only sample.
std::vector<double> interval_rates(const std::vector<ServeSample>& s, double wall) {
  const auto whole = static_cast<std::size_t>(wall);
  if (whole == 0) return {static_cast<double>(s.size()) / wall};
  std::vector<double> per(whole, 0.0);
  for (const ServeSample& x : s) {
    const auto i = static_cast<std::size_t>(x.done_at);
    if (i < whole) per[i] += 1.0;
  }
  return per;
}

class ServeMix {
 public:
  ServeMix(Record& rec, bool smoke, std::uint64_t seed) : rec_(rec), rng_(seed) {
    // The hot set is bench/serve_throughput's pool: K-FAC n = 96, 128, 160
    // and a DFT overlap matrix at n = 112. The cold tail stands for its
    // "evicted or never seen" variants: K-FAC and DFT matrices over the
    // whole size range, enough of them that a cold request almost always
    // misses. Sizes are fixed and only the values come from the seed, so
    // every seed asks for the same work.
    const std::vector<index_t> hot_sizes = {96, 128, 160, 112};
    const std::vector<index_t> cold_sizes =
        smoke ? std::vector<index_t>{96, 128}
              : std::vector<index_t>{96, 128, 160, 192, 224, 256};
    const int cold = smoke ? 8 : 48;
    for (std::size_t i = 0; i < hot_sizes.size(); ++i) {
      const bool dft = i + 1 == hot_sizes.size();
      add_problem(hot_sizes[i], dft);
    }
    for (int i = 0; i < cold; ++i) {
      add_problem(cold_sizes[static_cast<std::size_t>(i) % cold_sizes.size()], i % 2 == 1);
    }
    hot_ = hot_sizes.size();
    sopt_.threads = kExecutors;
    sopt_.ranks = 1;
    // Below the working set: every hot key (each hot problem in all four
    // kinds) plus one cold factor of the largest size, so each further cold
    // insert evicts. Resident words: n^2 per fp64 factor, half for fp32,
    // plus the permutation.
    double words = 0.0;
    for (std::size_t i = 0; i < hot_; ++i) {
      for (const Kind& k : kKinds) words += resident_words(problems_[i].a.rows(), k);
    }
    sopt_.cache_words = words + resident_words(cold_sizes.back(), kKinds[0]);
  }

  /// Serial goldens for every (problem, kind) the stream can issue.
  void compute_goldens() {
    SpanGuard sg("check.goldens");
    for (const Problem& p : problems_) {
      for (int k = 0; k < 4; ++k) goldens_.push_back(golden(p, k));
    }
  }

  /// One set-up round: construct the service and prime the cache with the
  /// hot set in all four kinds. The service of the last round serves the
  /// timed loop.
  void setup_round() {
    SpanGuard sg("setup.round");
    svc_.reset();
    svc_ = std::make_unique<serve::SolveService>(sopt_);
    for (std::size_t i = 0; i < hot_; ++i) {
      for (int k = 0; k < 4; ++k) {
        (void)svc_->solve(request(problems_[i], k, serve::Priority::kNormal));
      }
    }
  }

  /// Closed loop: one generator keeps `window` requests outstanding and
  /// submits the next only when the oldest has answered. Each response is
  /// checked bitwise against its serial golden. When a second of serving
  /// has passed, the generator lets the window drain and runs a
  /// calibration; the loop's clock (done_at, wall) leaves calibrations out.
  std::vector<ServeSample> timed_loop(double seconds, int window, double& wall,
                                      long long& rejected) {
    struct Pending {
      serve::SolveService::Ticket ticket;
      int kind = 0;
      const serve::SolveResponse* golden = nullptr;
      long long id = 0;
      long long root = 0;  ///< the request's root span (traced runs)
      double t0 = 0.0;
    };
    std::vector<ServeSample> out;
    std::deque<Pending> inflight;
    const double start = now_s();
    double paused = 0.0;
    const auto clock = [&] { return now_s() - start - paused; };
    // Calibrates once for every whole second of the clock not yet covered.
    const auto calibrate_to = [&](double t) {
      const double t0 = now_s();
      const double c = calibration_.run();
      paused += now_s() - t0;
      while (static_cast<double>(cal_.size()) + 1.0 <= t) cal_.push_back(c);
    };
    cal_.clear();
    bool stop = false;
    while (!stop || !inflight.empty()) {
      const bool due = static_cast<double>(cal_.size()) + 1.0 <= clock();
      while (!stop && !due && static_cast<int>(inflight.size()) < window) {
        // bench/serve_throughput's draw: 1 in 8 requests go to the cold
        // tail, 1 in 4 is an LU (else Cholesky), 1 in 4 is mixed precision
        // (else fp64), and the priority class is uniform.
        Pending p;
        const bool cold = rng_.uniform_int(8) == 0;
        const std::size_t i =
            cold ? hot_ + rng_.uniform_int(problems_.size() - hot_) : rng_.uniform_int(hot_);
        const bool lu = rng_.uniform_int(4) == 0;
        const bool mixed = rng_.uniform_int(4) == 0;
        p.kind = (lu ? 0 : 1) + (mixed ? 2 : 0);
        p.golden = &goldens_[i * 4 + static_cast<std::size_t>(p.kind)];
        const Problem* prob = &problems_[i];
        const auto pri = static_cast<serve::Priority>(rng_.uniform_int(serve::kPriorityClasses));
        p.id = ++next_request_;
        p.t0 = now_s();
        if (g_tracer.on()) p.root = g_tracer.begin();
        {
          RequestScope rs(p.id, p.root);
          SpanGuard sg("serve.submit");
          p.ticket = svc_->submit(request(*prob, p.kind, pri));
        }
        inflight.push_back(std::move(p));
      }
      if (inflight.empty()) {  // drained for a due calibration
        calibrate_to(clock());
        continue;
      }
      Pending p = std::move(inflight.front());
      inflight.pop_front();
      serve::SolveResponse r;
      bool verified = false;
      {
        RequestScope rs(p.id, p.root);
        {
          SpanGuard sg("serve.wait");
          r = svc_->wait(p.ticket);
        }
        SpanGuard sg("check.golden");
        if (r.status.code() == StatusCode::kAdmissionRejected) ++rejected;
        verified = r.ok() && same_bits(r.x, p.golden->x);
        rec_.count(verified, "serve response not ok or differs from its serial golden");
      }
      if (p.root != 0) record_request_spans(p, r);
      if (!stop) {
        ServeSample s;
        s.kind = p.kind;
        s.total_s = r.total_s;
        s.queue_s = r.queue_s;
        s.factor_s = r.factor_s;
        s.solve_s = r.solve_s;
        s.hit = r.cache_hit;
        s.fallback = r.fp64_fallback;
        s.done_at = clock();
        if (verified) out.push_back(s);
        if (s.done_at >= seconds && static_cast<int>(out.size()) >= kMinSamples) {
          stop = true;
          wall = s.done_at;
        }
      }
    }
    calibrate_to(wall + 1.0);  // the last, partial second
    return out;
  }

  /// The timings of a loop as samples, in reference seconds (see
  /// Calibration) and in wall seconds (wall.*). A response is scaled by the
  /// calibration after its second, a second's throughput likewise.
  void add_timings(const std::vector<ServeSample>& s, double wall) {
    std::vector<double> ref[3], raw[3];  // LU fp64, Cholesky fp64, mixed
    for (const ServeSample& x : s) {
      const Kind k = kKinds[x.kind];
      const int i = k.precision == serve::Precision::kMixed ? 2
                    : k.method == serve::Method::kLu       ? 0
                                                            : 1;
      raw[i].push_back(x.total_s);
      ref[i].push_back(x.total_s * kCalibrationRefS / cal_[static_cast<std::size_t>(x.done_at)]);
    }
    const std::vector<double> rates = interval_rates(s, wall);
    rec_.add_samples("lu_ref_s", ref[0], "s");
    rec_.add_samples("chol_ref_s", ref[1], "s");
    rec_.add_samples("mixed_ref_s", ref[2], "s");
    rec_.add_samples("ops_per_ref_s", ref_rates(s, wall), "1/s");
    rec_.add_samples("wall.lu_s", raw[0], "s");
    rec_.add_samples("wall.chol_s", raw[1], "s");
    rec_.add_samples("wall.mixed_s", raw[2], "s");
    rec_.add_samples("wall.ops_per_s", rates, "1/s");
    rec_.add_samples("calibration_s", cal_, "s");
  }

  double calibrate() { return calibration_.run(); }

  /// The last loop's throughput per whole second, in responses per
  /// reference second.
  std::vector<double> ref_rates(const std::vector<ServeSample>& s, double wall) const {
    std::vector<double> v = interval_rates(s, wall);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] *= cal_[i] / kCalibrationRefS;
    return v;
  }

  void add_serve_layer(const std::vector<ServeSample>& s, long long rejected) {
    std::vector<double> q, f, so, total;
    long long hits = 0, mixed = 0, fallbacks = 0;
    for (const ServeSample& x : s) {
      q.push_back(x.queue_s * 1e3);
      total.push_back(x.total_s * 1e3);
      if (!x.hit) f.push_back(x.factor_s * 1e3);
      so.push_back(x.solve_s * 1e3);
      hits += x.hit ? 1 : 0;
      if (kKinds[x.kind].precision == serve::Precision::kMixed) {
        ++mixed;
        fallbacks += x.fallback ? 1 : 0;
      }
    }
    serve::SolveService::Stats st = svc_->stats();
    st.admission_rejected = std::max(st.admission_rejected, rejected);
    add_serve_metrics(rec_, q, f, so, total, hits, static_cast<long long>(s.size()), st,
                      request(largest_hot(), 0, serve::Priority::kNormal), sopt_);
    rec_.add("mixed.fallback_frac",
             mixed > 0 ? static_cast<double>(fallbacks) / static_cast<double>(mixed) : 0.0,
             "frac", mixed);
  }

  /// Layer probes at this workload's shape: the largest hot problem,
  /// factored as the service does it (one rank, grid 1 x 1 x 1).
  void probe_layers(double min_s) {
    const Problem& p = largest_hot();
    FactorShape s;
    s.n = p.a.rows();
    s.g = grid::Grid3D(1, 1, 1);
    s.v = factor::default_block_size(s.n, s.g);
    s.spec.num_ranks = 1;
    s.spec.memory_words = 4.0 * static_cast<double>(s.n) * static_cast<double>(s.n);
    Rng rng(0x5eed);
    const double gemm = probe_blas(rec_, s.n, s.v, min_s, rng);
    factor::FactorOptions opt;
    opt.block_size = s.v;
    std::vector<double> tl, tc;
    const double start = now_s();
    while (tl.size() < 5 || now_s() - start < min_s) {
      tl.push_back(time_call([&] {
        SpanGuard sg("factor.conflux_lu");
        xsim::Machine m(s.spec, xsim::ExecMode::Real);
        factor::conflux_lu(m, s.g, p.a.view(), opt);
      }));
      tc.push_back(time_call([&] {
        SpanGuard sg("factor.confchox");
        xsim::Machine m(s.spec, xsim::ExecMode::Real);
        factor::confchox(m, s.g, p.a.view(), opt);
      }));
    }
    add_pct_gemm(rec_, s.n, median(tl), median(tc), gemm, static_cast<long long>(tl.size()));
    probe_lu_counts(rec_, s, p.a);
    probe_mixed(rec_, s, p.a, p.b, 5);
  }

  void shutdown() { svc_.reset(); }

 private:
  static constexpr index_t kNrhs = 4;
  static constexpr int kMinSamples = 20;
  static constexpr int kExecutors = 2;

  void add_problem(index_t n, bool dft) {
    const std::uint64_t s = rng_();
    Problem p;
    p.a = dft ? dft_overlap_matrix(n, 0.8, s) : kfac_kronecker_factor(n, s);
    p.b = gen_general(n, kNrhs, rng_);
    problems_.push_back(std::move(p));
  }

  static double resident_words(index_t n, const Kind& k) {
    const double nn = static_cast<double>(n);
    return nn * nn * (k.precision == serve::Precision::kMixed ? 0.5 : 1.0) + nn;
  }

  const Problem& largest_hot() const {
    return *std::max_element(problems_.begin(), problems_.begin() + static_cast<std::ptrdiff_t>(hot_),
                             [](const Problem& x, const Problem& y) { return x.a.rows() < y.a.rows(); });
  }

  serve::SolveRequest request(const Problem& p, int kind, serve::Priority pri) const {
    serve::SolveRequest r;
    r.method = kKinds[kind].method;
    r.precision = kKinds[kind].precision;
    r.priority = pri;
    r.a = p.a.view();
    r.b = p.b.view();
    return r;
  }

  serve::SolveResponse golden(const Problem& p, int kind) {
    serve::SolveResponse g =
        serve::SolveService::solve_serial(request(p, kind, serve::Priority::kNormal), sopt_);
    rec_.count(g.ok(), "serial golden not ok");
    return g;
  }

  /// The request's root span, from submit to the end of its check, and
  /// the legs the service reports, placed after the submit: queue wait,
  /// then the factor leg (fingerprint, cache, factorization), then the
  /// solve leg. Leg durations are the service's own.
  template <typename P>
  void record_request_spans(const P& p, const serve::SolveResponse& r) {
    Span root;
    root.name = "serve.request";
    root.id = p.root;
    root.request = p.id;
    root.t0 = p.t0;
    root.t1 = now_s();
    root.tid = thread_tag();
    g_tracer.add(std::move(root));
    const double parts[3] = {r.queue_s, r.factor_s, r.solve_s};
    const char* names[3] = {"serve.queue", "serve.factor", "serve.solve"};
    double t = p.t0;
    for (int i = 0; i < 3; ++i) {
      Span s;
      s.name = names[i];
      s.id = g_tracer.begin();
      s.parent = p.root;
      s.request = p.id;
      s.t0 = t;
      s.t1 = t + parts[i];
      s.tid = 1000;
      t = s.t1;
      g_tracer.add(std::move(s));
    }
  }

  Record& rec_;
  Rng rng_;
  serve::ServiceOptions sopt_;
  std::vector<Problem> problems_;  ///< the hot set first, then the cold tail
  std::size_t hot_ = 0;
  std::vector<serve::SolveResponse> goldens_;  ///< problem * 4 + kind
  std::unique_ptr<serve::SolveService> svc_;
  long long next_request_ = 0;
  Calibration calibration_{kExecutors, Calibration::Work::kMultiplyAdd};
  std::vector<double> cal_;  ///< the calibration after each second of the loop
};

/// Service set-ups per serve-mix process (run.py runs three).
constexpr int kServeSetupRounds = 40;

void run_serve(Record& rec, double seconds, bool trace) {
  // A set-up here takes tens of milliseconds, so each process repeats it
  // many times.
  const int setup_rounds = rec.smoke ? 3 : kServeSetupRounds;
  const int window = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  ServeMix s(rec, rec.smoke, rec.seed);
  (void)s.calibrate();  // starts the calibration's OpenMP team
  std::vector<double> setup, cal;
  for (int i = 0; i < setup_rounds; ++i) {
    setup.push_back(time_call([&] { s.setup_round(); }));
    cal.push_back(s.calibrate());
    if (i == 0) s.compute_goldens();  // golden work, outside every set-up sample
  }
  add_setup(rec, setup, cal);

  double wall = 0.0;
  long long rejected = 0;
  if (!trace) {
    const std::vector<ServeSample> smp = s.timed_loop(seconds, window, wall, rejected);
    s.add_timings(smp, wall);
    s.shutdown();
    return;
  }
  const std::vector<ServeSample> u = s.timed_loop(seconds / 3.0, window, wall, rejected);
  s.add_timings(u, wall);
  const double rps_u = median(interval_rates(u, wall)), ref_u = median(s.ref_rates(u, wall));
  sched::TaskPool& pool = sched::TaskPool::instance();
  metrics::set_enabled(true);
  g_tracer.set_on(true);
  pool.reset_stats();
  double wall_t = 0.0;
  const std::vector<ServeSample> t = s.timed_loop(seconds / 3.0, window, wall_t, rejected);
  const sched::TaskPoolStats st = pool.stats();
  metrics::set_enabled(false);
  const double rps_t = median(interval_rates(t, wall_t)), ref_t = median(s.ref_rates(t, wall_t));
  add_sched(rec, st, wall_t, static_cast<double>(t.size()));
  s.add_serve_layer(t, rejected);
  s.shutdown();
  s.probe_layers(rec.smoke ? 0.02 : 0.25);
  // Throughput is the serve workload's headline: overhead = lost rate.
  // Compared in calibrated rates, like the dense workloads.
  rec.add("trace.overhead_pct", 100.0 * (ref_u - ref_t) / ref_u, "%",
          static_cast<long long>(t.size()));
  rec.checks.emplace_back("untraced_ops_per_s", rps_u);
  rec.checks.emplace_back("traced_ops_per_s", rps_t);
}

// ---------------------------------------------------------------- output ----

void write_record(const Record& rec, double load1, double steal0) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.field("workload", std::string_view(rec.workload));
  w.field("seed", static_cast<unsigned long long>(rec.seed));
  w.field("trace", rec.trace);
  w.field("smoke", rec.smoke);
  w.field("attempted", rec.attempted);
  w.field("failed", rec.failed);
  w.key("failures");
  w.begin_array();
  for (const std::string& f : rec.failures) w.value(std::string_view(f));
  w.end_array();
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : rec.metrics) {
    w.key(m.name);
    w.begin_object();
    w.field("value", m.value);
    w.field("unit", std::string_view(m.unit));
    w.field("samples", m.samples);
    w.end_object();
  }
  w.end_object();
  w.key("notes");
  w.begin_object();
  for (const auto& [k, v] : rec.notes) w.field(k, std::string_view(v));
  w.end_object();
  w.key("digests");
  w.begin_object();
  for (const auto& [k, v] : rec.digests) w.field(k, std::string_view(v));
  w.end_object();
  w.key("checks");
  w.begin_object();
  for (const auto& [k, v] : rec.checks) w.field(k, v);
  w.end_object();
  w.key("raw");
  w.begin_object();
  for (const Record::Samples& r : rec.raw) {
    w.key(r.name);
    w.begin_object();
    w.field("unit", std::string_view(r.unit));
    w.key("values");
    w.begin_array();
    for (double x : r.values) w.value(x);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.key("provenance");
  w.begin_object();
  w.field("nproc", static_cast<long long>(std::thread::hardware_concurrency()));
  w.field("omp_threads", omp_width());
  w.field("pool_threads", sched::TaskPool::instance().width());
  w.field("blas_threads", blas_width());
  w.field("isa", xblas::isa_name(xblas::active_isa()));
  w.field("tuning_source", xblas::tuning_source());
  w.field("git_describe", git_describe());
  w.field("load1_at_start", load1);
  w.field("steal_s", steal_s() - steal0);
  w.field("calibration_ref_s", kCalibrationRefS);
  w.end_object();
  w.end_object();
  std::cout << "RESULT " << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  double load[1] = {-1.0};
  if (getloadavg(load, 1) != 1) load[0] = -1.0;
  const double steal0 = steal_s();

  const Cli cli(argc, argv);
  Record rec;
  rec.workload = cli.get_string("workload", "");
  rec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 10.0);
  rec.trace = cli.get_int("trace", 0) != 0;
  rec.smoke = cli.get_int("smoke", 0) != 0;
  const std::string spans = cli.get_string("spans", "");
  cli.check_unused();

  if (rec.workload == "dense-2048") {
    run_dense(rec, seconds, rec.trace);
  } else if (rec.workload == "serve-mix") {
    run_serve(rec, seconds, rec.trace);
  } else {
    std::fprintf(stderr, "unknown --workload '%s' (dense-2048 | serve-mix)\n",
                 rec.workload.c_str());
    return 2;
  }
  rec.add("ok_frac",
          rec.attempted > 0
              ? static_cast<double>(rec.attempted - rec.failed) / static_cast<double>(rec.attempted)
              : 0.0,
          "frac", rec.attempted);
  rec.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  if (!spans.empty() && !g_tracer.write(spans)) {
    std::fprintf(stderr, "could not write spans to %s\n", spans.c_str());
    rec.count(false, "span file not written");
  }
  write_record(rec, load[0], steal0);
  return 0;
}
