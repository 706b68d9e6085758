// Cache/register blocking parameters for the level-3 BLAS substrate.
//
// The gemm driver (src/blas/gemm.cpp) is a BLIS-style five-loop algorithm:
// the three cache-blocking sizes (nc, kc, mc) pick the footprint of the
// packed B panel (kc x nc, L3/L2 resident) and packed A block (mc x kc,
// L2/L1 resident); the register tile (MR x NR) is fixed at compile time so
// the microkernel's accumulator array lowers to vector registers.
//
// All runtime sizes live in one Tuning struct so benches can sweep them
// (bench/ablation_block_size.cpp) and users can override them via
// environment variables without rebuilding:
//
//   XBLAS_MC, XBLAS_KC, XBLAS_NC   gemm cache block sizes
//   XBLAS_DB                       trsm/syrk/gemmt diagonal block size
//   XBLAS_LU_NB                    getrf/potrf panel width
//   XBLAS_THREADS                  OpenMP thread count (0 = library default)
//
// Initialization (Tuning::detect(), run once at first BLAS use): the
// compiled-in defaults below, then XBLAS_* environment overrides.
// tuning_source() reports which of the two had the last word. fp32 gemm
// derives its blocks from the same fields (same mc/nc, kc x kc_scale).
#pragma once

#include "tensor/matrix.hpp"

namespace conflux::xblas {

/// Register tile shape of the gemm microkernel, per scalar type
/// (compile-time: the MR x NR accumulator must be a fixed-size array for the
/// compiler to keep it in vector registers). Both tiles hold MR scalars in
/// one 64-byte "register" (1 zmm on AVX-512, 2 ymm on AVX2), so fp32's
/// 16x8 tile has the identical register pressure and instruction count as
/// fp64's 8x8 while moving twice the scalars per FMA — the source of the
/// fp32 throughput doubling the mixed-precision drivers rely on.
template <typename T>
struct RegTile;
template <>
struct RegTile<double> {
  static constexpr index_t mr = 8;
  static constexpr index_t nr = 8;
};
template <>
struct RegTile<float> {
  static constexpr index_t mr = 16;
  static constexpr index_t nr = 8;
};

/// Legacy names for the fp64 tile (sweeps and tests key off these).
inline constexpr index_t kMR = RegTile<double>::mr;
inline constexpr index_t kNR = RegTile<double>::nr;

/// Runtime kc scaling per scalar: the Tuning::kc default is sized so a
/// kc x nc fp64 B panel fits the L2/L3 budget; narrower scalars double kc to
/// keep the same byte footprint (and halve the per-panel loop overhead).
template <typename T>
constexpr index_t kc_scale() {
  return static_cast<index_t>(sizeof(double) / sizeof(T));
}

struct Tuning {
  /// Rows of A packed per block (rounded up to a multiple of kMR).
  /// Defaults picked by a cache-block sweep on AVX-512 hardware; override
  /// per machine via XBLAS_MC / XBLAS_KC / XBLAS_NC.
  index_t mc = 64;
  /// Inner (reduction) dimension of both packed panels.
  index_t kc = 512;
  /// Columns of B packed per panel (rounded up to a multiple of kNR).
  index_t nc = 2048;
  /// Diagonal block size for blocked trsm / syrk / gemmt: O(db^3) work runs
  /// in the small scalar kernels, everything else goes through gemm.
  index_t db = 64;
  /// Panel width for the blocked getrf / potrf in src/blas/lapack.cpp.
  index_t lu_nb = 32;
  /// OpenMP thread count for gemm-family routines; 0 means "whatever
  /// omp_get_max_threads() says". Ignored in non-OpenMP builds.
  int threads = 0;
  /// Problems with 2*m*n*k at or below this skip packing entirely and use a
  /// direct strided kernel (packing overhead dominates for tiny blocks).
  double small_gemm_flops = 65536.0;
  /// k at or below this takes the small-k fast path: B is read through a
  /// strided microkernel instead of being packed (one saved pass over B per
  /// block, which dominates when k is far below kc — the factorizations'
  /// Schur updates run at k = v, typically 8..64). 0 disables the path.
  index_t small_k = 64;

  /// Clamp every field to a sane value (>= 1 sizes, >= 0 threads).
  void sanitize();

  /// Full initialization: compiled-in defaults, then XBLAS_* environment
  /// overrides. Updates the tuning_source() record as a side effect.
  static Tuning detect();
};

/// The process-wide tuning, initialized once via Tuning::detect(). Mutable
/// so sweeps can adjust it between (not during) BLAS calls.
Tuning& tuning();

/// Where the last Tuning::detect() got its block sizes: "default" (compiled
/// in) or "env" (at least one XBLAS_* block-size override applied).
/// Recorded in every BENCH_*.json row so perf numbers stay attributable.
const char* tuning_source();

/// Per-thread cap on the gemm-family OpenMP team width (0 = no cap). The
/// task pool (src/sched/taskpool.hpp) sets this to 1 around every task and
/// parallel_for chunk it executes — on its workers AND on the helping
/// master thread — so BLAS calls inside pool work never fork nested teams,
/// regardless of the caller's OpenMP ICV or an XBLAS_THREADS override: the
/// pool itself is the parallelism there. Direct BLAS calls from ordinary
/// threads are unaffected.
int tls_thread_cap();
void set_tls_thread_cap(int cap);

/// RAII guard for tls_thread_cap.
class ScopedThreadCap {
 public:
  explicit ScopedThreadCap(int cap) : saved_(tls_thread_cap()) {
    set_tls_thread_cap(cap);
  }
  ~ScopedThreadCap() { set_tls_thread_cap(saved_); }
  ScopedThreadCap(const ScopedThreadCap&) = delete;
  ScopedThreadCap& operator=(const ScopedThreadCap&) = delete;

 private:
  int saved_;
};

}  // namespace conflux::xblas
