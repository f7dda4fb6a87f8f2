// Same-run machine ceilings: STREAM triad bandwidth and f64 FMA peak. The
// roofline fractions of the kernel and tiling layers are stated against
// these, so a slow or busy host lowers the ceiling and the measurement
// together.

#include <immintrin.h>
#include <omp.h>

#include <cmath>

#include "bench.hpp"

namespace tsvbench {

namespace {

// Triad arrays: 16 Mi doubles (128 MiB) each, 384 MiB for the three. That is
// above a 300 MiB LLC but below the 4x rule of thumb; the sizes are stated
// in the output so the reader can judge.
constexpr index kTriadElems = index{16} << 20;
constexpr int kTriadReps = 5;

constexpr int kAccumulators = 16;  // independent FMA chains: hides latency
constexpr std::int64_t kFmaIters = 20'000'000;

#if defined(__AVX512F__)
constexpr int kFmaLanes = 8;
#elif defined(__AVX2__) && defined(__FMA__)
constexpr int kFmaLanes = 4;
#else
constexpr int kFmaLanes = 1;
#endif

/// kFmaIters rounds of kAccumulators dependent-free FMAs; returns a value
/// derived from every accumulator so none is dead.
double fma_loop(double seed) {
#if defined(__AVX512F__)
  __m512d acc[kAccumulators];
  for (int k = 0; k < kAccumulators; ++k) acc[k] = _mm512_set1_pd(seed + k);
  const __m512d m = _mm512_set1_pd(0.999999999), a = _mm512_set1_pd(1e-9);
  for (std::int64_t i = 0; i < kFmaIters; ++i)
    for (int k = 0; k < kAccumulators; ++k)
      acc[k] = _mm512_fmadd_pd(acc[k], m, a);
  double s = 0;
  for (int k = 0; k < kAccumulators; ++k) s += _mm512_reduce_add_pd(acc[k]);
  return s;
#elif defined(__AVX2__) && defined(__FMA__)
  __m256d acc[kAccumulators];
  for (int k = 0; k < kAccumulators; ++k) acc[k] = _mm256_set1_pd(seed + k);
  const __m256d m = _mm256_set1_pd(0.999999999), a = _mm256_set1_pd(1e-9);
  for (std::int64_t i = 0; i < kFmaIters; ++i)
    for (int k = 0; k < kAccumulators; ++k)
      acc[k] = _mm256_fmadd_pd(acc[k], m, a);
  alignas(32) double out[4];
  double s = 0;
  for (int k = 0; k < kAccumulators; ++k) {
    _mm256_store_pd(out, acc[k]);
    s += out[0] + out[1] + out[2] + out[3];
  }
  return s;
#else
  double acc[kAccumulators];
  for (int k = 0; k < kAccumulators; ++k) acc[k] = seed + k;
  for (std::int64_t i = 0; i < kFmaIters; ++i)
    for (int k = 0; k < kAccumulators; ++k)
      acc[k] = std::fma(acc[k], 0.999999999, 1e-9);
  double s = 0;
  for (int k = 0; k < kAccumulators; ++k) s += acc[k];
  return s;
#endif
}

/// Median GFLOP/s of three timed runs of fma_loop on @p threads threads.
double fma_gflops(int threads, Result& r) {
  const double flops_per_thread =
      2.0 * kFmaLanes * kAccumulators * static_cast<double>(kFmaIters);
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    double sink = 0;
    const double t0 = now_s();
#pragma omp parallel num_threads(threads) reduction(+ : sink)
    sink += fma_loop(1.0 + omp_get_thread_num());
    const double t = now_s() - t0;
    r.check(std::isfinite(sink), "FMA probe produced a finite sum");
    rates.push_back(flops_per_thread * threads / t / 1e9);
  }
  return median(rates);
}

}  // namespace

Machine probe_machine(Result& r) {
  Machine m;
  const int threads = max_threads();
  {
    tsv::AlignedBuffer<double> a(kTriadElems, tsv::FirstTouch::kNone);
    tsv::AlignedBuffer<double> b(kTriadElems, tsv::FirstTouch::kNone);
    tsv::AlignedBuffer<double> c(kTriadElems, tsv::FirstTouch::kNone);
    double* pa = a.data();
    double* pb = b.data();
    double* pc = c.data();
#pragma omp parallel for num_threads(threads) schedule(static)
    for (index i = 0; i < kTriadElems; ++i) {
      pa[i] = 0.0;
      pb[i] = 1.0;
      pc[i] = 2.0;
    }
    std::vector<double> t;
    for (int rep = 0; rep < kTriadReps; ++rep) {
      const double t0 = now_s();
#pragma omp parallel for num_threads(threads) schedule(static)
      for (index i = 0; i < kTriadElems; ++i) pa[i] = pb[i] + 3.0 * pc[i];
      t.push_back(now_s() - t0);
    }
    r.check(pa[kTriadElems - 1] == 7.0, "triad probe computed a = b + 3c");
    // STREAM convention: 24 bytes per element (two reads, one write).
    m.triad_gbs = 24.0 * static_cast<double>(kTriadElems) / median(t) / 1e9;
  }
  m.fma_gflops_1t = fma_gflops(1, r);
  m.fma_gflops = fma_gflops(threads, r);

  r.set("machine.triad_gbs", m.triad_gbs, "GB/s");
  r.set("machine.fma_gflops_1t", m.fma_gflops_1t, "GFLOP/s");
  r.set("machine.fma_gflops", m.fma_gflops, "GFLOP/s");
  r.note("machine.triad_array_mb",
         static_cast<double>(kTriadElems) * 8.0 / (1 << 20));
  r.note("machine.llc_mb",
         static_cast<double>(tsv::cpu_info().l3_bytes) / (1 << 20));
  r.note("machine.threads", threads);
  r.note("machine.fma_lanes_f64", kFmaLanes);
  return m;
}

}  // namespace tsvbench
