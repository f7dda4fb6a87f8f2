#pragma once
// Fixed-width SIMD value wrapper.
//
// The primary template is plain portable C++ (arrays + loops) that the
// compiler may auto-vectorize; it exists so every algorithm in the library can
// be unit-tested for arbitrary element types and widths. Specializations for
// the two ISAs the paper evaluates — AVX2 (double x 4 / float x 8) and
// AVX-512 (double x 8 / float x 16) — are included at the bottom of this
// header and are bit-compatible drop-ins.

#include <cmath>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "tsv/common/aligned.hpp"

namespace tsv {

/// Orders all pending non-temporal (streaming) stores before subsequent
/// stores become globally visible. Call once at the end of a streamed
/// region, before any other thread may read it. No-op without SSE2.
inline void stream_fence() {
#if defined(__SSE2__)
  _mm_sfence();
#endif
}

template <typename T, int W>
struct Vec {
  static_assert(W >= 1, "vector width must be positive");
  using value_type = T;
  static constexpr int width = W;

  T lane[W];

  static Vec load(const T* p) {
    Vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = p[i];
    return v;
  }
  static Vec loadu(const T* p) { return load(p); }
  static Vec broadcast(T s) {
    Vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = s;
    return v;
  }
  static Vec zero() { return broadcast(T(0)); }

  void store(T* p) const {
    for (int i = 0; i < W; ++i) p[i] = lane[i];
  }
  void storeu(T* p) const { store(p); }

  /// Non-temporal (cache-bypassing) aligned store where the ISA provides
  /// one; the portable fallback is a plain store. Callers must end a
  /// streamed region with stream_fence().
  void stream(T* p) const { store(p); }

  /// Stores only the lanes whose bit is set in @p mask (bit i = lane i).
  void store_mask(T* p, unsigned mask) const {
    for (int i = 0; i < W; ++i)
      if (mask & (1u << i)) p[i] = lane[i];
  }

  T operator[](int i) const { return lane[i]; }

  friend Vec operator+(Vec a, Vec b) {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  friend Vec operator-(Vec a, Vec b) {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    return r;
  }
  friend Vec operator*(Vec a, Vec b) {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] * b.lane[i];
    return r;
  }
};

/// a*b + c with a single rounding where the ISA provides FMA — the rounding
/// of every vector fma below. Spelled std::fma there rather than left to
/// the compiler's contraction of a*b + c, which varies with the inlining
/// context and the optimization level: a kernel whose scalar rim cells and
/// vector body round differently gives a cell a value that depends on the
/// tile rim it falls on.
template <typename T>
inline T madd(T a, T b, T c) {
#if defined(__FMA__)
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

/// r = a*b + c lane by lane, rounded like madd().
template <typename T, int W>
inline Vec<T, W> fma(Vec<T, W> a, Vec<T, W> b, Vec<T, W> c) {
  Vec<T, W> r;
  for (int i = 0; i < W; ++i) r.lane[i] = madd(a.lane[i], b.lane[i], c.lane[i]);
  return r;
}

/// Comma-free aliases (usable as single macro arguments).
using VecD2 = Vec<double, 2>;
using VecD4 = Vec<double, 4>;
using VecD8 = Vec<double, 8>;
using VecF4 = Vec<float, 4>;
using VecF8 = Vec<float, 8>;
using VecF16 = Vec<float, 16>;

}  // namespace tsv

#if defined(__AVX2__)
#include "tsv/simd/vec_avx2.hpp"  // IWYU pragma: keep
#endif
#if defined(__AVX512F__)
#include "tsv/simd/vec_avx512.hpp"  // IWYU pragma: keep
#endif
