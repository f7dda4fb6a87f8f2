#pragma once
// AVX-512 specializations: 512-bit vectors of 8 doubles or 16 floats.
// Included by tsv/simd/vec.hpp; do not include directly.

#include <immintrin.h>

namespace tsv {

namespace detail {
/// Full lane masks for the maskz_ spellings of shuffles whose unmasked GCC
/// intrinsics pass _mm512_undefined_*() through (unpack, shuffle_f64x2/
/// f32x4, alignr): every inlined call site then draws -Wmaybe-uninitialized.
/// With every lane selected the maskz forms emit the same unmasked
/// instruction.
inline constexpr __mmask8 kAll8 = static_cast<__mmask8>(-1);
inline constexpr __mmask16 kAll16 = static_cast<__mmask16>(-1);
}  // namespace detail

template <typename T, int W>
struct Vec;

template <>
struct Vec<double, 8> {
  using value_type = double;
  static constexpr int width = 8;

  __m512d v;

  Vec() = default;
  explicit Vec(__m512d x) : v(x) {}

  static Vec load(const double* p) { return Vec(_mm512_load_pd(p)); }
  static Vec loadu(const double* p) { return Vec(_mm512_loadu_pd(p)); }
  static Vec broadcast(double s) { return Vec(_mm512_set1_pd(s)); }
  static Vec zero() { return Vec(_mm512_setzero_pd()); }

  void store(double* p) const { _mm512_store_pd(p, v); }
  void storeu(double* p) const { _mm512_storeu_pd(p, v); }

  /// Non-temporal aligned store (see the primary template's contract).
  void stream(double* p) const { _mm512_stream_pd(p, v); }

  /// Stores only the lanes whose bit is set in @p mask (bit i = lane i).
  void store_mask(double* p, unsigned mask) const {
    _mm512_mask_store_pd(p, static_cast<__mmask8>(mask), v);
  }

  double operator[](int i) const {
    alignas(64) double tmp[8];
    _mm512_store_pd(tmp, v);
    return tmp[i];
  }

  friend Vec operator+(Vec a, Vec b) { return Vec(_mm512_add_pd(a.v, b.v)); }
  friend Vec operator-(Vec a, Vec b) { return Vec(_mm512_sub_pd(a.v, b.v)); }
  friend Vec operator*(Vec a, Vec b) { return Vec(_mm512_mul_pd(a.v, b.v)); }
};

inline Vec<double, 8> fma(Vec<double, 8> a, Vec<double, 8> b,
                          Vec<double, 8> c) {
  return Vec<double, 8>(_mm512_fmadd_pd(a.v, b.v, c.v));
}

template <>
struct Vec<float, 16> {
  using value_type = float;
  static constexpr int width = 16;

  __m512 v;

  Vec() = default;
  explicit Vec(__m512 x) : v(x) {}

  static Vec load(const float* p) { return Vec(_mm512_load_ps(p)); }
  static Vec loadu(const float* p) { return Vec(_mm512_loadu_ps(p)); }
  static Vec broadcast(float s) { return Vec(_mm512_set1_ps(s)); }
  static Vec zero() { return Vec(_mm512_setzero_ps()); }

  void store(float* p) const { _mm512_store_ps(p, v); }
  void storeu(float* p) const { _mm512_storeu_ps(p, v); }

  /// Non-temporal aligned store (see the primary template's contract).
  void stream(float* p) const { _mm512_stream_ps(p, v); }

  /// Stores only the lanes whose bit is set in @p mask (bit i = lane i).
  void store_mask(float* p, unsigned mask) const {
    _mm512_mask_store_ps(p, static_cast<__mmask16>(mask), v);
  }

  float operator[](int i) const {
    alignas(64) float tmp[16];
    _mm512_store_ps(tmp, v);
    return tmp[i];
  }

  friend Vec operator+(Vec a, Vec b) { return Vec(_mm512_add_ps(a.v, b.v)); }
  friend Vec operator-(Vec a, Vec b) { return Vec(_mm512_sub_ps(a.v, b.v)); }
  friend Vec operator*(Vec a, Vec b) { return Vec(_mm512_mul_ps(a.v, b.v)); }
};

inline Vec<float, 16> fma(Vec<float, 16> a, Vec<float, 16> b,
                          Vec<float, 16> c) {
  return Vec<float, 16>(_mm512_fmadd_ps(a.v, b.v, c.v));
}

}  // namespace tsv
