#pragma once
// Inter-vector lane-shift operations.
//
// concat_shift<S>(a, b) returns lanes (a[S..W-1], b[0..S-1]) — the window of
// width W starting S lanes into the concatenation a:b. It is the only data
// reorganization primitive the stencil kernels need:
//
//  * the paper's Assemble for the transpose layout (Fig. 3, Algorithm 1) is
//    assemble_left  = concat_shift<W-1>  (one blend + one permute on AVX2),
//    assemble_right = concat_shift<1>;
//  * the data-reorganization baseline uses general S in [1, W-1];
//  * DLT seam handling uses S = 1 and W-1 as well.

#include <utility>

#include "tsv/simd/vec.hpp"

namespace tsv {

namespace detail {
template <int S, typename T, int W>
inline Vec<T, W> concat_shift_generic(Vec<T, W> a, Vec<T, W> b) {
  static_assert(S >= 0 && S <= W, "shift amount out of range");
  Vec<T, W> r;
  for (int i = 0; i < W; ++i)
    r.lane[i] = (i + S < W) ? a.lane[i + S] : b.lane[i + S - W];
  return r;
}
}  // namespace detail

template <int S, typename T, int W>
inline Vec<T, W> concat_shift(Vec<T, W> a, Vec<T, W> b) {
  return detail::concat_shift_generic<S>(a, b);
}

#if defined(__AVX2__)
template <int S>
inline Vec<double, 4> concat_shift(Vec<double, 4> a, Vec<double, 4> b) {
  static_assert(S >= 0 && S <= 4, "shift amount out of range");
  if constexpr (S == 0) {
    return a;
  } else if constexpr (S == 4) {
    return b;
  } else if constexpr (S == 2) {
    return Vec<double, 4>(_mm256_permute2f128_pd(a.v, b.v, 0x21));
  } else if constexpr (S == 1) {
    const __m256d mid = _mm256_permute2f128_pd(a.v, b.v, 0x21);  // a2 a3 b0 b1
    return Vec<double, 4>(_mm256_shuffle_pd(a.v, mid, 0b0101));  // a1 a2 a3 b0
  } else {  // S == 3
    const __m256d mid = _mm256_permute2f128_pd(a.v, b.v, 0x21);  // a2 a3 b0 b1
    return Vec<double, 4>(_mm256_shuffle_pd(mid, b.v, 0b0101));  // a3 b0 b1 b2
  }
}
#endif

#if defined(__AVX2__)
template <int S>
inline Vec<float, 8> concat_shift(Vec<float, 8> a, Vec<float, 8> b) {
  static_assert(S >= 0 && S <= 8, "shift amount out of range");
  if constexpr (S == 0) {
    return a;
  } else if constexpr (S == 8) {
    return b;
  } else {
    // mid = (a_hi : b_lo); vpalignr then shifts within each 128-bit lane,
    // and pairing (mid, a) / (b, mid) makes those per-lane shifts line up
    // with the cross-register window: 2 instructions for any S.
    const __m256 mid = _mm256_permute2f128_ps(a.v, b.v, 0x21);
    if constexpr (S == 4) {
      return Vec<float, 8>(mid);
    } else if constexpr (S < 4) {
      return Vec<float, 8>(_mm256_castsi256_ps(_mm256_alignr_epi8(
          _mm256_castps_si256(mid), _mm256_castps_si256(a.v), 4 * S)));
    } else {  // S in (4, 8)
      return Vec<float, 8>(_mm256_castsi256_ps(_mm256_alignr_epi8(
          _mm256_castps_si256(b.v), _mm256_castps_si256(mid), 4 * (S - 4))));
    }
  }
}
#endif

#if defined(__AVX512F__)
template <int S>
inline Vec<double, 8> concat_shift(Vec<double, 8> a, Vec<double, 8> b) {
  static_assert(S >= 0 && S <= 8, "shift amount out of range");
  if constexpr (S == 0) {
    return a;
  } else if constexpr (S == 8) {
    return b;
  } else {
    // Single cross-lane instruction: (b:a) >> S qwords.
    return Vec<double, 8>(_mm512_castsi512_pd(_mm512_maskz_alignr_epi64(
        detail::kAll8, _mm512_castpd_si512(b.v), _mm512_castpd_si512(a.v),
        S)));
  }
}

template <int S>
inline Vec<float, 16> concat_shift(Vec<float, 16> a, Vec<float, 16> b) {
  static_assert(S >= 0 && S <= 16, "shift amount out of range");
  if constexpr (S == 0) {
    return a;
  } else if constexpr (S == 16) {
    return b;
  } else {
    // Single cross-lane instruction: (b:a) >> S dwords.
    return Vec<float, 16>(_mm512_castsi512_ps(_mm512_maskz_alignr_epi32(
        detail::kAll16, _mm512_castps_si512(b.v), _mm512_castps_si512(a.v),
        S)));
  }
}
#endif

/// Paper Fig. 3 / Algorithm 1 "Assemble": left dependent vector.
/// Returns (prev[W-1], cur[0], ..., cur[W-2]). Only lane W-1 of @p prev is
/// consumed, which is what allows boundary code to pass a broadcast instead.
///
/// On AVX2 this is implemented exactly as the paper describes — one
/// _mm256_blend_pd followed by one _mm256_permute4x64_pd.
template <typename T, int W>
inline Vec<T, W> assemble_left(Vec<T, W> prev, Vec<T, W> cur) {
  return concat_shift<W - 1>(prev, cur);
}

/// Right dependent vector: (cur[1], ..., cur[W-1], next[0]). Only lane 0 of
/// @p next is consumed.
template <typename T, int W>
inline Vec<T, W> assemble_right(Vec<T, W> cur, Vec<T, W> next) {
  return concat_shift<1>(cur, next);
}

#if defined(__AVX2__)
inline Vec<double, 4> assemble_left(Vec<double, 4> prev, Vec<double, 4> cur) {
  // (cur0 cur1 cur2 prev3) then rotate right one lane -> (prev3 cur0 cur1 cur2)
  const __m256d blended = _mm256_blend_pd(cur.v, prev.v, 0b1000);
  return Vec<double, 4>(_mm256_permute4x64_pd(blended, 0x93));
}

inline Vec<double, 4> assemble_right(Vec<double, 4> cur, Vec<double, 4> next) {
  // (next0 cur1 cur2 cur3) then rotate left one lane -> (cur1 cur2 cur3 next0)
  const __m256d blended = _mm256_blend_pd(cur.v, next.v, 0b0001);
  return Vec<double, 4>(_mm256_permute4x64_pd(blended, 0x39));
}
#endif

#if defined(__AVX512F__)
inline Vec<double, 8> assemble_left(Vec<double, 8> prev, Vec<double, 8> cur) {
  return concat_shift<7>(prev, cur);
}
inline Vec<double, 8> assemble_right(Vec<double, 8> cur, Vec<double, 8> next) {
  return concat_shift<1>(cur, next);
}
#endif

/// Runtime-S dispatcher (used by generic-radius code paths; S in [0, W]).
/// One fold over the compile-time shift ladder, so every width — including
/// the 16-lane float vectors — dispatches to its specialized shuffles.
template <typename T, int W>
inline Vec<T, W> concat_shift_rt(Vec<T, W> a, Vec<T, W> b, int s) {
  Vec<T, W> r = a;
  [&]<int... S>(std::integer_sequence<int, S...>) {
    (void)((s == S ? (r = concat_shift<S>(a, b), true) : false) || ...);
  }(std::make_integer_sequence<int, W + 1>{});
  return r;
}

}  // namespace tsv
