#pragma once
// In-register W x W matrix transpose (paper §3.5).
//
// The paper's observation: the information-theoretic lower bound is
// W·log2(W) shuffles, but *which* shuffles come first matters. Lane-crossing
// instructions (vperm2f128 / vshuff64x2) have 3-cycle latency while in-lane
// unpacks are single-cycle, so issuing the lane-crossing stage first lets its
// latency overlap the dependent single-cycle stage ("improved" schedule,
// Fig. 6). The conventional schedule (unpack first, lane-crossing last —
// Hormati-style) leaves the long-latency instructions exposed at the end;
// the paper measures ~25% overhead for it. Both schedules are provided so
// bench/ablation_transpose can reproduce the comparison.
//
// transpose(v): v[j] becomes the j-th column of the input matrix whose rows
// were v[0..W-1]; i.e. out[j].lane[i] = in[i].lane[j].

#include "tsv/simd/vec.hpp"

namespace tsv {

/// Portable transpose for any width (reference semantics for the tests).
template <typename T, int W>
inline void transpose(Vec<T, W> (&v)[W]) {
  T m[W][W];
  for (int i = 0; i < W; ++i)
    for (int j = 0; j < W; ++j) m[i][j] = v[i].lane[j];
  for (int j = 0; j < W; ++j)
    for (int i = 0; i < W; ++i) v[j].lane[i] = m[i][j];
}

template <typename T, int W>
inline void transpose_baseline(Vec<T, W> (&v)[W]) {
  transpose(v);
}

#if defined(__AVX2__)
/// Improved schedule (paper Fig. 6): lane-crossing vperm2f128 stage first,
/// single-cycle unpacks second. 8 shuffles total = 4·log2(4).
inline void transpose(Vec<double, 4> (&v)[4]) {
  const __m256d p0 = _mm256_permute2f128_pd(v[0].v, v[2].v, 0x20);  // a0 a1 c0 c1
  const __m256d p1 = _mm256_permute2f128_pd(v[1].v, v[3].v, 0x20);  // b0 b1 d0 d1
  const __m256d p2 = _mm256_permute2f128_pd(v[0].v, v[2].v, 0x31);  // a2 a3 c2 c3
  const __m256d p3 = _mm256_permute2f128_pd(v[1].v, v[3].v, 0x31);  // b2 b3 d2 d3
  v[0].v = _mm256_unpacklo_pd(p0, p1);  // a0 b0 c0 d0
  v[1].v = _mm256_unpackhi_pd(p0, p1);  // a1 b1 c1 d1
  v[2].v = _mm256_unpacklo_pd(p2, p3);  // a2 b2 c2 d2
  v[3].v = _mm256_unpackhi_pd(p2, p3);  // a3 b3 c3 d3
}

/// Conventional schedule: in-lane unpacks first, lane-crossing last. Same 8
/// shuffles, but the two 3-cycle vperm2f128 chains end the dependency graph.
inline void transpose_baseline(Vec<double, 4> (&v)[4]) {
  const __m256d u0 = _mm256_unpacklo_pd(v[0].v, v[1].v);  // a0 b0 a2 b2
  const __m256d u1 = _mm256_unpackhi_pd(v[0].v, v[1].v);  // a1 b1 a3 b3
  const __m256d u2 = _mm256_unpacklo_pd(v[2].v, v[3].v);  // c0 d0 c2 d2
  const __m256d u3 = _mm256_unpackhi_pd(v[2].v, v[3].v);  // c1 d1 c3 d3
  v[0].v = _mm256_permute2f128_pd(u0, u2, 0x20);  // a0 b0 c0 d0
  v[1].v = _mm256_permute2f128_pd(u1, u3, 0x20);  // a1 b1 c1 d1
  v[2].v = _mm256_permute2f128_pd(u0, u2, 0x31);  // a2 b2 c2 d2
  v[3].v = _mm256_permute2f128_pd(u1, u3, 0x31);  // a3 b3 c3 d3
}
/// 8x8 float transpose, improved schedule: the eight 3-cycle vperm2f128
/// lane-crossing shuffles are issued first, the single-cycle unpack/shuffle
/// stages second. 24 shuffles total = 8·log2(8).
inline void transpose(Vec<float, 8> (&v)[8]) {
  // Stage 1 (lane-crossing): pair the 128-bit halves of rows i and i+4, so
  // every later stage is in-lane. p0..p3 carry columns 0-3, p4..p7 columns
  // 4-7; lane 1 of each holds rows 4-7.
  const __m256 p0 = _mm256_permute2f128_ps(v[0].v, v[4].v, 0x20);
  const __m256 p1 = _mm256_permute2f128_ps(v[1].v, v[5].v, 0x20);
  const __m256 p2 = _mm256_permute2f128_ps(v[2].v, v[6].v, 0x20);
  const __m256 p3 = _mm256_permute2f128_ps(v[3].v, v[7].v, 0x20);
  const __m256 p4 = _mm256_permute2f128_ps(v[0].v, v[4].v, 0x31);
  const __m256 p5 = _mm256_permute2f128_ps(v[1].v, v[5].v, 0x31);
  const __m256 p6 = _mm256_permute2f128_ps(v[2].v, v[6].v, 0x31);
  const __m256 p7 = _mm256_permute2f128_ps(v[3].v, v[7].v, 0x31);
  // Stage 2+3 (in-lane): 4x4 transpose of each 128-bit lane.
  const __m256 t0 = _mm256_unpacklo_ps(p0, p1);
  const __m256 t1 = _mm256_unpackhi_ps(p0, p1);
  const __m256 t2 = _mm256_unpacklo_ps(p2, p3);
  const __m256 t3 = _mm256_unpackhi_ps(p2, p3);
  const __m256 t4 = _mm256_unpacklo_ps(p4, p5);
  const __m256 t5 = _mm256_unpackhi_ps(p4, p5);
  const __m256 t6 = _mm256_unpacklo_ps(p6, p7);
  const __m256 t7 = _mm256_unpackhi_ps(p6, p7);
  v[0].v = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  v[1].v = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  v[2].v = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  v[3].v = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  v[4].v = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  v[5].v = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  v[6].v = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  v[7].v = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
}

/// Conventional schedule: in-lane unpack/shuffle first, the lane-crossing
/// vperm2f128 chain exposed at the end (the comparator in ablation_transpose).
inline void transpose_baseline(Vec<float, 8> (&v)[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0].v, v[1].v);
  const __m256 t1 = _mm256_unpackhi_ps(v[0].v, v[1].v);
  const __m256 t2 = _mm256_unpacklo_ps(v[2].v, v[3].v);
  const __m256 t3 = _mm256_unpackhi_ps(v[2].v, v[3].v);
  const __m256 t4 = _mm256_unpacklo_ps(v[4].v, v[5].v);
  const __m256 t5 = _mm256_unpackhi_ps(v[4].v, v[5].v);
  const __m256 t6 = _mm256_unpacklo_ps(v[6].v, v[7].v);
  const __m256 t7 = _mm256_unpackhi_ps(v[6].v, v[7].v);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  v[0].v = _mm256_permute2f128_ps(u0, u4, 0x20);
  v[1].v = _mm256_permute2f128_ps(u1, u5, 0x20);
  v[2].v = _mm256_permute2f128_ps(u2, u6, 0x20);
  v[3].v = _mm256_permute2f128_ps(u3, u7, 0x20);
  v[4].v = _mm256_permute2f128_ps(u0, u4, 0x31);
  v[5].v = _mm256_permute2f128_ps(u1, u5, 0x31);
  v[6].v = _mm256_permute2f128_ps(u2, u6, 0x31);
  v[7].v = _mm256_permute2f128_ps(u3, u7, 0x31);
}
#endif  // __AVX2__

#if defined(__AVX512F__)
/// Three-stage 8x8 transpose: 24 shuffles = 8·log2(8). The single-cycle
/// in-lane unpacks are issued first; the two vshuff64x2 (lane-crossing)
/// stages follow, each of whose latency overlaps the other's throughput.
inline void transpose(Vec<double, 8> (&v)[8]) {
  constexpr __mmask8 k = detail::kAll8;  // unmasked (see kAll8)
  // Stage 1: pair rows within 128-bit lanes.
  const __m512d t0 = _mm512_maskz_unpacklo_pd(k, v[0].v, v[1].v);
  const __m512d t1 = _mm512_maskz_unpackhi_pd(k, v[0].v, v[1].v);
  const __m512d t2 = _mm512_maskz_unpacklo_pd(k, v[2].v, v[3].v);
  const __m512d t3 = _mm512_maskz_unpackhi_pd(k, v[2].v, v[3].v);
  const __m512d t4 = _mm512_maskz_unpacklo_pd(k, v[4].v, v[5].v);
  const __m512d t5 = _mm512_maskz_unpackhi_pd(k, v[4].v, v[5].v);
  const __m512d t6 = _mm512_maskz_unpacklo_pd(k, v[6].v, v[7].v);
  const __m512d t7 = _mm512_maskz_unpackhi_pd(k, v[6].v, v[7].v);
  // Stage 2: gather column pairs {c, c+4} for row quads: m0/m1 hold
  // columns {0,4}, m2/m3 {1,5}, m4/m5 {2,6}, m6/m7 {3,7}; m0, m2, m4, m6
  // rows 0-3 and m1, m3, m5, m7 rows 4-7.
  const __m512d m0 = _mm512_maskz_shuffle_f64x2(k, t0, t2, 0x88);
  const __m512d m1 = _mm512_maskz_shuffle_f64x2(k, t4, t6, 0x88);
  const __m512d m2 = _mm512_maskz_shuffle_f64x2(k, t1, t3, 0x88);
  const __m512d m3 = _mm512_maskz_shuffle_f64x2(k, t5, t7, 0x88);
  const __m512d m4 = _mm512_maskz_shuffle_f64x2(k, t0, t2, 0xDD);
  const __m512d m5 = _mm512_maskz_shuffle_f64x2(k, t4, t6, 0xDD);
  const __m512d m6 = _mm512_maskz_shuffle_f64x2(k, t1, t3, 0xDD);
  const __m512d m7 = _mm512_maskz_shuffle_f64x2(k, t5, t7, 0xDD);
  // Stage 3: splice row quads into full columns.
  v[0].v = _mm512_maskz_shuffle_f64x2(k, m0, m1, 0x88);
  v[4].v = _mm512_maskz_shuffle_f64x2(k, m0, m1, 0xDD);
  v[1].v = _mm512_maskz_shuffle_f64x2(k, m2, m3, 0x88);
  v[5].v = _mm512_maskz_shuffle_f64x2(k, m2, m3, 0xDD);
  v[2].v = _mm512_maskz_shuffle_f64x2(k, m4, m5, 0x88);
  v[6].v = _mm512_maskz_shuffle_f64x2(k, m4, m5, 0xDD);
  v[3].v = _mm512_maskz_shuffle_f64x2(k, m6, m7, 0x88);
  v[7].v = _mm512_maskz_shuffle_f64x2(k, m6, m7, 0xDD);
}

/// Alternative AVX-512 schedule built from four 4x4 sub-transposes via
/// 256-bit extract/insert — more instructions, all lane-crossing; serves as
/// the unoptimized comparator in bench/ablation_transpose.
inline void transpose_baseline(Vec<double, 8> (&v)[8]) {
  Vec<double, 4> lo[4], hi[4], lo2[4], hi2[4];
  for (int i = 0; i < 4; ++i) {
    lo[i].v = _mm512_castpd512_pd256(v[i].v);
    hi[i].v = _mm512_extractf64x4_pd(v[i].v, 1);
    lo2[i].v = _mm512_castpd512_pd256(v[i + 4].v);
    hi2[i].v = _mm512_extractf64x4_pd(v[i + 4].v, 1);
  }
  transpose_baseline(lo);   // block (rows 0-3, cols 0-3)
  transpose_baseline(hi);   // block (rows 0-3, cols 4-7)
  transpose_baseline(lo2);  // block (rows 4-7, cols 0-3)
  transpose_baseline(hi2);  // block (rows 4-7, cols 4-7)
  for (int i = 0; i < 4; ++i) {
    v[i].v = _mm512_insertf64x4(_mm512_castpd256_pd512(lo[i].v), lo2[i].v, 1);
    v[i + 4].v =
        _mm512_insertf64x4(_mm512_castpd256_pd512(hi[i].v), hi2[i].v, 1);
  }
}

/// 16x16 float transpose, same three-phase structure as the 8x8 double
/// version: single-cycle in-lane unpack/shuffle stages first (they transpose
/// every 4x4 sub-block within its 128-bit lane), then two overlapping
/// vshuff32x4 lane-crossing stages that transpose the 4x4 grid of lanes.
/// 64 shuffles total = 16·log2(16).
inline void transpose(Vec<float, 16> (&v)[16]) {
  constexpr __mmask16 k = detail::kAll16;  // unmasked (see kAll8)
  __m512 u[16];
  for (int g = 0; g < 4; ++g) {  // rows 4g..4g+3
    const __m512 t0 =
        _mm512_maskz_unpacklo_ps(k, v[4 * g + 0].v, v[4 * g + 1].v);
    const __m512 t1 =
        _mm512_maskz_unpackhi_ps(k, v[4 * g + 0].v, v[4 * g + 1].v);
    const __m512 t2 =
        _mm512_maskz_unpacklo_ps(k, v[4 * g + 2].v, v[4 * g + 3].v);
    const __m512 t3 =
        _mm512_maskz_unpackhi_ps(k, v[4 * g + 2].v, v[4 * g + 3].v);
    // u[4g + c], 128-bit lane J = column 4J + c of rows 4g..4g+3.
    u[4 * g + 0] = _mm512_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    u[4 * g + 1] = _mm512_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    u[4 * g + 2] = _mm512_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    u[4 * g + 3] = _mm512_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int c = 0; c < 4; ++c) {
    // Lane-level 4x4 transpose: out[4J + c].lane I = u[4I + c].lane J.
    const __m512 m0 = _mm512_maskz_shuffle_f32x4(k, u[c], u[4 + c], 0x88);
    const __m512 m1 = _mm512_maskz_shuffle_f32x4(k, u[8 + c], u[12 + c], 0x88);
    const __m512 m2 = _mm512_maskz_shuffle_f32x4(k, u[c], u[4 + c], 0xDD);
    const __m512 m3 = _mm512_maskz_shuffle_f32x4(k, u[8 + c], u[12 + c], 0xDD);
    v[c].v = _mm512_maskz_shuffle_f32x4(k, m0, m1, 0x88);
    v[8 + c].v = _mm512_maskz_shuffle_f32x4(k, m0, m1, 0xDD);
    v[4 + c].v = _mm512_maskz_shuffle_f32x4(k, m2, m3, 0x88);
    v[12 + c].v = _mm512_maskz_shuffle_f32x4(k, m2, m3, 0xDD);
  }
}

#if defined(__AVX2__)
/// Unoptimized comparator: four 8x8 sub-transposes via 256-bit
/// extract/insert, mirroring the double-precision baseline.
inline void transpose_baseline(Vec<float, 16> (&v)[16]) {
  auto lo_half = [](__m512 x) { return _mm512_castps512_ps256(x); };
  auto hi_half = [](__m512 x) {
    return _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(x), 1));
  };
  Vec<float, 8> lo[8], hi[8], lo2[8], hi2[8];
  for (int i = 0; i < 8; ++i) {
    lo[i].v = lo_half(v[i].v);
    hi[i].v = hi_half(v[i].v);
    lo2[i].v = lo_half(v[i + 8].v);
    hi2[i].v = hi_half(v[i + 8].v);
  }
  transpose_baseline(lo);   // block (rows 0-7, cols 0-7)
  transpose_baseline(hi);   // block (rows 0-7, cols 8-15)
  transpose_baseline(lo2);  // block (rows 8-15, cols 0-7)
  transpose_baseline(hi2);  // block (rows 8-15, cols 8-15)
  auto join = [](__m256 l, __m256 h) {
    return _mm512_castpd_ps(_mm512_insertf64x4(
        _mm512_castps_pd(_mm512_castps256_ps512(l)), _mm256_castps_pd(h), 1));
  };
  for (int i = 0; i < 8; ++i) {
    v[i].v = join(lo[i].v, lo2[i].v);
    v[i + 8].v = join(hi[i].v, hi2[i].v);
  }
}
#else
inline void transpose_baseline(Vec<float, 16> (&v)[16]) { transpose(v); }
#endif
#endif  // __AVX512F__

/// Transposes one W*W-element block in place. @p p must be 64-byte aligned.
template <typename T, int W>
inline void transpose_block_inplace(T* p) {
  Vec<T, W> v[W];
  for (int j = 0; j < W; ++j) v[j] = Vec<T, W>::load(p + j * W);
  transpose(v);
  for (int j = 0; j < W; ++j) v[j].store(p + j * W);
}

/// Transposes one W*W-element block from @p src into @p dst (both aligned).
template <typename T, int W>
inline void transpose_block(const T* src, T* dst) {
  Vec<T, W> v[W];
  for (int j = 0; j < W; ++j) v[j] = Vec<T, W>::load(src + j * W);
  transpose(v);
  for (int j = 0; j < W; ++j) v[j].store(dst + j * W);
}

}  // namespace tsv
