// Tests for the generalized block-row-size layout (paper §3.2's m).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "tsv/kernels/reference.hpp"
#include "tsv/layout/block_transpose.hpp"
#include "tsv/layout/dlt.hpp"
#include "tsv/vectorize/blocked_m.hpp"

namespace tsv {
namespace {

double f1(index x) { return std::sin(0.05 * x) + 0.002 * x; }

TEST(BlockedM, OffsetMatchesSquareTransposeAtMEqualsW) {
  for (index x = 0; x < 256; ++x)
    EXPECT_EQ((blocked_m_offset<4>(x, 4)),
              (block_transposed_offset<4>(x)));
}

TEST(BlockedM, OffsetMatchesDltAtMEqualsRowLength) {
  constexpr int W = 4;
  const index nx = 64;
  for (index x = 0; x < nx; ++x)
    EXPECT_EQ((blocked_m_offset<W>(x, nx / W)), (dlt_offset<W>(x, nx)));
}

TEST(BlockedM, OffsetIsIdentityAtM1) {
  for (index x = 0; x < 128; ++x) EXPECT_EQ((blocked_m_offset<4>(x, 1)), x);
}

TEST(BlockedM, ForwardBackwardRoundtrip) {
  constexpr int W = 4;
  for (index m : {1, 2, 3, 5, 8}) {
    const index nx = W * m * 6;
    AlignedBuffer<double> row(nx);
    std::iota(row.begin(), row.end(), 0.0);
    blocked_m_forward_row<double, W>(row.data(), nx, m);
    for (index x = 0; x < nx; ++x)
      EXPECT_EQ(row[blocked_m_offset<W>(x, m)], static_cast<double>(x))
          << "m=" << m;
    blocked_m_backward_row<double, W>(row.data(), nx, m);
    for (index x = 0; x < nx; ++x) EXPECT_EQ(row[x], static_cast<double>(x));
  }
}

template <typename V>
void check_blocked_m_matches_reference() {
  constexpr int W = V::width;
  const auto s3 = make_1d3p(0.32);
  const auto s5 = make_1d5p(0.06, 0.2, 0.45);
  Workspace ws;
  for (index m : {1, 2, 3, 8, 16}) {
    const index nx = W * m * 8;
    Grid1D<double> ref(nx, 2), got(nx, 2);
    ref.fill(f1);
    got.fill(f1);
    reference_run(ref, s3, 4);
    blocked_m_run<V, 1>(got, s3, 4, m, ws);
    EXPECT_LE(max_abs_diff(ref, got), 1e-11) << "m=" << m << " W=" << W;
    if (m >= 2) {  // radius-2 stencil needs m >= R
      Grid1D<double> r2(nx, 2), g2(nx, 2);
      r2.fill(f1);
      g2.fill(f1);
      reference_run(r2, s5, 3);
      blocked_m_run<V, 2>(g2, s5, 3, m, ws);
      EXPECT_LE(max_abs_diff(r2, g2), 1e-11) << "m=" << m << " W=" << W;
    }
  }
  // DLT extreme: one block per row.
  const index nx = W * 64;
  Grid1D<double> ref(nx, 1), got(nx, 1);
  ref.fill(f1);
  got.fill(f1);
  reference_run(ref, s3, 5);
  blocked_m_run<V, 1>(got, s3, 5, nx / W, ws);
  EXPECT_LE(max_abs_diff(ref, got), 1e-11);
}

TEST(BlockedM, MatchesReferenceW2) {
  check_blocked_m_matches_reference<Vec<double, 2>>();
}
#if defined(__AVX2__)
TEST(BlockedM, MatchesReferenceAvx2) {
  check_blocked_m_matches_reference<Vec<double, 4>>();
}
#endif
#if defined(__AVX512F__)
TEST(BlockedM, MatchesReferenceAvx512) {
  check_blocked_m_matches_reference<Vec<double, 8>>();
}
#endif

TEST(BlockedM, RejectsBadConfig) {
  auto s = make_1d5p();
  Workspace ws;
  Grid1D<double> g(64, 2);
  g.fill(f1);
  // m < radius
  EXPECT_THROW((blocked_m_run<Vec<double, 4>, 2>(g, s, 1, 1, ws)),
               std::invalid_argument);
  // nx not a multiple of W*m
  Grid1D<double> h(60, 1);
  h.fill(f1);
  auto s3 = make_1d3p();
  EXPECT_THROW((blocked_m_run<Vec<double, 4>, 1>(h, s3, 1, 8, ws)),
               std::invalid_argument);
}

}  // namespace
}  // namespace tsv
