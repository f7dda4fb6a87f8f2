// Tests for the two data layouts: register-block transpose and DLT.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <random>

#include "tsv/common/grid.hpp"
#include "tsv/layout/block_transpose.hpp"
#include "tsv/layout/dlt.hpp"

namespace tsv {
namespace {

// ---- block transpose --------------------------------------------------------

TEST(BlockTransposedOffset, MatchesDefinition) {
  constexpr int W = 4;
  // Element B + i*W + j must land at B + j*W + i.
  for (index b = 0; b < 3; ++b)
    for (index i = 0; i < W; ++i)
      for (index j = 0; j < W; ++j)
        EXPECT_EQ(block_transposed_offset<W>(b * 16 + i * W + j),
                  b * 16 + j * W + i);
}

TEST(BlockTransposedOffset, IsInvolution) {
  for (index x = 0; x < 512; ++x) {
    EXPECT_EQ(block_transposed_offset<4>(block_transposed_offset<4>(x)), x);
    EXPECT_EQ(block_transposed_offset<8>(block_transposed_offset<8>(x)), x);
  }
}

TEST(BlockTransposedOffset, BlockCornersAreFixedPoints) {
  // First and last element of every block stay put — the property the
  // cross-block assembles rely on (DESIGN.md §6.1).
  constexpr int W = 4;
  for (index b = 0; b < 8; ++b) {
    EXPECT_EQ(block_transposed_offset<W>(b * 16), b * 16);
    EXPECT_EQ(block_transposed_offset<W>(b * 16 + 15), b * 16 + 15);
  }
}

template <int W>
void check_row_roundtrip(index n) {
  AlignedBuffer<double> row(n);
  std::iota(row.begin(), row.end(), 0.0);
  block_transpose_row<double, W>(row.data(), n);
  for (index x = 0; x < n; ++x)
    EXPECT_EQ(row[block_transposed_offset<W>(x)], static_cast<double>(x));
  block_transpose_row<double, W>(row.data(), n);  // self-inverse
  for (index x = 0; x < n; ++x) EXPECT_EQ(row[x], static_cast<double>(x));
}

TEST(BlockTransposeRow, RoundtripW2) { check_row_roundtrip<2>(4 * 7); }
TEST(BlockTransposeRow, RoundtripW4) { check_row_roundtrip<4>(16 * 5); }
TEST(BlockTransposeRow, RoundtripW8) { check_row_roundtrip<8>(64 * 3); }

TEST(BlockTransposeRow, RejectsBadLength) {
  AlignedBuffer<double> row(20);
  EXPECT_THROW((block_transpose_row<double, 4>(row.data(), 20)),
               std::invalid_argument);
}

TEST(BlockTransposeGrid, Grid1DHaloUntouched) {
  Grid1D<double> g(32, 2);
  g.fill([](index x) { return static_cast<double>(x); });
  block_transpose_grid<double, 4>(g);
  EXPECT_EQ(g.at(-1), -1.0);
  EXPECT_EQ(g.at(-2), -2.0);
  EXPECT_EQ(g.at(32), 32.0);
  EXPECT_EQ(g.at(33), 33.0);
  // Interior moved per the index map.
  for (index x = 0; x < 32; ++x)
    EXPECT_EQ((load_transposed<double, 4>(g.x0(), x)), static_cast<double>(x));
}

TEST(BlockTransposeGrid, Grid2DEveryRowIndependent) {
  Grid2D<double> g(16, 3, 1);
  g.fill([](index x, index y) { return static_cast<double>(100 * y + x); });
  block_transpose_grid<double, 4>(g);
  for (index y = 0; y < 3; ++y)
    for (index x = 0; x < 16; ++x)
      EXPECT_EQ((load_transposed<double, 4>(g.row(y), x)),
                static_cast<double>(100 * y + x));
  block_transpose_grid<double, 4>(g);
  EXPECT_EQ(g.at(5, 2), 205.0);
}

TEST(BlockTransposeGrid, Grid3DRoundtrip) {
  Grid3D<double> g(16, 2, 2, 1);
  g.fill([](index x, index y, index z) {
    return static_cast<double>(z * 1000 + y * 100 + x);
  });
  block_transpose_grid<double, 4>(g);
  block_transpose_grid<double, 4>(g);
  for (index z = 0; z < 2; ++z)
    for (index y = 0; y < 2; ++y)
      for (index x = 0; x < 16; ++x)
        EXPECT_EQ(g.at(x, y, z), static_cast<double>(z * 1000 + y * 100 + x));
}

TEST(BlockTranspose, StoreThenLoad) {
  AlignedBuffer<double> row(64);
  store_transposed<double, 8>(row.data(), 13, 7.5);
  EXPECT_EQ((load_transposed<double, 8>(row.data(), 13)), 7.5);
}

// ---- DLT ---------------------------------------------------------------------

TEST(DltOffset, MatchesFigure1) {
  // Paper Fig. 1: 28 elements, W=4 -> L=7. Element order after DLT starts
  // A,H,O,V i.e. elements 0, 7, 14, 21 occupy positions 0..3.
  constexpr int W = 4;
  const index n = 28;
  EXPECT_EQ((dlt_offset<W>(0, n)), 0);
  EXPECT_EQ((dlt_offset<W>(7, n)), 1);
  EXPECT_EQ((dlt_offset<W>(14, n)), 2);
  EXPECT_EQ((dlt_offset<W>(21, n)), 3);
  // Second output vector holds elements 1, 8, 15, 22.
  EXPECT_EQ((dlt_offset<W>(1, n)), 4);
  EXPECT_EQ((dlt_offset<W>(8, n)), 5);
}

template <int W>
void check_dlt_roundtrip(index n) {
  AlignedBuffer<double> a(n), t(n), back(n);
  std::iota(a.begin(), a.end(), 0.0);
  dlt_forward_row<double, W>(a.data(), t.data(), n);
  for (index x = 0; x < n; ++x)
    EXPECT_EQ(t[dlt_offset<W>(x, n)], static_cast<double>(x));
  dlt_backward_row<double, W>(t.data(), back.data(), n);
  for (index x = 0; x < n; ++x) EXPECT_EQ(back[x], static_cast<double>(x));
}

TEST(Dlt, RoundtripW4) { check_dlt_roundtrip<4>(28); }
TEST(Dlt, RoundtripW8) { check_dlt_roundtrip<8>(8 * 11); }

TEST(Dlt, RejectsBadLength) {
  AlignedBuffer<double> a(10), t(10);
  EXPECT_THROW((dlt_forward_row<double, 4>(a.data(), t.data(), 10)),
               std::invalid_argument);
  EXPECT_THROW((dlt_backward_row<double, 4>(a.data(), t.data(), 10)),
               std::invalid_argument);
}

TEST(Dlt, NeighborsBecomeStrideWApart) {
  // The property DLT vectorization relies on: spatial neighbors x and x+1
  // sit exactly W positions apart (except at lane seams).
  constexpr int W = 4;
  const index n = 64;
  const index L = n / W;
  for (index x = 0; x < n - 1; ++x) {
    if ((x + 1) % L == 0) continue;  // lane seam
    EXPECT_EQ((dlt_offset<W>(x + 1, n)) - (dlt_offset<W>(x, n)), W);
  }
}

TEST(Dlt, Grid2DPerRow) {
  Grid2D<double> src(16, 3, 1), dst(16, 3, 1);
  src.fill([](index x, index y) { return static_cast<double>(50 * y + x); });
  dst.copy_halo_from(src);
  dlt_forward_grid<double, 4>(src, dst);
  for (index y = 0; y < 3; ++y)
    for (index x = 0; x < 16; ++x)
      EXPECT_EQ(dst.row(y)[dlt_offset<4>(x, 16)],
                static_cast<double>(50 * y + x));
}

TEST(Dlt, Grid3DRoundtrip) {
  Grid3D<double> src(16, 2, 2, 1), mid(16, 2, 2, 1), out(16, 2, 2, 1);
  src.fill([](index x, index y, index z) {
    return static_cast<double>(z * 31 + y * 7 + x);
  });
  dlt_forward_grid<double, 4>(src, mid);
  dlt_backward_grid<double, 4>(mid, out);
  for (index z = 0; z < 2; ++z)
    for (index y = 0; y < 2; ++y)
      for (index x = 0; x < 16; ++x)
        EXPECT_EQ(out.at(x, y, z), src.at(x, y, z));
}

// ---- team transforms ---------------------------------------------------------
//
// A team splits the (y, z) rows of a whole-grid transform with a static
// schedule; rows are independent, so every team gives the serial result,
// halo cells included. 7 rows in 2D and 7 x 5 = 35 in 3D are multiples of
// neither 2 nor 3.

template <typename G>
G numbered_grid(index nx) {
  G g = make_grid<G>({nx, 5, 3}, 1);
  index n = 0;
  for_each_row(g, 1, [&](index y, index z) {
    for (index x = -1; x <= nx; ++x)
      row_at(g, y, z)[x] = static_cast<double>(n++);
  });
  return g;
}

template <typename G>
bool same_cells(const G& a, const G& b) {
  bool same = true;
  for_each_row(a, 1, [&](index y, index z) {
    same = same && std::memcmp(row_at(a, y, z) - 1, row_at(b, y, z) - 1,
                               (a.nx() + 2) * sizeof(double)) == 0;
  });
  return same;
}

template <typename G>
void expect_team_transforms_match_serial() {
  const index nx = 32;
  for (int team = 1; team <= 3; ++team) {
    G serial = numbered_grid<G>(nx), par = numbered_grid<G>(nx);
    block_transpose_grid<double, 4>(serial);
    block_transpose_grid<double, 4>(par, team);
    EXPECT_TRUE(same_cells(serial, par)) << "block transpose, team " << team;

    const G src = numbered_grid<G>(nx);
    G fs = numbered_grid<G>(nx), fp = numbered_grid<G>(nx);
    dlt_forward_grid<double, 4>(src, fs);
    dlt_forward_grid<double, 4>(src, fp, team);
    EXPECT_TRUE(same_cells(fs, fp)) << "DLT forward, team " << team;
    G bs = numbered_grid<G>(nx), bp = numbered_grid<G>(nx);
    dlt_backward_grid<double, 4>(fs, bs);
    dlt_backward_grid<double, 4>(fs, bp, team);
    EXPECT_TRUE(same_cells(bs, bp)) << "DLT backward, team " << team;
    EXPECT_TRUE(same_cells(bs, src)) << "DLT round trip, team " << team;
  }
}

TEST(TeamTransform, Grid2DBitIdenticalToSerial) {
  expect_team_transforms_match_serial<Grid2D<double>>();
}

TEST(TeamTransform, Grid3DBitIdenticalToSerial) {
  expect_team_transforms_match_serial<Grid3D<double>>();
}

// The nx check runs once, before the team forks: a non-conforming grid
// throws a catchable error and no row moves.
TEST(TeamTransform, BadLengthThrowsBeforeTheTeam) {
  const index nx = 20;  // a multiple of W = 4, not of W^2 = 16
  Grid3D<double> g = numbered_grid<Grid3D<double>>(nx);
  const Grid3D<double> before = numbered_grid<Grid3D<double>>(nx);
  EXPECT_THROW((block_transpose_grid<double, 4>(g, 3)), std::invalid_argument);
  EXPECT_TRUE(same_cells(g, before));

  const index bad = 18;  // not a multiple of W = 4
  const Grid2D<double> src = numbered_grid<Grid2D<double>>(bad);
  Grid2D<double> dst = numbered_grid<Grid2D<double>>(bad);
  EXPECT_THROW((dlt_forward_grid<double, 4>(src, dst, 3)),
               std::invalid_argument);
  EXPECT_THROW((dlt_backward_grid<double, 4>(src, dst, 3)),
               std::invalid_argument);
  EXPECT_TRUE(same_cells(dst, numbered_grid<Grid2D<double>>(bad)));
}

}  // namespace
}  // namespace tsv
