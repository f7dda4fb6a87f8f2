// Autotuner tests: determinism under cached mode, JSON round-trip of the
// memo cache, legality of tuned blocks on tiny grids, bit-identical results
// between tuned and default plans for both dtypes, and thread-safety of the
// memo cache + trial path under concurrent make_plan (the batched executor
// plans from worker threads).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "tsv/kernels/reference.hpp"
#include "tsv/tsv.hpp"

namespace tsv {
namespace {

template <typename T>
T fill1(index x) {
  return static_cast<T>(0.3 + 1e-3 * static_cast<double>(x % 53));
}

Options tess_options(Tune tune, index steps = 16) {
  Options o;
  o.method = Method::kTranspose;
  o.tiling = Tiling::kTessellate;
  o.steps = steps;
  o.tune = tune;
  return o;
}

TEST(Tuner, NamesRoundTrip) {
  for (Tune t : {Tune::kOff, Tune::kCached, Tune::kFull})
    EXPECT_EQ(tune_from_name(tune_name(t)), t);
  EXPECT_FALSE(tune_from_name("banana").has_value());
}

TEST(Tuner, CandidatesIncludeDefaultAndRespectPins) {
  Options user;
  user.bx = 512;  // pinned by the user: every candidate must keep it
  const auto cands =
      tune_candidates(1, 4096, 1, 1, 1, Tiling::kTessellate, 100, user);
  ASSERT_FALSE(cands.empty());
  EXPECT_EQ(cands.front().bx, 512);  // candidate 0 is the user's own config
  EXPECT_EQ(cands.front().bt, 0);
  for (const TunedBlocks& b : cands) EXPECT_EQ(b.bx, 512);
  EXPECT_GT(cands.size(), 1u) << "unpinned bt should produce alternatives";
}

// The y/z seeds are resolve's cache-fit default (a 0 block) and the
// full-extent one tile; the tuner keeps no cache-ladder seeds of its own.
TEST(Tuner, CandidatesSeedYzFromResolveDefaultAndOneTile) {
  const Options user;
  const struct {
    int rank;
    index nx, ny, nz;
  } shapes[] = {{2, 1024, 4096, 1}, {3, 256, 256, 256}};
  for (const auto& sh : shapes) {
    const auto cands =
        tune_candidates(sh.rank, sh.nx, sh.ny, sh.nz, 1, Tiling::kTessellate,
                        16, user);
    ASSERT_FALSE(cands.empty());
    EXPECT_EQ(cands.front(), (TunedBlocks{0, 0, 0, 0}));
    bool one_tile = false;
    for (const TunedBlocks& b : cands) {
      EXPECT_TRUE(b.by == 0 || b.by == sh.ny) << "rank " << sh.rank;
      if (sh.rank >= 3) EXPECT_TRUE(b.bz == 0 || b.bz == sh.nz);
      one_tile = one_tile || (b.by == sh.ny && (sh.rank < 3 || b.bz == sh.nz));
    }
    EXPECT_TRUE(one_tile) << "rank " << sh.rank
                          << ": the one-tile alternative must stay";
  }
}

// Under a per-step boundary the tiled 2-step row's candidates are legalized
// at the single-step floor (slope R, time range bt), as resolve_options
// does: every candidate then resolves its own bt.
TEST(Tuner, PerStepUj2CandidatesUseTheSingleStepFloor) {
  Options user;
  user.method = Method::kTransposeUJ;
  user.tiling = Tiling::kTessellate;
  user.steps = 12;
  user.bt = 3;  // odd: legal for single steps
  user.by = 2;  // below the floor: every candidate raises it
  user.boundary = BoundarySpec::uniform(Boundary::kPeriodic);
  const Shape sh = shape2d(256, 64);
  const auto cands = tune_candidates(2, sh.nx, sh.ny, 1, 1,
                                     Tiling::kTessellate, 12, user);
  ASSERT_GT(cands.size(), 1u);
  const index floor = tess_min_block(1, 3);
  EXPECT_EQ(floor, 6);
  // Candidate 0 is the user's own fields; the rest are legalized.
  for (std::size_t i = 1; i < cands.size(); ++i) {
    const TunedBlocks& b = cands[i];
    EXPECT_EQ(b.bt, 3);
    if (b.by < sh.ny) EXPECT_GE(b.by, floor) << "candidate " << i;
    Options oc = user;
    oc.bx = b.bx;
    oc.by = b.by;
    oc.bt = b.bt;
    EXPECT_EQ(resolve_options(sh, 1, oc).bt, 3) << "candidate " << i;
  }
}

TEST(Tuner, TrialStepsAreBudgetCapped) {
  // Small grid: trials run two full time blocks.
  EXPECT_EQ(tune_trial_steps(4096, 32, 1000), 64);
  // Huge grid: the budget caps the step count instead.
  EXPECT_LE(tune_trial_steps(index{1} << 30, 128, 1000), 2);
  // Never longer than the real run.
  EXPECT_EQ(tune_trial_steps(4096, 32, 3), 3);
}

TEST(Tuner, CachedModeIsDeterministic) {
  tune_cache_clear();
  const auto s = make_1d3p(0.3);
  const Shape shape = shape1d(2048);
  const auto p1 = make_plan(shape, s, tess_options(Tune::kCached));
  const std::size_t after_first = tune_cache_size();
  EXPECT_GE(after_first, 1u);
  const auto p2 = make_plan(shape, s, tess_options(Tune::kCached));
  EXPECT_EQ(tune_cache_size(), after_first) << "second plan must hit the cache";
  EXPECT_EQ(p1.config().bx, p2.config().bx);
  EXPECT_EQ(p1.config().bt, p2.config().bt);
  EXPECT_EQ(p1.config().tune, Tune::kCached);
}

// A cache hit must never overwrite an explicitly pinned field: the pins are
// part of the key, so pinned and unpinned plans can never alias.
TEST(Tuner, CacheHitNeverOverridesPins) {
  tune_cache_clear();
  const auto s = make_1d3p(0.3);
  Options o = tess_options(Tune::kCached);
  const auto unpinned = make_plan(shape1d(2048), s, o);
  EXPECT_GT(unpinned.config().bx, 0);
  o.bx = 256;  // explicit pin
  const auto pinned = make_plan(shape1d(2048), s, o);
  EXPECT_EQ(pinned.config().bx, 256);
  // And the reverse direction: the unpinned key still serves its own entry.
  o.bx = 0;
  EXPECT_EQ(make_plan(shape1d(2048), s, o).config().bx,
            unpinned.config().bx);
}

TEST(Tuner, JsonRoundTrip) {
  tune_cache_clear();
  TuneKey key;
  key.method = Method::kTranspose;
  key.tiling = Tiling::kTessellate;
  key.rank = 2;
  key.isa = Isa::kAvx2;
  key.dtype = Dtype::kF32;
  key.nx = 1024;
  key.ny = 256;
  key.radius = 1;
  key.threads = 8;
  const TunedBlocks blocks{2048, 32, 0, 8};
  tune_cache_store(key, blocks);

  const std::string json = tune_cache_to_json();
  tune_cache_clear();
  EXPECT_EQ(tune_cache_size(), 0u);
  EXPECT_EQ(tune_cache_from_json(json), 1u);
  const auto hit = tune_cache_lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, blocks);

  EXPECT_THROW(tune_cache_from_json("[{\"method\":\"nope\"}]"),
               std::invalid_argument);
  EXPECT_THROW(tune_cache_from_json("not json"), std::invalid_argument);
  EXPECT_EQ(tune_cache_from_json("[]"), 0u);
  // Partial entries must be rejected loudly, not merged under a
  // default-initialized key (that would silently un-pin the config).
  EXPECT_THROW(tune_cache_from_json("[{}]"), std::invalid_argument);
  EXPECT_THROW(tune_cache_from_json("[{\"bx\":4096}]"),
               std::invalid_argument);
}

TEST(Tuner, JsonImportAcceptsPreBoundaryExports) {
  // Caches exported before the boundary axis existed carry no bc_x/bc_y/
  // bc_z fields; they were tuned under frozen (kDirichlet) halos, so the
  // import must default exactly that — not reject the file.
  tune_cache_clear();
  const std::string legacy =
      "[{\"method\":\"transpose\",\"tiling\":\"tessellate\",\"rank\":1,"
      "\"isa\":\"avx2\",\"dtype\":\"f64\",\"nx\":8192,\"ny\":1,\"nz\":1,"
      "\"radius\":1,\"threads\":4,\"steps\":100,\"pin_bx\":0,\"pin_by\":0,"
      "\"pin_bz\":0,\"pin_bt\":0,\"bx\":2048,\"by\":0,\"bz\":0,\"bt\":8}]";
  EXPECT_EQ(tune_cache_from_json(legacy), 1u);
  TuneKey key;
  key.method = Method::kTranspose;
  key.tiling = Tiling::kTessellate;
  key.rank = 1;
  key.isa = Isa::kAvx2;
  key.dtype = Dtype::kF64;
  key.nx = 8192;
  key.radius = 1;
  key.threads = 4;
  key.steps = 100;
  // Default-constructed boundary == all kDirichlet: the legacy entry must
  // be found under the frozen-halo key and no other.
  const auto hit = tune_cache_lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->bx, 2048);
  key.boundary = BoundarySpec::uniform(Boundary::kPeriodic);
  EXPECT_FALSE(tune_cache_lookup(key).has_value());
  tune_cache_clear();
}

TEST(Tuner, JsonFileRoundTrip) {
  tune_cache_clear();
  TuneKey key;
  key.method = Method::kDlt;
  key.tiling = Tiling::kSplit;
  key.rank = 1;
  key.isa = Isa::kScalar;
  key.dtype = Dtype::kF64;
  key.nx = 4096;
  key.radius = 1;
  key.threads = 2;
  tune_cache_store(key, {1024, 0, 0, 2});

  const std::string path = ::testing::TempDir() + "tsv_tuned.json";
  ASSERT_TRUE(tune_cache_export_json(path));
  tune_cache_clear();
  EXPECT_EQ(tune_cache_import_json(path), 1u);
  EXPECT_TRUE(tune_cache_lookup(key).has_value());
  std::remove(path.c_str());
  EXPECT_THROW(tune_cache_import_json(path), std::invalid_argument);
}

// Tuned blocks must be legal wherever the default heuristics are: a tiny
// grid leaves little blocking freedom, and make_plan must still succeed for
// every tuned tiled capability, with results matching the reference.
TEST(Tuner, TunedBlocksLegalOnTinyGrids) {
  tune_cache_clear();
  const auto s = make_1d3p(0.3);
  const index nx = 256;  // W^2-conforming for every compiled width
  Grid1D<double> ref(nx, 1);
  ref.fill(fill1<double>);
  reference_run(ref, s, 9);
  for (Method m : supported_methods(Tiling::kTessellate, 1)) {
    Options o;
    o.method = m;
    o.tiling = Tiling::kTessellate;
    o.steps = 9;
    o.tune = Tune::kFull;
    Grid1D<double> g(nx, 1);
    g.fill(fill1<double>);
    const auto plan = make_plan(shape1d(nx), s, o);
    EXPECT_GT(plan.config().bx, 0) << method_name(m);
    EXPECT_GT(plan.config().bt, 0) << method_name(m);
    plan.execute(g);
    EXPECT_LE(max_abs_diff(ref, g), accuracy_tolerance<double>(9))
        << method_name(m);
  }
  {
    Options o;
    o.method = Method::kDlt;
    o.tiling = Tiling::kSplit;
    o.steps = 9;
    o.tune = Tune::kFull;
    Grid1D<double> g(nx, 1);
    g.fill(fill1<double>);
    const auto plan = make_plan(shape1d(nx), s, o);
    plan.execute(g);
    EXPECT_LE(max_abs_diff(ref, g), accuracy_tolerance<double>(9));
  }
}

// Blocking changes the traversal order of tiles, never the per-cell
// arithmetic: a tuned plan must produce bit-identical results to the
// default plan, for both element types.
template <typename T>
void expect_tuned_bit_identical() {
  tune_cache_clear();
  const auto s = make_1d3p<T>(T(1) / T(3));
  const index nx = 4096;
  Grid1D<T> gd(nx, 1), gt(nx, 1);
  gd.fill(fill1<T>);
  gt.fill(fill1<T>);

  Options o;
  o.method = Method::kTranspose;
  o.tiling = Tiling::kTessellate;
  o.steps = 12;
  make_plan(shape1d(nx), s, o).execute(gd);  // fixed-default blocks

  o.tune = Tune::kFull;
  const auto tuned = make_plan(shape1d(nx), s, o);
  tuned.execute(gt);
  EXPECT_EQ(max_abs_diff(gd, gt), T(0))
      << "tuned blocks (bx=" << tuned.config().bx
      << ", bt=" << tuned.config().bt << ") changed the numerics";
}

TEST(Tuner, TunedPlanBitIdenticalToDefaultF64) {
  expect_tuned_bit_identical<double>();
}

TEST(Tuner, TunedPlanBitIdenticalToDefaultF32) {
  expect_tuned_bit_identical<float>();
}

// Concurrency regression (TSan-audited): N threads planning the SAME key
// under kCached must single-flight the trial — the tuner's trial lock
// serializes the search and the losers reuse the winner's result, so the
// memo cache ends with exactly one entry and every plan carries identical
// blocks. Before the single-flight fix this raced lookup-then-trial: every
// thread ran its own timed search, the trials time-shared the cores, and
// whichever noisy winner stored last won the cache.
TEST(Tuner, ConcurrentCachedPlanningSingleFlights) {
  tune_cache_clear();
  const auto s = make_1d3p(0.3);
  const Shape shape = shape1d(2048);
  const Options o = tess_options(Tune::kCached, 8);
  constexpr int kThreads = 8;
  std::vector<ResolvedOptions> cfgs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { cfgs[t] = make_plan(shape, s, o).config(); });
  for (auto& t : threads) t.join();
  EXPECT_EQ(tune_cache_size(), 1u)
      << "concurrent same-key planning must run exactly one search";
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(cfgs[t].bx, cfgs[0].bx) << "thread " << t;
    EXPECT_EQ(cfgs[t].bt, cfgs[0].bt) << "thread " << t;
  }
}

// Distinct keys tuned concurrently must all land (no lost updates in the
// memo cache) and stay individually replayable.
TEST(Tuner, ConcurrentDistinctKeysAllLand) {
  tune_cache_clear();
  const auto s = make_1d3p(0.3);
  const index sizes[] = {512, 1024, 2048, 4096};
  std::vector<std::thread> threads;
  for (index nx : sizes)
    threads.emplace_back([&, nx] {
      const auto p = make_plan(shape1d(nx), s, tess_options(Tune::kCached, 8));
      EXPECT_GT(p.config().bx, 0);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(tune_cache_size(), 4u);
  for (index nx : sizes) {  // every key memoized: replans are pure hits
    const std::size_t before = tune_cache_size();
    make_plan(shape1d(nx), s, tess_options(Tune::kCached, 8));
    EXPECT_EQ(tune_cache_size(), before) << "nx=" << nx;
  }
}

// A 2D warm start: the imported decision replays with zero timed trials and
// resolves to the same blocks, whether it stored a cache-fit 0 or a
// concrete block.
TEST(Tuner, WarmStart2DRunsZeroTrials) {
  tune_cache_clear();
  const index budget =
      cache_fit_elems(cpu_info().l2_bytes, dtype_size(Dtype::kF64), 0.5);
  const Shape shape = shape2d(256, 2 * budget / 256);
  const auto s = make_2d5p();
  const Options o = tess_options(Tune::kCached, 8);
  const auto cold = make_plan(shape, s, o);
  const std::string json = tune_cache_to_json();

  tune_cache_clear();
  tune_counters_reset();
  ASSERT_EQ(tune_cache_from_json(json), 1u);
  const auto warm = make_plan(shape, s, o);
  EXPECT_EQ(tune_counters().trial_executions, 0u);
  EXPECT_EQ(tune_counters().trial_searches, 0u);
  EXPECT_EQ(warm.config().by, cold.config().by);
  EXPECT_EQ(warm.config().bt, cold.config().bt);
}

// Rank-erased plans tune through the same path.
TEST(Tuner, StencilKindPlansTune) {
  tune_cache_clear();
  Options o;
  o.method = Method::kTranspose;
  o.tiling = Tiling::kTessellate;
  o.steps = 8;
  o.tune = Tune::kCached;
  const Plan plan = make_plan(shape1d(2048), StencilKind::k1d3p, o);
  EXPECT_GT(plan.config().bx, 0);
  EXPECT_GE(tune_cache_size(), 1u);
  Grid1D<double> g(2048, 1);
  g.fill(fill1<double>);
  Grid1D<double> ref = g;
  reference_run(ref, make_1d3p(), 8);
  plan.execute(g);
  EXPECT_LE(max_abs_diff(ref, g), accuracy_tolerance<double>(8));
}

}  // namespace
}  // namespace tsv
