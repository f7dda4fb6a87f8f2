// Workspace tests: the plan-owned scratch subsystem. The headline contract:
// the SECOND (and every later) Plan::execute performs zero heap allocations
// in every driver — grids and scratch rings are hoisted into the plan's
// Workspace on the first execute and reused.
//
// Two counters observe the allocator:
//  * tsv::aligned_alloc_count() — every AlignedBuffer (grids, scratch rows);
//  * a global operator new/delete replacement in this TU — std::vector pool
//    containers, std::map nodes, anything else C++-allocated.
// OpenMP runtime internals use malloc directly and are invisible to both,
// which is what we want: the assertion is about the library's own buffers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "tsv/kernels/reference.hpp"
#include "tsv/tsv.hpp"

namespace {
std::atomic<std::uint64_t> g_new_count{0};
}

void* operator new(std::size_t n) {
  ++g_new_count;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tsv {
namespace {

constexpr double kTol = 1e-11;

double f1(index x) { return 0.3 + 1e-3 * static_cast<double>(x % 53); }
double f2(index x, index y) {
  return 0.3 + 1e-3 * static_cast<double>((x + 3 * y) % 53);
}
double f3(index x, index y, index z) {
  return 0.3 + 1e-3 * static_cast<double>((x + 3 * y + 7 * z) % 53);
}

struct AllocSnapshot {
  std::uint64_t aligned, cpp;
  static AllocSnapshot take() {
    return {aligned_alloc_count(), g_new_count.load()};
  }
};

/// Asserts fn() performs zero library-buffer and zero C++ heap allocations.
template <typename Fn>
void expect_alloc_free(Fn&& fn, const char* what) {
  const AllocSnapshot before = AllocSnapshot::take();
  fn();
  const AllocSnapshot after = AllocSnapshot::take();
  EXPECT_EQ(after.aligned - before.aligned, 0u)
      << what << ": AlignedBuffer allocations on a steady-state execute";
  EXPECT_EQ(after.cpp - before.cpp, 0u)
      << what << ": operator new calls on a steady-state execute";
}

// ---- Workspace unit behaviour ----------------------------------------------

TEST(Workspace, SlotCreatesOnceAndReusesByKey) {
  Workspace ws;
  int makes = 0;
  auto& a = ws.slot<int>(0, ws_key(1, 2), [&] {
    ++makes;
    return 41;
  });
  a = 42;
  auto& b = ws.slot<int>(0, ws_key(1, 2), [&] {
    ++makes;
    return 0;
  });
  EXPECT_EQ(makes, 1);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b, 42);
  EXPECT_EQ(ws.size(), 1u);
}

TEST(Workspace, KeyChangeRecreatesSlot) {
  Workspace ws;
  int makes = 0;
  ws.slot<int>(0, ws_key(16), [&] { return ++makes; });
  ws.slot<int>(0, ws_key(32), [&] { return ++makes; });  // reshaped
  EXPECT_EQ(makes, 2);
  ws.clear();
  EXPECT_EQ(ws.size(), 0u);
}

TEST(Workspace, ParallelFirstTouchZeroes) {
  Grid2D<double> g(64, 32, 1, FirstTouch::kParallel);
  for (index y = -1; y < 33; ++y)
    for (index x = -1; x < 65; ++x) ASSERT_EQ(g.at(x, y), 0.0);
  AlignedBuffer<double> b(1000, FirstTouch::kNone);
  b.zero_parallel();
  for (index i = 0; i < 1000; ++i) ASSERT_EQ(b[i], 0.0);
}

// ---- WorkspacePool: the executor's per-request scratch source ---------------

// The pool's headline invariant: a checkout is EXCLUSIVE — two in-flight
// leases can never reference the same Workspace. 8 threads hammer the pool
// and track the live instance set; any overlap is a failure (and a data
// race the TSan CI job would flag independently).
TEST(WorkspacePool, CheckoutIsExclusiveUnderContention) {
  WorkspacePool pool;
  constexpr int kThreads = 8, kIters = 100;
  std::mutex mu;
  std::set<Workspace*> live;
  std::atomic<bool> overlap{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        WorkspacePool::Lease lease = pool.checkout();
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!live.insert(lease.get()).second) overlap = true;
        }
        // Touch a slot while holding the lease (the realistic critical
        // section a second owner would corrupt).
        lease->slot<int>(0, ws_key(i % 4), [] { return 7; });
        {
          std::lock_guard<std::mutex> lock(mu);
          live.erase(lease.get());
        }
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(overlap.load()) << "one workspace handed to two leases";
  const WorkspacePool::Stats s = pool.stats();
  EXPECT_EQ(s.in_flight, 0u);
  // Creation only happens on an empty free list, so the pool can never
  // hold more workspaces than its peak concurrency.
  EXPECT_LE(s.created, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(s.created + s.reused,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(s.free, s.created);
}

// A recycled workspace keeps its slots warm: the second checkout gets the
// parked instance back and a same-key slot access allocates nothing — the
// pooled equivalent of the plan-owned steady-state contract below.
TEST(WorkspacePool, RecycledWorkspaceKeepsSlotsWarm) {
  WorkspacePool pool;
  Grid1D<double> g(512, 1);
  Workspace* first = nullptr;
  {
    WorkspacePool::Lease lease = pool.checkout();
    first = lease.get();
    ws_grid_like(*lease, kWsTmpGrid, g);  // populate
  }
  WorkspacePool::Lease again = pool.checkout();
  EXPECT_EQ(again.get(), first) << "free list must serve LIFO reuse";
  expect_alloc_free([&] { ws_grid_like(*again, kWsTmpGrid, g); },
                    "same-key slot on a recycled workspace");
  EXPECT_EQ(pool.stats().reused, 1u);
}

// Leases are movable (the executor hands them across scopes): moving must
// transfer ownership exactly once.
TEST(WorkspacePool, LeaseMoveTransfersOwnership) {
  WorkspacePool pool;
  WorkspacePool::Lease a = pool.checkout();
  Workspace* raw = a.get();
  WorkspacePool::Lease b = std::move(a);
  EXPECT_EQ(b.get(), raw);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(pool.stats().in_flight, 1u);
  b = WorkspacePool::Lease();  // releases
  EXPECT_EQ(pool.stats().in_flight, 0u);
  EXPECT_EQ(pool.stats().free, 1u);
}

// ---- steady-state executes are allocation-free ------------------------------

struct TiledConfig {
  Method method;
  Tiling tiling;
};

TEST(Workspace, SecondExecuteAllocationFree1D) {
  const auto s = make_1d3p(0.3);
  const index nx = 512;
  for (Method m : supported_methods(Tiling::kTessellate, 1)) {
    Options o;
    o.method = m;
    o.tiling = Tiling::kTessellate;
    o.steps = 6;
    o.bx = 256;
    o.bt = 2;
    Grid1D<double> g(nx, 1);
    g.fill(f1);
    const auto plan = make_plan(shape1d(nx), s, o);
    plan.execute(g);  // first execute populates the workspace
    expect_alloc_free([&] { plan.execute(g); }, method_name(m));
    expect_alloc_free([&] { plan.execute(g); }, method_name(m));
  }
  {
    Options o;
    o.method = Method::kDlt;
    o.tiling = Tiling::kSplit;
    o.steps = 6;
    o.bx = 64;
    o.bt = 2;
    Grid1D<double> g(nx, 1);
    g.fill(f1);
    const auto plan = make_plan(shape1d(nx), s, o);
    plan.execute(g);
    expect_alloc_free([&] { plan.execute(g); }, "dlt+split");
  }
}

TEST(Workspace, SecondExecuteAllocationFree2D3D) {
  {
    const auto s = make_2d5p();
    Grid2D<double> g(128, 24, 1);
    g.fill(f2);
    for (Method m : supported_methods(Tiling::kTessellate, 2)) {
      Options o;
      o.method = m;
      o.tiling = Tiling::kTessellate;
      o.steps = 5;
      o.bx = 64;
      o.by = 12;
      o.bt = 2;
      const auto plan = make_plan(shape2d(128, 24), s, o);
      plan.execute(g);
      expect_alloc_free([&] { plan.execute(g); }, method_name(m));
    }
  }
  {
    const auto s = make_3d7p();
    Grid3D<double> g(64, 8, 10, 1);
    g.fill(f3);
    for (Method m : supported_methods(Tiling::kTessellate, 3)) {
      Options o;
      o.method = m;
      o.tiling = Tiling::kTessellate;
      o.steps = 4;
      o.bx = 64;
      o.by = 8;
      o.bz = 10;
      o.bt = 2;
      const auto plan = make_plan(shape3d(64, 8, 10), s, o);
      plan.execute(g);
      expect_alloc_free([&] { plan.execute(g); }, method_name(m));
    }
  }
}

TEST(Workspace, UntiledExecutesAreAllocationFreeToo) {
  const auto s = make_1d3p(0.3);
  const index nx = 256;
  for (Method m : supported_methods(Tiling::kNone, 1)) {
    Options o;
    o.method = m;
    o.steps = 4;
    Grid1D<double> g(nx, 1);
    g.fill(f1);
    const auto plan = make_plan(shape1d(nx), s, o);
    plan.execute(g);
    expect_alloc_free([&] { plan.execute(g); }, method_name(m));
  }
}

// Reused workspace buffers must not leak state between executes: two
// single-shot plans from the same initial grid must agree exactly with one
// long-lived plan executed twice, and with the scalar reference.
TEST(Workspace, ReusedBuffersStayCorrect) {
  const auto s = make_2d5p();
  const index nx = 128, ny = 16;
  Grid2D<double> ref(nx, ny, 1), g(nx, ny, 1);
  ref.fill(f2);
  g.fill(f2);
  reference_run(ref, s, 8);

  Options o;
  o.method = Method::kTransposeUJ;
  o.tiling = Tiling::kTessellate;
  o.steps = 4;
  o.bx = 64;
  o.by = 8;
  o.bt = 2;
  const auto plan = make_plan(shape2d(nx, ny), s, o);
  plan.execute(g);
  plan.execute(g);  // second run reuses the parity buffer
  EXPECT_LE(max_abs_diff(ref, g), kTol);
}

// Streaming stores must be numerically identical to cached stores (NT
// stores change cache behaviour, not values). Forced on via StreamMode::kOn
// so the test does not depend on this machine's LLC size.
TEST(Workspace, StreamingStoresBitIdenticalToCached) {
  const auto s = make_1d3p(0.3);
  const index nx = 1024;
  Grid1D<double> a(nx, 1), b(nx, 1);
  a.fill(f1);
  b.fill(f1);
  for (Method m : {Method::kTranspose, Method::kDlt}) {
    Grid1D<double> ga(nx, 1), gb(nx, 1);
    ga.fill(f1);
    gb.fill(f1);
    Options o;
    o.method = m;
    o.steps = 5;
    o.stream = StreamMode::kOff;
    make_plan(shape1d(nx), s, o).execute(ga);
    o.stream = StreamMode::kOn;
    const auto plan = make_plan(shape1d(nx), s, o);
    EXPECT_TRUE(plan.config().streaming);
    plan.execute(gb);
    EXPECT_EQ(max_abs_diff(ga, gb), 0.0) << method_name(m);
  }
}

// The resolved streaming flag follows the topology policy: tiny working
// sets never stream under kAuto; bt > 1 tiled runs never stream even when
// huge (temporal reuse would be destroyed).
TEST(Workspace, StreamingResolutionPolicy) {
  const auto s = make_1d3p(0.3);
  Options o;
  o.method = Method::kTranspose;
  o.steps = 2;
  EXPECT_FALSE(make_plan(shape1d(1024), s, o).config().streaming)
      << "L1-sized working set must not stream under kAuto";
  o.stream = StreamMode::kOn;
  EXPECT_TRUE(make_plan(shape1d(1024), s, o).config().streaming);
  o.stream = StreamMode::kAuto;
  o.tiling = Tiling::kTessellate;
  o.bx = 512;
  o.bt = 4;  // temporal blocking: reuse exists, must not stream
  o.stream_threshold = 1e-12;  // make every working set "big"
  EXPECT_FALSE(make_plan(shape1d(1024), s, o).config().streaming);
  // kOn overrides the topology threshold, never the reuse gate: the flag
  // must report what the drivers actually execute.
  o.stream = StreamMode::kOn;
  EXPECT_FALSE(make_plan(shape1d(1024), s, o).config().streaming);
  o.stream = StreamMode::kAuto;
  o.bt = 1;  // degenerate full sweeps: streaming allowed
  EXPECT_TRUE(make_plan(shape1d(1024), s, o).config().streaming);
  // Combinations without a streaming write-back variant never report
  // streaming, even under kOn (the flag reports what executes).
  Options oa;
  oa.method = Method::kAutoVec;
  oa.steps = 2;
  oa.stream = StreamMode::kOn;
  EXPECT_FALSE(make_plan(shape1d(1024), s, oa).config().streaming);
}

// ---- prepare: every allocation before the first write ----------------------
//
// TypedPlan::prepare creates every slot an execute fetches, plain or polled
// by an active ExecControl, under a frozen or a per-step boundary (the
// untiled 2-step unroll&jam scheme then advances single steps: every step
// needs the parity buffer, none the ring). After it, even the FIRST
// execute on a fresh workspace allocates nothing — which is what makes
// every allocation failure pre-mutation (retry without a snapshot).

template <typename S, typename G>
void expect_prepared_execute_alloc_free(const Shape& sh, const S& s,
                                        const G& input, const Options& o,
                                        const std::string& what) {
  const auto plan = make_plan(sh, s, o);
  for (bool polled : {false, true}) {
    ExecControl ctl;
    if (polled)
      ctl.deadline = ExecControl::Clock::now() + std::chrono::hours(1);
    const ExecControl* c = polled ? &ctl : nullptr;
    Workspace ws;
    G g = input;
    plan.prepare(g, ws);
    const std::string label = what + (polled ? " polled" : " plain");
    expect_alloc_free([&] { plan.execute(g, ws, c); }, label.c_str());
  }
}

template <typename T>
int check_prepared_first_execute(const Capability& cap, index steps,
                                 Boundary b) {
  const Dtype dt = dtype_of<T>();
  if (!cap.supports_dtype(dt)) return 0;
  int checked = 0;
  for (int rank = 1; rank <= 3; ++rank) {
    if (!cap.supports_rank(rank)) continue;
    Options o;
    o.method = cap.method;
    o.tiling = cap.tiling;
    o.steps = steps;
    o.boundary = BoundarySpec::uniform(b);
    if (cap.tiling != Tiling::kNone) {
      o.bt = 2;
      o.bx = rank == 1 ? (cap.tiling == Tiling::kSplit ? 64 : 256) : 0;
      o.by = 8;
      o.bz = 4;
    }
    const std::string what = std::string(method_name(cap.method)) + "+" +
                             tiling_name(cap.tiling) + " " +
                             std::to_string(rank) + "D " + dtype_name(dt) +
                             " steps=" + std::to_string(steps) + " " +
                             boundary_name(b);
    if (rank == 1) {
      Grid1D<T> g(512, 1);
      g.fill([](index x) { return static_cast<T>(f1(x)); });
      expect_prepared_execute_alloc_free(shape1d(512), make_1d3p<T>(), g, o,
                                         what);
    } else if (rank == 2) {
      Grid2D<T> g(256, 24, 1);
      g.fill([](index x, index y) { return static_cast<T>(f2(x, y)); });
      expect_prepared_execute_alloc_free(shape2d(256, 24), make_2d5p<T>(), g,
                                         o, what);
    } else {
      Grid3D<T> g(256, 12, 10, 1);
      g.fill([](index x, index y, index z) {
        return static_cast<T>(f3(x, y, z));
      });
      expect_prepared_execute_alloc_free(shape3d(256, 12, 10),
                                         make_3d7p<T>(), g, o, what);
    }
    ++checked;
  }
  return checked;
}

TEST(Workspace, FirstExecuteAfterPrepareIsAllocationFree) {
  int checked = 0;
  for (const Capability& cap : capabilities())
    // Odd steps run the untiled 2-step scheme's remainder step; a periodic
    // boundary makes it advance single steps, so even steps need the parity
    // buffer there too.
    for (index steps : {3, 4})
      for (Boundary b : {Boundary::kDirichlet, Boundary::kPeriodic}) {
        checked += check_prepared_first_execute<double>(cap, steps, b);
        checked += check_prepared_first_execute<float>(cap, steps, b);
      }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace tsv
