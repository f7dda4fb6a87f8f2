#pragma once
// Plan-owned execution workspace: reusable, 64-byte-aligned scratch storage
// for everything a kernel driver would otherwise allocate per execute —
// Jacobi/tessellation parity buffers, DLT staging grids, the untiled
// unroll&jam ring.
//
// Why it exists: the hot path of a service that executes the same plan many
// times must not touch the allocator (or fault in fresh pages) after the
// first call. Every driver fetches its buffers from the plan's Workspace
// through typed slots; a slot creates its object on first use — with
// NUMA-aware first touch (see FirstTouch in common/aligned.hpp) — and hands
// the same object back on every subsequent execute with a matching key.
// The workspace test suite asserts the second execute of every tiled driver
// performs zero heap allocations.
//
// Slot creation is the only allocation a plan's execution makes, so
// TypedPlan::execute creates every slot its run will fetch (its prepare
// step) before the first write to the caller's grid: a bad_alloc — or the
// injected workspace.slot fault — then always leaves the grid untouched, and
// a retry of the same plan on the same input is bit-identical.
//
// Concurrency contract: a Workspace (and therefore Plan::execute on one plan
// object) is NOT safe to enter from two threads at once. Copies of a
// TypedPlan share one workspace; create separate plans for concurrent
// execution streams.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <typeindex>
#include <typeinfo>
#include <utility>
#include <vector>

#include "tsv/common/grid.hpp"
#include "tsv/core/fault.hpp"

namespace tsv {

/// Well-known workspace slot ids. A slot holds one logical buffer (or ring);
/// ids only need to be unique within one driver invocation, but keeping them
/// globally distinct makes workspace dumps readable.
enum WsSlot : int {
  kWsTmpGrid = 0,      ///< Jacobi / tessellation parity buffer
  kWsDltA = 2,         ///< DLT staging grid A
  kWsDltB = 3,         ///< DLT staging grid B
  kWsRing = 4,         ///< untiled uj2 intermediate-level ring
};

/// Order-sensitive FNV-1a mix of shape parameters into a slot key. A slot
/// whose key changes (grid reshaped, thread count changed) is recreated.
inline std::uint64_t ws_key() { return 1469598103934665603ull; }
template <typename... Rest>
std::uint64_t ws_key(index head, Rest... rest) {
  std::uint64_t h = ws_key(rest...);
  h ^= static_cast<std::uint64_t>(head);
  h *= 1099511628211ull;
  return h;
}

class Workspace {
 public:
  /// Returns the slot's cached object, constructing it with @p make() on
  /// first use or whenever @p key / the stored type changes. The reference
  /// stays valid until the slot is recreated or the workspace cleared.
  template <typename T, typename Make>
  T& slot(int id, std::uint64_t key, Make&& make) {
    auto it = entries_.find(id);
    if (it == entries_.end() || it->second.key != key ||
        it->second.type != std::type_index(typeid(T))) {
      fault_point(FaultSite::kWorkspaceSlot);
      Entry e;
      e.key = key;
      e.type = std::type_index(typeid(T));
      e.obj = std::shared_ptr<void>(new T(make()),
                                    [](void* p) { delete static_cast<T*>(p); });
      it = entries_.insert_or_assign(id, std::move(e)).first;
    }
    return *static_cast<T*>(it->second.obj.get());
  }

  /// The slot's object if slot @p id holds a T, else nullptr
  /// (introspection / tests).
  template <typename T>
  T* find(int id) const {
    auto it = entries_.find(id);
    if (it == entries_.end() ||
        it->second.type != std::type_index(typeid(T)))
      return nullptr;
    return static_cast<T*>(it->second.obj.get());
  }

  /// Drops every cached buffer (storage is released immediately).
  void clear() { entries_.clear(); }

  /// Number of live slots.
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::type_index type = std::type_index(typeid(void));
    std::shared_ptr<void> obj;
  };
  std::map<int, Entry> entries_;
};

// ---------------------------------------------------------------------------
// Workspace reuse pool: the multi-tenant counterpart of the plan-owned
// workspace. One pool serves one plan (the Scheduler's PlanCache
// keeps a pool per cached plan, so a recycled workspace's slots always
// match the next request's keys and steady-state checkouts stay
// allocation-free). Checkout moves a workspace OUT of the free list under
// the pool mutex, so two in-flight requests can never observe the same
// instance — the exclusivity the Workspace concurrency contract requires.
// ---------------------------------------------------------------------------

class WorkspacePool {
 public:
  /// RAII checkout: holds exclusive ownership of one Workspace and returns
  /// it to the pool on destruction. Movable, not copyable. The pool must
  /// outlive the lease (the Scheduler guarantees this by keeping the cached
  /// plan entry alive for the duration of every request it spawned).
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), ws_(std::move(other.ws_)) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        ws_ = std::move(other.ws_);
        other.pool_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    Workspace& operator*() const { return *ws_; }
    Workspace* operator->() const { return ws_.get(); }
    Workspace* get() const { return ws_.get(); }
    explicit operator bool() const { return ws_ != nullptr; }

   private:
    friend class WorkspacePool;
    Lease(WorkspacePool* pool, std::unique_ptr<Workspace> ws)
        : pool_(pool), ws_(std::move(ws)) {}
    void release();

    WorkspacePool* pool_ = nullptr;
    std::unique_ptr<Workspace> ws_;
  };

  /// Checkout totals since construction. `in_flight` is the number of live
  /// leases; `created` only grows when a checkout finds the free list empty
  /// (i.e. it equals the peak concurrency this pool ever served).
  struct Stats {
    std::uint64_t created = 0;  ///< workspaces constructed on empty-pool hits
    std::uint64_t reused = 0;   ///< checkouts served from the free list
    std::size_t free = 0;       ///< workspaces currently parked in the pool
    std::size_t in_flight = 0;  ///< live leases
  };

  WorkspacePool() = default;
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  /// Exclusive checkout: reuses a parked workspace when one is free,
  /// constructs a fresh one otherwise (never blocks waiting for a return).
  Lease checkout();

  Stats stats() const;

 private:
  void checkin(std::unique_ptr<Workspace> ws);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Workspace>> free_;
  std::uint64_t created_ = 0;
  std::uint64_t reused_ = 0;
  std::size_t in_flight_ = 0;
};

// ---------------------------------------------------------------------------
// Grid-shaped slots: the common case. The scratch grid matches @p g's shape
// and is zeroed by an OpenMP static team on creation (first touch in the
// same thread order the tiled compute loops use), so on NUMA machines its
// pages land next to the threads that will process them. Interior contents
// are NOT preserved or refreshed — callers re-establish whatever invariant
// they need (typically copy_halo_from) each execute.
// ---------------------------------------------------------------------------

template <typename T>
Grid1D<T>& ws_grid_like(Workspace& ws, int slot, const Grid1D<T>& g) {
  return ws.slot<Grid1D<T>>(slot, ws_key(g.nx(), g.halo()), [&] {
    return Grid1D<T>(g.nx(), g.halo(), FirstTouch::kParallel);
  });
}

template <typename T>
Grid2D<T>& ws_grid_like(Workspace& ws, int slot, const Grid2D<T>& g) {
  return ws.slot<Grid2D<T>>(slot, ws_key(g.nx(), g.ny(), g.halo()), [&] {
    return Grid2D<T>(g.nx(), g.ny(), g.halo(), FirstTouch::kParallel);
  });
}

template <typename T>
Grid3D<T>& ws_grid_like(Workspace& ws, int slot, const Grid3D<T>& g) {
  return ws.slot<Grid3D<T>>(slot, ws_key(g.nx(), g.ny(), g.nz(), g.halo()),
                            [&] {
                              return Grid3D<T>(g.nx(), g.ny(), g.nz(),
                                               g.halo(), FirstTouch::kParallel);
                            });
}

// ---------------------------------------------------------------------------
// Memory-bandwidth policy (defined in workspace.cpp).
// ---------------------------------------------------------------------------

/// Bytes a Jacobi-style run of this interior moves through the cache
/// hierarchy per sweep: two parity buffers of rank-appropriate extent.
index working_set_bytes(int rank, index nx, index ny, index nz,
                        index elem_size);

/// Topology-derived streaming-store threshold in bytes. Working sets larger
/// than this exceed the last-level cache by enough that regular (write-
/// allocate) stores only add read-for-ownership traffic; non-temporal
/// stores cut the store stream's bandwidth cost by ~1/3. @p factor scales
/// the detected LLC capacity; <= 0 selects the default multiple.
index streaming_threshold_bytes(double factor = 0.0);

}  // namespace tsv
