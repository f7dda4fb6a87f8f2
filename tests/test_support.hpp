#pragma once
// Helpers shared by the serving-layer test suites (test_executor,
// test_fault, test_scheduler).

#include <cstdint>

#include "tsv/tsv.hpp"

namespace tsv::test {

/// A Scheduler run as a plain batch pool: admission-order dispatch, no
/// coalescing, the default queue (deep enough for every test batch).
inline SchedulerConfig fifo_pool(int gangs, int threads_per_gang = 1) {
  return {.executor = {.gangs = gangs, .threads_per_gang = threads_per_gang},
          .policy = SchedPolicy::kFifo,
          .coalesce = false};
}

/// Groups (and tasks) the gangs ran: one per dispatch.
inline std::uint64_t gang_tasks(const SchedulerStats& s) {
  std::uint64_t n = 0;
  for (const GangStats& g : s.executor.gangs) n += g.tasks;
  return n;
}

}  // namespace tsv::test
