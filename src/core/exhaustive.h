// Exhaustive Proof of Separability for finite micro-systems.
//
// Where the sampled checker (separability.h) approximates the quantifiers
// of the six conditions with randomized trace pairs, this module decides
// them exactly for systems whose reachable state space fits in memory:
//
//   1. enumerate every state reachable from the initial state under every
//      operation, every environment input (a finite alphabet per unit) and
//      every unit activity;
//   2. check conditions (2) and (4) on every transition;
//   3. group reachable states by Φ^c and check conditions (1), (3), (5)
//      and (6) on EVERY pair within each group. Each condition says that a
//      colour-c effect depends on Φ^c only, so every state's effects
//      (NEXTOP, Φ^c after its operation, after each input and unit step,
//      and the unit's output) are computed once per colour and a pair is
//      checked by comparing the two stored signatures exactly.
//
// A report with `complete == true` is a genuine finite-model proof of the
// six conditions over the reachable space — the closest executable
// analogue of the theorem the paper envisages. Systems that exceed the
// state budget get `complete == false` (the partial result is still sound:
// any violation found is real).
//
// Requires SharedSystem::FullState() support (a canonical serialization of
// the complete concrete state) and its inverse RestoreFullState(): the
// checker stores only the serialized words — deduplicated 64-word chunks in
// a flat arena — and reconstructs live systems on demand into thread-local
// scratch instances, so peak memory is O(serialized words), not O(live
// machines).
#ifndef SRC_CORE_EXHAUSTIVE_H_
#define SRC_CORE_EXHAUSTIVE_H_

#include <cstdint>
#include <vector>

#include "src/core/separability.h"
#include "src/model/shared_system.h"

namespace sep {

struct ExhaustiveOptions {
  // Budget on distinct reachable states; exceeding it aborts completeness.
  std::size_t max_states = 100000;
  // The environment alphabet: inputs 1..inputs_per_unit are injected into
  // each unit (plus the implicit "no input").
  int inputs_per_unit = 2;
  // Cap on Φ-group pair checks (groups are usually tiny; this guards
  // against quadratic blowup on degenerate abstractions).
  std::size_t max_pairs_per_group = 4096;
  int max_violations = 16;
  // Worker threads for frontier expansion and the per-state signature pass
  // (0 = all hardware threads). Each BFS chunk is expanded by one parallel
  // loop over its (state, successor) pairs into a sharded concurrent store,
  // and the calling thread merges the results in serial order, so the
  // report is byte-identical for every thread count (docs/PERFORMANCE.md
  // §6).
  int threads = 1;
};

struct ExhaustiveReport {
  std::size_t states_explored = 0;
  std::size_t transitions = 0;
  std::size_t pairs_checked = 0;
  bool complete = false;
  std::array<ConditionStats, 7> conditions{};
  std::vector<Violation> violations;
  // Resident footprint of the compact state store (serialized words, chunk
  // tables and hash indexes) at the end of the run — the checker keeps no
  // live machine per state, so this is the scaling-relevant number.
  std::size_t peak_state_bytes = 0;
  // RestoreFullState calls made, the same at every thread count:
  // exploration restores once per successor of every state it expands (the
  // operation, each input into each unit, each unit's activity); the pair
  // phase 1 + u_c × (inputs_per_unit + 1) times per state for each colour c
  // it reaches, where u_c is the number of colour-c units. The per-worker
  // split is exported as `exhaustive.workerN.restores` gauges.
  std::uint64_t restore_count = 0;
  // Always 0. Exploration no longer steals work; the field stays because
  // the benchmark's verify workload (perfbench/src/verify.cpp) still sums it.
  std::uint64_t steal_count = 0;
  // Most populated state shard (store balance). Also exported as a gauge so
  // `sep_trace --format metrics` shows it.
  std::size_t shard_max_load = 0;

  bool Passed() const { return violations.empty(); }
  std::string Summary() const;
};

ExhaustiveReport CheckSeparabilityExhaustive(const SharedSystem& system,
                                             const ExhaustiveOptions& options = {});

}  // namespace sep

#endif  // SRC_CORE_EXHAUSTIVE_H_
