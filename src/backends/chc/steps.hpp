// The CHC steps that run before Spacer (DESIGN.md §17): 1-induction with
// the interval invariant, and the capped explicit-state search. Backend
// internal; UnboundedAnalysis::prove runs them in order.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "backends/chc/chc_backend.hpp"

namespace buffy::backends::chc {

/// The caller's time budget, shared by every step of one prove.
class Deadline {
 public:
  explicit Deadline(std::optional<unsigned> timeoutMs) : limitMs_(timeoutMs) {}

  /// Milliseconds left (0 once spent); nullopt when there is no limit.
  [[nodiscard]] std::optional<unsigned> remainingMs() const;
  [[nodiscard]] bool expired() const {
    const auto left = remainingMs();
    return left && *left == 0;
  }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::optional<unsigned> limitMs_;
};

/// The interval invariant I: the ranges interval analysis gives the state
/// variables, iterated from the initial state to a fixpoint (a bound still
/// growing after a few rounds is widened to unbounded). Ranges that say
/// nothing are left out. I is a candidate only: the induction step
/// re-checks it inside its consecution query. Adds the seed facts it
/// needs to the system's arena.
std::vector<StateRange> intervalInvariant(core::TransitionSystem& system);

/// The invariant P ∧ I in query syntax: `(propertyText)` followed by one
/// conjunct per bound of I, by state name.
std::string invariantText(const core::TransitionSystem& system,
                          const std::string& propertyText,
                          std::span<const StateRange> invariant);

/// True when P ∧ I is 1-inductive and implies every in-program assert:
/// init ⇒ P ∧ I, and P ∧ I ∧ C ∧ ¬(P′ ∧ I′) and P ∧ I ∧ C ∧ ¬asserts are
/// unsat, each a plain quantifier-free check in a fresh context. False
/// when any check is sat or unknown (interrupted or out of time too).
bool inductive(const core::TransitionSystem& system, ir::TermRef property,
               std::span<const StateRange> invariant, const Deadline& deadline,
               ChcInterruptHandle* interrupt);

struct SearchOutcome {
  /// A violation was found (not yet confirmed by Z3).
  bool violated = false;
  /// Violated only: the inputs of each step, from the initial state.
  std::vector<ir::Assignment> counterexample;
  /// States expanded × input points × DAG nodes.
  std::uint64_t work = 0;
};

/// Breadth-first search from the initial state over every input point of
/// the input box (the constraints' unit bounds), with states deduplicated
/// and the constraints checked at every step, for a state where `property`
/// fails or a step where an in-program assert fails. Runs only when every
/// input the step reads has a finite box, and stops without a violation
/// when the next expansion would take the work past
/// ir::kFiniteDomainWorkBound, when the reachable states are exhausted, on
/// an int64 overflow, on interrupt, or when the deadline passes.
SearchOutcome searchViolation(const core::TransitionSystem& system,
                              ir::TermRef property, const Deadline& deadline,
                              const ChcInterruptHandle* interrupt);

}  // namespace buffy::backends::chc
