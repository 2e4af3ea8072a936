// Finite-domain decision (DESIGN.md §7): decides a conjunction of boolean
// terms exactly, without a solver, by evaluating it over the box its
// top-level unit bounds give the free variables.
//
// The box of a variable comes from the conjuncts of the problem (nested
// And nodes are flattened) of the shapes `x <= c`, `c <= x`, `x < c`,
// `c < x`, `x = c`, a bare Bool `v` and `not v`; Bools range over {0, 1}.
// The problem is decided only when every free variable has a finite box
// and points × DAG nodes stays within kFiniteDomainWorkBound. The DAG is
// compiled once into a topologically ordered instruction array, and the
// box is walked in lexicographic order until a point satisfies every
// root. Moving to the next point recomputes only the nodes that depend on
// the variables that changed, and a root that fails on a prefix of the
// variables skips every point sharing that prefix.
// Arithmetic is checked and uses the IR's Euclidean div/mod, so an answer
// is the one Z3 gives over mathematical integers; a value outside int64
// makes the step decline instead.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "ir/term.hpp"
#include "ir/term_eval.hpp"

namespace buffy::ir {

/// Largest points × DAG nodes one decision may evaluate: at most ~2.5 ns
/// per node evaluation, so under ~20 ms at the bound, where Z3 takes
/// longer on Buffy's encodings (DESIGN.md §7 has the measurement).
inline constexpr std::uint64_t kFiniteDomainWorkBound = std::uint64_t{1} << 23;

struct FiniteDomainAnswer {
  bool sat = false;
  /// Sat only: a value for every free variable (Bools as 0/1), the first
  /// satisfying point with the variables ordered by name, the first name
  /// varying slowest. Independent of term ids, so of query order.
  Assignment model;
  /// Points evaluated. Points skipped because a constraint already failed
  /// on their leading variables count as decided, not as evaluated.
  std::uint64_t points = 0;
};

/// Decides the conjunction of `constraints` (all Bool-sorted; the caller
/// validates sorts). Nullopt when a free variable has no finite box, the
/// work would exceed kFiniteDomainWorkBound, or an intermediate value
/// overflows int64: the caller then solves the problem another way.
[[nodiscard]] std::optional<FiniteDomainAnswer> decideFiniteDomain(
    std::span<const TermRef> constraints);

}  // namespace buffy::ir
