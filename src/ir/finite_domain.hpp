// Finite-domain decision (DESIGN.md §7): decides a conjunction of boolean
// terms exactly, without a solver, by evaluating it over the box its
// top-level unit bounds give the free variables.
//
// The box of a variable comes from the conjuncts of the problem (nested
// And nodes are flattened) of the shapes `x <= c`, `c <= x`, `x < c`,
// `c < x`, `x = c`, a bare Bool `v` and `not v`; Bools range over {0, 1}.
// The problem is decided only when every free variable has a finite box
// and points × DAG nodes stays within kFiniteDomainWorkBound. The DAG is
// compiled once into a topologically ordered instruction array
// (CompiledDag, shared with the CHC backend's explicit-state search), and
// the box is walked in lexicographic order until a point satisfies every
// root. Moving to the next point recomputes only the nodes that depend on
// the variables that changed, and a root that fails on a prefix of the
// variables skips every point sharing that prefix.
// Arithmetic is checked and uses the IR's Euclidean div/mod, so an answer
// is the one Z3 gives over mathematical integers; a value outside int64
// makes the step decline instead.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/term.hpp"
#include "ir/term_eval.hpp"

namespace buffy::ir {

/// Largest points × DAG nodes one decision may evaluate: at most ~2.5 ns
/// per node evaluation, so under ~20 ms at the bound, where Z3 takes
/// longer on Buffy's encodings (DESIGN.md §7 has the measurement).
inline constexpr std::uint64_t kFiniteDomainWorkBound = std::uint64_t{1} << 23;

/// The values one variable may take; an unset endpoint is unbounded.
struct Box {
  std::optional<std::int64_t> lo;
  std::optional<std::int64_t> hi;

  void atLeast(std::int64_t v) {
    if (!lo || v > *lo) lo = v;
  }
  void atMost(std::int64_t v) {
    if (!hi || v < *hi) hi = v;
  }
};

using Boxes = std::unordered_map<TermRef, Box>;

/// The bounds the top-level unit-bound conjuncts of `constraints` put on
/// their variables (nested And nodes flattened). Every model of the
/// constraints lies in the boxes.
[[nodiscard]] Boxes unitBoxes(std::span<const TermRef> constraints);

/// `var`'s box under `boxes`: a Bool ranges over {0, 1} at most, an Int
/// without bounds is unbounded.
[[nodiscard]] Box boxOf(const Boxes& boxes, TermRef var);

/// A term DAG compiled once into a topologically ordered instruction array
/// over int64 slots. Its variables take positions 0..n-1, and a node's
/// level is the highest position among the variables it depends on, so
/// changing the variables from position p on recomputes only the nodes of
/// level >= p.
class CompiledDag {
 public:
  /// Compiles the DAG under `roots`. The variables it reaches take
  /// positions in the order `before` (a strict weak order) gives them.
  CompiledDag(std::span<const TermRef> roots,
              const std::function<bool(TermRef, TermRef)>& before);

  /// DAG nodes, leaves included: the cost of one full evaluation.
  [[nodiscard]] std::size_t nodes() const { return values_.size(); }
  /// The variables, by position.
  [[nodiscard]] const std::vector<TermRef>& vars() const { return vars_; }

  void set(std::size_t position, std::int64_t value) {
    values_[varSlot_[position]] = value;
  }
  [[nodiscard]] std::int64_t var(std::size_t position) const {
    return values_[varSlot_[position]];
  }
  /// Root `i`'s value at the current point (Bools as 0/1).
  [[nodiscard]] std::int64_t root(std::size_t i) const {
    return values_[roots_[i].slot];
  }

  /// Computes every node that depends only on the variables before
  /// `position`. False when a value leaves int64.
  [[nodiscard]] bool evaluateBelow(std::size_t position);

  /// One variable's range during a walk.
  struct Range {
    std::int64_t lo;
    std::int64_t hi;
  };
  enum class Walk { Exhausted, Stopped, Overflow };

  /// Walks the variables from position `from` on over `box` (one range
  /// per position from `from`, none empty) in lexicographic order, the
  /// last position fastest; the variables before `from` keep their values,
  /// whose nodes must already be evaluated. Calls `visit` at every point
  /// where the first `required` roots all hold, and stops when it returns
  /// false. A required root that fails on a prefix of the positions skips
  /// every point sharing that prefix. `points` counts the points
  /// evaluated.
  Walk walk(std::size_t from, std::span<const Range> box,
            std::size_t required, const std::function<bool()>& visit,
            std::uint64_t& points);

 private:
  /// One compiled node: `values[dst] = kind(values[a], values[b],
  /// values[c])`. Unused operand slots repeat `a`.
  struct Op {
    TermKind kind;
    std::uint32_t dst;
    std::uint32_t a;
    std::uint32_t b;
    std::uint32_t c;
  };
  struct Root {
    int level;
    std::uint32_t slot;
  };

  bool run(std::size_t firstOp, std::size_t endOp);

  std::vector<std::int64_t> values_;  // one slot per node; leaves pre-set
  std::vector<Op> ops_;               // sorted by level
  std::vector<std::size_t> levelStart_;  // first op of level >= index - 1
  std::vector<TermRef> vars_;
  std::vector<std::uint32_t> varSlot_;
  std::vector<Root> roots_;                 // in the order given
  std::vector<std::uint32_t> rootsByLevel_;  // root indices, by level
};

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
