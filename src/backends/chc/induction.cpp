// Step 1 of a CHC query (DESIGN.md §17): the interval invariant I and the
// 1-induction check of P ∧ I.
#include <algorithm>
#include <unordered_map>

#include <z3++.h>

#include "backends/chc/steps.hpp"
#include "backends/z3/z3_lowering.hpp"
#include "ir/term_printer.hpp"
#include "opt/optimizer.hpp"
#include "support/error.hpp"

namespace buffy::backends {

namespace {

/// Rounds of plain joins before a bound that still grows is widened to
/// unbounded. Every round after them either reaches the fixpoint or drops
/// a finite bound, so the iteration ends.
constexpr int kWidenAfter = 3;

opt::Interval hull(const opt::Interval& a, const opt::Interval& b) {
  opt::Interval out;
  if (a.lo && b.lo) out.lo = std::min(*a.lo, *b.lo);
  if (a.hi && b.hi) out.hi = std::max(*a.hi, *b.hi);
  return out;
}

/// Says something a variable of this sort does not say by itself.
bool informative(ir::Sort sort, const opt::Interval& range) {
  if (sort == ir::Sort::Bool) return range.singleton();
  return range.lo || range.hi;
}

}  // namespace

namespace chc {

std::vector<StateRange> intervalInvariant(core::TransitionSystem& system) {
  ir::TermArena& arena = system.arena;
  const std::size_t n = system.state.size();
  std::vector<opt::Interval> range(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& sv = system.state[i];
    if (const auto init = ir::constValue(sv.init)) {
      range[i] = opt::Interval{init, init};
    } else if (sv.sort == ir::Sort::Bool) {
      range[i] = opt::Interval{0, 1};
    }
  }

  // Each round re-derives the post-state ranges with the step constraints
  // and the current ranges as the optimizer's seed facts, and joins them in.
  for (int round = 1;; ++round) {
    std::vector<ir::TermRef> facts = system.constraints;
    for (std::size_t i = 0; i < n; ++i) {
      const ir::TermRef pre = system.state[i].pre;
      const opt::Interval& r = range[i];
      if (system.state[i].sort == ir::Sort::Bool) {
        if (r.singleton()) facts.push_back(*r.lo ? pre : arena.mkNot(pre));
        continue;
      }
      if (r.lo) facts.push_back(arena.le(arena.intConst(*r.lo), pre));
      if (r.hi) facts.push_back(arena.le(pre, arena.intConst(*r.hi)));
    }
    opt::Optimizer optimizer(arena, std::move(facts), opt::OptOptions{});
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      opt::Interval next =
          hull(range[i], optimizer.intervalOf(system.state[i].post));
      if (round > kWidenAfter && system.state[i].sort == ir::Sort::Int) {
        if (next.lo != range[i].lo) next.lo.reset();
        if (next.hi != range[i].hi) next.hi.reset();
      }
      if (next.lo != range[i].lo || next.hi != range[i].hi) {
        range[i] = next;
        changed = true;
      }
    }
    if (!changed) break;
  }

  std::vector<StateRange> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (informative(system.state[i].sort, range[i])) {
      out.push_back(StateRange{i, range[i].lo, range[i].hi});
    }
  }
  return out;
}

std::optional<unsigned> Deadline::remainingMs() const {
  if (!limitMs_) return std::nullopt;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
  return elapsed >= *limitMs_ ? 0u
                              : *limitMs_ - static_cast<unsigned>(elapsed);
}

std::string invariantText(const core::TransitionSystem& system,
                          const std::string& propertyText,
                          std::span<const StateRange> invariant) {
  std::string text = "(" + propertyText + ")";
  for (const StateRange& r : invariant) {
    const auto& sv = system.state[r.state];
    const std::string v = sv.name + "[0]";
    if (sv.sort == ir::Sort::Bool) {
      text += *r.lo ? " & " + v : " & !" + v;
    } else if (r.lo && r.hi && *r.lo == *r.hi) {
      text += " & " + v + " == " + std::to_string(*r.lo);
    } else {
      if (r.lo) text += " & " + v + " >= " + std::to_string(*r.lo);
      if (r.hi) text += " & " + v + " <= " + std::to_string(*r.hi);
    }
  }
  return text;
}

bool inductive(const core::TransitionSystem& system, ir::TermRef property,
               std::span<const StateRange> invariant, const Deadline& deadline,
               ChcInterruptHandle* interrupt) {
  try {
    z3::context ctx;
    const ChcInterruptHandle::Registration registration(interrupt, &ctx);
    std::unordered_map<const ir::Term*, z3::expr> memo;
    z3::expr_vector pre(ctx);
    z3::expr_vector post(ctx);
    z3::expr_vector init(ctx);
    for (const auto& sv : system.state) {
      pre.push_back(lowerTerm(ctx, sv.pre, memo));
      post.push_back(lowerTerm(ctx, sv.post, memo));
      init.push_back(lowerTerm(ctx, sv.init, memo));
    }

    // P ∧ I over the pre-state.
    z3::expr inv = lowerTerm(ctx, property, memo);
    for (const StateRange& r : invariant) {
      const z3::expr v = pre[static_cast<int>(r.state)];
      if (v.is_bool()) {
        inv = inv && (*r.lo ? v : !v);
        continue;
      }
      if (r.lo) inv = inv && v >= ctx.int_val(*r.lo);
      if (r.hi) inv = inv && v <= ctx.int_val(*r.hi);
    }
    z3::expr step = ctx.bool_val(true);
    for (const ir::TermRef c : system.constraints) {
      step = step && lowerTerm(ctx, c, memo);
    }
    z3::expr asserts = ctx.bool_val(true);
    for (const ir::TermRef o : system.obligations) {
      asserts = asserts && lowerTerm(ctx, o, memo);
    }

    // Each check holds when its negation is unsat within the budget.
    const auto unsat = [&](const z3::expr& query) {
      const auto left = deadline.remainingMs();
      if ((left && *left == 0) || (interrupt && interrupt->interrupted())) {
        return false;
      }
      // The bare SMT core: Z3's default solver adds ~20 ms of set-up to
      // every check on these problems.
      z3::solver solver = z3::tactic(ctx, "smt").mk_solver();
      if (left) {
        z3::params params(ctx);
        params.set("timeout", *left);
        solver.set(params);
      }
      solver.add(query);
      return solver.check() == z3::unsat;
    };
    z3::expr initial = inv;
    z3::expr next = inv;
    return unsat(!initial.substitute(pre, init)) &&
           unsat(inv && step && !next.substitute(pre, post)) &&
           (system.obligations.empty() || unsat(inv && step && !asserts));
  } catch (const z3::exception& e) {
    // A spent timeout or an interrupt can surface as "canceled".
    if ((interrupt && interrupt->interrupted()) ||
        std::string(e.msg()) == "canceled") {
      return false;
    }
    throw BackendError(std::string("z3 (chc induction): ") + e.msg());
  }
}

}  // namespace chc

}  // namespace buffy::backends
