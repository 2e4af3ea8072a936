// Step 2 of a CHC query (DESIGN.md §17): the capped explicit-state search
// for a shallow violation, and the Z3 check that confirms what it finds.
#include <unordered_map>

#include <z3++.h>

#include "backends/chc/steps.hpp"
#include "backends/z3/z3_lowering.hpp"
#include "ir/finite_domain.hpp"
#include "ir/term_printer.hpp"
#include "support/error.hpp"

namespace buffy::backends {

namespace {

struct StateHash {
  std::size_t operator()(const std::vector<std::int64_t>& s) const {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the values
    for (const std::int64_t v : s) {
      h = (h ^ static_cast<std::uint64_t>(v)) * 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

namespace chc {

SearchOutcome searchViolation(const core::TransitionSystem& system,
                              ir::TermRef property, const Deadline& deadline,
                              const ChcInterruptHandle* interrupt) {
  SearchOutcome out;
  const std::size_t nState = system.state.size();

  // Roots: constraints (required at every point), asserts, the property,
  // then one post-state term per state variable.
  std::vector<ir::TermRef> roots = system.constraints;
  const std::size_t firstAssert = roots.size();
  roots.insert(roots.end(), system.obligations.begin(),
               system.obligations.end());
  const std::size_t propertyRoot = roots.size();
  roots.push_back(property);
  const std::size_t firstPost = roots.size();
  for (const auto& sv : system.state) roots.push_back(sv.post);

  // State variables take the leading positions, so stepping the inputs
  // recomputes only what depends on them.
  std::unordered_map<ir::TermRef, std::size_t> rank;
  for (std::size_t i = 0; i < nState; ++i) rank[system.state[i].pre] = i;
  for (std::size_t j = 0; j < system.inputs.size(); ++j) {
    rank.try_emplace(system.inputs[j], nState + j);
  }
  const auto rankOf = [&](ir::TermRef v) {
    const auto it = rank.find(v);
    return it == rank.end() ? rank.size() : it->second;
  };
  ir::CompiledDag dag(roots, [&](ir::TermRef a, ir::TermRef b) {
    return rankOf(a) < rankOf(b);
  });
  const std::vector<ir::TermRef>& vars = dag.vars();
  std::vector<std::optional<std::size_t>> statePos(nState);
  std::size_t firstInput = 0;
  for (std::size_t p = 0; p < vars.size(); ++p) {
    const std::size_t r = rankOf(vars[p]);
    if (r == rank.size()) return out;  // neither state nor input
    if (r < nState) {
      statePos[r] = p;
      firstInput = p + 1;
    }
  }

  // The input box, and the work of expanding one state over it.
  const ir::Boxes boxes = ir::unitBoxes(system.constraints);
  std::vector<ir::CompiledDag::Range> box;
  std::uint64_t points = 1;
  for (std::size_t p = firstInput; p < vars.size(); ++p) {
    const ir::Box b = ir::boxOf(boxes, vars[p]);
    if (!b.lo || !b.hi || *b.lo > *b.hi) return out;
    std::int64_t span = 0;
    if (__builtin_sub_overflow(*b.hi, *b.lo, &span) ||
        __builtin_mul_overflow(points, static_cast<std::uint64_t>(span) + 1,
                               &points)) {
      return out;
    }
    box.push_back({*b.lo, *b.hi});
  }
  std::uint64_t perState = 0;
  if (__builtin_mul_overflow(points, dag.nodes(), &perState) ||
      perState > ir::kFiniteDomainWorkBound) {
    return out;
  }

  // BFS over states stored flat, nState values each; `via` holds the
  // inputs of the step into each state (nothing for the initial one).
  const std::size_t nInputs = vars.size() - firstInput;
  std::vector<std::int64_t> states;
  std::vector<std::int64_t> via(nInputs, 0);
  std::vector<std::size_t> parent{0};
  for (const auto& sv : system.state) {
    const auto init = ir::constValue(sv.init);
    if (!init) return out;
    states.push_back(*init);
  }
  std::unordered_map<std::vector<std::int64_t>, std::size_t, StateHash> seen;
  seen.emplace(states, 0);

  const auto inputsAt = [&](const std::int64_t* values) {
    ir::Assignment step;
    for (std::size_t k = 0; k < nInputs; ++k) {
      step.emplace(vars[firstInput + k]->name, values[k]);
    }
    return step;
  };
  const auto pathTo = [&](std::size_t s) {
    std::vector<ir::Assignment> path;
    for (; s != 0; s = parent[s]) {
      path.push_back(inputsAt(via.data() + s * nInputs));
    }
    return std::vector<ir::Assignment>(path.rbegin(), path.rend());
  };

  std::vector<std::int64_t> next(nState);
  std::vector<std::int64_t> current(nInputs);
  std::uint64_t evaluated = 0;
  for (std::size_t head = 0; head < parent.size(); ++head) {
    if ((interrupt && interrupt->interrupted()) || deadline.expired() ||
        out.work + perState > ir::kFiniteDomainWorkBound) {
      return out;
    }
    for (std::size_t i = 0; i < nState; ++i) {
      if (statePos[i]) dag.set(*statePos[i], states[head * nState + i]);
    }
    if (!dag.evaluateBelow(firstInput)) return out;
    if (dag.root(propertyRoot) == 0) {
      out.violated = true;
      out.counterexample = pathTo(head);
      return out;
    }
    out.work += perState;

    bool assertFailed = false;
    const auto walked = dag.walk(
        firstInput, box, firstAssert,
        [&] {
          for (std::size_t k = 0; k < nInputs; ++k) {
            current[k] = dag.var(firstInput + k);
          }
          for (std::size_t a = firstAssert; a < propertyRoot; ++a) {
            if (dag.root(a) == 0) {
              assertFailed = true;
              return false;
            }
          }
          for (std::size_t i = 0; i < nState; ++i) {
            next[i] = dag.root(firstPost + i);
          }
          if (seen.try_emplace(next, parent.size()).second) {
            states.insert(states.end(), next.begin(), next.end());
            via.insert(via.end(), current.begin(), current.end());
            parent.push_back(head);
          }
          return true;
        },
        evaluated);
    if (walked == ir::CompiledDag::Walk::Overflow) return out;
    if (assertFailed) {
      out.violated = true;
      out.counterexample = pathTo(head);
      out.counterexample.push_back(inputsAt(current.data()));
      return out;
    }
  }
  return out;  // every reachable state satisfies the property
}

}  // namespace chc

bool confirmCounterexample(const core::TransitionSystem& system,
                           ir::TermRef property,
                           std::span<const ir::Assignment> counterexample,
                           ChcInterruptHandle* interrupt) {
  try {
    z3::context ctx;
    const ChcInterruptHandle::Registration registration(interrupt, &ctx);
    std::unordered_map<const ir::Term*, z3::expr> memo;
    z3::expr_vector from(ctx);  // pre-state, then inputs
    z3::expr_vector state(ctx);
    for (const auto& sv : system.state) {
      from.push_back(lowerTerm(ctx, sv.pre, memo));
      state.push_back(lowerTerm(ctx, sv.init, memo));
    }
    for (const ir::TermRef in : system.inputs) {
      from.push_back(lowerTerm(ctx, in, memo));
    }
    z3::expr step = ctx.bool_val(true);
    for (const ir::TermRef c : system.constraints) {
      step = step && lowerTerm(ctx, c, memo);
    }
    z3::expr asserts = ctx.bool_val(true);
    for (const ir::TermRef o : system.obligations) {
      asserts = asserts && lowerTerm(ctx, o, memo);
    }

    z3::solver solver = z3::tactic(ctx, "smt").mk_solver();
    z3::expr failure = ctx.bool_val(false);
    for (std::size_t k = 0; k < counterexample.size(); ++k) {
      // This step's substitution: the current state and the pinned inputs
      // (an input the step does not name stays free).
      z3::expr_vector to(ctx);
      for (unsigned i = 0; i < state.size(); ++i) to.push_back(state[i]);
      for (const ir::TermRef in : system.inputs) {
        const auto it = counterexample[k].find(in->name);
        if (it == counterexample[k].end()) {
          to.push_back(lowerTerm(ctx, in, memo));
        } else if (in->sort == ir::Sort::Bool) {
          to.push_back(ctx.bool_val(it->second != 0));
        } else {
          to.push_back(ctx.int_val(it->second));
        }
      }
      solver.add(z3::expr(step).substitute(from, to));
      if (k + 1 == counterexample.size()) {
        failure = !z3::expr(asserts).substitute(from, to);
      }
      z3::expr_vector after(ctx);
      for (const auto& sv : system.state) {
        after.push_back(
            lowerTerm(ctx, sv.post, memo).substitute(from, to).simplify());
      }
      state = after;
    }
    z3::expr_vector pre(ctx);
    for (unsigned i = 0; i < state.size(); ++i) pre.push_back(from[i]);
    failure = failure || !lowerTerm(ctx, property, memo).substitute(pre, state);
    solver.add(failure);
    if (interrupt && interrupt->interrupted()) return false;
    return solver.check() == z3::sat;
  } catch (const z3::exception& e) {
    // A spent timeout or an interrupt can surface as "canceled".
    if ((interrupt && interrupt->interrupted()) ||
        std::string(e.msg()) == "canceled") {
      return false;
    }
    throw BackendError(std::string("z3 (chc counterexample): ") + e.msg());
  }
}

}  // namespace buffy::backends
