#include "ir/finite_domain.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace buffy::ir {

namespace {

/// Narrows `boxes` by one top-level conjunct of a unit-bound shape. Other
/// conjuncts (and bounds whose strict form leaves int64) add nothing; the
/// box only has to contain every model, since each point is still checked
/// against every constraint.
void narrow(TermRef c, Boxes& boxes) {
  const auto isVar = [](TermRef t) { return t->kind == TermKind::Var; };
  switch (c->kind) {
    case TermKind::Var:
      boxes[c].atLeast(1);
      return;
    case TermKind::Not:
      if (isVar(c->args[0])) boxes[c->args[0]].atMost(0);
      return;
    case TermKind::Eq:
    case TermKind::Le:
    case TermKind::Lt:
      break;
    default:
      return;
  }
  const TermRef a = c->args[0];
  const TermRef b = c->args[1];
  const bool strict = c->kind == TermKind::Lt;
  if (isVar(a) && b->kind == TermKind::ConstInt) {
    if (c->kind == TermKind::Eq) boxes[a].atLeast(b->value);
    if (const auto hi = strict ? foldSub(b->value, 1) : b->value) {
      boxes[a].atMost(*hi);
    }
  } else if (isVar(b) && a->kind == TermKind::ConstInt) {
    if (c->kind == TermKind::Eq) boxes[b].atMost(a->value);
    if (const auto lo = strict ? foldAdd(a->value, 1) : a->value) {
      boxes[b].atLeast(*lo);
    }
  }
}

}  // namespace

Boxes unitBoxes(std::span<const TermRef> constraints) {
  Boxes boxes;
  std::vector<TermRef> conjuncts(constraints.begin(), constraints.end());
  while (!conjuncts.empty()) {
    const TermRef c = conjuncts.back();
    conjuncts.pop_back();
    if (c->kind == TermKind::And) {
      conjuncts.insert(conjuncts.end(), c->args.begin(), c->args.end());
    } else {
      narrow(c, boxes);
    }
  }
  return boxes;
}

Box boxOf(const Boxes& boxes, TermRef var) {
  Box box;
  if (var->sort == Sort::Bool) box = Box{0, 1};
  if (const auto it = boxes.find(var); it != boxes.end()) {
    if (it->second.lo) box.atLeast(*it->second.lo);
    if (it->second.hi) box.atMost(*it->second.hi);
  }
  return box;
}

CompiledDag::CompiledDag(std::span<const TermRef> roots,
                         const std::function<bool(TermRef, TermRef)>& before) {
  std::unordered_map<TermRef, std::uint32_t> slot;
  std::vector<std::pair<TermRef, bool>> stack;
  for (const TermRef root : roots) {
    stack.emplace_back(root, false);
    while (!stack.empty()) {
      auto [t, expanded] = stack.back();
      stack.pop_back();
      if (slot.count(t) != 0) continue;
      if (!expanded && !t->args.empty()) {
        stack.emplace_back(t, true);
        for (auto it = t->args.rbegin(); it != t->args.rend(); ++it) {
          if (slot.count(*it) == 0) stack.emplace_back(*it, false);
        }
        continue;
      }
      const auto index = static_cast<std::uint32_t>(values_.size());
      slot.emplace(t, index);
      values_.push_back(t->isConst() ? t->value : 0);
      if (t->kind == TermKind::Var) {
        vars_.push_back(t);
      } else if (!t->args.empty()) {
        Op op{t->kind, index, slot.at(t->args[0]), 0, 0};
        op.b = t->args.size() > 1 ? slot.at(t->args[1]) : op.a;
        op.c = t->args.size() > 2 ? slot.at(t->args[2]) : op.a;
        ops_.push_back(op);
      }
    }
  }

  std::stable_sort(vars_.begin(), vars_.end(), before);
  std::vector<int> level(values_.size(), -1);
  for (std::size_t p = 0; p < vars_.size(); ++p) {
    varSlot_.push_back(slot.at(vars_[p]));
    level[varSlot_.back()] = static_cast<int>(p);
  }
  for (const Op& op : ops_) {  // post order: arguments come first
    level[op.dst] = std::max({level[op.a], level[op.b], level[op.c]});
  }
  // Sorting by level keeps the ops topologically ordered, since a node's
  // level is at least its arguments'. A root false at level L stays false
  // until the variable at position L changes.
  std::stable_sort(ops_.begin(), ops_.end(), [&](const Op& a, const Op& b) {
    return level[a.dst] < level[b.dst];
  });
  std::size_t next = 0;
  for (int l = -1; l <= static_cast<int>(vars_.size()); ++l) {
    while (next < ops_.size() && level[ops_[next].dst] < l) ++next;
    levelStart_.push_back(next);
  }
  for (const TermRef root : roots) {
    roots_.push_back({level[slot.at(root)], slot.at(root)});
    rootsByLevel_.push_back(static_cast<std::uint32_t>(rootsByLevel_.size()));
  }
  std::stable_sort(rootsByLevel_.begin(), rootsByLevel_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return roots_[a].level < roots_[b].level;
                   });
}

/// Runs ops [firstOp, endOp); false when an exact result does not fit int64.
bool CompiledDag::run(std::size_t firstOp, std::size_t endOp) {
  std::int64_t* values = values_.data();
  for (std::size_t i = firstOp; i < endOp; ++i) {
    const Op& op = ops_[i];
    const std::int64_t a = values[op.a];
    const std::int64_t b = values[op.b];
    std::int64_t& out = values[op.dst];
    switch (op.kind) {
      case TermKind::Add:
        if (__builtin_add_overflow(a, b, &out)) return false;
        break;
      case TermKind::Sub:
        if (__builtin_sub_overflow(a, b, &out)) return false;
        break;
      case TermKind::Mul:
        if (__builtin_mul_overflow(a, b, &out)) return false;
        break;
      case TermKind::Neg:
        if (__builtin_sub_overflow(std::int64_t{0}, a, &out)) return false;
        break;
      case TermKind::Div:
        if (b == -1 && a == std::numeric_limits<std::int64_t>::min()) {
          return false;
        }
        out = euclideanDiv(a, b);
        break;
      case TermKind::Mod: out = euclideanMod(a, b); break;
      case TermKind::Eq: out = a == b ? 1 : 0; break;
      case TermKind::Lt: out = a < b ? 1 : 0; break;
      case TermKind::Le: out = a <= b ? 1 : 0; break;
      case TermKind::And: out = (a != 0 && b != 0) ? 1 : 0; break;
      case TermKind::Or: out = (a != 0 || b != 0) ? 1 : 0; break;
      case TermKind::Not: out = a == 0 ? 1 : 0; break;
      case TermKind::Implies: out = (a == 0 || b != 0) ? 1 : 0; break;
      case TermKind::Ite: out = a != 0 ? b : values[op.c]; break;
      case TermKind::ConstInt:
      case TermKind::ConstBool:
      case TermKind::Var:
        break;  // leaves are values, never ops
    }
  }
  return true;
}

bool CompiledDag::evaluateBelow(std::size_t position) {
  return run(0, levelStart_[position + 1]);  // ops of level < position
}

CompiledDag::Walk CompiledDag::walk(std::size_t from,
                                    std::span<const Range> box,
                                    std::size_t required,
                                    const std::function<bool()>& visit,
                                    std::uint64_t& points) {
  const std::size_t n = vars_.size();
  for (std::size_t k = from; k < n; ++k) set(k, box[k - from].lo);
  std::size_t first = levelStart_[from];  // ops of level >= from - 1
  for (;;) {
    if (!run(first, ops_.size())) return Walk::Overflow;
    ++points;
    // The lowest-level required root that fails, if any.
    std::size_t d = n;  // one past the position to step
    bool failed = false;
    for (const std::uint32_t r : rootsByLevel_) {
      if (r < required && values_[roots_[r].slot] == 0) {
        d = static_cast<std::size_t>(roots_[r].level + 1);
        failed = true;
        break;
      }
    }
    if (!failed && !visit()) return Walk::Stopped;
    // A failed root depends on positions 0..d-1 only, so every point that
    // agrees with this one on them fails too: step position d - 1
    // (carrying into earlier ones) and restart the later ones.
    if (d <= from) return Walk::Exhausted;  // fails on the fixed prefix
    for (std::size_t k = d; k < n; ++k) set(k, box[k - from].lo);
    for (; d > from; --d) {
      const Range& range = box[d - 1 - from];
      if (var(d - 1) < range.hi) {
        set(d - 1, var(d - 1) + 1);
        break;
      }
      set(d - 1, range.lo);
    }
    if (d == from) return Walk::Exhausted;  // the whole box is walked
    first = levelStart_[d];  // ops of level >= d - 1, the stepped one
  }
}

std::optional<FiniteDomainAnswer> decideFiniteDomain(
    std::span<const TermRef> constraints) {
  const Boxes boxes = unitBoxes(constraints);
  CompiledDag dag(constraints,
                  [](TermRef a, TermRef b) { return a->name < b->name; });
  std::vector<CompiledDag::Range> box;
  bool emptyBox = false;
  for (const TermRef var : dag.vars()) {
    const Box b = boxOf(boxes, var);
    if (!b.lo || !b.hi) return std::nullopt;
    emptyBox = emptyBox || *b.lo > *b.hi;
    box.push_back({*b.lo, *b.hi});
  }
  if (emptyBox) return FiniteDomainAnswer{};  // a bound conjunct never holds

  // Points in the box, capped so points × nodes stays within the bound.
  const std::uint64_t maxPoints =
      kFiniteDomainWorkBound / std::max<std::size_t>(dag.nodes(), 1);
  std::uint64_t points = 1;
  for (const CompiledDag::Range& r : box) {
    std::int64_t span = 0;
    if (__builtin_sub_overflow(r.hi, r.lo, &span) ||
        static_cast<std::uint64_t>(span) >= maxPoints ||
        __builtin_mul_overflow(points, static_cast<std::uint64_t>(span) + 1,
                               &points) ||
        points > maxPoints) {
      return std::nullopt;
    }
  }

  FiniteDomainAnswer answer;
  const auto walked = dag.walk(
      0, box, constraints.size(),
      [&] {
        answer.sat = true;
        for (std::size_t p = 0; p < dag.vars().size(); ++p) {
          answer.model.emplace(dag.vars()[p]->name, dag.var(p));
        }
        return false;
      },
      answer.points);
  if (walked == CompiledDag::Walk::Overflow) return std::nullopt;
  return answer;
}

}  // namespace buffy::ir
