#include "ir/finite_domain.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace buffy::ir {

namespace {

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

/// One compiled DAG node: `values[dst] = kind(values[a], values[b],
/// values[c])`. Unused operand slots repeat `a`.
struct Op {
  TermKind kind;
  std::uint32_t dst;
  std::uint32_t a;
  std::uint32_t b;
  std::uint32_t c;
};

/// Runs one op; false when the exact result does not fit int64.
bool exec(const Op& op, std::int64_t* values) {
  const std::int64_t a = values[op.a];
  const std::int64_t b = values[op.b];
  std::int64_t& out = values[op.dst];
  switch (op.kind) {
    case TermKind::Add: return !__builtin_add_overflow(a, b, &out);
    case TermKind::Sub: return !__builtin_sub_overflow(a, b, &out);
    case TermKind::Mul: return !__builtin_mul_overflow(a, b, &out);
    case TermKind::Neg:
      return !__builtin_sub_overflow(std::int64_t{0}, a, &out);
    case TermKind::Div:
      if (b == -1 && a == std::numeric_limits<std::int64_t>::min()) {
        return false;
      }
      out = euclideanDiv(a, b);
      return true;
    case TermKind::Mod: out = euclideanMod(a, b); return true;
    case TermKind::Eq: out = a == b ? 1 : 0; return true;
    case TermKind::Lt: out = a < b ? 1 : 0; return true;
    case TermKind::Le: out = a <= b ? 1 : 0; return true;
    case TermKind::And: out = (a != 0 && b != 0) ? 1 : 0; return true;
    case TermKind::Or: out = (a != 0 || b != 0) ? 1 : 0; return true;
    case TermKind::Not: out = a == 0 ? 1 : 0; return true;
    case TermKind::Implies: out = (a == 0 || b != 0) ? 1 : 0; return true;
    case TermKind::Ite: out = a != 0 ? b : values[op.c]; return true;
    case TermKind::ConstInt:
    case TermKind::ConstBool:
    case TermKind::Var:
      break;  // leaves are values, never ops
  }
  return true;
}

/// A free variable's value slot and box.
struct Dim {
  TermRef var;
  std::uint32_t slot;
  std::int64_t lo;
  std::int64_t hi;
};

/// The compiled problem. The variables (`dims`) are ordered by name and
/// stepped like an odometer, the last one fastest. A node's level is the
/// highest position among the variables it depends on (-1 for none), and
/// `ops` are sorted by level, which keeps them topologically ordered (a
/// node's level is at least its arguments'). So when the variables from
/// position d on change, only the ops from `levelStart[d + 1]` on are
/// recomputed, and a root that is false at level L stays false until
/// variable L changes.
struct Program {
  std::vector<std::int64_t> values;  // one slot per node; leaves pre-set
  std::vector<Op> ops;
  std::vector<std::size_t> levelStart;  // by level + 1
  std::vector<std::pair<int, std::uint32_t>> roots;  // (level, slot)
  std::vector<Dim> dims;
};

enum class Compiled { Ok, Unbounded, EmptyBox };

Compiled compile(std::span<const TermRef> constraints, const Boxes& boxes,
                 Program& prog) {
  std::unordered_map<TermRef, std::uint32_t> slot;
  std::vector<std::pair<TermRef, bool>> stack;
  for (const TermRef root : constraints) {
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
      const auto index = static_cast<std::uint32_t>(prog.values.size());
      slot.emplace(t, index);
      prog.values.push_back(t->isConst() ? t->value : 0);
      if (t->kind == TermKind::Var) {
        Box box;
        if (t->sort == Sort::Bool) box = Box{0, 1};
        if (const auto it = boxes.find(t); it != boxes.end()) {
          if (it->second.lo) box.atLeast(*it->second.lo);
          if (it->second.hi) box.atMost(*it->second.hi);
        }
        if (!box.lo || !box.hi) return Compiled::Unbounded;
        if (*box.lo > *box.hi) return Compiled::EmptyBox;
        prog.dims.push_back({t, index, *box.lo, *box.hi});
      } else if (!t->args.empty()) {
        Op op{t->kind, index, slot.at(t->args[0]), 0, 0};
        op.b = t->args.size() > 1 ? slot.at(t->args[1]) : op.a;
        op.c = t->args.size() > 2 ? slot.at(t->args[2]) : op.a;
        prog.ops.push_back(op);
      }
    }
  }

  std::sort(prog.dims.begin(), prog.dims.end(),
            [](const Dim& a, const Dim& b) { return a.var->name < b.var->name; });
  std::vector<int> level(prog.values.size(), -1);
  for (std::size_t d = 0; d < prog.dims.size(); ++d) {
    level[prog.dims[d].slot] = static_cast<int>(d);
  }
  for (const Op& op : prog.ops) {  // post order: arguments come first
    level[op.dst] = std::max({level[op.a], level[op.b], level[op.c]});
  }
  std::stable_sort(prog.ops.begin(), prog.ops.end(),
                   [&](const Op& a, const Op& b) {
                     return level[a.dst] < level[b.dst];
                   });
  std::size_t next = 0;
  for (int l = -1; l <= static_cast<int>(prog.dims.size()); ++l) {
    while (next < prog.ops.size() && level[prog.ops[next].dst] < l) ++next;
    prog.levelStart.push_back(next);
  }
  for (const TermRef root : constraints) {
    prog.roots.emplace_back(level[slot.at(root)], slot.at(root));
  }
  std::stable_sort(prog.roots.begin(), prog.roots.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  return Compiled::Ok;
}

}  // namespace

std::optional<FiniteDomainAnswer> decideFiniteDomain(
    std::span<const TermRef> constraints) {
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

  Program prog;
  switch (compile(constraints, boxes, prog)) {
    case Compiled::Unbounded:
      return std::nullopt;
    case Compiled::EmptyBox:
      return FiniteDomainAnswer{};  // some bound conjunct is never true
    case Compiled::Ok:
      break;
  }

  // Points in the box, capped so points × nodes stays within the bound.
  const std::uint64_t maxPoints =
      kFiniteDomainWorkBound / std::max<std::size_t>(prog.values.size(), 1);
  std::uint64_t points = 1;
  for (const Dim& d : prog.dims) {
    std::int64_t span = 0;
    if (__builtin_sub_overflow(d.hi, d.lo, &span) ||
        static_cast<std::uint64_t>(span) >= maxPoints ||
        __builtin_mul_overflow(points, static_cast<std::uint64_t>(span) + 1,
                               &points) ||
        points > maxPoints) {
      return std::nullopt;
    }
  }

  std::int64_t* values = prog.values.data();
  for (const Dim& d : prog.dims) values[d.slot] = d.lo;
  FiniteDomainAnswer answer;
  std::size_t from = 0;  // first op whose inputs changed
  for (;;) {
    for (std::size_t i = from; i < prog.ops.size(); ++i) {
      if (!exec(prog.ops[i], values)) return std::nullopt;
    }
    ++answer.points;
    const auto failed =
        std::find_if(prog.roots.begin(), prog.roots.end(),
                     [&](const auto& root) { return values[root.second] == 0; });
    if (failed == prog.roots.end()) {
      answer.sat = true;
      for (const Dim& d : prog.dims) {
        answer.model.emplace(d.var->name, values[d.slot]);
      }
      return answer;
    }
    // The failed root depends on variables 0..L only, so every point that
    // agrees with this one on them fails too: step variable L (carrying
    // into earlier ones) and restart the later ones.
    auto d = static_cast<std::size_t>(failed->first + 1);  // one past L
    for (std::size_t k = d; k < prog.dims.size(); ++k) {
      values[prog.dims[k].slot] = prog.dims[k].lo;
    }
    for (; d > 0; --d) {
      const Dim& dim = prog.dims[d - 1];
      if (values[dim.slot] < dim.hi) {
        ++values[dim.slot];
        break;
      }
      values[dim.slot] = dim.lo;
    }
    if (d == 0) return answer;  // the whole box is decided: Unsat
    from = prog.levelStart[d];  // ops of level >= d - 1, the stepped one
  }
}

}  // namespace buffy::ir
