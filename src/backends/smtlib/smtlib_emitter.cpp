#include "backends/smtlib/smtlib_emitter.hpp"

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace buffy::backends {

namespace {

const char* opName(ir::TermKind kind) {
  switch (kind) {
    case ir::TermKind::Add: return "+";
    case ir::TermKind::Sub: return "-";
    case ir::TermKind::Mul: return "*";
    case ir::TermKind::Div: return "div";
    case ir::TermKind::Mod: return "mod";
    case ir::TermKind::Neg: return "-";
    case ir::TermKind::Eq: return "=";
    case ir::TermKind::Lt: return "<";
    case ir::TermKind::Le: return "<=";
    case ir::TermKind::And: return "and";
    case ir::TermKind::Or: return "or";
    case ir::TermKind::Not: return "not";
    case ir::TermKind::Implies: return "=>";
    case ir::TermKind::Ite: return "ite";
    default: return nullptr;
  }
}

/// SMT-LIB symbols with '#'/'.'/'[' need quoting; quote everything
/// non-trivial for safety.
std::string quoteSymbol(const std::string& name) {
  bool simple = !name.empty();
  for (const char c : name) {
    if ((std::isalnum(static_cast<unsigned char>(c)) == 0) && c != '_' &&
        c != '-') {
      simple = false;
      break;
    }
  }
  if (simple && (std::isdigit(static_cast<unsigned char>(name[0])) == 0)) {
    return name;
  }
  return "|" + name + "|";
}

class Emitter {
 public:
  explicit Emitter(const SmtLibOptions& options) : options_(options) {}

  std::string run(std::span<const ir::TermRef> constraints) {
    for (const ir::TermRef c : constraints) {
      if (c->sort != ir::Sort::Bool) {
        throw BackendError("smtlib: constraint is not boolean");
      }
      countRefs(c);
    }

    std::string out;
    if (!options_.comment.empty()) {
      for (const auto& line : split(options_.comment, '\n')) {
        out += "; " + line + "\n";
      }
    }
    if (!options_.logic.empty()) {
      out += "(set-logic " + options_.logic + ")\n";
    }

    // Declarations for every variable reachable from the constraints.
    for (const ir::TermRef v : varsInOrder_) {
      out += "(declare-const " + quoteSymbol(v->name) +
             (v->sort == ir::Sort::Int ? " Int)\n" : " Bool)\n");
    }

    // Shared definitions + assertions.
    for (const ir::TermRef c : constraints) {
      if (options_.sharing == SmtLibSharing::Let) {
        out += "(assert " + renderWithLets(c) + ")\n";
        continue;
      }
      out += body_;  // definitions discovered while rendering previous
      body_.clear();
      const std::string rendered = render(c);
      out += body_;
      body_.clear();
      out += "(assert " + rendered + ")\n";
    }

    if (options_.checkSat) out += "(check-sat)\n";
    if (options_.getModel) out += "(get-model)\n";
    return out;
  }

 private:
  void countRefs(ir::TermRef root) {
    std::vector<ir::TermRef> stack{root};
    while (!stack.empty()) {
      const ir::TermRef t = stack.back();
      stack.pop_back();
      const auto [it, inserted] = refs_.try_emplace(t, 0);
      ++it->second;
      if (!inserted) continue;
      if (t->kind == ir::TermKind::Var) varsInOrder_.push_back(t);
      for (const ir::TermRef arg : t->args) stack.push_back(arg);
    }
  }

  [[nodiscard]] bool isLeaf(ir::TermRef t) const {
    return t->kind == ir::TermKind::ConstInt ||
           t->kind == ir::TermKind::ConstBool || t->kind == ir::TermKind::Var;
  }

  /// Shared non-leaf nodes get a `$t<n>` name (Let and Define modes).
  [[nodiscard]] bool shared(ir::TermRef t) const {
    return !isLeaf(t) && options_.sharing != SmtLibSharing::Expand &&
           refs_.at(t) > 1;
  }

  /// The next binding name. Names count bindings in the order the text
  /// introduces them, never arena term ids, so the same problem renders
  /// to the same text whatever else its arena holds.
  std::string nextName() { return "$t" + std::to_string(nextName_++); }

  /// Let mode: one assertion becomes a nested-let chain. Shared nodes
  /// reachable from `root` are bound innermost-out in post order (arguments
  /// left to right), so every binding's definition only references earlier
  /// bindings.
  /// `let` is purely syntactic, so unlike Define mode no auxiliary
  /// constants leak into models, and unlike define-fun macros the binding
  /// is not expanded at parse time (the text AND the parsed term stay
  /// linear in the DAG size).
  std::string renderWithLets(ir::TermRef root) {
    std::vector<ir::TermRef> bound;
    std::vector<std::pair<ir::TermRef, bool>> stack{{root, false}};
    std::unordered_set<const ir::Term*> seen;
    while (!stack.empty()) {
      const auto [t, argsDone] = stack.back();
      stack.pop_back();
      if (argsDone) {
        if (shared(t)) bound.push_back(t);
        continue;
      }
      if (!seen.insert(t).second) continue;
      stack.emplace_back(t, true);
      for (auto arg = t->args.rbegin(); arg != t->args.rend(); ++arg) {
        stack.emplace_back(*arg, false);
      }
    }

    names_.clear();  // let bindings are scoped to this assertion
    std::string lets;
    for (const ir::TermRef t : bound) {
      const std::string name = nextName();
      lets += "(let ((" + name + " ";
      // Render the definition *before* naming t, then register the name so
      // later definitions (and the body) reference it.
      lets += apply(t) + ")) ";
      names_.emplace(t, name);
    }
    std::string out = lets + render(root);
    out.append(bound.size(), ')');
    return out;
  }

  /// `(op arg...)` for an operator node. A divisor that is not a nonzero
  /// constant is guarded as the Z3 lowering guards it: the IR defines
  /// `x div 0` and `x mod 0` as 0, where SMT-LIB leaves them unspecified.
  std::string apply(ir::TermRef t) {
    std::string out = "(";
    out += opName(t->kind);
    for (const ir::TermRef arg : t->args) {
      out += ' ';
      out += render(arg);
    }
    out += ')';
    if (t->kind != ir::TermKind::Div && t->kind != ir::TermKind::Mod) {
      return out;
    }
    const ir::TermRef divisor = t->args[1];
    if (divisor->kind == ir::TermKind::ConstInt && divisor->value != 0) {
      return out;
    }
    return "(ite (= " + render(divisor) + " 0) 0 " + out + ")";
  }

  /// Renders a term; in Define mode, nodes with fan-out > 1 become
  /// declare-const + defining-equality bindings (appended to body_) and
  /// are referenced by name. In Let mode the caller (renderWithLets) has
  /// pre-registered every shared node in names_.
  std::string render(ir::TermRef t) {
    switch (t->kind) {
      case ir::TermKind::ConstInt:
        return t->value < 0 ? "(- " + std::to_string(-t->value) + ")"
                            : std::to_string(t->value);
      case ir::TermKind::ConstBool:
        return t->value != 0 ? "true" : "false";
      case ir::TermKind::Var:
        return quoteSymbol(t->name);
      default:
        break;
    }
    const auto named = names_.find(t);
    if (named != names_.end()) return named->second;

    const std::string inner = apply(t);

    if (options_.sharing == SmtLibSharing::Define && refs_.at(t) > 1) {
      // Definitional naming (declare + assert equality) rather than
      // define-fun: SMT-LIB parsers expand define-fun macros eagerly, which
      // blows nested shared terms up exponentially at parse time.
      const std::string name = nextName();
      body_ += "(declare-const " + name +
               (t->sort == ir::Sort::Int ? " Int)\n" : " Bool)\n");
      body_ += "(assert (= " + name + " " + inner + "))\n";
      names_.emplace(t, name);
      return name;
    }
    return inner;
  }

  const SmtLibOptions& options_;
  std::unordered_map<const ir::Term*, std::size_t> refs_;
  std::unordered_map<const ir::Term*, std::string> names_;
  std::vector<ir::TermRef> varsInOrder_;
  std::string body_;
  std::size_t nextName_ = 0;
};

}  // namespace

std::string emitSmtLib(std::span<const ir::TermRef> constraints,
                       const SmtLibOptions& options) {
  return Emitter(options).run(constraints);
}

}  // namespace buffy::backends
