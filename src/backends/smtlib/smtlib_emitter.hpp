// SMT-LIB2 backend: renders a constraint set in the standard SMT-LIB
// format (paper §4, "the SMT problem can be written in the standard SMT-LIB
// format supported by different SMT solvers"). Shared DAG nodes with
// fan-out > 1 are emitted as `let` bindings (or definitional equalities —
// see SmtLibSharing) so the text stays linear in the DAG size.
#pragma once

#include <span>
#include <string>

#include "ir/term.hpp"

namespace buffy::backends {

/// How shared DAG nodes (fan-out > 1) are rendered.
enum class SmtLibSharing {
  /// Nested `(let (($tN expr)) ...)` chains inside each assertion, bound
  /// in post order so definitions precede uses. Purely syntactic
  /// sharing: no auxiliary constants appear in models, and the text stays
  /// linear in the DAG size.
  Let,
  /// `(declare-const $tN ...)` + `(assert (= $tN expr))` per shared node.
  /// Auxiliary constants show up in models, but bindings are global
  /// (emitted once even when several assertions share a node).
  Define,
  /// No sharing: every assertion is rendered as a pure tree. Exponential
  /// for deeply shared DAGs — exists for size comparisons and debugging.
  Expand,
};

struct SmtLibOptions {
  /// Emit (check-sat) at the end.
  bool checkSat = true;
  /// Emit (get-model) after (check-sat).
  bool getModel = false;
  /// Set-logic header; empty omits it.
  std::string logic = "QF_LIA";
  /// Optional banner comment lines (each emitted with "; " prefix).
  std::string comment;
  /// Shared-subterm emission strategy.
  SmtLibSharing sharing = SmtLibSharing::Let;
};

/// Renders the conjunction of `constraints` as a complete SMT-LIB2 script.
[[nodiscard]] std::string emitSmtLib(std::span<const ir::TermRef> constraints,
                                     const SmtLibOptions& options = {});

}  // namespace buffy::backends
