// Concrete evaluation of IR terms under a variable assignment. Used to
// extract per-step traces from solver models and by the interpreter
// backend's self-checks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "ir/term.hpp"

namespace buffy::ir {

/// A total assignment of integer values to variables (bools as 0/1).
/// Variables absent from the map default to 0 (solver models may omit
/// don't-care variables).
using Assignment = std::map<std::string, std::int64_t>;

/// Values of already-evaluated terms under one assignment.
using EvalMemo = std::unordered_map<const Term*, std::int64_t>;

/// Evaluates `term` under `assignment`. Iterative (stack-safe) and
/// memoized per call.
[[nodiscard]] std::int64_t evalTerm(TermRef term, const Assignment& assignment);

/// Same, reusing `memo` across calls: evaluating many terms that share
/// sub-DAGs under one assignment (a trace's series) walks each shared
/// node once. `memo` must only ever be used with this one assignment.
[[nodiscard]] std::int64_t evalTerm(TermRef term, const Assignment& assignment,
                                    EvalMemo& memo);

}  // namespace buffy::ir
