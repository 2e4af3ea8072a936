#include "backends/z3/z3_backend.hpp"

#include <atomic>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include <z3++.h>

#include "backends/z3/z3_lowering.hpp"
#include "ir/finite_domain.hpp"
#include "support/error.hpp"

namespace buffy::backends {

namespace {

/// Applies the full budget on every query. All four parameters are always
/// set (to Z3's documented defaults when the budget leaves them open) so a
/// previous query's escalated budget never leaks into the next one.
void applyBudget(z3::solver& solver, const SolveBudget& budget) {
  z3::params params(solver.ctx());
  params.set("timeout", budget.timeoutMs.value_or(4294967295u));
  params.set("rlimit", budget.rlimit.value_or(0u));      // 0 = unlimited
  params.set("max_memory", budget.maxMemoryMb.value_or(4294967295u));
  params.set("random_seed", budget.randomSeed.value_or(0u));
  solver.set(params);
}

/// The one native solver shape (DESIGN.md §7): a fresh solver per query,
/// built from a fixed preprocessing tactic chain. Z3's default solver
/// either runs in incremental mode, which skips whole-problem
/// preprocessing, or, used one-shot, auto-selects a QF_LIA tactic with a
/// high fixed cost per query; this chain runs the equality and
/// unconstrained-variable elimination the encodings benefit from and then
/// the SMT core.
z3::solver makeSolver(z3::context& ctx) {
  const z3::tactic chain =
      z3::tactic(ctx, "simplify") & z3::tactic(ctx, "propagate-values") &
      z3::tactic(ctx, "solve-eqs") & z3::tactic(ctx, "elim-uncnstr") &
      z3::tactic(ctx, "smt");
  return chain.mk_solver();
}

/// Best-effort read of the context's cumulative "rlimit count" statistic.
std::uint64_t readRlimit(z3::solver& solver) {
  try {
    const z3::stats stats = solver.statistics();
    for (unsigned i = 0; i < stats.size(); ++i) {
      if (stats.key(i) == "rlimit count") {
        return stats.is_uint(i)
                   ? static_cast<std::uint64_t>(stats.uint_value(i))
                   : static_cast<std::uint64_t>(stats.double_value(i));
      }
    }
  } catch (const z3::exception&) {
    // Statistics are diagnostics only; never fail a solve over them.
  }
  return 0;
}

bool reasonMeansCanceled(const std::string& reason) {
  return reason.find("cancel") != std::string::npos ||
         reason.find("interrupt") != std::string::npos;
}

void requireBoolean(std::span<const ir::TermRef> constraints) {
  for (const ir::TermRef c : constraints) {
    if (c->sort != ir::Sort::Bool) {
      throw BackendError("constraint is not boolean");
    }
  }
}

/// The finite-domain step (DESIGN.md §7): decides `problem` by exhaustive
/// evaluation when ir::decideFiniteDomain applies, nullopt otherwise.
std::optional<SolveResult> enumerate(std::span<const ir::TermRef> problem) {
  const auto start = std::chrono::steady_clock::now();
  auto answer = ir::decideFiniteDomain(problem);
  if (!answer) return std::nullopt;
  SolveResult result;
  result.status = answer->sat ? SolveStatus::Sat : SolveStatus::Unsat;
  result.model = std::move(answer->model);
  result.engine = "enumerate";
  result.points = answer->points;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

SolveResult canceledResult() {
  SolveResult result;
  result.status = SolveStatus::Unknown;
  result.reason = "canceled";
  result.canceled = true;
  return result;
}

}  // namespace

struct Z3Backend::Impl {
  /// Created on the first lower, check or parse: an engine answered from
  /// the verdict cache never pays for a Z3 context.
  std::optional<z3::context> ctxStorage;

  z3::context& ctx() {
    if (!ctxStorage) ctxStorage.emplace();
    return *ctxStorage;
  }

  // --- cooperative cancellation (DESIGN.md §8) ---------------------------
  // `cancelled` short-circuits every query at our layer; Z3_interrupt is
  // only issued while a check is in flight (`solving`, guarded by
  // `interruptMutex`) because interrupting an idle Z3 context poisons it
  // permanently (every later API call throws "canceled").
  std::atomic<bool> cancelled{false};
  std::mutex interruptMutex;
  bool solving = false;  // guarded by interruptMutex

  // --- test-only fault injection ----------------------------------------
  FaultPlanPtr faultPlan;
  std::string faultScope;
  std::map<std::string, std::size_t> faultCounters;

  /// Consumes the next fault slot for the current scope. Returns the
  /// injected action, if any. ForceUnknown and Throw are handled here;
  /// Delay sleeps and falls through to the real solve; CorruptWitness
  /// falls through and is tagged onto the result by runSolver's caller.
  std::optional<FaultAction> consumeFault(SolveResult* result) {
    if (!faultPlan) return std::nullopt;
    const std::size_t nth = faultCounters[faultScope]++;
    auto action = faultPlan->actionFor(faultScope, nth);
    if (!action) return std::nullopt;
    switch (action->kind) {
      case FaultAction::Kind::ForceUnknown:
        // A nonzero delay models the realistic shape: the solver burns
        // (part of) its budget before giving up.
        if (action->delayMs != 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(action->delayMs));
        }
        result->status = SolveStatus::Unknown;
        result->reason = action->reason;
        return action;
      case FaultAction::Kind::Throw:
        throw BackendError("injected fault: " + action->reason);
      case FaultAction::Kind::Delay:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(action->delayMs));
        return action;
      case FaultAction::Kind::CorruptWitness:
        return action;
      case FaultAction::Kind::CrashBeforeReply:
      case FaultAction::Kind::Hang:
      case FaultAction::Kind::GarbledFrame:
      case FaultAction::Kind::PartialWrite:
        // Process-level faults belong to the worker loop (DESIGN.md §13).
        // When a job degrades to in-process execution the plan still
        // carries them; the solver must not trip on entries it cannot
        // model.
        return std::nullopt;
    }
    return action;
  }

  /// Runs solver.check() under the cancellation protocol and extracts the
  /// result. May be cancelled from another thread at any point.
  SolveResult runSolver(z3::solver& solver) {
    SolveResult result;
    if (cancelled.load()) return canceledResult();
    const std::uint64_t rlimitBefore = readRlimit(solver);

    const auto start = std::chrono::steady_clock::now();
    z3::check_result status = z3::unknown;
    {
      const std::lock_guard<std::mutex> lock(interruptMutex);
      if (cancelled.load()) return canceledResult();
      solving = true;
    }
    try {
      status = solver.check();
    } catch (const z3::exception& e) {
      {
        const std::lock_guard<std::mutex> lock(interruptMutex);
        solving = false;
      }
      if (cancelled.load()) return canceledResult();
      throw BackendError(std::string("z3: ") + e.msg());
    }
    {
      const std::lock_guard<std::mutex> lock(interruptMutex);
      solving = false;
    }
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    // readRlimit returns 0 when the statistic is unavailable; clamp so the
    // delta never wraps.
    const std::uint64_t rlimitNow = readRlimit(solver);
    result.rlimitUsed = rlimitNow > rlimitBefore ? rlimitNow - rlimitBefore : 0;

    switch (status) {
      case z3::sat: {
        result.status = SolveStatus::Sat;
        const z3::model model = solver.get_model();
        for (unsigned i = 0; i < model.num_consts(); ++i) {
          const z3::func_decl decl = model.get_const_decl(i);
          const z3::expr value = model.get_const_interp(decl);
          const std::string name = decl.name().str();
          if (value.is_numeral()) {
            std::int64_t v = 0;
            if (value.is_numeral_i64(v)) {
              result.model[name] = v;
            } else {
              result.overflowVars.push_back(name);
            }
          } else if (value.is_bool()) {
            result.model[name] = value.is_true() ? 1 : 0;
          }
        }
        break;
      }
      case z3::unsat:
        result.status = SolveStatus::Unsat;
        break;
      case z3::unknown:
        result.status = SolveStatus::Unknown;
        result.reason = solver.reason_unknown();
        if (cancelled.load() || reasonMeansCanceled(result.reason)) {
          result.canceled = true;
        }
        break;
    }
    return result;
  }

  /// Lowers boolean constraints (callers run requireBoolean first)
  /// through `memo` (the memoized lowering shared with the CHC backend)
  /// and appends them to `out`.
  void lowerAll(std::span<const ir::TermRef> constraints,
                std::unordered_map<const ir::Term*, z3::expr>& memo,
                std::vector<z3::expr>& out) {
    for (const ir::TermRef c : constraints) {
      out.push_back(lowerTerm(ctx(), c, memo));
    }
  }

  /// Checks the conjunction of `assertions` on a fresh makeSolver() solver.
  SolveResult solveFresh(const std::vector<z3::expr>& assertions,
                         const SolveBudget& budget) {
    z3::solver solver = makeSolver(ctx());
    applyBudget(solver, budget);
    for (const z3::expr& a : assertions) solver.add(a);
    return runSolver(solver);
  }

  /// The protocol every query entry point shares: the cancellation
  /// short-circuit, fault injection around `solve`, and the mapping of Z3
  /// exceptions (a cancellation racing with lowering surfaces as a z3
  /// "canceled" exception rather than an unknown check result).
  template <typename Solve>
  SolveResult guardedQuery(const char* what, Solve&& solve) {
    if (cancelled.load()) return canceledResult();
    SolveResult injected;
    const auto fault = consumeFault(&injected);
    if (fault && fault->kind == FaultAction::Kind::ForceUnknown) {
      return injected;
    }
    try {
      SolveResult result = solve();
      if (fault && fault->kind == FaultAction::Kind::CorruptWitness) {
        result.corruptWitness = true;
      }
      return result;
    } catch (const z3::exception& e) {
      if (cancelled.load() || reasonMeansCanceled(e.msg())) {
        return canceledResult();
      }
      throw BackendError(std::string(what) + e.msg());
    }
  }
};

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

struct Z3Backend::Session::Impl {
  Z3Backend::Impl* backend;
  SolveBudget defaultBudget;
  /// Persists across queries: terms lowered for one query are reused by
  /// every later query on the same arena.
  std::unordered_map<const ir::Term*, z3::expr> memo;
  /// The base constraints as IR (what the finite-domain step decides,
  /// with each query's extra constraints) and lowered (added to every
  /// query's fresh solver).
  std::vector<ir::TermRef> irBase;
  std::vector<z3::expr> base;
  std::size_t queries = 0;

  explicit Impl(Z3Backend::Impl* b) : backend(b) {}
};

Z3Backend::Session::Session(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

Z3Backend::Session::~Session() = default;

void Z3Backend::Session::assertBase(
    std::span<const ir::TermRef> constraints) {
  Z3Backend::Impl* backend = impl_->backend;
  if (backend->cancelled.load()) return;  // engine is being torn down
  requireBoolean(constraints);
  try {
    backend->lowerAll(constraints, impl_->memo, impl_->base);
    impl_->irBase.insert(impl_->irBase.end(), constraints.begin(),
                         constraints.end());
  } catch (const z3::exception& e) {
    if (backend->cancelled.load()) return;
    throw BackendError(std::string("z3: ") + e.msg());
  }
}

SolveResult Z3Backend::Session::check(
    std::span<const ir::TermRef> extra,
    const std::optional<SolveBudget>& budget) {
  Z3Backend::Impl* backend = impl_->backend;
  if (!backend->cancelled.load()) ++impl_->queries;
  return backend->guardedQuery("z3: ", [&] {
    requireBoolean(extra);
    std::vector<ir::TermRef> problem = impl_->irBase;
    problem.insert(problem.end(), extra.begin(), extra.end());
    if (auto decided = enumerate(problem)) return std::move(*decided);
    std::vector<z3::expr> assertions = impl_->base;
    backend->lowerAll(extra, impl_->memo, assertions);
    return backend->solveFresh(assertions,
                               budget.value_or(impl_->defaultBudget));
  });
}

std::size_t Z3Backend::Session::queryCount() const { return impl_->queries; }

std::size_t Z3Backend::Session::loweredTermCount() const {
  return impl_->memo.size();
}

// ---------------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------------

Z3Backend::Z3Backend() : impl_(std::make_unique<Impl>()) {}
Z3Backend::~Z3Backend() = default;

std::unique_ptr<Z3Backend::Session> Z3Backend::openSession(
    std::span<const ir::TermRef> base, SolveBudget budget) {
  auto impl = std::make_unique<Session::Impl>(impl_.get());
  impl->defaultBudget = budget;
  std::unique_ptr<Session> session(new Session(std::move(impl)));
  session->assertBase(base);
  return session;
}

SolveResult Z3Backend::check(std::span<const ir::TermRef> constraints,
                             SolveBudget budget) {
  return impl_->guardedQuery("z3: ", [&] {
    requireBoolean(constraints);
    if (auto decided = enumerate(constraints)) return std::move(*decided);
    std::unordered_map<const ir::Term*, z3::expr> memo;
    std::vector<z3::expr> assertions;
    impl_->lowerAll(constraints, memo, assertions);
    return impl_->solveFresh(assertions, budget);
  });
}

SolveResult Z3Backend::checkSmtLib(const std::string& smtlib,
                                   SolveBudget budget) {
  // Z3's default solver, not makeSolver(): the ladder's last rung and the
  // native-vs-SMT-LIB differential stay structurally independent of the
  // native path.
  return impl_->guardedQuery("z3 (smtlib parse): ", [&] {
    z3::context& ctx = impl_->ctx();
    z3::solver solver(ctx);
    applyBudget(solver, budget);
    const z3::expr_vector assertions = ctx.parse_string(smtlib.c_str());
    for (unsigned i = 0; i < assertions.size(); ++i) {
      solver.add(assertions[i]);
    }
    return impl_->runSolver(solver);
  });
}

void Z3Backend::interrupt() {
  impl_->cancelled.store(true);
  const std::lock_guard<std::mutex> lock(impl_->interruptMutex);
  // `solving` implies the context exists: it is created before the check.
  if (impl_->solving) {
    impl_->ctxStorage->interrupt();
  }
}

bool Z3Backend::interrupted() const { return impl_->cancelled.load(); }

void Z3Backend::setFaultPlan(FaultPlanPtr plan) {
  impl_->faultPlan = std::move(plan);
  impl_->faultCounters.clear();
}

void Z3Backend::setFaultScope(std::string scope) {
  impl_->faultScope = std::move(scope);
}

}  // namespace buffy::backends
