#include "backends/chc/chc_backend.hpp"

#include <algorithm>

#include <z3++.h>

#include "backends/chc/steps.hpp"
#include "backends/z3/z3_lowering.hpp"
#include "support/error.hpp"

namespace buffy::backends {

const char* chcStatusName(ChcStatus status) {
  switch (status) {
    case ChcStatus::Proved: return "PROVED";
    case ChcStatus::Violated: return "VIOLATED";
    case ChcStatus::Unknown: return "UNKNOWN";
  }
  return "?";
}

const char* chcStepName(ChcStep step) {
  switch (step) {
    case ChcStep::Induction: return "induction";
    case ChcStep::Search: return "search";
    case ChcStep::Spacer: return "spacer";
  }
  return "?";
}

namespace {

z3::sort z3Sort(z3::context& ctx, ir::Sort sort) {
  return sort == ir::Sort::Int ? ctx.int_sort() : ctx.bool_sort();
}

}  // namespace

void ChcInterruptHandle::interrupt() {
  interrupted_.store(true);
  const std::lock_guard<std::mutex> lock(mu_);
  if (activeCtx_) static_cast<z3::context*>(activeCtx_)->interrupt();
}

ChcInterruptHandle::Registration::Registration(ChcInterruptHandle* handle,
                                               void* ctx)
    : handle_(handle) {
  if (!handle_) return;
  const std::lock_guard<std::mutex> lock(handle_->mu_);
  handle_->activeCtx_ = ctx;
  // interrupt() sets the flag before it takes the lock, so an interrupt
  // that found no context registered is seen here.
  if (handle_->interrupted()) static_cast<z3::context*>(ctx)->interrupt();
}

ChcInterruptHandle::Registration::~Registration() {
  if (!handle_) return;
  const std::lock_guard<std::mutex> lock(handle_->mu_);
  handle_->activeCtx_ = nullptr;
}

namespace {

ChcResult interruptedResult(ChcStep step) {
  ChcResult result;
  result.step = step;
  result.detail = "interrupted";
  return result;
}

/// Spacer on the CHC encoding of the system, in a context of its own with
/// nothing else lowered into it (DESIGN.md §17).
ChcResult proveWithSpacer(const core::TransitionSystem& system,
                          ir::TermRef property,
                          std::optional<unsigned> timeoutMs,
                          ChcInterruptHandle* interrupt) {
  if (interrupt && interrupt->interrupted()) {
    return interruptedResult(ChcStep::Spacer);
  }
  try {
    z3::context ctx;
    const ChcInterruptHandle::Registration registration(interrupt, &ctx);
    z3::fixedpoint fp(ctx);
    {
      z3::params params(ctx);
      params.set("engine", ctx.str_symbol("spacer"));
      if (timeoutMs) params.set("timeout", *timeoutMs);
      fp.set(params);
    }

    std::unordered_map<const ir::Term*, z3::expr> memo;

    // The invariant relation over the state vector.
    z3::sort_vector sorts(ctx);
    for (const auto& sv : system.state) sorts.push_back(z3Sort(ctx, sv.sort));
    z3::func_decl inv = ctx.function("Inv", sorts, ctx.bool_sort());
    z3::func_decl bad = z3::function("Bad", 0, nullptr, ctx.bool_sort());
    fp.register_relation(inv);
    fp.register_relation(bad);

    auto invApp = [&](const std::function<z3::expr(
                          const core::TransitionSystem::StateVar&)>& pick) {
      z3::expr_vector args(ctx);
      for (const auto& sv : system.state) args.push_back(pick(sv));
      return inv(args);
    };

    // Universally quantified variables of the rules: pre-state + inputs.
    z3::expr_vector bound(ctx);
    for (const auto& sv : system.state) {
      bound.push_back(lowerTerm(ctx, sv.pre, memo));
    }
    for (const ir::TermRef input : system.inputs) {
      bound.push_back(lowerTerm(ctx, input, memo));
    }

    // Step constraints (arrival bounds, assumes, soundness, model
    // nondeterminism).
    z3::expr stepGuard = ctx.bool_val(true);
    for (const ir::TermRef c : system.constraints) {
      stepGuard = stepGuard && lowerTerm(ctx, c, memo);
    }

    // (1) Initiation: Inv(init). Init values are constants — a fact.
    {
      z3::expr rule = invApp([&](const auto& sv) {
        return lowerTerm(ctx, sv.init, memo);
      });
      fp.add_rule(rule, ctx.str_symbol("init"));
    }

    // (2) Consecution: Inv(pre) ∧ step ⇒ Inv(post).
    {
      const z3::expr pre = invApp(
          [&](const auto& sv) { return lowerTerm(ctx, sv.pre, memo); });
      const z3::expr post = invApp(
          [&](const auto& sv) { return lowerTerm(ctx, sv.post, memo); });
      z3::expr rule = z3::forall(bound, z3::implies(pre && stepGuard, post));
      fp.add_rule(rule, ctx.str_symbol("step"));
    }

    // (3) Safety: Inv(pre) ∧ ¬property ⇒ Bad.
    {
      const z3::expr pre = invApp(
          [&](const auto& sv) { return lowerTerm(ctx, sv.pre, memo); });
      const z3::expr prop = lowerTerm(ctx, property, memo);
      z3::expr rule = z3::forall(bound, z3::implies(pre && !prop, bad()));
      fp.add_rule(rule, ctx.str_symbol("safety"));
    }

    // (4) In-program asserts: Inv(pre) ∧ step ∧ ¬assert ⇒ Bad.
    for (std::size_t i = 0; i < system.obligations.size(); ++i) {
      const z3::expr pre = invApp(
          [&](const auto& sv) { return lowerTerm(ctx, sv.pre, memo); });
      const z3::expr obl = lowerTerm(ctx, system.obligations[i], memo);
      z3::expr rule =
          z3::forall(bound, z3::implies(pre && stepGuard && !obl, bad()));
      fp.add_rule(rule,
                  ctx.str_symbol(("assert" + std::to_string(i)).c_str()));
    }

    // fp.query clears an interrupt that reached the context before the
    // query began (building the rules takes milliseconds), so look again.
    if (interrupt && interrupt->interrupted()) {
      return interruptedResult(ChcStep::Spacer);
    }
    ChcResult result;
    z3::expr query = bad();
    const z3::check_result status = fp.query(query);
    switch (status) {
      case z3::sat:
        result.status = ChcStatus::Violated;  // Bad is reachable
        break;
      case z3::unsat:
        result.status = ChcStatus::Proved;  // inductive invariant found
        break;
      case z3::unknown:
        result.status = ChcStatus::Unknown;
        result.detail = interrupt && interrupt->interrupted()
                            ? "interrupted"
                            : fp.reason_unknown();
        break;
    }
    return result;
  } catch (const z3::exception& e) {
    // Spacer reports a spent timeout or an interrupt by throwing
    // "canceled" rather than answering unknown.
    if (interrupt && interrupt->interrupted()) {
      return interruptedResult(ChcStep::Spacer);
    }
    if (std::string(e.msg()) == "canceled") {
      ChcResult result;
      result.detail = "timeout";
      return result;
    }
    throw BackendError(std::string("z3 (spacer): ") + e.msg());
  }
}

}  // namespace

UnboundedAnalysis::UnboundedAnalysis(core::Network network,
                                     core::TransitionOptions options)
    : system_(core::buildTransitionSystem(network, options)) {
  for (const auto& sv : system_->state) {
    stateSeries_[sv.name] = {sv.pre};
  }
}

ChcResult UnboundedAnalysis::prove(const std::string& propertyExpr,
                                   std::optional<unsigned> timeoutMs) {
  return prove(core::Query::expr(propertyExpr), timeoutMs);
}

ir::TermRef UnboundedAnalysis::buildProperty(const core::Query& property) {
  const core::SeriesView view(&stateSeries_, 1);
  const ir::TermRef prop = property.build(view, system_->arena);
  if (prop->sort != ir::Sort::Bool) {
    throw BackendError("chc: property must be boolean");
  }
  return prop;
}

ChcResult UnboundedAnalysis::prove(const core::Query& property,
                                   std::optional<unsigned> timeoutMs) {
  const chc::Deadline deadline(timeoutMs);
  const ir::TermRef prop = buildProperty(property);
  const auto finish = [&](ChcResult result) {
    result.seconds = deadline.seconds();
    return result;
  };
  if (interrupt_.interrupted()) {
    return finish(interruptedResult(ChcStep::Induction));
  }

  // 1. Induction: P ∧ I, with I computed once per system.
  if (!invariant_) invariant_ = chc::intervalInvariant(*system_);
  if (chc::inductive(*system_, prop, *invariant_, deadline, &interrupt_)) {
    ChcResult result;
    result.status = ChcStatus::Proved;
    result.step = ChcStep::Induction;
    result.invariant =
        chc::invariantText(*system_, property.description(), *invariant_);
    return finish(std::move(result));
  }
  if (interrupt_.interrupted()) {
    return finish(interruptedResult(ChcStep::Induction));
  }

  // 2. Search, whose counterexample counts only once Z3 confirms it.
  chc::SearchOutcome search =
      chc::searchViolation(*system_, prop, deadline, &interrupt_);
  if (search.violated &&
      confirmCounterexample(*system_, prop, search.counterexample,
                            &interrupt_)) {
    ChcResult result;
    result.status = ChcStatus::Violated;
    result.step = ChcStep::Search;
    result.counterexample = std::move(search.counterexample);
    result.searchWork = search.work;
    return finish(std::move(result));
  }
  if (interrupt_.interrupted()) {
    ChcResult result = interruptedResult(ChcStep::Search);
    result.searchWork = search.work;
    return finish(std::move(result));
  }

  // 3. Spacer, on what is left of the budget.
  ChcResult result;
  if (deadline.expired()) {
    result.detail = "timeout";
  } else {
    std::optional<unsigned> left = deadline.remainingMs();
    if (left) left = std::max(*left, 1u);  // 0 would mean no limit
    result = proveWithSpacer(*system_, prop, left, &interrupt_);
  }
  result.searchWork = search.work;
  return finish(std::move(result));
}

ChcResult UnboundedAnalysis::proveBySpacer(const core::Query& property,
                                           std::optional<unsigned> timeoutMs) {
  const chc::Deadline deadline(timeoutMs);
  ChcResult result = proveWithSpacer(*system_, buildProperty(property),
                                     timeoutMs, &interrupt_);
  result.seconds = deadline.seconds();
  return result;
}

std::vector<std::string> UnboundedAnalysis::stateNames() const {
  std::vector<std::string> out;
  out.reserve(system_->state.size());
  for (const auto& sv : system_->state) out.push_back(sv.name);
  return out;
}

}  // namespace buffy::backends
