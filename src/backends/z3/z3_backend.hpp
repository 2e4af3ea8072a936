// Z3 backend: lowers the solver-agnostic term IR to Z3 expressions through
// the native Z3 C++ API (the paper's primary backend, §4) and runs
// satisfiability / verification queries.
//
// Every query Z3 answers is solved on a fresh solver built from one fixed
// preprocessing tactic chain (DESIGN.md §7), so no query sees another's
// assertions or learned state. Two usage modes:
//  * one-shot check() — lower + solve from scratch (ablations, simple uses);
//  * a persistent Session — a lowering memo plus base constraints that live
//    across queries. Terms lowered for one query are reused by the next;
//    each check() solves base ∧ extra on its own fresh solver.
//
// Both IR entry points first try the finite-domain step (DESIGN.md §7,
// ir/finite_domain.hpp): a problem whose free variables all have small
// finite boxes is decided by exhaustive evaluation and never reaches Z3.
// checkSmtLib always uses Z3, which makes it the independent reference
// for every enumerated answer.
//
// The z3::context is created on the first lower, check or parse that
// needs it, so a backend that is never asked a query Z3 must answer (a
// cache-answered or fully enumerated engine) costs no Z3 state.
//
// Resilience (DESIGN.md §8): every Z3 query runs under a SolveBudget
// (wall-clock timeout, Z3 rlimit, memory cap, random seed; an enumerated
// query's work is capped by ir::kFiniteDomainWorkBound instead), queries
// can be cooperatively cancelled from another thread via interrupt(), and
// a test-only FaultPlan can inject deterministic failures.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "backends/fault_plan.hpp"
#include "ir/term.hpp"
#include "ir/term_eval.hpp"

namespace buffy::backends {

enum class SolveStatus { Sat, Unsat, Unknown };

/// Resource limits applied to a single solver query. Unset fields mean
/// "unlimited" (and seed 0, Z3's default). Implicitly convertible from a
/// bare timeout for the common case.
struct SolveBudget {
  /// Wall-clock limit per query, milliseconds.
  std::optional<unsigned> timeoutMs;
  /// Z3 resource limit ("rlimit") — a deterministic work counter, unlike
  /// the wall clock, so budget-exhaustion tests reproduce exactly.
  std::optional<unsigned> rlimit;
  /// Z3 memory cap, megabytes.
  std::optional<unsigned> maxMemoryMb;
  /// Z3 random seed (retry/escalation re-rolls this on Unknown).
  std::optional<unsigned> randomSeed;

  SolveBudget() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): deliberate sugar — every
  // pre-budget call site passed a bare optional timeout.
  SolveBudget(std::optional<unsigned> timeout) : timeoutMs(timeout) {}
};

struct SolveResult {
  SolveStatus status = SolveStatus::Unknown;
  /// Variable assignment extracted from the model (Sat only). Variables the
  /// solver left unconstrained are omitted (treated as 0 downstream).
  ir::Assignment model;
  /// Variables whose model value is a numeral that does not fit int64 —
  /// they are *absent* from `model`, and downstream trace evaluation would
  /// silently misreport them, so the extraction records them here instead
  /// of dropping them on the floor.
  std::vector<std::string> overflowVars;
  /// Wall-clock seconds spent inside the solver.
  double seconds = 0.0;
  /// Z3's reason when status == Unknown (e.g. "timeout").
  std::string reason;
  /// Z3 resource units consumed by this query (delta of the solver's
  /// "rlimit count" statistic; best-effort, 0 when unavailable).
  std::uint64_t rlimitUsed = 0;
  /// True when status == Unknown because the query was cancelled via
  /// interrupt() rather than because the solver gave up — retry ladders
  /// must not re-run cancelled queries.
  bool canceled = false;
  /// Which engine answered: "z3", or "enumerate" when the finite-domain
  /// step decided the query by exhaustive evaluation (DESIGN.md §7).
  std::string engine = "z3";
  /// Points the finite-domain step evaluated (engine "enumerate" only).
  std::uint64_t points = 0;
  /// Test-only fault-injection tag (FaultAction::Kind::CorruptWitness):
  /// instructs the analysis layer to perturb the extracted witness trace
  /// so the replay cross-check can be exercised deterministically.
  bool corruptWitness = false;
};

class Z3Backend {
 public:
  /// A persistent solving session over one shared lowering memo. Must not
  /// outlive the Z3Backend that created it (it borrows the backend's
  /// z3::context), and must not be used from a different thread than other
  /// sessions of the same backend — Z3 contexts are not thread-safe. Use
  /// one Z3Backend per thread for parallel solving. (interrupt() on the
  /// owning backend is the one deliberate exception: it may be called from
  /// any thread.)
  class Session {
   public:
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// Adds constraints to the base every later query is solved under.
    void assertBase(std::span<const ir::TermRef> constraints);

    /// Checks base ∧ extra: by the finite-domain step when it applies,
    /// else on a fresh solver. The extra constraints do not outlive the
    /// query. `budget` overrides the session default for this query only.
    SolveResult check(std::span<const ir::TermRef> extra,
                      const std::optional<SolveBudget>& budget = std::nullopt);

    /// Number of check() calls answered so far.
    [[nodiscard]] std::size_t queryCount() const;
    /// Number of terms lowered into this session's memo so far.
    [[nodiscard]] std::size_t loweredTermCount() const;

   private:
    friend class Z3Backend;
    struct Impl;
    explicit Session(std::unique_ptr<Impl> impl);
    std::unique_ptr<Impl> impl_;
  };

  Z3Backend();
  ~Z3Backend();
  Z3Backend(const Z3Backend&) = delete;
  Z3Backend& operator=(const Z3Backend&) = delete;

  /// Opens a persistent session. The budget (if any) is the default for
  /// every query answered by the session.
  std::unique_ptr<Session> openSession(std::span<const ir::TermRef> base = {},
                                       SolveBudget budget = {});

  /// Checks satisfiability of the conjunction of `constraints`: by the
  /// finite-domain step when it applies, else one-shot (fresh solver,
  /// fresh lowering).
  SolveResult check(std::span<const ir::TermRef> constraints,
                    SolveBudget budget = {});

  /// Parses SMT-LIB2 text (e.g. from the smtlib backend) and checks it —
  /// the emission/reparse path of the backend-comparison ablation and the
  /// last rung of the Unknown-escalation ladder. Uses Z3's default solver,
  /// not the native path's tactic chain, so the two stay independent.
  SolveResult checkSmtLib(const std::string& smtlib, SolveBudget budget = {});

  /// Cooperative cancellation, callable from ANY thread (the only
  /// thread-safe entry point of the backend). Cancels the in-flight query,
  /// if one is running, via Z3_interrupt, and permanently cancels the
  /// backend: every later query returns immediately with an Unknown result
  /// whose `canceled` flag is set. One-way by design — an interrupted Z3
  /// context is not reliably reusable, and the only caller (firstOnly
  /// synthesis) discards the engine's remaining work anyway.
  void interrupt();
  /// True once interrupt() has been called.
  [[nodiscard]] bool interrupted() const;

  /// Installs the test-only fault-injection plan (see fault_plan.hpp).
  /// Pass nullptr to clear. Faults are consumed by check / Session::check /
  /// checkSmtLib in order, counted per scope.
  void setFaultPlan(FaultPlanPtr plan);
  /// Names the scope for subsequent checks' fault lookups (default "").
  void setFaultScope(std::string scope);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace buffy::backends
