// CHC / Spacer backend (paper §4 "Back-end for model checkers" and §7:
// "with loop invariants for the loop that executes the program over many
// timesteps ... we could scale Buffy's analysis to an arbitrarily-bounded
// time horizon, an improvement over tools like FPerf").
//
// The transition system extracted by core/transition is encoded as
// Constrained Horn Clauses over an unknown inductive invariant Inv:
//
//     Inv(init)                                           (initiation)
//     Inv(s) ∧ step(s, in, s')          ⇒ Inv(s')          (consecution)
//     Inv(s) ∧ ¬property(s)             ⇒ Bad              (safety)
//     Inv(s) ∧ step-constraints ∧ ¬assert ⇒ Bad            (in-program asserts)
//
// `Proved` means the property holds at EVERY time step of EVERY execution
// — no horizon bound, the direct answer to Figure 6's exponential wall.
// Three steps answer a query, in order (DESIGN.md §17), each in its own
// z3::context:
//  1. induction: P ∧ I is 1-inductive, where I is the interval invariant
//     of the system (per-state ranges from interval analysis), checked by
//     three plain quantifier-free queries;
//  2. search: a capped breadth-first explicit-state search over the finite
//     input box finds a shallow violation, re-confirmed by Z3 on the
//     found inputs;
//  3. spacer: Z3's Spacer engine on the clauses above, with nothing else
//     lowered into its context.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/query.hpp"
#include "core/transition.hpp"
#include "ir/term_eval.hpp"

namespace buffy::backends {

class ChcInterruptHandle;

enum class ChcStatus { Proved, Violated, Unknown };

const char* chcStatusName(ChcStatus status);

/// The step that answered a query.
enum class ChcStep { Induction, Search, Spacer };

/// "induction", "search" or "spacer".
const char* chcStepName(ChcStep step);

struct ChcResult {
  ChcStatus status = ChcStatus::Unknown;
  /// Wall time of the whole prove, every step included.
  double seconds = 0.0;
  std::string detail;  // reason when Unknown
  /// The step that answered (the last one that ran).
  ChcStep step = ChcStep::Spacer;
  /// Induction only: the 1-inductive invariant P ∧ I, in query syntax over
  /// state names.
  std::string invariant;
  /// Search only: the inputs of each step from the initial state to the
  /// violation; its size is the depth. Confirmed by confirmCounterexample.
  std::vector<ir::Assignment> counterexample;
  /// Work the search spent: states expanded × input points × DAG nodes,
  /// at most ir::kFiniteDomainWorkBound.
  std::uint64_t searchWork = 0;

  [[nodiscard]] bool proved() const { return status == ChcStatus::Proved; }
};

/// A range of one state variable (`state` indexes TransitionSystem::state);
/// an unset endpoint is unbounded. The interval invariant I is a list of
/// them.
struct StateRange {
  std::size_t state = 0;
  std::optional<std::int64_t> lo;
  std::optional<std::int64_t> hi;
};

/// True when Z3, on pinned inputs in a fresh context, confirms that
/// `counterexample` drives `system` from its initial state through steps
/// whose constraints hold to a state where `property` fails, or to a last
/// step where an in-program assert fails. The context registers with
/// `interrupt` when it is non-null.
bool confirmCounterexample(const core::TransitionSystem& system,
                           ir::TermRef property,
                           std::span<const ir::Assignment> counterexample,
                           ChcInterruptHandle* interrupt = nullptr);

/// Cross-thread cooperative cancellation for a CHC query, mirroring
/// Analysis::interrupt's discipline: interrupt() is callable from ANY
/// thread, cancels the in-flight Z3 call of whichever step runs (if one is
/// registered), and permanently cancels the handle — the search polls
/// interrupted(), and queries started after it return
/// Unknown/"interrupted" without touching the solver. Portfolio racing
/// uses this to stop the CHC member when a sibling wins.
class ChcInterruptHandle {
 public:
  void interrupt();
  [[nodiscard]] bool interrupted() const { return interrupted_.load(); }

  /// RAII registration of the in-flight step's z3::context (backend
  /// internal): registers on construction (interrupting the context at
  /// once if the handle is already cancelled), unregisters on destruction
  /// — which must happen before the context dies, so a cross-thread
  /// interrupt can never land on a destroyed context. Null handle = no-op.
  class Registration {
   public:
    Registration(ChcInterruptHandle* handle, void* ctx);
    ~Registration();
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;

   private:
    ChcInterruptHandle* handle_;
  };

 private:
  /// Guards `activeCtx_` against the register/interrupt/unregister race
  /// (same argument as the job layer's hook mutex).
  std::mutex mu_;
  void* activeCtx_ = nullptr;  // z3::context* of the in-flight query
  std::atomic<bool> interrupted_{false};
};

/// Network -> transition system -> induction, search, Spacer.
class UnboundedAnalysis {
 public:
  UnboundedAnalysis(core::Network network,
                    core::TransitionOptions options = {});

  /// Property text over state-variable names using the query syntax with
  /// index [0] denoting "the current state", e.g.
  ///   "rr.cdeq.0[0] >= 0 & rr.ibs.0.pkts[0] <= 6".
  ChcResult prove(const std::string& propertyExpr,
                  std::optional<unsigned> timeoutMs = 60000);
  /// Programmatic property over the pre-state (1-step SeriesView).
  ChcResult prove(const core::Query& property,
                  std::optional<unsigned> timeoutMs = 60000);

  /// Spacer alone, without the induction and search steps before it: the
  /// reference the oracle tests compare prove() against. No user option
  /// reaches it.
  ChcResult proveBySpacer(const core::Query& property,
                          std::optional<unsigned> timeoutMs = 60000);

  [[nodiscard]] const core::TransitionSystem& system() const {
    return *system_;
  }
  /// State-variable names (for property authoring).
  [[nodiscard]] std::vector<std::string> stateNames() const;

  /// Cancels the in-flight prove() (if any) from any thread and
  /// permanently cancels this analysis — later prove() calls return
  /// Unknown/"interrupted" immediately.
  void interrupt() { interrupt_.interrupt(); }
  [[nodiscard]] bool interrupted() const { return interrupt_.interrupted(); }

 private:
  ir::TermRef buildProperty(const core::Query& property);

  std::unique_ptr<core::TransitionSystem> system_;
  std::map<std::string, std::vector<ir::TermRef>> stateSeries_;
  /// The interval invariant, computed by the first prove().
  std::optional<std::vector<StateRange>> invariant_;
  ChcInterruptHandle interrupt_;
};

}  // namespace buffy::backends
