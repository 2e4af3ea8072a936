// Ablation D (paper §4 "Back-end for model checkers" + §7): bounded
// verification vs CHC/Spacer.
//
// Figure 6 shows monolithic bounded verification cost exploding with the
// time horizon T. The paper's proposed way out is to translate the
// program into a transition system / Constrained Horn Clauses and let a
// model checker (Spacer) synthesize the loop invariant — proving the
// property for an UNBOUNDED horizon in one query.
//
// This bench runs the same conservation property both ways:
//   * bounded: verify at T = 1, 2, 3, ... until the 30 s wall,
//   * unbounded: one CHC query (T = ∞), answered by 1-induction with the
//     interval invariant, the capped explicit-state search, or Spacer
//     (DESIGN.md §17); the row names the step.
#include <cstdio>
#include <string>

#include "backends/chc/chc_backend.hpp"
#include "core/analysis.hpp"
#include "models/library.hpp"

using namespace buffy;

namespace {

core::Network rrNet() {
  core::ProgramSpec spec;
  spec.instance = "rr";
  spec.source = models::kRoundRobin;
  spec.compile.constants["N"] = 2;
  spec.compile.defaultListCapacity = 2;
  spec.buffers = {
      {.param = "ibs", .role = core::BufferSpec::Role::Input, .capacity = 4,
       .maxArrivalsPerStep = 2},
      {.param = "ob", .role = core::BufferSpec::Role::Output, .capacity = 16},
  };
  core::Network net;
  net.add(spec);
  return net;
}

/// Bounded form of conservation (over recorded series up to T).
core::Query boundedConservation() {
  return core::Query::custom(
      "conservation", [](const core::SeriesView& view, ir::TermArena& arena) {
        ir::TermRef arrived = arena.intConst(0);
        ir::TermRef out = arena.intConst(0);
        for (int t = 0; t < view.horizon(); ++t) {
          for (const char* buf : {"rr.ibs.0", "rr.ibs.1"}) {
            arrived = arena.add(arrived,
                                view.find(std::string(buf) + ".arrived")
                                    ->at(static_cast<std::size_t>(t)));
          }
          out = arena.add(out, view.find("rr.ob.out")->at(
                                   static_cast<std::size_t>(t)));
        }
        const int last = view.horizon() - 1;
        ir::TermRef backlog = arena.intConst(0);
        ir::TermRef dropped = arena.intConst(0);
        for (const char* buf : {"rr.ibs.0", "rr.ibs.1"}) {
          backlog = arena.add(backlog,
                              view.find(std::string(buf) + ".backlog")
                                  ->at(static_cast<std::size_t>(last)));
          dropped = arena.add(dropped,
                              view.find(std::string(buf) + ".dropped")
                                  ->at(static_cast<std::size_t>(last)));
        }
        return arena.eq(arrived,
                        arena.add(out, arena.add(backlog, dropped)));
      });
}

/// Unbounded form: over the ghost cumulative counters in the state vector.
const char* kStateConservation =
    "rr.ibs.0.arrivedTotal[0] + rr.ibs.1.arrivedTotal[0] == "
    "rr.ob.outTotal[0] + rr.ibs.0.pkts[0] + rr.ibs.1.pkts[0] + "
    "rr.ibs.0.dropped[0] + rr.ibs.1.dropped[0] + rr.ob.pkts[0] + "
    "rr.ob.dropped[0]";

}  // namespace

int main() {
  std::printf(
      "Ablation D: bounded unrolling vs CHC/Spacer (packet conservation on "
      "the round-robin scheduler)\n\n");

  std::printf("bounded verification (Figure 6 regime):\n");
  std::printf("%8s | %10s | %10s\n", "T", "verdict", "time (s)");
  std::printf("---------+------------+-----------\n");
  bool boundedOk = true;
  double lastBounded = 0.0;
  for (int horizon = 1; horizon <= 8; ++horizon) {
    core::AnalysisOptions opts;
    opts.horizon = horizon;
    opts.timeoutMs = 120000;
    core::Analysis analysis(rrNet(), opts);
    const auto result = analysis.verify(boundedConservation());
    std::printf("%8d | %10s | %10.3f\n", horizon,
                core::verdictName(result.verdict), result.solveSeconds);
    lastBounded = result.solveSeconds;
    if (result.verdict == core::Verdict::Unknown) {
      std::printf("  (solver timeout — the Figure 6 wall)\n");
      lastBounded = 120.0;
      break;
    }
    boundedOk = boundedOk && result.verdict == core::Verdict::Verified;
    if (result.solveSeconds > 30.0) {
      std::printf("  (stopping: exceeded 30 s — the Figure 6 wall)\n");
      break;
    }
  }

  std::printf("\nunbounded verification (CHC: induction, search, Spacer):\n");
  backends::UnboundedAnalysis unbounded(rrNet());
  const auto proof = unbounded.prove(kStateConservation, 120000);
  std::printf("%8s | %10s | %10.3f   (decided by %s)\n", "infinity",
              backends::chcStatusName(proof.status), proof.seconds,
              backends::chcStepName(proof.step));

  // And the backend still refutes false properties (soundness check).
  const auto refuted = unbounded.prove("rr.cdeq.0[0] < 3", 120000);
  std::printf(
      "%8s | %10s | %10.3f   (false property 'cdeq0 < 3', decided by %s)\n",
      "infinity", backends::chcStatusName(refuted.status), refuted.seconds,
      backends::chcStepName(refuted.step));

  const bool ok = boundedOk && proof.proved() &&
                  refuted.status == backends::ChcStatus::Violated &&
                  proof.seconds < lastBounded;
  std::printf(
      "\nshape check (bounded hits the wall; Spacer proves T=infinity "
      "faster than the last bounded step): %s\n",
      ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
