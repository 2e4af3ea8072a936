// Tests of the CHC backend: unbounded-horizon safety proofs, and the
// oracle that holds the induction and search steps to Spacer's answers.
#include "backends/chc/chc_backend.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "helpers.hpp"
#include "ir/finite_domain.hpp"
#include "support/error.hpp"

namespace buffy::backends {
namespace {

using buffy::testing::schedulerNet;

core::Network rrNet() {
  return schedulerNet(models::kRoundRobin, "rr", 2, /*capacity=*/4,
                      /*maxArrivals=*/2);
}

/// The round-robin network of bench/ablate_chc and perfbench (a 16-packet
/// output buffer).
core::Network paperRrNet() {
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

/// A program that counts its steps in a monitor and asserts `check` on it.
core::Network stepCounterNet(const std::string& check) {
  core::ProgramSpec spec;
  spec.instance = "p";
  spec.source = R"(
p(buffer a, buffer b) {
  global monitor int steps;
  steps = steps + 1;
  assert()" + check + R"();
})";
  spec.buffers = {
      {.param = "a", .role = core::BufferSpec::Role::Input, .capacity = 2},
      {.param = "b", .role = core::BufferSpec::Role::Output, .capacity = 2},
  };
  core::Network net;
  net.add(spec);
  return net;
}

/// Two forwarders in a chain.
core::Network forwarderChainNet() {
  const char* fwd = R"(
fwd(buffer src, buffer snk) {
  move-p(src, snk, backlog-p(src));
})";
  auto spec = [&](const char* inst) {
    core::ProgramSpec s;
    s.instance = inst;
    s.source = fwd;
    s.buffers = {
        {.param = "src", .role = core::BufferSpec::Role::Input,
         .capacity = 4, .maxArrivalsPerStep = 2},
        {.param = "snk", .role = core::BufferSpec::Role::Output,
         .capacity = 4},
    };
    return s;
  };
  core::Network net;
  net.add(spec("a")).add(spec("b"));
  net.connect("a", "snk", "b", "src");
  return net;
}

const char* const kConservation =
    "rr.ibs.0.arrivedTotal[0] + rr.ibs.1.arrivedTotal[0] == "
    "rr.ob.outTotal[0] + rr.ibs.0.pkts[0] + rr.ibs.1.pkts[0] + "
    "rr.ibs.0.dropped[0] + rr.ibs.1.dropped[0] + rr.ob.pkts[0] + "
    "rr.ob.dropped[0]";

TEST(Chc, ProvesSimpleInvariants) {
  UnboundedAnalysis analysis(rrNet());
  EXPECT_TRUE(analysis.prove("rr.cdeq.0[0] >= 0").proved());
  EXPECT_TRUE(analysis
                  .prove("rr.ibs.0.pkts[0] >= 0 & rr.ibs.0.pkts[0] <= 4")
                  .proved());
  EXPECT_TRUE(analysis.prove("rr.next[0] >= 0 & rr.next[0] < 2").proved());
}

TEST(Chc, ProvesConservationUnbounded) {
  // The property whose *bounded* proof cost explodes exponentially in T
  // (Figure 6); the CHC backend proves it for ALL T at once.
  UnboundedAnalysis analysis(rrNet());
  const auto result = analysis.prove(kConservation);
  EXPECT_TRUE(result.proved()) << result.detail;
}

TEST(Chc, RefutesFalseProperty) {
  UnboundedAnalysis analysis(rrNet());
  // cdeq grows without bound, so any constant cap is eventually violated.
  const auto result = analysis.prove("rr.cdeq.0[0] < 3");
  EXPECT_EQ(result.status, ChcStatus::Violated);
}

TEST(Chc, WorkGuaranteeUnderWorkload) {
  // With queue 0 receiving exactly one packet per step (as a per-step
  // workload rule), service keeps up: its backlog never exceeds 1.
  core::TransitionOptions opts;
  opts.stepWorkload.add(core::Workload::perStepCount("sp.ibs.0", 1, 1));
  UnboundedAnalysis analysis(
      schedulerNet(models::kStrictPriority, "sp", 2, 4, 2), opts);
  EXPECT_TRUE(analysis.prove("sp.ibs.0.pkts[0] <= 1").proved());
  // ...but queue 1's backlog is NOT bounded by any constant.
  EXPECT_EQ(analysis.prove("sp.ibs.1.pkts[0] <= 3").status,
            ChcStatus::Violated);
}

TEST(Chc, InProgramAssertsChecked) {
  {
    UnboundedAnalysis ok(stepCounterNet("steps >= 1"));
    EXPECT_TRUE(ok.prove(core::Query::always()).proved());
  }
  {
    UnboundedAnalysis failing(stepCounterNet("steps <= 3"));
    // Violated at step 4 — unreachable for any bounded check with T <= 3,
    // but the CHC backend has no horizon.
    EXPECT_EQ(failing.prove(core::Query::always()).status,
              ChcStatus::Violated);
  }
}

TEST(Chc, FqListInvariants) {
  // The FQ pointer lists stay within capacity forever.
  UnboundedAnalysis analysis(
      schedulerNet(models::kFairQueueBuggy, "fq", 2, 4, 2));
  EXPECT_TRUE(
      analysis.prove("fq.nq.len[0] >= 0 & fq.nq.len[0] <= 2").proved());
  EXPECT_TRUE(
      analysis.prove("fq.oq.len[0] >= 0 & fq.oq.len[0] <= 2").proved());
}

TEST(Chc, CompositionSupported) {
  // Two forwarders in a chain: total egress never exceeds total ingress,
  // over an unbounded horizon, across the composition.
  UnboundedAnalysis analysis(forwarderChainNet());
  EXPECT_TRUE(
      analysis.prove("b.snk.outTotal[0] <= a.src.arrivedTotal[0]").proved());
}

TEST(Chc, NonBooleanPropertyRejected) {
  UnboundedAnalysis analysis(rrNet());
  EXPECT_THROW(analysis.prove("rr.cdeq.0[0] + 1"), Error);
}

TEST(Chc, StateNamesExposed) {
  UnboundedAnalysis analysis(rrNet());
  const auto names = analysis.stateNames();
  EXPECT_EQ(names.size(), 12u);
}

TEST(Chc, StatusNames) {
  EXPECT_STREQ(chcStatusName(ChcStatus::Proved), "PROVED");
  EXPECT_STREQ(chcStatusName(ChcStatus::Violated), "VIOLATED");
  EXPECT_STREQ(chcStatusName(ChcStatus::Unknown), "UNKNOWN");
}

TEST(Chc, InterruptFromAnotherThreadDuringProve) {
  // A property that holds but that neither the induction step nor Spacer
  // settles quickly, so the interrupt lands while prove() runs, in
  // Spacer's steady search. (An interrupt in roughly the first 50 ms of a
  // Spacer query makes Z3 4.8.12 leak, which LeakSanitizer reports in the
  // sanitize build; hence a full second.)
  UnboundedAnalysis analysis(rrNet());
  std::thread interrupter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    analysis.interrupt();
  });
  const ChcResult result = analysis.prove(
      "rr.ob.outTotal[0] <= rr.ibs.0.arrivedTotal[0] + "
      "rr.ibs.1.arrivedTotal[0]",
      60000);
  interrupter.join();
  EXPECT_EQ(result.status, ChcStatus::Unknown);
  EXPECT_EQ(result.detail, "interrupted");
  EXPECT_LT(result.seconds, 30.0);
  // The handle stays cancelled.
  EXPECT_EQ(analysis.prove("rr.cdeq.0[0] >= 0").detail, "interrupted");
}

// ---------------------------------------------------------------------
// Oracle: the induction and search steps against Spacer alone.

struct OracleCase {
  std::string name;
  std::function<core::Network()> network;
  core::Workload stepWorkload;
  core::Query property;
  ChcStatus expected;
};

core::Workload oneArrivalPerStepToQueue0() {
  core::Workload w;
  w.add(core::Workload::perStepCount("sp.ibs.0", 1, 1));
  return w;
}

/// Every property this file, bench/ablate_chc and perfbench prove, plus
/// one that holds but is not 1-inductive under the interval invariant.
std::vector<OracleCase> oracleCases() {
  const auto rr = [] { return rrNet(); };
  const auto paperRr = [] { return paperRrNet(); };
  const auto sp = [] {
    return schedulerNet(models::kStrictPriority, "sp", 2, 4, 2);
  };
  const auto fq = [] {
    return schedulerNet(models::kFairQueueBuggy, "fq", 2, 4, 2);
  };
  using Q = core::Query;
  const auto P = ChcStatus::Proved;
  const auto V = ChcStatus::Violated;
  return {
      {"rr-cdeq0-nonneg", rr, {}, Q::expr("rr.cdeq.0[0] >= 0"), P},
      {"rr-ibs0-in-capacity", rr, {},
       Q::expr("rr.ibs.0.pkts[0] >= 0 & rr.ibs.0.pkts[0] <= 4"), P},
      {"rr-next-in-range", rr, {}, Q::expr("rr.next[0] >= 0 & rr.next[0] < 2"),
       P},
      {"rr-conservation", rr, {}, Q::expr(kConservation), P},
      {"rr-cdeq0-lt-3", rr, {}, Q::expr("rr.cdeq.0[0] < 3"), V},
      {"sp-ibs0-backlog", sp, oneArrivalPerStepToQueue0(),
       Q::expr("sp.ibs.0.pkts[0] <= 1"), P},
      {"sp-ibs1-backlog", sp, oneArrivalPerStepToQueue0(),
       Q::expr("sp.ibs.1.pkts[0] <= 3"), V},
      {"assert-holds", [] { return stepCounterNet("steps >= 1"); }, {},
       Q::always(), P},
      {"assert-fails", [] { return stepCounterNet("steps <= 3"); }, {},
       Q::always(), V},
      {"fq-nq-len", fq, {}, Q::expr("fq.nq.len[0] >= 0 & fq.nq.len[0] <= 2"),
       P},
      {"fq-oq-len", fq, {}, Q::expr("fq.oq.len[0] >= 0 & fq.oq.len[0] <= 2"),
       P},
      {"chain-egress", [] { return forwarderChainNet(); }, {},
       Q::expr("b.snk.outTotal[0] <= a.src.arrivedTotal[0]"), P},
      {"paper-rr-conservation", paperRr, {}, Q::expr(kConservation), P},
      {"paper-rr-cdeq0-lt-3", paperRr, {}, Q::expr("rr.cdeq.0[0] < 3"), V},
      {"rr-cdeq0-within-arrivals", rr, {},
       Q::expr("rr.cdeq.0[0] <= rr.ibs.0.arrivedTotal[0]"), P},
  };
}

core::TransitionOptions optionsFor(const OracleCase& c) {
  core::TransitionOptions opts;
  opts.stepWorkload = c.stepWorkload;
  return opts;
}

/// Re-confirms a counterexample on a transition system built anew from
/// the case's network, so nothing is shared with the prove that found it.
bool confirmedOnFreshSystem(const OracleCase& c,
                            const std::vector<ir::Assignment>& cex) {
  const auto system = core::buildTransitionSystem(c.network(), optionsFor(c));
  std::map<std::string, std::vector<ir::TermRef>> series;
  for (const auto& sv : system->state) series[sv.name] = {sv.pre};
  const ir::TermRef property =
      c.property.build(core::SeriesView(&series, 1), system->arena);
  return confirmCounterexample(*system, property, cex);
}

TEST(ChcOracle, StepsAgreeWithSpacerAlone) {
  for (const OracleCase& c : oracleCases()) {
    SCOPED_TRACE(c.name);
    UnboundedAnalysis staged(c.network(), optionsFor(c));
    const ChcResult answer = staged.prove(c.property);
    UnboundedAnalysis reference(c.network(), optionsFor(c));
    const ChcResult spacer = reference.proveBySpacer(c.property);
    EXPECT_EQ(spacer.status, c.expected) << spacer.detail;
    EXPECT_EQ(answer.status, spacer.status)
        << chcStepName(answer.step) << ": " << answer.detail;
    EXPECT_LE(answer.searchWork, ir::kFiniteDomainWorkBound);
    if (answer.step == ChcStep::Search) {
      EXPECT_TRUE(confirmedOnFreshSystem(c, answer.counterexample));
    }
  }
}

TEST(ChcOracle, EachStepDecidesItsShare) {
  // Which step answers is what the speed of the paper cases rests on:
  // conservation by induction, the false cap by a depth-3 search, and a
  // property that holds without being 1-inductive under I by Spacer after
  // a search capped at the work bound.
  UnboundedAnalysis analysis(paperRrNet());
  const ChcResult conservation = analysis.prove(kConservation);
  EXPECT_EQ(conservation.step, ChcStep::Induction);
  EXPECT_NE(conservation.invariant.find("rr.next[0] <= 1"), std::string::npos)
      << conservation.invariant;

  const ChcResult cap = analysis.prove("rr.cdeq.0[0] < 3");
  EXPECT_EQ(cap.step, ChcStep::Search);
  EXPECT_EQ(cap.counterexample.size(), 3u);

  UnboundedAnalysis other(rrNet());
  const ChcResult within =
      other.prove("rr.cdeq.0[0] <= rr.ibs.0.arrivedTotal[0]");
  EXPECT_TRUE(within.proved()) << within.detail;
  EXPECT_EQ(within.step, ChcStep::Spacer);
  EXPECT_GT(within.searchWork, 0u);
  EXPECT_LE(within.searchWork, ir::kFiniteDomainWorkBound);
}

TEST(ChcOracle, ConfirmationRejectsAWrongCounterexample) {
  const OracleCase c{"rr-cdeq0-lt-3", [] { return rrNet(); }, {},
                     core::Query::expr("rr.cdeq.0[0] < 3"),
                     ChcStatus::Violated};
  UnboundedAnalysis analysis(c.network());
  const ChcResult result = analysis.prove(c.property);
  ASSERT_EQ(result.step, ChcStep::Search);
  EXPECT_TRUE(confirmedOnFreshSystem(c, result.counterexample));
  // One step short, queue 0 has dequeued at most two packets.
  std::vector<ir::Assignment> shorter = result.counterexample;
  shorter.pop_back();
  EXPECT_FALSE(confirmedOnFreshSystem(c, shorter));
  // No arrivals at all: nothing is ever dequeued.
  std::vector<ir::Assignment> idle = result.counterexample;
  for (auto& step : idle) {
    for (auto& [input, value] : step) value = 0;
  }
  EXPECT_FALSE(confirmedOnFreshSystem(c, idle));
}

}  // namespace
}  // namespace buffy::backends
