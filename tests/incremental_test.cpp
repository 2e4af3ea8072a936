// Differential tests for the incremental query engine: a persistent
// solver session answering a sequence of mixed check/verify queries (with
// workloads re-bound as deltas in between) must be verdict- and
// trace-identical to a fresh Analysis per query.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "support/error.hpp"

namespace buffy::core {
namespace {

using buffy::testing::schedulerNet;
using buffy::testing::starvationWorkload;

/// Pins the arrival counts of both queues to an exact per-step pattern
/// (deterministic: every reachable trace is unique, so Sat models can be
/// compared exactly).
Workload exactWorkload(const std::string& inst, const std::vector<int>& q0,
                       const std::vector<int>& q1) {
  Workload w;
  for (std::size_t t = 0; t < q0.size(); ++t) {
    w.add(Workload::countAtStep(inst + ".ibs.0", static_cast<int>(t), q0[t],
                                q0[t]));
    w.add(Workload::countAtStep(inst + ".ibs.1", static_cast<int>(t), q1[t],
                                q1[t]));
  }
  return w;
}

struct Step {
  Workload workload;
  std::string query;
  bool forVerify = false;
};

/// Runs the step sequence once through a single incremental Analysis
/// (rebindWorkload between steps) and once through a fresh Analysis per
/// step; returns both result lists.
std::pair<std::vector<AnalysisResult>, std::vector<AnalysisResult>> runBoth(
    const Network& net, const AnalysisOptions& opts,
    const std::vector<Step>& steps) {
  std::vector<AnalysisResult> incremental;
  Analysis session(net, opts);
  for (const Step& step : steps) {
    session.rebindWorkload(step.workload);
    const Query q = Query::expr(step.query);
    incremental.push_back(step.forVerify ? session.verify(q)
                                         : session.check(q));
  }
  EXPECT_EQ(session.incrementalQueries(), steps.size());

  std::vector<AnalysisResult> fresh;
  for (const Step& step : steps) {
    Analysis analysis(net, opts);
    analysis.setWorkload(step.workload);
    const Query q = Query::expr(step.query);
    fresh.push_back(step.forVerify ? analysis.verify(q) : analysis.check(q));
  }
  return {std::move(incremental), std::move(fresh)};
}

TEST(IncrementalSession, MixedQuerySequenceMatchesFreshSolver) {
  const Network net = schedulerNet(models::kFairQueueBuggy, "fq", 2);
  AnalysisOptions opts;
  opts.horizon = 4;

  std::vector<Step> steps;
  // Deterministic workload A: steady queue 0, burst on queue 1.
  steps.push_back({exactWorkload("fq", {1, 1, 1, 1}, {2, 0, 0, 0}),
                   "fq.cdeq.0[T-1] >= 1", false});
  steps.push_back({exactWorkload("fq", {1, 1, 1, 1}, {2, 0, 0, 0}),
                   "fq.cdeq.0[T-1] + fq.cdeq.1[T-1] <= T", true});
  // Workload B re-bound onto the same encoding: silent queue 0.
  steps.push_back({exactWorkload("fq", {0, 0, 0, 0}, {2, 0, 0, 0}),
                   "fq.cdeq.0[T-1] > 0", false});  // unsat now
  steps.push_back({exactWorkload("fq", {0, 0, 0, 0}, {2, 0, 0, 0}),
                   "fq.cdeq.0[T-1] == 0", true});
  // Workload C: the starvation shape, loose pacing (non-deterministic).
  steps.push_back({starvationWorkload("fq", 4), "fq.cdeq.1[T-1] <= 1",
                   false});
  steps.push_back({starvationWorkload("fq", 4), "fq.cdeq.1[T-1] >= 2",
                   true});  // violated: pacing can starve queue 1
  // Back to workload A — the session must not have been poisoned by the
  // intermediate deltas.
  steps.push_back({exactWorkload("fq", {1, 1, 1, 1}, {2, 0, 0, 0}),
                   "fq.cdeq.0[T-1] >= 1", false});
  steps.push_back({exactWorkload("fq", {1, 1, 1, 1}, {2, 0, 0, 0}),
                   "fq.cdeq.1[T-1] >= T", false});

  const auto [incremental, fresh] = runBoth(net, opts, steps);
  ASSERT_EQ(incremental.size(), fresh.size());
  for (std::size_t i = 0; i < incremental.size(); ++i) {
    EXPECT_EQ(incremental[i].verdict, fresh[i].verdict)
        << "step " << i << ": " << steps[i].query;
  }
}

TEST(IncrementalSession, DeterministicWorkloadTracesMatchExactly) {
  // Under an exact (deterministic) workload the monitor series have a
  // unique reachable value per step, so the model-derived traces of the
  // incremental and fresh paths must agree entry-for-entry with the
  // concrete simulation.
  const Network net = schedulerNet(models::kFairQueueBuggy, "fq", 2);
  AnalysisOptions opts;
  opts.horizon = 3;
  const std::vector<int> q0 = {1, 0, 1};
  const std::vector<int> q1 = {2, 0, 0};

  ConcreteArrivals arrivals;
  for (int t = 0; t < 3; ++t) {
    arrivals["fq.ibs.0"].push_back(
        std::vector<ConcretePacket>(static_cast<std::size_t>(q0[t])));
    arrivals["fq.ibs.1"].push_back(
        std::vector<ConcretePacket>(static_cast<std::size_t>(q1[t])));
  }
  Analysis sim(net, opts);
  const Trace truth = sim.simulate(arrivals);

  Analysis session(net, opts);
  session.rebindWorkload(exactWorkload("fq", q0, q1));
  Analysis freshEngine(net, opts);
  freshEngine.setWorkload(exactWorkload("fq", q0, q1));

  const std::vector<std::string> series = {"fq.cdeq.0", "fq.cdeq.1"};
  for (int round = 0; round < 3; ++round) {
    const auto inc = session.check(Query::always());
    const auto fre = freshEngine.check(Query::always());
    ASSERT_EQ(inc.verdict, Verdict::Satisfiable);
    ASSERT_EQ(fre.verdict, Verdict::Satisfiable);
    for (const std::string& s : series) {
      for (int t = 0; t < 3; ++t) {
        EXPECT_EQ(inc.trace->at(s, t), truth.at(s, t))
            << s << "[" << t << "] round " << round;
        EXPECT_EQ(fre.trace->at(s, t), truth.at(s, t))
            << s << "[" << t << "] round " << round;
      }
    }
  }
  EXPECT_EQ(session.incrementalQueries(), 3u);
}

TEST(IncrementalSession, QueryOrderDoesNotChangeAnswers) {
  // Every query is solved over its own standalone problem, so on one
  // engine the §6.1 starvation check (A) and fairness verify (B) give the
  // same answers in the order A, B as in B, A, and the same as a fresh
  // engine per query. Both are decided by the finite-domain step, whose
  // witness is the first satisfying point with variables ordered by name:
  // it depends on neither term ids nor query order, so the full traces are
  // byte-identical in every order. (A query Z3 answers may get a
  // different, equally valid witness when asked second: Z3's model choice
  // depends on the AST ids of the shared context.)
  const Network net = schedulerNet(models::kFairQueueBuggy, "fq", 2);
  AnalysisOptions opts;
  opts.horizon = 6;
  const int last = opts.horizon - 1;
  const Workload workload = starvationWorkload("fq", opts.horizon);
  const Query starve =
      Query::expr("fq.cdeq.1[T-1] <= 1 & fq.cdeq.0[T-1] >= T-1");
  const Query fair = Query::expr("fq.cdeq.1[T-1] >= 2");
  const auto engine = [&] {
    auto analysis = std::make_unique<Analysis>(net, opts);
    analysis->setWorkload(workload);
    return analysis;
  };

  const auto forward = engine();
  const AnalysisResult starveFirst = forward->check(starve);
  const AnalysisResult fairSecond = forward->verify(fair);
  const auto backward = engine();
  const AnalysisResult fairFirst = backward->verify(fair);
  const AnalysisResult starveSecond = backward->check(starve);
  EXPECT_EQ(forward->incrementalQueries(), 2u);
  EXPECT_EQ(backward->incrementalQueries(), 2u);
  const AnalysisResult starveFresh = engine()->check(starve);
  const AnalysisResult fairFresh = engine()->verify(fair);

  const auto sameAnswer = [](const AnalysisResult& a, const AnalysisResult& b,
                             const char* what) {
    EXPECT_EQ(a.verdict, b.verdict) << what;
    EXPECT_EQ(a.detail, b.detail) << what;
    EXPECT_EQ(a.witnessChecked, b.witnessChecked) << what;
    EXPECT_EQ(a.trace.has_value(), b.trace.has_value()) << what;
  };
  sameAnswer(starveFirst, starveSecond, "starve: A,B vs B,A");
  sameAnswer(fairSecond, fairFirst, "fair: A,B vs B,A");
  sameAnswer(starveFirst, starveFresh, "starve: engine vs fresh");
  sameAnswer(fairFirst, fairFresh, "fair: engine vs fresh");
  ASSERT_EQ(starveFirst.verdict, Verdict::Satisfiable);
  ASSERT_EQ(fairFirst.verdict, Verdict::Violated);

  for (const AnalysisResult* r : {&starveFirst, &starveSecond, &starveFresh,
                                  &fairFirst, &fairSecond, &fairFresh}) {
    ASSERT_EQ(r->attempts.size(), 1u);
    EXPECT_EQ(r->attempts[0].engine, "enumerate");
  }
  const std::string starveTrace = starveFresh.trace->toJson();
  EXPECT_EQ(starveFirst.trace->toJson(), starveTrace);
  EXPECT_EQ(starveSecond.trace->toJson(), starveTrace);
  const std::string fairTrace = fairFresh.trace->toJson();
  EXPECT_EQ(fairFirst.trace->toJson(), fairTrace);
  EXPECT_EQ(fairSecond.trace->toJson(), fairTrace);
  for (const AnalysisResult* r : {&starveFirst, &starveSecond}) {
    EXPECT_TRUE(r->witnessChecked);
    EXPECT_LE(r->trace->at("fq.cdeq.1", last), 1);
    EXPECT_GE(r->trace->at("fq.cdeq.0", last), last);
  }
  for (const AnalysisResult* r : {&fairFirst, &fairSecond}) {
    EXPECT_TRUE(r->witnessChecked);
    EXPECT_LT(r->trace->at("fq.cdeq.1", last), 2);
  }
}

TEST(IncrementalSession, RebindBuildsEncodingOnDemand) {
  // rebindWorkload on a virgin Analysis builds the encoding, and the
  // arena/encoding survive re-binding (same object, new workload terms).
  Analysis analysis(schedulerNet(models::kRoundRobin, "rr", 2), {});
  analysis.rebindWorkload(exactWorkload("rr", {1, 1, 1, 1}, {0, 0, 0, 0}));
  const Encoding* enc = &analysis.encoding();
  const std::size_t termsBefore = enc->arena.size();
  EXPECT_FALSE(enc->workloadTerms.empty());

  analysis.rebindWorkload(Workload{});
  EXPECT_EQ(&analysis.encoding(), enc);
  EXPECT_TRUE(enc->workloadTerms.empty());
  // A re-bind to constraints the arena has already interned adds no terms.
  analysis.rebindWorkload(exactWorkload("rr", {1, 1, 1, 1}, {0, 0, 0, 0}));
  EXPECT_EQ(enc->arena.size(), termsBefore);
}

TEST(IncrementalSession, SetWorkloadStillLockedAfterEncoding) {
  // setWorkload keeps its build-time contract; rebindWorkload is the
  // post-encoding path.
  Analysis analysis(schedulerNet(models::kRoundRobin, "rr", 2), {});
  analysis.check(Query::always());
  EXPECT_THROW(analysis.setWorkload(Workload{}), AnalysisError);
  analysis.rebindWorkload(exactWorkload("rr", {1, 1, 1, 1}, {0, 0, 0, 0}));
  EXPECT_EQ(analysis.check(Query::expr("rr.cdeq.0[T-1] >= 1")).verdict,
            Verdict::Satisfiable);
}

}  // namespace
}  // namespace buffy::core
