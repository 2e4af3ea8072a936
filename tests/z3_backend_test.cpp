#include "backends/z3/z3_backend.hpp"

#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "helpers.hpp"
#include "support/error.hpp"

namespace buffy::backends {
namespace {

class Z3Test : public ::testing::Test {
 protected:
  ir::TermArena arena;
  Z3Backend backend;
};

TEST_F(Z3Test, TrivialSat) {
  const std::vector<ir::TermRef> cs = {arena.trueTerm()};
  EXPECT_EQ(backend.check(cs).status, SolveStatus::Sat);
}

TEST_F(Z3Test, TrivialUnsat) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {
      arena.lt(x, arena.intConst(0)), arena.gt(x, arena.intConst(0))};
  EXPECT_EQ(backend.check(cs).status, SolveStatus::Unsat);
}

TEST_F(Z3Test, ModelExtraction) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef p = arena.var("p", ir::Sort::Bool);
  const std::vector<ir::TermRef> cs = {
      arena.eq(x, arena.intConst(42)), p};
  const auto result = backend.check(cs);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_EQ(result.model.at("x"), 42);
  EXPECT_EQ(result.model.at("p"), 1);
  EXPECT_GE(result.seconds, 0.0);
}

TEST_F(Z3Test, ModelSatisfiesConstraintsViaTermEval) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef y = arena.var("y", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {
      arena.eq(arena.add(x, y), arena.intConst(10)),
      arena.lt(x, y),
      arena.ge(x, arena.intConst(0))};
  const auto result = backend.check(cs);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  for (const ir::TermRef c : cs) {
    EXPECT_EQ(ir::evalTerm(c, result.model), 1);
  }
}

TEST_F(Z3Test, DivisionSemanticsMatchIr) {
  // Z3's div/mod on the lowered terms must agree with our Euclidean fold.
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  for (const std::int64_t a : {7, -7}) {
    for (const std::int64_t b : {2, -2}) {
      const ir::TermRef q =
          arena.div(arena.var("a" + std::to_string(a) + std::to_string(b),
                              ir::Sort::Int),
                    arena.intConst(b));
      (void)q;
      const std::vector<ir::TermRef> cs = {
          arena.eq(x, arena.div(arena.intConst(a), arena.intConst(b)))};
      const auto result = backend.check(cs);
      ASSERT_EQ(result.status, SolveStatus::Sat);
      EXPECT_EQ(result.model.at("x"), ir::euclideanDiv(a, b))
          << a << " div " << b;
    }
  }
}

TEST_F(Z3Test, DivisionByZeroGuardedToZero) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef z = arena.var("z", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {
      arena.eq(z, arena.intConst(0)),
      arena.eq(x, arena.div(arena.intConst(5), z))};
  const auto result = backend.check(cs);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_EQ(result.model.at("x"), 0);
}

TEST_F(Z3Test, IteLowering) {
  const ir::TermRef p = arena.var("p", ir::Sort::Bool);
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {
      arena.mkNot(p),
      arena.eq(x, arena.ite(p, arena.intConst(1), arena.intConst(2)))};
  const auto result = backend.check(cs);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_EQ(result.model.at("x"), 2);
}

TEST_F(Z3Test, NonBooleanConstraintRejected) {
  const std::vector<ir::TermRef> cs = {arena.intConst(1)};
  EXPECT_THROW(backend.check(cs), BackendError);
}

TEST_F(Z3Test, SmtLibParseAndSolve) {
  const auto result = backend.checkSmtLib(
      "(declare-const a Int)(assert (> a 5))(assert (< a 7))");
  EXPECT_EQ(result.status, SolveStatus::Sat);
  EXPECT_EQ(result.model.at("a"), 6);
}

TEST_F(Z3Test, SmtLibParseErrorThrows) {
  EXPECT_THROW(backend.checkSmtLib("(assert (nonsense"), BackendError);
}

TEST_F(Z3Test, SessionBasePersistsAndExtrasRetract) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> base = {arena.ge(x, arena.intConst(0))};
  const auto session = backend.openSession(base);

  // base ∧ x<0 is unsat...
  const std::vector<ir::TermRef> neg = {arena.lt(x, arena.intConst(0))};
  EXPECT_EQ(session->check(neg).status, SolveStatus::Unsat);
  // ...and retracted: base ∧ x==7 is sat again on the same session.
  const std::vector<ir::TermRef> eq7 = {arena.eq(x, arena.intConst(7))};
  const auto sat = session->check(eq7);
  ASSERT_EQ(sat.status, SolveStatus::Sat);
  EXPECT_EQ(sat.model.at("x"), 7);
  EXPECT_EQ(session->queryCount(), 2u);
  // The lowering memo persisted across the queries.
  EXPECT_GT(session->loweredTermCount(), 0u);
}

TEST_F(Z3Test, SessionAssertBaseAccumulates) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const auto session = backend.openSession();
  const std::vector<ir::TermRef> ge0 = {arena.ge(x, arena.intConst(0))};
  session->assertBase(ge0);
  EXPECT_EQ(session->check({}).status, SolveStatus::Sat);
  const std::vector<ir::TermRef> lt0 = {arena.lt(x, arena.intConst(0))};
  session->assertBase(lt0);
  EXPECT_EQ(session->check({}).status, SolveStatus::Unsat);
}

TEST_F(Z3Test, SessionMatchesOneShotOnQuerySequence) {
  // Differential: 8 queries through one session == 8 one-shot solves.
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef y = arena.var("y", ir::Sort::Int);
  const std::vector<ir::TermRef> base = {
      arena.ge(x, arena.intConst(0)), arena.le(x, arena.intConst(10)),
      arena.eq(y, arena.add(x, arena.intConst(1)))};
  const auto session = backend.openSession(base);
  for (int k = 0; k < 8; ++k) {
    const std::vector<ir::TermRef> extra = {
        arena.eq(arena.mod(x, arena.intConst(3)), arena.intConst(k % 3)),
        arena.ge(y, arena.intConst(k))};
    std::vector<ir::TermRef> oneShot = base;
    oneShot.insert(oneShot.end(), extra.begin(), extra.end());
    const auto viaSession = session->check(extra);
    const auto viaFresh = backend.check(oneShot);
    EXPECT_EQ(viaSession.status, viaFresh.status) << "query " << k;
    if (viaSession.status == SolveStatus::Sat) {
      // Models may differ; both must satisfy the constraints.
      for (const ir::TermRef c : oneShot) {
        EXPECT_EQ(ir::evalTerm(c, viaSession.model), 1) << "query " << k;
        EXPECT_EQ(ir::evalTerm(c, viaFresh.model), 1) << "query " << k;
      }
    }
  }
}

TEST_F(Z3Test, ModelOverflowRecordedNotDropped) {
  // A model value that does not fit int64 must be reported, not silently
  // skipped (it would otherwise surface as a stale/absent trace entry).
  const auto result = backend.checkSmtLib(
      "(declare-const a Int)(assert (= a 36893488147419103232))");  // 2^65
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_EQ(result.model.count("a"), 0u);
  ASSERT_EQ(result.overflowVars.size(), 1u);
  EXPECT_EQ(result.overflowVars[0], "a");
}

TEST_F(Z3Test, LargeDagLowersStackSafely) {
  ir::TermRef acc = arena.var("v", ir::Sort::Int);
  for (int i = 0; i < 50000; ++i) acc = arena.add(acc, arena.intConst(1));
  const std::vector<ir::TermRef> cs = {arena.eq(acc, arena.intConst(50000))};
  const auto result = backend.check(cs);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_EQ(result.model.at("v"), 0);
}

// --- Resilience layer (DESIGN.md §8) --------------------------------

TEST_F(Z3Test, BudgetReportsRlimitConsumption) {
  // `x` has no upper bound, so the finite-domain step declines and the
  // query reaches Z3 (a bounded `x == 7` would be enumerated, at 0 rlimit).
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {arena.gt(x, arena.intConst(7))};
  SolveBudget budget;
  budget.rlimit = 100000000;
  const auto result = backend.check(cs, budget);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_EQ(result.engine, "z3");
  EXPECT_GT(result.rlimitUsed, 0u);
}

TEST_F(Z3Test, TinyRlimitYieldsUnknownNotCrash) {
  // A deliberately hard problem under a starvation-level rlimit: the
  // solver must give up cleanly (Unknown), never abort. Deterministic,
  // unlike a wall-clock timeout.
  std::string smt = "(declare-const a Int)(declare-const b Int)"
                    "(declare-const c Int)"
                    "(assert (and (> a 1) (> b 1) (> c 1)"
                    " (= (* a a a) (+ (* b b b) (* c c c)))))";
  SolveBudget budget;
  budget.rlimit = 1000;
  const auto result = backend.checkSmtLib(smt, budget);
  EXPECT_EQ(result.status, SolveStatus::Unknown);
  EXPECT_FALSE(result.canceled);
  EXPECT_FALSE(result.reason.empty());
}

TEST_F(Z3Test, RandomSeedIsAccepted) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {arena.gt(x, arena.intConst(0))};
  SolveBudget budget;
  budget.randomSeed = 17;
  EXPECT_EQ(backend.check(cs, budget).status, SolveStatus::Sat);
}

TEST_F(Z3Test, InterruptIsPermanentAndCanceledResultsSayWhy) {
  const std::vector<ir::TermRef> cs = {arena.trueTerm()};
  EXPECT_EQ(backend.check(cs).status, SolveStatus::Sat);
  backend.interrupt();
  EXPECT_TRUE(backend.interrupted());
  const auto result = backend.check(cs);
  EXPECT_EQ(result.status, SolveStatus::Unknown);
  EXPECT_TRUE(result.canceled);
  // Still cancelled on the next query, and on sessions.
  EXPECT_TRUE(backend.check(cs).canceled);
  auto session = backend.openSession();
  EXPECT_TRUE(session->check(cs).canceled);
}

TEST_F(Z3Test, InterruptBeforeFirstQueryCancelsEveryPath) {
  // The Z3 context is created on the first query, so a fresh backend has
  // none when it is interrupted: that must not crash, and every later
  // query path must report a cancellation rather than solve.
  Z3Backend fresh;
  fresh.interrupt();
  EXPECT_TRUE(fresh.interrupted());
  const std::vector<ir::TermRef> cs = {arena.trueTerm()};
  EXPECT_TRUE(fresh.check(cs).canceled);
  const auto viaText = fresh.checkSmtLib("(assert true)");
  EXPECT_EQ(viaText.status, SolveStatus::Unknown);
  EXPECT_TRUE(viaText.canceled);
  const auto session = fresh.openSession(cs);
  EXPECT_TRUE(session->check(cs).canceled);
}

TEST(Z3LazyContext, WarmCacheHitNeverReachesTheSolver) {
  core::AnalysisOptions opts;
  opts.horizon = 3;
  opts.cache = std::make_shared<cache::VerdictCache>();
  const core::Query query = core::Query::expr("fq.cdeq.0[T-1] >= 1");
  const core::Network net =
      buffy::testing::schedulerNet(models::kFairQueueBuggy, "fq", 2);

  core::Analysis cold(net, opts);
  const core::AnalysisResult first = cold.check(query);
  EXPECT_FALSE(first.cached);
  EXPECT_EQ(cold.incrementalQueries(), 1u);

  core::Analysis warm(net, opts);
  const core::AnalysisResult second = warm.check(query);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.verdict, first.verdict);
  EXPECT_EQ(warm.incrementalQueries(), 0u);
}

TEST_F(Z3Test, SessionBudgetOverridePerQuery) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {arena.gt(x, arena.intConst(3))};
  SolveBudget tight;
  tight.rlimit = 100000000;
  auto session = backend.openSession({}, tight);
  const auto r1 = session->check(cs);
  ASSERT_EQ(r1.status, SolveStatus::Sat);
  SolveBudget seeded = tight;
  seeded.randomSeed = 99;
  EXPECT_EQ(session->check(cs, seeded).status, SolveStatus::Sat);
}

TEST_F(Z3Test, FaultPlanForcesUnknownAtScopedOrdinal) {
  auto plan = std::make_shared<FaultPlan>();
  plan->forceUnknown("", 1, "injected");
  backend.setFaultPlan(plan);
  const std::vector<ir::TermRef> cs = {arena.trueTerm()};
  EXPECT_EQ(backend.check(cs).status, SolveStatus::Sat);  // ordinal 0
  const auto faulted = backend.check(cs);                 // ordinal 1
  EXPECT_EQ(faulted.status, SolveStatus::Unknown);
  EXPECT_EQ(faulted.reason, "injected");
  EXPECT_FALSE(faulted.canceled);
  EXPECT_EQ(backend.check(cs).status, SolveStatus::Sat);  // ordinal 2
}

TEST_F(Z3Test, FaultPlanThrowAndScopes) {
  auto plan = std::make_shared<FaultPlan>();
  plan->at("s1", 0, {FaultAction::Kind::Throw, "boom", 0});
  backend.setFaultPlan(plan);
  const std::vector<ir::TermRef> cs = {arena.trueTerm()};
  EXPECT_EQ(backend.check(cs).status, SolveStatus::Sat);  // default scope
  backend.setFaultScope("s1");
  EXPECT_THROW(backend.check(cs), BackendError);
  backend.setFaultScope("");
  EXPECT_EQ(backend.check(cs).status, SolveStatus::Sat);
}

TEST_F(Z3Test, CorruptWitnessTagPropagates) {
  auto plan = std::make_shared<FaultPlan>();
  plan->at("", 0, {FaultAction::Kind::CorruptWitness, "", 0});
  backend.setFaultPlan(plan);
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {arena.eq(x, arena.intConst(5))};
  const auto result = backend.check(cs);
  ASSERT_EQ(result.status, SolveStatus::Sat);
  EXPECT_TRUE(result.corruptWitness);
  EXPECT_EQ(result.model.at("x"), 5);  // the model itself is untouched
}

}  // namespace
}  // namespace buffy::backends
