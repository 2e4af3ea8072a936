#include "backends/smtlib/smtlib_emitter.hpp"

#include <gtest/gtest.h>

#include "backends/z3/z3_backend.hpp"
#include "core/analysis.hpp"
#include "helpers.hpp"
#include "support/error.hpp"

namespace buffy::backends {
namespace {

class SmtLibTest : public ::testing::Test {
 protected:
  ir::TermArena arena;
};

TEST_F(SmtLibTest, DeclaresVariables) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef p = arena.var("p", ir::Sort::Bool);
  const std::vector<ir::TermRef> cs = {
      arena.mkAnd(p, arena.gt(x, arena.intConst(0)))};
  const std::string text = emitSmtLib(cs);
  EXPECT_NE(text.find("(declare-const x Int)"), std::string::npos) << text;
  EXPECT_NE(text.find("(declare-const p Bool)"), std::string::npos);
  EXPECT_NE(text.find("(check-sat)"), std::string::npos);
  EXPECT_NE(text.find("(set-logic QF_LIA)"), std::string::npos);
}

TEST_F(SmtLibTest, QuotesExoticSymbols) {
  const ir::TermRef v = arena.var("fq.ibs.0.t0.n", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {arena.ge(v, arena.intConst(0))};
  const std::string text = emitSmtLib(cs);
  EXPECT_NE(text.find("|fq.ibs.0.t0.n|"), std::string::npos) << text;
}

TEST_F(SmtLibTest, SharedSubtermsBecomeLetBindings) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef shared = arena.mul(x, x);
  const std::vector<ir::TermRef> cs = {
      arena.gt(arena.add(shared, shared), arena.intConst(0))};
  const std::string text = emitSmtLib(cs);
  EXPECT_NE(text.find("(let (($t"), std::string::npos) << text;
  // Purely syntactic sharing: no auxiliary constants are declared.
  EXPECT_EQ(text.find("(declare-const $t"), std::string::npos) << text;
}

TEST_F(SmtLibTest, DefineModeUsesDeclaredConstants) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef shared = arena.mul(x, x);
  const std::vector<ir::TermRef> cs = {
      arena.gt(arena.add(shared, shared), arena.intConst(0))};
  SmtLibOptions opts;
  opts.sharing = SmtLibSharing::Define;
  const std::string text = emitSmtLib(cs, opts);
  EXPECT_NE(text.find("(declare-const $t"), std::string::npos) << text;
  EXPECT_NE(text.find("(assert (= $t"), std::string::npos);
}

// Acceptance check for the shared-subterm emitter: on a deeply shared ite
// chain (each level references the previous one twice), the let-sharing
// script stays linear in the DAG while the tree expansion is exponential.
TEST_F(SmtLibTest, LetSharingStaysLinearOnSharedIteChains) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  ir::TermRef level = x;
  for (int i = 0; i < 18; ++i) {
    // Each step references the previous level twice: the DAG grows by one
    // node per step while the expanded tree doubles.
    level = arena.ite(arena.le(x, arena.intConst(i)),
                      arena.add(level, arena.intConst(1)),
                      arena.sub(level, arena.intConst(1)));
  }
  const std::vector<ir::TermRef> cs = {arena.ge(level, arena.intConst(0))};

  SmtLibOptions let;
  const std::string shared = emitSmtLib(cs, let);
  SmtLibOptions expand;
  expand.sharing = SmtLibSharing::Expand;
  const std::string tree = emitSmtLib(cs, expand);

  // 18 doublings: the tree text is thousands of times larger.
  EXPECT_GT(tree.size(), shared.size() * 1000) << shared.size();
  // And both scripts still agree with the native lowering's verdict.
  Z3Backend backend;
  const auto native = backend.check(cs);
  SmtLibOptions noCheck = let;
  noCheck.checkSat = false;
  EXPECT_EQ(backend.checkSmtLib(emitSmtLib(cs, noCheck)).status,
            native.status);
}

TEST_F(SmtLibTest, OptionsControlOutput) {
  SmtLibOptions opts;
  opts.checkSat = false;
  opts.logic.clear();
  opts.comment = "hello\nworld";
  const std::vector<ir::TermRef> cs = {arena.trueTerm()};
  const std::string text = emitSmtLib(cs, opts);
  EXPECT_EQ(text.find("(check-sat)"), std::string::npos);
  EXPECT_EQ(text.find("set-logic"), std::string::npos);
  EXPECT_NE(text.find("; hello"), std::string::npos);
  EXPECT_NE(text.find("; world"), std::string::npos);
}

TEST_F(SmtLibTest, GetModelEmitted) {
  SmtLibOptions opts;
  opts.getModel = true;
  const std::vector<ir::TermRef> cs = {arena.trueTerm()};
  EXPECT_NE(emitSmtLib(cs, opts).find("(get-model)"), std::string::npos);
}

TEST_F(SmtLibTest, NonBooleanRejected) {
  const std::vector<ir::TermRef> cs = {arena.intConst(3)};
  EXPECT_THROW(emitSmtLib(cs), BackendError);
}

TEST_F(SmtLibTest, NegativeConstantsWellFormed) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {arena.eq(x, arena.intConst(-5))};
  const std::string text = emitSmtLib(cs);
  EXPECT_NE(text.find("(- 5)"), std::string::npos) << text;
}

// Round-trip property: the emitted script re-parsed by Z3 yields the same
// verdict as the native lowering, and the model satisfies the terms.
class RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RoundTrip, EmitReparseAgreesWithNative) {
  ir::TermArena arena;
  Z3Backend backend;
  const int seed = GetParam();

  // A small pseudo-random constraint system.
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef y = arena.var("y", ir::Sort::Int);
  const ir::TermRef p = arena.var("p", ir::Sort::Bool);
  std::vector<ir::TermRef> cs = {
      arena.eq(arena.add(x, arena.mul(y, arena.intConst(seed % 5 + 1))),
               arena.intConst(seed)),
      arena.ite(p, arena.gt(x, arena.intConst(0)),
                arena.lt(x, arena.intConst(0))),
      arena.le(arena.mod(y, arena.intConst(3)), arena.intConst(seed % 3)),
  };
  if (seed % 2 == 0) {
    cs.push_back(arena.implies(p, arena.eq(y, arena.intConst(seed / 2))));
  }

  const auto native = backend.check(cs);
  SmtLibOptions opts;
  opts.checkSat = false;
  const auto reparsed = backend.checkSmtLib(emitSmtLib(cs, opts));
  EXPECT_EQ(native.status, reparsed.status);
  if (reparsed.status == SolveStatus::Sat) {
    for (const ir::TermRef c : cs) {
      EXPECT_EQ(ir::evalTerm(c, reparsed.model), 1);
    }
  }
}

// The IR defines x div 0 = x mod 0 = 0, as the native lowering does;
// SMT-LIB leaves division by zero unspecified, so the text guards it.
TEST_F(SmtLibTest, DivisionByZeroKeepsIrSemantics) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef y = arena.var("y", ir::Sort::Int);
  Z3Backend backend;
  SmtLibOptions opts;
  opts.checkSat = false;
  for (const ir::TermRef q : {arena.div(x, y), arena.mod(x, y)}) {
    const std::vector<ir::TermRef> cs = {arena.eq(y, arena.intConst(0)),
                                         arena.eq(q, arena.intConst(5))};
    EXPECT_EQ(backend.check(cs).status, SolveStatus::Unsat);
    EXPECT_EQ(backend.checkSmtLib(emitSmtLib(cs, opts)).status,
              SolveStatus::Unsat);
  }
}

// Binding names follow the text, not arena term ids: the script for a
// query is byte-identical on a fresh engine and on one whose arena already
// holds another query's terms.
TEST(SmtLibExport, TextDoesNotDependOnEarlierQueries) {
  const core::Network net =
      buffy::testing::schedulerNet(models::kFairQueueBuggy, "fq", 2);
  core::AnalysisOptions opts;
  opts.horizon = 6;
  const core::Query starve =
      core::Query::expr("fq.cdeq.1[T-1] <= 1 & fq.cdeq.0[T-1] >= T-1");
  const core::Query fair = core::Query::expr("fq.cdeq.1[T-1] >= 2");

  core::Analysis fresh(net, opts);
  fresh.setWorkload(buffy::testing::starvationWorkload("fq", opts.horizon));
  const std::string expected = fresh.toSmtLib(starve, false);

  core::Analysis used(net, opts);
  used.setWorkload(buffy::testing::starvationWorkload("fq", opts.horizon));
  ASSERT_EQ(used.verify(fair).verdict, core::Verdict::Violated);
  EXPECT_EQ(used.toSmtLib(starve, false), expected);
  EXPECT_NE(expected.find("(let (($t0 "), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTrip,
                         ::testing::Values(0, 1, 2, 7, 12, 33, 100));

}  // namespace
}  // namespace buffy::backends
