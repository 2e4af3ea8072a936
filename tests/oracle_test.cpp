// The small-scope exhaustive oracle (ctest label `oracle`): the native
// solve path decides small finite-domain problems by exhaustive evaluation
// (ir/finite_domain.hpp), and solveViaSmtLib always runs Z3, so the two
// are independent answers to the same problem. For every library
// scheduler model at small horizons, under both buffer models, they must
// agree; every enumerated witness must replay through the interpreter; and
// the problems the enumerator declines must reach Z3 unchanged.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "backends/smtlib/smtlib_emitter.hpp"
#include "backends/z3/z3_backend.hpp"
#include "helpers.hpp"
#include "ir/finite_domain.hpp"

namespace buffy {
namespace {

// ---------------------------------------------------------------------
// The finite-domain step itself, against Z3 on the same constraints.
// ---------------------------------------------------------------------

class FiniteDomain : public ::testing::Test {
 protected:
  /// The enumerated answer, which must exist and agree with Z3's answer
  /// on the emitted SMT-LIB text; a Sat model must satisfy every
  /// constraint.
  ir::FiniteDomainAnswer decide(const std::vector<ir::TermRef>& cs) {
    const auto answer = ir::decideFiniteDomain(cs);
    EXPECT_TRUE(answer.has_value());
    if (!answer) return {};
    backends::SmtLibOptions opts;
    opts.checkSat = false;
    const auto z3 = backend.checkSmtLib(backends::emitSmtLib(cs, opts));
    EXPECT_EQ(z3.status, answer->sat ? backends::SolveStatus::Sat
                                     : backends::SolveStatus::Unsat);
    if (answer->sat) {
      for (const ir::TermRef c : cs) {
        EXPECT_EQ(ir::evalTerm(c, answer->model), 1);
      }
    }
    return *answer;
  }

  ir::TermRef c(std::int64_t v) { return arena.intConst(v); }

  ir::TermArena arena;
  backends::Z3Backend backend;
};

TEST_F(FiniteDomain, ReadsEveryUnitBoundShape) {
  const ir::TermRef a = arena.var("a", ir::Sort::Int);
  const ir::TermRef b = arena.var("b", ir::Sort::Int);
  const ir::TermRef p = arena.var("p", ir::Sort::Bool);
  const ir::TermRef q = arena.var("q", ir::Sort::Bool);
  const ir::TermRef r = arena.var("r", ir::Sort::Bool);
  // a in [1, 2] (c <= x, x < c), b = 5 (x = c), p true, q false, r free;
  // the bounds sit inside a nested conjunction.
  const std::vector<ir::TermRef> cs = {
      arena.mkAnd(arena.le(c(1), a), arena.lt(a, c(3))),
      arena.mkAnd(arena.eq(b, c(5)), arena.mkAnd(p, arena.mkNot(q))),
      arena.le(arena.add(a, b), c(100)),
      arena.implies(r, arena.eq(a, c(2))),
  };
  const auto answer = decide(cs);
  ASSERT_TRUE(answer.sat);
  EXPECT_EQ(answer.points, 1u);  // the box is 2 * 1 * 1 * 1 * 2 points
  EXPECT_EQ(answer.model,
            (ir::Assignment{{"a", 1}, {"b", 5}, {"p", 1}, {"q", 0}, {"r", 0}}));
}

TEST_F(FiniteDomain, WitnessIsFirstPointByNameNotTermId) {
  // `b` is created first, so it has the smaller term id; the enumeration
  // still varies `a` slowest because it comes first by name.
  const ir::TermRef b = arena.var("b", ir::Sort::Int);
  const ir::TermRef a = arena.var("a", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {
      arena.le(c(0), a), arena.le(a, c(2)), arena.le(c(0), b),
      arena.le(b, c(2)), arena.eq(arena.add(a, b), c(2))};
  const auto answer = decide(cs);
  ASSERT_TRUE(answer.sat);
  EXPECT_EQ(answer.model, (ir::Assignment{{"a", 0}, {"b", 2}}));
  EXPECT_EQ(answer.points, 3u);
}

TEST_F(FiniteDomain, UnsatEvaluatesTheWholeBox) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef y = arena.var("y", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {
      arena.le(c(0), x), arena.le(x, c(3)), arena.le(c(0), y),
      arena.le(y, c(4)), arena.eq(arena.add(x, y), c(9))};
  const auto answer = decide(cs);
  EXPECT_FALSE(answer.sat);
  EXPECT_EQ(answer.points, 20u);
}

TEST_F(FiniteDomain, FailingPrefixSkipsItsPoints) {
  // x * x = 25 depends on x alone, so each x != 5 fails after one point;
  // only x = 5 walks its 100 (y, z) points, where y + z = 100 fails.
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef y = arena.var("y", ir::Sort::Int);
  const ir::TermRef z = arena.var("z", ir::Sort::Int);
  std::vector<ir::TermRef> cs;
  for (const ir::TermRef v : {x, y, z}) {
    cs.push_back(arena.le(c(0), v));
    cs.push_back(arena.le(v, c(9)));
  }
  cs.push_back(arena.eq(arena.add(y, z), c(100)));
  cs.push_back(arena.eq(arena.mul(x, x), c(25)));
  const auto answer = decide(cs);
  EXPECT_FALSE(answer.sat);
  EXPECT_EQ(answer.points, 9u + 100u);
}

TEST_F(FiniteDomain, EmptyBoxIsUnsatWithoutEvaluating) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {arena.le(x, c(0)),
                                       arena.le(c(1), x)};
  const auto answer = decide(cs);
  EXPECT_FALSE(answer.sat);
  EXPECT_EQ(answer.points, 0u);
}

TEST_F(FiniteDomain, UsesEuclideanDivisionAndModulo) {
  // Over [-3, 3], only x = -1 has x div 3 = -1 and x mod 3 = 2, and only
  // x = -3 has x div -2 = 2 (Euclidean, not C++ truncation).
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> box = {arena.le(c(-3), x), arena.le(x, c(3))};
  std::vector<ir::TermRef> cs = box;
  cs.push_back(arena.eq(arena.div(x, c(3)), c(-1)));
  cs.push_back(arena.eq(arena.mod(x, c(3)), c(2)));
  EXPECT_EQ(decide(cs).model.at("x"), -1);
  cs = box;
  cs.push_back(arena.eq(arena.div(x, c(-2)), c(2)));
  EXPECT_EQ(decide(cs).model.at("x"), -3);
}

/// Random problems over three small Int boxes and one Bool: the answer,
/// the witness (the first satisfying point in name order) and the point
/// count must match a naive walk of the whole box through ir::evalTerm,
/// and every tenth problem is also checked against Z3. This exercises the
/// incremental recomputation and prefix skipping on arbitrary DAGs.
TEST_F(FiniteDomain, MatchesNaiveWalkOnRandomProblems) {
  std::mt19937 rng(20241);
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  // Created out of name order, so term ids and names disagree.
  const ir::TermRef z = arena.var("z", ir::Sort::Int);
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef p = arena.var("p", ir::Sort::Bool);
  const ir::TermRef y = arena.var("y", ir::Sort::Int);
  const std::vector<ir::TermRef> ints = {x, y, z};
  std::function<ir::TermRef(int)> intTerm;
  std::function<ir::TermRef(int)> boolTerm;
  intTerm = [&](int depth) -> ir::TermRef {
    if (depth == 0 || pick(0, 3) == 0) {
      return pick(0, 2) == 0 ? c(pick(-3, 3)) : ints[pick(0, 2)];
    }
    switch (pick(0, 6)) {
      case 0: return arena.add(intTerm(depth - 1), intTerm(depth - 1));
      case 1: return arena.sub(intTerm(depth - 1), intTerm(depth - 1));
      case 2: return arena.mul(intTerm(depth - 1), intTerm(depth - 1));
      case 3: return arena.div(intTerm(depth - 1), intTerm(depth - 1));
      case 4: return arena.mod(intTerm(depth - 1), intTerm(depth - 1));
      case 5: return arena.neg(intTerm(depth - 1));
      default:
        return arena.ite(boolTerm(depth - 1), intTerm(depth - 1),
                         intTerm(depth - 1));
    }
  };
  boolTerm = [&](int depth) -> ir::TermRef {
    if (depth == 0 || pick(0, 4) == 0) return p;
    switch (pick(0, 6)) {
      case 0: return arena.eq(intTerm(depth - 1), intTerm(depth - 1));
      case 1: return arena.lt(intTerm(depth - 1), intTerm(depth - 1));
      case 2: return arena.le(intTerm(depth - 1), intTerm(depth - 1));
      case 3: return arena.mkAnd(boolTerm(depth - 1), boolTerm(depth - 1));
      case 4: return arena.mkOr(boolTerm(depth - 1), boolTerm(depth - 1));
      case 5: return arena.mkNot(boolTerm(depth - 1));
      default:
        return arena.implies(boolTerm(depth - 1), boolTerm(depth - 1));
    }
  };

  int sat = 0;
  for (int round = 0; round < 300; ++round) {
    std::vector<ir::TermRef> cs;
    std::vector<std::pair<int, int>> box;
    for (const ir::TermRef v : {x, y, z}) {
      const int lo = pick(-3, 2);
      const int hi = pick(lo, 3);
      box.emplace_back(lo, hi);
      cs.push_back(arena.le(c(lo), v));
      cs.push_back(arena.le(v, c(hi)));
    }
    for (int k = pick(1, 3); k > 0; --k) cs.push_back(boolTerm(4));

    std::optional<ir::Assignment> first;
    std::uint64_t size = 0;
    for (int pv = 0; pv <= 1 && !first; ++pv) {
      for (int xv = box[0].first; xv <= box[0].second && !first; ++xv) {
        for (int yv = box[1].first; yv <= box[1].second && !first; ++yv) {
          for (int zv = box[2].first; zv <= box[2].second && !first; ++zv) {
            const ir::Assignment point{
                {"p", pv}, {"x", xv}, {"y", yv}, {"z", zv}};
            bool holds = true;
            for (const ir::TermRef t : cs) holds = holds && evalTerm(t, point);
            if (holds) first = point;
          }
        }
      }
    }
    for (const auto& [lo, hi] : box) {
      size = (size == 0 ? 1 : size) * static_cast<std::uint64_t>(hi - lo + 1);
    }

    const auto answer = ir::decideFiniteDomain(cs);
    ASSERT_TRUE(answer.has_value()) << "round " << round;
    ASSERT_EQ(answer->sat, first.has_value()) << "round " << round;
    EXPECT_LE(answer->points, 2 * size) << "round " << round;
    if (first) {
      ++sat;
      // A variable the simplified constraints no longer mention is absent
      // from the enumerated model (like an unconstrained Z3 variable).
      for (const auto& [name, value] : answer->model) {
        EXPECT_EQ(first->at(name), value) << name << ", round " << round;
      }
    }
    if (round % 10 == 0) {
      backends::SmtLibOptions opts;
      opts.checkSat = false;
      const auto z3 = backend.checkSmtLib(backends::emitSmtLib(cs, opts));
      EXPECT_EQ(z3.status, answer->sat ? backends::SolveStatus::Sat
                                       : backends::SolveStatus::Unsat)
          << "round " << round;
    }
  }
  // Both answers occur often enough to mean something.
  EXPECT_GT(sat, 50);
  EXPECT_LT(sat, 250);
}

// ---------------------------------------------------------------------
// What the enumerator declines reaches Z3 (or cancels) as before.
// ---------------------------------------------------------------------

TEST_F(FiniteDomain, OverflowFallsThroughToZ3) {
  // At the only point, x * INT64_MAX + INT64_MAX leaves int64; over the
  // integers the constraint holds.
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef big = c(std::numeric_limits<std::int64_t>::max());
  const std::vector<ir::TermRef> cs = {
      arena.eq(x, c(1)), arena.lt(c(0), arena.add(arena.mul(x, big), big))};
  EXPECT_FALSE(ir::decideFiniteDomain(cs).has_value());
  const auto result = backend.check(cs);
  EXPECT_EQ(result.status, backends::SolveStatus::Sat);
  EXPECT_EQ(result.engine, "z3");
}

TEST_F(FiniteDomain, UnboundedVariableFallsThroughToZ3) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef y = arena.var("y", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {
      arena.le(c(0), x), arena.le(x, c(3)), arena.le(c(0), y),
      arena.eq(arena.add(x, y), c(40))};
  EXPECT_FALSE(ir::decideFiniteDomain(cs).has_value());
  const auto result = backend.check(cs);
  EXPECT_EQ(result.status, backends::SolveStatus::Sat);
  EXPECT_EQ(result.engine, "z3");
  EXPECT_EQ(result.points, 0u);
}

TEST_F(FiniteDomain, OverBoundBoxFallsThroughToZ3) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const ir::TermRef y = arena.var("y", ir::Sort::Int);
  const std::int64_t side = 1 << 12;  // side^2 points alone exceed the bound
  static_assert(std::uint64_t{1} << 24 > ir::kFiniteDomainWorkBound);
  const std::vector<ir::TermRef> cs = {
      arena.le(c(0), x), arena.lt(x, c(side)), arena.le(c(0), y),
      arena.lt(y, c(side)), arena.eq(arena.add(x, y), c(2 * side - 2))};
  EXPECT_FALSE(ir::decideFiniteDomain(cs).has_value());
  const auto result = backend.check(cs);
  ASSERT_EQ(result.status, backends::SolveStatus::Sat);
  EXPECT_EQ(result.engine, "z3");
  EXPECT_EQ(result.model.at("x"), side - 1);
}

TEST_F(FiniteDomain, EnumeratedQueryReportsItsEngine) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {arena.le(c(0), x), arena.le(x, c(9)),
                                       arena.eq(arena.mul(x, x), c(49))};
  const auto session = backend.openSession();
  const auto result = session->check(cs);
  ASSERT_EQ(result.status, backends::SolveStatus::Sat);
  EXPECT_EQ(result.engine, "enumerate");
  EXPECT_EQ(result.points, 8u);
  EXPECT_EQ(result.model.at("x"), 7);
  EXPECT_EQ(result.rlimitUsed, 0u);
  EXPECT_EQ(session->queryCount(), 1u);
}

TEST_F(FiniteDomain, InterruptBeforeQueryCancelsAnEnumerableQuery) {
  const ir::TermRef x = arena.var("x", ir::Sort::Int);
  const std::vector<ir::TermRef> cs = {arena.le(c(0), x), arena.le(x, c(1))};
  backend.interrupt();
  const auto result = backend.check(cs);
  EXPECT_EQ(result.status, backends::SolveStatus::Unknown);
  EXPECT_TRUE(result.canceled);
}

TEST(OracleEngine, InterruptBeforeQueryCancelsAnEnumerableCheck) {
  core::AnalysisOptions opts;
  opts.horizon = 2;
  core::Analysis engine(
      testing::schedulerNet(models::kRoundRobin, "rr", 2, 4, 2), opts);
  engine.interrupt();
  const auto result = engine.check(core::Query::expr("rr.cdeq.0[T-1] >= 0"));
  EXPECT_EQ(result.verdict, core::Verdict::Unknown);
  EXPECT_TRUE(result.canceled);
  EXPECT_EQ(engine.incrementalQueries(), 0u);
}

// ---------------------------------------------------------------------
// Native (enumerated) vs solveViaSmtLib (Z3) over the model library.
// ---------------------------------------------------------------------

struct OracleCase {
  const char* source;
  const char* name;  // fq_buggy, fq_fixed, rr, sp
  const char* inst;
  buffers::ModelKind model;
  int horizon;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << c.name << '_'
      << (c.model == buffers::ModelKind::List ? "list" : "counter") << "_T"
      << c.horizon;
}

class LibraryOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(LibraryOracle, NativeAndSmtLibAgree) {
  const OracleCase& oc = GetParam();
  const std::string inst = oc.inst;
  core::AnalysisOptions opts;
  opts.horizon = oc.horizon;
  opts.model = oc.model;
  const core::Network net = testing::schedulerNet(oc.source, oc.inst, 2, 4, 2);
  // A check that queue 1 is served while queue 0 misses a step
  // (UNSATISFIABLE at T=1, SATISFIABLE after), and a verify of the
  // one-packet-per-step output bound (VERIFIED: the whole box is
  // evaluated).
  const core::Query served =
      core::Query::expr(inst + ".cdeq.1[T-1] >= 1 & " + inst +
                        ".cdeq.0[T-1] <= " + std::to_string(oc.horizon - 2));
  const core::Query bounded = core::Query::expr(
      inst + ".cdeq.0[T-1] + " + inst + ".cdeq.1[T-1] <= T");

  for (const bool forVerify : {false, true}) {
    const core::Query& query = forVerify ? bounded : served;
    core::Analysis native(net, opts);
    const core::AnalysisResult a =
        forVerify ? native.verify(query) : native.check(query);
    core::Analysis text(net, opts);
    const core::AnalysisResult b = text.solveViaSmtLib(query, forVerify);
    const char* what = forVerify ? "verify" : "check";
    EXPECT_EQ(a.verdict, forVerify ? core::Verdict::Verified
                         : oc.horizon == 1 ? core::Verdict::Unsatisfiable
                                           : core::Verdict::Satisfiable)
        << what;
    EXPECT_EQ(a.verdict, b.verdict) << what;
    ASSERT_EQ(a.attempts.size(), 1u) << what;
    EXPECT_EQ(a.attempts[0].engine, "enumerate") << what;
    EXPECT_GT(a.attempts[0].points, 0u) << what;
    if (a.trace) EXPECT_TRUE(a.witnessChecked) << what;
  }
}

std::vector<OracleCase> libraryCases() {
  struct Model {
    const char* source;
    const char* name;
    const char* inst;
  };
  const Model models[] = {
      {models::kFairQueueBuggy, "fq_buggy", "fq"},
      {models::kFairQueueFixed, "fq_fixed", "fq"},
      {models::kRoundRobin, "rr", "rr"},
      {models::kStrictPriority, "sp", "sp"},
  };
  std::vector<OracleCase> out;
  for (const Model& m : models) {
    for (const auto kind : {buffers::ModelKind::List,
                            buffers::ModelKind::Counter}) {
      for (int horizon = 1; horizon <= 3; ++horizon) {
        out.push_back({m.source, m.name, m.inst, kind, horizon});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Models, LibraryOracle,
                         ::testing::ValuesIn(libraryCases()));

}  // namespace
}  // namespace buffy
