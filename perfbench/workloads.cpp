#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "backends/chc/chc_backend.hpp"
#include "cache/verdict_cache.hpp"
#include "core/analysis.hpp"
#include "core/sweep.hpp"
#include "models/library.hpp"
#include "pipeline/driver.hpp"
#include "synth/synthesizer.hpp"

namespace perfbench {
namespace {

using namespace buffy;

/// Per-query limit for Z3 and for Spacer. The slowest op is ~1.5 s, so a
/// query that reaches it is a failure, not a slow success.
constexpr unsigned kQueryLimitMs = 30000;

core::AnalysisOptions optionsAt(int horizon) {
  core::AnalysisOptions o;
  o.horizon = horizon;
  o.timeoutMs = kQueryLimitMs;
  // An Unknown is a failed op. The retry ladder would only re-run it with
  // larger budgets and push a failing run past its time limit.
  o.retry.enabled = false;
  // Z3's random seed stays at its default: the workload seed only
  // permutes inputs. The verdict cache is off except in cached_replay.
  o.cache = nullptr;
  return o;
}

// ---------------------------------------------------------------------
// Networks and queries of the paper's case studies.
// ---------------------------------------------------------------------

core::BufferSpec input(const char* param, int capacity,
                       int maxArrivalsPerStep = 2) {
  core::BufferSpec b;
  b.param = param;
  b.role = core::BufferSpec::Role::Input;
  b.capacity = capacity;
  b.maxArrivalsPerStep = maxArrivalsPerStep;
  return b;
}

core::BufferSpec output(const char* param, int capacity) {
  core::BufferSpec b;
  b.param = param;
  b.role = core::BufferSpec::Role::Output;
  b.capacity = capacity;
  return b;
}

/// §6.1 / Figure 4: the FQ scheduler over N=2 input queues.
core::Network fqNet(const char* source) {
  core::ProgramSpec spec;
  spec.instance = "fq";
  spec.source = source;
  spec.compile.constants["N"] = 2;
  spec.compile.defaultListCapacity = 2;
  spec.buffers = {
      input("ibs", 6, 3),
      output("ob", 32),
  };
  core::Network net;
  net.add(spec);
  return net;
}

/// §6.1's workload: queue 0 free to pace itself, queue 1 a standing burst
/// of 3 at step 0 and nothing after.
core::Workload starvationWorkload(int horizon) {
  core::Workload w;
  w.add(core::Workload::perStepCount("fq.ibs.0", 0, 1));
  w.add(core::Workload::countAtStep("fq.ibs.1", 0, 3, 3));
  for (int t = 1; t < horizon; ++t) {
    w.add(core::Workload::countAtStep("fq.ibs.1", t, 0, 0));
  }
  return w;
}

/// §6.2 / Figure 7: AIMD CCA -> token-bucket path server -> delay server
/// -> back to the CCA, with a path buffer of `pathCapacity` packets.
core::Network ccacNet(int pathCapacity) {
  core::ProgramSpec cca;
  cca.instance = "cca";
  cca.source = models::kAimdCca;
  cca.compile.constants["RTO"] = 3;
  cca.buffers = {
      input("ind", 16, 4),
      input("inack", 16),
      output("out", 16),
      output("ackdrain", 16),
  };
  core::ProgramSpec path;
  path.instance = "path";
  path.source = models::kPathServer;
  path.compile.constants["RATE"] = 2;
  path.compile.constants["BUCKET"] = 4;
  path.buffers = {
      input("pin", pathCapacity),
      output("pout", 16),
  };
  core::ProgramSpec delay;
  delay.instance = "delay";
  delay.source = models::kDelayServer;
  delay.buffers = {
      input("din", 16),
      output("dout", 16),
  };
  core::Network net;
  net.add(cca).add(path).add(delay);
  net.connect("cca", "out", "path", "pin");
  net.connect("path", "pout", "delay", "din");
  net.connect("delay", "dout", "cca", "inack");
  return net;
}

/// Ablation D: the round-robin scheduler over N=2 input queues.
core::Network rrNet() {
  core::ProgramSpec spec;
  spec.instance = "rr";
  spec.source = models::kRoundRobin;
  spec.compile.constants["N"] = 2;
  spec.compile.defaultListCapacity = 2;
  spec.buffers = {
      input("ibs", 4, 2),
      output("ob", 16),
  };
  core::Network net;
  net.add(spec);
  return net;
}

/// Figure 6 / ablation D bounded property: every packet that arrived at
/// `inst`'s two input queues was sent, is still queued, or was dropped.
core::Query conservation(const std::string& inst) {
  return core::Query::custom(
      inst + " conservation",
      [inst](const core::SeriesView& view, ir::TermArena& arena) {
        const std::string in0 = inst + ".ibs.0";
        const std::string in1 = inst + ".ibs.1";
        ir::TermRef arrived = arena.intConst(0);
        ir::TermRef out = arena.intConst(0);
        for (int t = 0; t < view.horizon(); ++t) {
          const auto step = static_cast<std::size_t>(t);
          for (const std::string& buf : {in0, in1}) {
            arrived = arena.add(arrived, view.find(buf + ".arrived")->at(step));
          }
          out = arena.add(out, view.find(inst + ".ob.out")->at(step));
        }
        const auto last = static_cast<std::size_t>(view.horizon() - 1);
        ir::TermRef backlog = arena.intConst(0);
        ir::TermRef dropped = arena.intConst(0);
        for (const std::string& buf : {in0, in1}) {
          backlog = arena.add(backlog, view.find(buf + ".backlog")->at(last));
          dropped = arena.add(dropped, view.find(buf + ".dropped")->at(last));
        }
        return arena.eq(arrived, arena.add(out, arena.add(backlog, dropped)));
      });
}

/// Ablation D unbounded property, over the ghost cumulative counters.
constexpr const char* kRrStateConservation =
    "rr.ibs.0.arrivedTotal[0] + rr.ibs.1.arrivedTotal[0] == "
    "rr.ob.outTotal[0] + rr.ibs.0.pkts[0] + rr.ibs.1.pkts[0] + "
    "rr.ibs.0.dropped[0] + rr.ibs.1.dropped[0] + rr.ob.pkts[0] + "
    "rr.ob.dropped[0]";

// ---------------------------------------------------------------------
// The known-answer oracle.
// ---------------------------------------------------------------------

/// One paper query with its known answer. Bounded cases solve `query`
/// at `horizon`; Spacer cases (non-empty `property`) prove it for every
/// horizon.
struct Case {
  std::string id;
  std::string source;  // where in the paper the answer comes from
  core::Network network;
  int horizon = 0;
  bool verify = false;
  core::Workload workload;
  std::optional<core::Query> query;
  std::string property;
  std::string expected;  // verdictName / chcStatusName

  [[nodiscard]] bool chc() const { return !property.empty(); }
};

std::vector<Case> paperCases() {
  const core::Query starve = core::Query::expr(
      "fq.cdeq.0[T-1] >= T-1 & fq.cdeq.1[T-1] <= 1 & "
      "fq.ibs.1.backlog[T-1] > 0");
  const core::Query fair = core::Query::expr("fq.cdeq.1[T-1] >= 2");
  const core::Query loss = core::Query::expr("path.pin.dropped[T-1] > 0");
  core::Workload ccacLoad;
  ccacLoad.add(core::Workload::perStepCount("cca.ind", 4, 4));

  std::vector<Case> cases;
  auto bounded = [&](std::string id, std::string source, core::Network net,
                     int horizon, bool verify, core::Workload load,
                     const core::Query& query, core::Verdict expected) {
    Case c;
    c.id = std::move(id);
    c.source = std::move(source);
    c.network = std::move(net);
    c.horizon = horizon;
    c.verify = verify;
    c.workload = std::move(load);
    c.query = query;
    c.expected = core::verdictName(expected);
    cases.push_back(std::move(c));
  };
  auto spacer = [&](std::string id, std::string source, std::string property,
                    backends::ChcStatus expected) {
    Case c;
    c.id = std::move(id);
    c.source = std::move(source);
    c.network = rrNet();
    c.property = std::move(property);
    c.expected = backends::chcStatusName(expected);
    cases.push_back(std::move(c));
  };

  using V = core::Verdict;
  bounded("s6.1-buggy-starve-check",
          "§6.1: the Figure 4 FQ admits a starvation trace",
          fqNet(models::kFairQueueBuggy), 6, false, starvationWorkload(6),
          starve, V::Satisfiable);
  bounded("s6.1-buggy-fair-verify",
          "§6.1: so 'cdeq1 >= 2' fails on the Figure 4 FQ",
          fqNet(models::kFairQueueBuggy), 6, true, starvationWorkload(6),
          fair, V::Violated);
  bounded("s6.1-fixed-starve-check",
          "§6.1: the RFC 8290 fix has no starvation trace",
          fqNet(models::kFairQueueFixed), 6, false, starvationWorkload(6),
          starve, V::Unsatisfiable);
  bounded("s6.1-fixed-fair-verify",
          "§6.1: the RFC 8290 fix serves queue 1 ('cdeq1 >= 2')",
          fqNet(models::kFairQueueFixed), 6, true, starvationWorkload(6),
          fair, V::Verified);
  bounded("s6.2-ccac-loss-pathbuf3",
          "§6.2: an ack burst overflows a 3-packet path buffer", ccacNet(3),
          7, false, ccacLoad, loss, V::Satisfiable);
  bounded("s6.2-ccac-loss-pathbuf6",
          "§6.2: a 6-packet path buffer absorbs the burst at T=7",
          ccacNet(6), 7, false, ccacLoad, loss, V::Unsatisfiable);
  bounded("s6.2-ccac-loss-pathbuf24",
          "§6.2: a window-sized path buffer never drops", ccacNet(24), 7,
          false, ccacLoad, loss, V::Unsatisfiable);
  bounded("fig6-fq-conservation-T2",
          "Figure 6: conservation proof on the Figure 4 FQ at T=2",
          fqNet(models::kFairQueueBuggy), 2, true, core::Workload{},
          conservation("fq"), V::Verified);
  bounded("ablationD-rr-conservation-T3",
          "ablation D: bounded round-robin conservation at T=3", rrNet(), 3,
          true, core::Workload{}, conservation("rr"), V::Verified);
  spacer("ablationD-spacer-rr-conservation",
         "ablation D: Spacer proves round-robin conservation for all T",
         kRrStateConservation, backends::ChcStatus::Proved);
  spacer("ablationD-spacer-rr-cdeq0-lt-3",
         "ablation D: Spacer refutes the false 'rr.cdeq.0 < 3'",
         "rr.cdeq.0[0] < 3", backends::ChcStatus::Violated);
  return cases;
}

/// Figure 6 no-starvation sweep on the RFC-fixed FQ: both queries are
/// VERIFIED at every horizon 1..6 (12 points).
constexpr int kSweepFrom = 1;
constexpr int kSweepTo = 6;
const char* const kSweepQueries[] = {
    "fq.cdeq.1[T-1] >= min(3, (T-1)/3)",
    "fq.cdeq.0[T-1] + fq.cdeq.1[T-1] <= T",
};
constexpr const char* kSweepExpected = "VERIFIED";

/// FPerf-style synthesis of the §6.1 starvation workload at T=6 over the
/// full 8-pattern grammar (64 candidates).
constexpr int kSynthHorizon = 6;
constexpr const char* kSynthQuery =
    "fq.cdeq.1[T-1] <= 1 & fq.cdeq.0[T-1] >= T-1";
const std::vector<synth::Pattern> kFullGrammar = {
    synth::Pattern::None,          synth::Pattern::ExactlyOnePerStep,
    synth::Pattern::AtLeastOnePerStep, synth::Pattern::BurstAtStart2,
    synth::Pattern::BurstAtStart3, synth::Pattern::AtMostOnePerStep,
    synth::Pattern::PacedSkipOne,  synth::Pattern::Unconstrained,
};

const char* patternId(synth::Pattern p) {
  switch (p) {
    case synth::Pattern::None: return "None";
    case synth::Pattern::ExactlyOnePerStep: return "ExactlyOnePerStep";
    case synth::Pattern::AtLeastOnePerStep: return "AtLeastOnePerStep";
    case synth::Pattern::BurstAtStart2: return "BurstAtStart2";
    case synth::Pattern::BurstAtStart3: return "BurstAtStart3";
    case synth::Pattern::AtMostOnePerStep: return "AtMostOnePerStep";
    case synth::Pattern::PacedSkipOne: return "PacedSkipOne";
    case synth::Pattern::Unconstrained: return "Unconstrained";
  }
  return "?";
}

/// The expected solution set as (fq.ibs.0, fq.ibs.1) pattern pairs. It
/// contains the paper's RFC 8290 pacing (PacedSkipOne, BurstAtStart3).
/// The other six are trivial starvation (queue 1 sends at most once) or
/// queue 0 pacing against a smaller backlog.
const std::set<std::pair<std::string, std::string>> kSynthExpected = {
    {"AtLeastOnePerStep", "None"},     {"ExactlyOnePerStep", "None"},
    {"PacedSkipOne", "AtLeastOnePerStep"}, {"PacedSkipOne", "BurstAtStart2"},
    {"PacedSkipOne", "BurstAtStart3"}, {"PacedSkipOne", "ExactlyOnePerStep"},
    {"PacedSkipOne", "None"},
};

std::string renderSolutions(
    const std::set<std::pair<std::string, std::string>>& set) {
  std::string out;
  for (const auto& [q0, q1] : set) {
    if (!out.empty()) out += " ";
    out += "(" + q0 + "," + q1 + ")";
  }
  return out;
}

// ---------------------------------------------------------------------
// Shared op bodies.
// ---------------------------------------------------------------------

/// A seed-drawn permutation of 0..n-1 (Fisher-Yates with an explicit
/// draw, so a seed gives the same order under every standard library).
std::vector<std::size_t> permutation(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

/// Opens a Z3 context and answers one tiny query, so the first timed op
/// does not pay for library start-up.
void warmSolver() {
  core::Analysis engine(fqNet(models::kFairQueueBuggy), optionsAt(1));
  const auto r = engine.check(core::Query::expr("fq.cdeq.0[T-1] >= 0"));
  if (r.verdict != core::Verdict::Satisfiable) {
    throw std::runtime_error("solver warm-up did not answer SATISFIABLE");
  }
}

double stageSeconds(const pipeline::PipelineStats& stats, const char* name) {
  const pipeline::StageStats* row = stats.find(name);
  return row == nullptr ? 0.0 : row->seconds;
}

std::size_t stageNodes(const pipeline::PipelineStats& stats,
                       const char* name) {
  const pipeline::StageStats* row = stats.find(name);
  return row == nullptr ? 0 : row->nodes;
}

/// One bounded query on a freshly compiled engine: compile, construct,
/// encode, then check/verify under the span `querySpan`. Records the
/// front-half, encoder, optimizer and solver layers.
core::AnalysisResult solveBounded(
    const Case& c, OpContext& ctx, const char* querySpan,
    std::shared_ptr<cache::VerdictCache> cache, std::string& counts) {
  Tracer& tr = ctx.tracer;
  Layers& layers = ctx.layers;
  core::AnalysisOptions opts = optionsAt(c.horizon);
  opts.cache = std::move(cache);

  Tracer::Scope compileSpan(tr, "pipeline.compile");
  const pipeline::CompilerDriver driver(core::pipelineOptionsFor(opts));
  const pipeline::CompilationUnitPtr unit = driver.compile(c.network);
  layers["pipeline.compile_s"] += compileSpan.stop();
  const std::size_t astNodes = stageNodes(unit->frontStats(), "constfold");
  layers["pipeline.ast_nodes"] += static_cast<double>(astNodes);
  tr.arg(compileSpan.index(), "ast_nodes", static_cast<double>(astNodes));

  Tracer::Scope newSpan(tr, "core.analysis_new");
  core::Analysis engine(unit, opts);
  engine.setWorkload(c.workload);
  layers["core.analysis_new_s"] += newSpan.stop();

  Tracer::Scope encodeSpan(tr, "pipeline.encode");
  (void)engine.encoding();
  layers["pipeline.encode_s"] += encodeSpan.stop();
  const std::size_t encodeNodes = stageNodes(engine.pipelineStats(), "encode");
  layers["pipeline.encode_nodes"] += static_cast<double>(encodeNodes);
  tr.arg(encodeSpan.index(), "encode_nodes", static_cast<double>(encodeNodes));

  Tracer::Scope querySpanScope(tr, querySpan);
  core::AnalysisResult r =
      c.verify ? engine.verify(*c.query) : engine.check(*c.query);
  const double querySeconds = querySpanScope.stop();

  const double optSeconds = stageSeconds(r.pipeline, "optimize");
  std::uint64_t rlimit = 0;
  for (const auto& attempt : r.attempts) rlimit += attempt.rlimitUsed;
  const std::size_t before = r.opt ? r.opt->nodesBefore : 0;
  const std::size_t after = r.opt ? r.opt->nodesAfter : 0;
  layers["opt.s"] += optSeconds;
  layers["opt.nodes_before"] += static_cast<double>(before);
  layers["opt.nodes_after"] += static_cast<double>(after);
  layers["backends.z3.solve_s"] += r.solveSeconds;
  layers["backends.z3.rlimit"] += static_cast<double>(rlimit);
  layers["backends.z3.attempts"] += static_cast<double>(r.attempts.size());
  layers[std::string(querySpan) + "_s"] += querySeconds;
  if (tr.enabled() && opts.cache == nullptr) {
    // Self time of the query span: what is left after the optimizer and
    // the solver (key/extract/replay/session set-up).
    layers["core.query_other_s"] += querySeconds - optSeconds - r.solveSeconds;
  }
  const int q = querySpanScope.index();
  tr.arg(q, "opt_s", optSeconds);
  tr.arg(q, "solve_s", r.solveSeconds);
  tr.arg(q, "rlimit", static_cast<double>(rlimit));
  tr.arg(q, "nodes_before", static_cast<double>(before));
  tr.arg(q, "nodes_after", static_cast<double>(after));

  counts = "ast=" + std::to_string(astNodes) +
           " encode=" + std::to_string(encodeNodes) +
           " opt=" + std::to_string(before) + "->" + std::to_string(after) +
           " rlimit=" + std::to_string(rlimit);
  return r;
}

OpRecord runCase(const Case& c, OpContext& ctx) {
  OpRecord rec;
  rec.id = c.id;
  if (c.chc()) {
    Tracer::Scope systemSpan(ctx.tracer, "backends.chc.system");
    backends::UnboundedAnalysis unbounded(c.network);
    ctx.layers["backends.chc.system_s"] += systemSpan.stop();
    Tracer::Scope proveSpan(ctx.tracer, "backends.chc.prove");
    const backends::ChcResult r = unbounded.prove(c.property, kQueryLimitMs);
    ctx.layers["backends.chc.prove_s"] += proveSpan.stop();
    rec.answer = backends::chcStatusName(r.status);
    if (r.status == backends::ChcStatus::Unknown) rec.detail = r.detail;
  } else {
    const core::AnalysisResult r =
        solveBounded(c, ctx, "core.query", nullptr, rec.counts);
    rec.answer = core::verdictName(r.verdict);
    rec.detail = r.detail;
  }
  rec.ok = rec.answer == c.expected;
  if (!rec.ok && rec.detail.empty()) rec.detail = "expected " + c.expected;
  return rec;
}

// ---------------------------------------------------------------------
// paper_verdicts: one user query per op, 11 cases per pass.
// ---------------------------------------------------------------------

class PaperVerdicts : public Workload {
 public:
  void setup() override {
    cases_ = paperCases();
    warmSolver();
  }
  [[nodiscard]] std::size_t passSize() const override { return cases_.size(); }
  void startPass(std::mt19937_64& rng) override {
    order_ = permutation(cases_.size(), rng);
  }
  OpRecord runOp(std::size_t k, OpContext& ctx) override {
    return runCase(cases_[order_[k]], ctx);
  }

  void crossCheckPaths(std::vector<std::string>& problems) override {
    for (const Case& c : cases_) {
      if (c.chc()) continue;
      core::Analysis native(c.network, optionsAt(c.horizon));
      native.setWorkload(c.workload);
      const core::AnalysisResult a =
          c.verify ? native.verify(*c.query) : native.check(*c.query);
      core::Analysis text(c.network, optionsAt(c.horizon));
      text.setWorkload(c.workload);
      const core::AnalysisResult b = text.solveViaSmtLib(*c.query, c.verify);
      const std::string na = core::verdictName(a.verdict);
      const std::string nb = core::verdictName(b.verdict);
      if (na != c.expected || nb != c.expected) {
        problems.push_back(c.id + ": native " + na + ", smtlib " + nb +
                           ", expected " + c.expected);
      }
    }
  }

 private:
  std::vector<Case> cases_;
  std::vector<std::size_t> order_;
};

// ---------------------------------------------------------------------
// horizon_sweep: the Figure 6 no-starvation sweep, T=1..6, 3 shards.
// ---------------------------------------------------------------------

class HorizonSweepWorkload : public Workload {
 public:
  void setup() override {
    network_ = fqNet(models::kFairQueueFixed);
    queries_.clear();
    for (const char* q : kSweepQueries) queries_.push_back(core::Query::expr(q));
    warmSolver();
  }
  [[nodiscard]] std::size_t passSize() const override { return 1; }
  [[nodiscard]] std::size_t workers() const override { return kSweepShards; }
  void startPass(std::mt19937_64& /*rng*/) override {}
  OpRecord runOp(std::size_t /*k*/, OpContext& ctx) override {
    core::SweepOptions sopts;
    sopts.fromHorizon = kSweepFrom;
    sopts.toHorizon = kSweepTo;
    sopts.shards = kSweepShards;
    sopts.verify = true;
    Tracer::Scope span(ctx.tracer, "core.sweep");
    core::HorizonSweep sweep(network_, optionsAt(kSweepFrom));
    const core::SweepResult r =
        sweep.run(queries_, starvationWorkload, sopts);
    span.stop();

    OpRecord rec;
    rec.id = "fig6-fixed-fq-no-starvation-sweep";
    rec.ok = r.points.size() ==
             static_cast<std::size_t>(kSweepTo - kSweepFrom + 1) *
                 queries_.size();
    double solveSum = 0.0;
    std::vector<double> perShard(r.shards, 0.0);
    for (const core::SweepPoint& p : r.points) {
      solveSum += p.solveSeconds;
      if (p.shard < perShard.size()) perShard[p.shard] += p.solveSeconds;
      if (p.verdict != kSweepExpected) {
        rec.ok = false;
        rec.detail += "T=" + std::to_string(p.horizon) + " '" + p.query +
                      "': " + p.verdict + "; ";
      }
      rec.answer += (rec.answer.empty() ? "" : " ") +
                    std::to_string(p.horizon) + ":" + p.verdict;
    }
    const double critical =
        perShard.empty() ? 0.0
                         : *std::max_element(perShard.begin(), perShard.end());
    ctx.layers["backends.z3.solve_s"] += solveSum;
    ctx.layers["core.sweep.solve_sum_s"] += solveSum;
    ctx.layers["core.sweep.critical_path_s"] += critical;
    ctx.layers["core.sweep.session_queries"] +=
        static_cast<double>(r.incrementalQueries);
    ctx.layers["core.sweep.shard_s"] +=
        static_cast<double>(r.shards) * r.seconds;
    ctx.tracer.arg(span.index(), "solve_sum_s", solveSum);
    ctx.tracer.arg(span.index(), "critical_path_s", critical);
    ctx.tracer.arg(span.index(), "session_queries",
                   static_cast<double>(r.incrementalQueries));
    rec.counts = "session_queries=" + std::to_string(r.incrementalQueries);
    return rec;
  }

 private:
  core::Network network_;
  std::vector<core::Query> queries_;
};

// ---------------------------------------------------------------------
// synthesis: FPerf-style synthesis over the full grammar, threads=1.
// One input: the grammar in declaration order with the default prescreen
// seed. Grammar order and prescreen seed change how much solver work a run
// does (0.3-1.9 s per run on a 4-CPU host), so drawing them from the
// workload seed would make every run's median depend on its draws.
// ---------------------------------------------------------------------

class SynthesisWorkload : public Workload {
 public:
  void setup() override {
    network_ = fqNet(models::kFairQueueBuggy);
    warmSolver();
  }
  [[nodiscard]] std::size_t passSize() const override { return 1; }
  void startPass(std::mt19937_64& /*rng*/) override {}
  OpRecord runOp(std::size_t /*k*/, OpContext& ctx) override {
    synth::SynthesisOptions sopts;
    sopts.grammar = kFullGrammar;
    sopts.threads = kSynthThreads;
    Tracer::Scope span(ctx.tracer, "synth.run");
    synth::Synthesizer synthesizer(network_, optionsAt(kSynthHorizon));
    const synth::SynthesisResult r =
        synthesizer.run(core::Query::expr(kSynthQuery), sopts);
    ctx.layers["synth.run_s"] += span.stop();

    std::set<std::pair<std::string, std::string>> found;
    for (const synth::Candidate& sol : r.solutions) {
      found.emplace(patternId(sol.assignment.at("fq.ibs.0")),
                    patternId(sol.assignment.at("fq.ibs.1")));
    }
    OpRecord rec;
    rec.id = "fperf-synthesis-fq-T6";
    rec.answer = renderSolutions(found);
    rec.ok = found == kSynthExpected && r.failures.empty() &&
             r.candidatesChecked ==
                 static_cast<int>(sopts.grammar.size() * sopts.grammar.size());
    if (!rec.ok) {
      rec.detail = "solutions {" + rec.answer + "}, expected {" +
                   renderSolutions(kSynthExpected) + "}; " + r.summary();
    }
    const std::size_t before = r.opt ? r.opt->nodesBefore : 0;
    const std::size_t after = r.opt ? r.opt->nodesAfter : 0;
    Layers& l = ctx.layers;
    l["synth.candidates"] += r.candidatesChecked;
    l["synth.prescreen_rejected"] += r.prescreenRejected;
    l["synth.prescreen_witnessed"] += r.prescreenWitnessed;
    l["opt.nodes_before"] += static_cast<double>(before);
    l["opt.nodes_after"] += static_cast<double>(after);
    ctx.tracer.arg(span.index(), "candidates", r.candidatesChecked);
    ctx.tracer.arg(span.index(), "prescreen_rejected", r.prescreenRejected);
    ctx.tracer.arg(span.index(), "prescreen_witnessed", r.prescreenWitnessed);
    rec.counts = "candidates=" + std::to_string(r.candidatesChecked) +
                 " rejected=" + std::to_string(r.prescreenRejected) +
                 " witnessed=" + std::to_string(r.prescreenWitnessed) +
                 " opt=" + std::to_string(before) + "->" +
                 std::to_string(after);
    return rec;
  }

 private:
  core::Network network_;
};

// ---------------------------------------------------------------------
// cached_replay: a new process re-asks a bounded case after no edit.
// ---------------------------------------------------------------------

class CachedReplay : public Workload {
 public:
  explicit CachedReplay(std::string tmpDir) : tmpDir_(std::move(tmpDir)) {}

  void setup() override {
    cases_.clear();
    for (Case& c : paperCases()) {
      if (!c.chc()) cases_.push_back(std::move(c));
    }
    // A fresh disk tier per set-up, warmed by solving every case once.
    ++generation_;
    const std::filesystem::path dir =
        std::filesystem::path(tmpDir_) /
        ("verdict-cache-" + std::to_string(generation_));
    if (!cacheDir_.empty()) std::filesystem::remove_all(cacheDir_);
    std::filesystem::create_directories(dir);
    cacheDir_ = dir.string();
    auto cache = openCache();
    for (const Case& c : cases_) {
      core::AnalysisOptions opts = optionsAt(c.horizon);
      opts.cache = cache;
      core::Analysis engine(c.network, opts);
      engine.setWorkload(c.workload);
      const core::AnalysisResult r =
          c.verify ? engine.verify(*c.query) : engine.check(*c.query);
      if (core::verdictName(r.verdict) != c.expected) {
        throw std::runtime_error("cache warm-up: " + c.id + " answered " +
                                 core::verdictName(r.verdict));
      }
    }
    cache->flushDisk();
  }
  [[nodiscard]] std::size_t passSize() const override { return cases_.size(); }
  void startPass(std::mt19937_64& rng) override {
    order_ = permutation(cases_.size(), rng);
  }
  OpRecord runOp(std::size_t k, OpContext& ctx) override {
    const Case& c = cases_[order_[k]];
    OpRecord rec;
    rec.id = c.id;
    Tracer::Scope openSpan(ctx.tracer, "cache.open");
    auto cache = openCache();
    ctx.layers["cache.open_s"] += openSpan.stop();
    bool cached = false;
    {
      const core::AnalysisResult r =
          solveBounded(c, ctx, "cache.query", cache, rec.counts);
      rec.answer = core::verdictName(r.verdict);
      cached = r.cached;
    }
    const cache::CacheStats stats = cache->stats();
    ctx.layers["cache.hits"] += static_cast<double>(stats.hits);
    ctx.layers["cache.lookups"] +=
        static_cast<double>(stats.hits + stats.misses);
    ctx.layers["cache.client_s"] += stats.clientSeconds;
    Tracer::Scope closeSpan(ctx.tracer, "cache.close");
    cache.reset();
    ctx.layers["cache.close_s"] += closeSpan.stop();

    rec.ok = rec.answer == c.expected && cached;
    if (!rec.ok) {
      rec.detail = cached ? "expected " + c.expected
                          : std::string("not answered from the cache");
    }
    return rec;
  }

 private:
  std::shared_ptr<cache::VerdictCache> openCache() const {
    cache::VerdictCacheOptions opts;
    opts.dir = cacheDir_;
    return std::make_shared<cache::VerdictCache>(opts);
  }

  std::string tmpDir_;
  std::string cacheDir_;
  int generation_ = 0;
  std::vector<Case> cases_;
  std::vector<std::size_t> order_;
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "paper_verdicts", "horizon_sweep", "synthesis", "cached_replay"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const std::string& tmpDir) {
  if (name == "paper_verdicts") return std::make_unique<PaperVerdicts>();
  if (name == "horizon_sweep") return std::make_unique<HorizonSweepWorkload>();
  if (name == "synthesis") return std::make_unique<SynthesisWorkload>();
  if (name == "cached_replay") return std::make_unique<CachedReplay>(tmpDir);
  return nullptr;
}

}  // namespace perfbench
