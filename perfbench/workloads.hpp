// The benchmark's four workloads over the paper's own queries, each with a
// hand-written known-answer oracle (see README.md for why each exists).
//
// A workload is run as passes of ops. One op is one thing a user waits
// for: a verdict, a sweep, a synthesis run, or a cached replay. The
// benchmark's single client issues the next op only after the previous
// one returned (closed loop).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Per-layer accumulators, summed over ops: span seconds and the counters
/// the public API returns. Divided by the op count when reported.
using Layers = std::map<std::string, double>;

/// What one op produced, for the oracle and the self-check.
struct OpRecord {
  bool ok = false;
  /// Seed-independent answer: case id -> verdict (or the solution set).
  std::string id;
  std::string answer;
  /// Exact counts that must repeat under the same seed (rlimit, node
  /// counts); empty where the layer exposes none.
  std::string counts;
  /// Why the op failed (empty when ok).
  std::string detail;
};

/// Everything an op may use besides its own state.
struct OpContext {
  Tracer& tracer;
  Layers& layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the case table and warms everything that a user pays for once
  /// per process (first Z3 context, the verdict cache's disk tier). May be
  /// called several times; each call starts from scratch.
  virtual void setup() = 0;
  /// Ops in one pass.
  [[nodiscard]] virtual std::size_t passSize() const = 0;
  /// Threads that do the work of one op (the process is pinned to this
  /// many CPUs).
  [[nodiscard]] virtual std::size_t workers() const { return 1; }
  /// Draws this pass's seed-dependent input order from `rng`.
  virtual void startPass(std::mt19937_64& rng) = 0;
  /// Runs op `k` of the current pass. Exceptions count as a failed op.
  virtual OpRecord runOp(std::size_t k, OpContext& ctx) = 0;

  /// Self-check part 1: solves every bounded case through the native
  /// check/verify path and through SMT-LIB emission + reparse; appends one
  /// line per disagreement with the known answer. No-op for workloads
  /// without single bounded queries.
  virtual void crossCheckPaths(std::vector<std::string>& problems) {
    (void)problems;
  }
};

/// Names accepted by makeWorkload, in BENCHMARK.json order.
const std::vector<std::string>& workloadNames();

/// `tmpDir` is the run's private temporary directory (only cached_replay
/// writes into it). Returns null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const std::string& tmpDir);

/// Worker counts the workloads use (host facts).
constexpr std::size_t kSweepShards = 3;
constexpr int kSynthThreads = 1;

}  // namespace perfbench
