// Time-to-verdict benchmark over the paper's workloads.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tmp-root DIR] [--trace-out FILE]
//   perfbench --self-check [--tmp-root DIR]
//
// One client runs a closed loop: the next op starts when the previous one
// returned. Set-up runs several times and its median is reported; the
// timed loop then runs whole passes until S seconds have passed, with
// host-speed probes between ops, two per second of loop time. With
// --trace 0 the last stdout line carries the end-to-end metrics, in
// seconds of the reference host without hypervisor steal (see hostScale);
// with --trace 1 the first half of the time runs untraced and the second
// half traced, and the line carries the per-layer metrics plus the tracing
// overhead between the two halves. The line before it is a report with the host facts, sample
// counts, the probe, the unscaled metrics and any failed op.
//
// The only files written are in a private temporary directory under
// --tmp-root (removed before exit) and the --trace-out file.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>
#include <z3.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-up repeats at least kMinSetupRuns times and until kSetupSeconds
/// have passed, at most kMaxSetupRuns times.
constexpr int kMinSetupRuns = 3;
constexpr int kMaxSetupRuns = 80;
constexpr double kSetupSeconds = 1.0;

/// The host-speed probe: a fixed Z3 problem, solved through the Z3 C API
/// so that no Buffy code is in it. No two 10-bit numbers above 1 multiply
/// to the prime 1048573 (0xffffd), so the answer is unsat.
constexpr const char* kProbeScript =
    "(declare-const x (_ BitVec 10)) (declare-const y (_ BitVec 10))"
    "(assert (= (bvmul ((_ zero_extend 10) x) ((_ zero_extend 10) y))"
    " #xffffd))"
    "(assert (bvugt x #b0000000001)) (assert (bvugt y #b0000000001))"
    "(check-sat)";
/// The probe's mean thread CPU time (probeMean) on the reference host:
/// 4 vCPUs of a shared Xeon virtual machine, Z3 4.8.12, GCC 12, Release.
constexpr double kProbeReferenceS = 0.046;
/// The loop runs one probe per this many seconds of its wall time; after
/// a longer op, the probes it is owed run in a row before the next op.
constexpr double kProbeEveryS = 0.5;

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Solves the probe once; returns the calling thread's CPU seconds for it.
/// CPU time, not wall time, so that the program's own background threads
/// cannot make the host look slower.
double probeOnce() {
  const double t0 = threadCpuSeconds();
  Z3_config cfg = Z3_mk_config();
  Z3_context ctx = Z3_mk_context(cfg);
  Z3_del_config(cfg);
  const std::string answer = Z3_eval_smtlib2_string(ctx, kProbeScript);
  Z3_del_context(ctx);
  const double t1 = threadCpuSeconds();
  if (answer != "unsat\n") {
    throw std::runtime_error("host-speed probe answered '" + answer + "'");
  }
  return t1 - t0;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear interpolation between closest ranks (statistics.quantiles'
/// "inclusive" method). `sorted` must be ascending and non-empty.
double quantile(const std::vector<double>& sorted, double p) {
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

std::string num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// The run's private temporary directory; removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& root) {
    std::filesystem::create_directories(root);
    std::string pattern =
        (std::filesystem::path(root) / "perfbench-XXXXXX").string();
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a temporary directory under " +
                               root);
    }
    path_ = pattern;
  }
  ~TempDir() { remove(); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  void remove() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    path_.clear();
  }

 private:
  std::string path_;
};

/// Seconds from /proc/stat, summed over `cpus` (over the whole machine
/// when `cpus` is empty). `busy` is user, nice, system, irq and softirq
/// time; `steal` is time the hypervisor ran other guests while a CPU had
/// work. The two never overlap.
struct CpuTimes {
  double busy = 0.0;
  double steal = 0.0;
};

CpuTimes cpuTimes(const std::vector<int>& cpus) {
  std::ifstream stat("/proc/stat");
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  CpuTimes t;
  std::string line;
  while (std::getline(stat, line) && line.rfind("cpu", 0) == 0) {
    std::istringstream in(line);
    std::string name;
    unsigned long long v[8] = {};
    in >> name;
    for (auto& x : v) in >> x;
    const int cpu = name == "cpu" ? -1 : std::atoi(name.c_str() + 3);
    const bool wanted =
        cpus.empty() ? cpu < 0
                     : std::find(cpus.begin(), cpus.end(), cpu) != cpus.end();
    if (!wanted) continue;
    t.busy += static_cast<double>(v[0] + v[1] + v[2] + v[5] + v[6]) / tick;
    t.steal += static_cast<double>(v[7]) / tick;
  }
  return t;
}

/// Threads of this process, from /proc/self/status (-1 if unreadable).
int liveThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

/// Processes whose parent is this process.
int liveChildren() {
  const std::string self = std::to_string(getpid());
  int children = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::ifstream stat(entry.path() / "stat");
    std::string content;
    std::getline(stat, content);
    // Field 4 (ppid) follows the parenthesized command name.
    const std::size_t paren = content.rfind(')');
    if (paren == std::string::npos) continue;
    char state = 0;
    long ppid = 0;
    if (std::sscanf(content.c_str() + paren + 1, " %c %ld", &state, &ppid) ==
            2 &&
        std::to_string(ppid) == self) {
      ++children;
    }
  }
  return children;
}

/// Pins the calling thread, and the threads it starts from then on, to
/// `cpus`. Returns false if `cpus` is empty or the call failed.
bool pinThread(const std::vector<int>& cpus) {
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (const int cpu : cpus) CPU_SET(cpu, &pinned);
  return !cpus.empty() && sched_setaffinity(0, sizeof pinned, &pinned) == 0;
}

/// Pins the process to the last `count` CPUs it may run on, before any
/// thread exists, so every later thread inherits the set. One CPU per
/// worker keeps thread hand-offs (Z3 timers, the cache's writer thread,
/// the sweep's pool) off idle CPUs, whose wake-up latency on a shared
/// virtual machine is milliseconds and varies from run to run. Returns the
/// CPUs used.
std::vector<int> pinToCpus(std::size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpus.size() < count; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.insert(cpus.begin(), cpu);
  }
  if (!pinThread(cpus)) cpus.clear();
  return cpus;
}

std::string hostFacts(unsigned long long seed, const std::vector<int>& cpus) {
  std::string pinned;
  for (const int cpu : cpus) {
    if (!pinned.empty()) pinned += ',';
    pinned += std::to_string(cpu);
  }
  return std::string("{") +
         "\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"online_cpus\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"pinned_cpus\":[" + pinned + "]" +
         ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
         ",\"z3\":" + jsonString(Z3_get_full_version()) +
         ",\"seed\":" + std::to_string(seed) +
         ",\"workers\":{\"clients\":1,\"sweep_shards\":" +
         std::to_string(kSweepShards) +
         ",\"synth_threads\":" + std::to_string(kSynthThreads) +
         ",\"other\":1}}";
}

/// One timed loop's raw results.
struct Loop {
  std::vector<double> latencies;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report
  Layers layers;
  /// Timed seconds: the loop's wall time minus the probes'.
  double seconds = 0.0;
  double cpu = 0.0;
  /// Thread CPU seconds of each probe.
  std::vector<double> probes;
  /// Steal on the whole machine, in seconds.
  double steal = 0.0;
  /// Steal as a share of the time the run's CPUs had work.
  double stealShare = 0.0;
  /// Peak resident memory once the first pass (every case once) is done.
  double firstPassRssMb = 0.0;
};

/// Runs whole passes until `seconds` have passed, probing the host between
/// ops once per kProbeEveryS. A pass is cut short only when the loop has
/// overrun by half of `seconds` (failing ops). `cpus` are the CPUs the
/// process is pinned to.
Loop timedLoop(Workload& w, std::mt19937_64& rng, double seconds,
               Tracer& tracer, const std::vector<int>& cpus) {
  Loop loop;
  OpContext ctx{tracer, loop.layers};
  const double cpu0 = cpuSeconds();
  const CpuTimes machine0 = cpuTimes({});
  const CpuTimes pinned0 = cpuTimes(cpus);
  const double start = now();
  double elapsed = 0.0;
  double probeWall = 0.0;
  double probeCpu = 0.0;
  bool done = false;
  while (!done) {
    w.startPass(rng);
    for (std::size_t k = 0; k < w.passSize() && !done; ++k) {
      const double p0 = now();
      while (static_cast<double>(loop.probes.size()) * kProbeEveryS <=
             now() - start) {
        // Probe the op's CPUs in turn: a sweep runs on all of them.
        if (cpus.size() > 1) {
          pinThread({cpus[loop.probes.size() % cpus.size()]});
        }
        loop.probes.push_back(probeOnce());
        probeCpu += loop.probes.back();
      }
      if (cpus.size() > 1) pinThread(cpus);
      probeWall += now() - p0;
      tracer.beginOp();
      const double t0 = now();
      OpRecord rec;
      {
        Tracer::Scope root(tracer, "op");
        try {
          rec = w.runOp(k, ctx);
        } catch (const std::exception& e) {
          rec.ok = false;
          rec.detail = std::string("threw: ") + e.what();
        }
      }
      const double t1 = now();
      loop.latencies.push_back(t1 - t0);
      if (!rec.ok) {
        ++loop.failed;
        if (loop.failures.size() < 8) {
          loop.failures.push_back(rec.id + ": " + rec.answer + " " +
                                  rec.detail);
        }
      }
      elapsed = t1 - start;
      done = elapsed >= 1.5 * seconds;
    }
    if (loop.firstPassRssMb == 0.0) loop.firstPassRssMb = peakRssMb();
    done = done || elapsed >= seconds;
  }
  loop.seconds = elapsed - probeWall;
  loop.cpu = cpuSeconds() - cpu0 - probeCpu;
  loop.steal = cpuTimes({}).steal - machine0.steal;
  const CpuTimes pinned = cpuTimes(cpus);
  const double stolen = pinned.steal - pinned0.steal;
  const double demanded = pinned.busy - pinned0.busy + stolen;
  loop.stealShare = demanded > 0.0 ? stolen / demanded : 0.0;
  return loop;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Mean probe time without the fastest and slowest tenth. Probe times are
/// bimodal on a shared host, and the share of runs in each mode moves a
/// mean smoothly where it would make a median jump between the modes.
double probeMean(std::vector<double> probes) {
  std::sort(probes.begin(), probes.end());
  const std::size_t cut = probes.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < probes.size() - cut; ++i) sum += probes[i];
  return sum / static_cast<double>(probes.size() - 2 * cut);
}

/// Reference-host seconds per second measured in this run: below 1 when
/// this host ran slower than the reference host. Two host effects are
/// taken out. Steal: the hypervisor held the run's CPUs for this share of
/// the time they had work, which stretched every op by about as much.
/// Speed: the CPU time the run did get ran the probe at this trimmed
/// mean, against kProbeReferenceS on the reference host.
double hostScale(const Loop& loop) {
  return (1.0 - loop.stealShare) * kProbeReferenceS / probeMean(loop.probes);
}

/// End-to-end metrics, timings scaled by `scale` (1 for the raw values).
std::vector<Metric> endToEnd(const Loop& loop, double setup, double scale) {
  std::vector<double> sorted = loop.latencies;
  std::sort(sorted.begin(), sorted.end());
  return {
      {"setup_s", "s", setup * scale},
      {"ops_per_s", "1/s",
       static_cast<double>(sorted.size()) / loop.seconds / scale},
      {"latency_p50_s", "s", quantile(sorted, 0.5) * scale},
      {"latency_p90_s", "s", quantile(sorted, 0.9) * scale},
      {"peak_rss_mb", "MB", loop.firstPassRssMb},
  };
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Per-layer metrics: span seconds and counters as means per op, ratios
/// from the summed counters. A layer the workload never calls reads 0.
std::vector<Metric> perLayer(const Loop& traced, const Loop& plain) {
  const Layers& l = traced.layers;
  const double ops = static_cast<double>(traced.latencies.size());
  auto sum = [&](const char* key) {
    const auto it = l.find(key);
    return it == l.end() ? 0.0 : it->second;
  };
  auto perOp = [&](const char* key) { return sum(key) / ops; };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  std::vector<Metric> out;
  for (const char* key :
       {"pipeline.compile_s", "core.analysis_new_s", "pipeline.encode_s",
        "opt.s", "backends.z3.solve_s", "core.query_other_s",
        "backends.chc.system_s", "backends.chc.prove_s",
        "core.sweep.solve_sum_s", "core.sweep.critical_path_s", "synth.run_s",
        "cache.open_s", "cache.query_s", "cache.close_s", "cache.client_s"}) {
    out.push_back({key, "s", perOp(key)});
  }
  for (const char* key :
       {"pipeline.ast_nodes", "pipeline.encode_nodes", "opt.nodes_before",
        "opt.nodes_after", "backends.z3.rlimit", "backends.z3.attempts",
        "core.sweep.session_queries", "synth.candidates",
        "synth.prescreen_rejected", "synth.prescreen_witnessed"}) {
    out.push_back({key, "count", perOp(key)});
  }
  out.push_back({"opt.node_ratio", "ratio",
                 ratio(sum("opt.nodes_after"), sum("opt.nodes_before"))});
  out.push_back({"jobs.parallel_efficiency", "ratio",
                 ratio(sum("core.sweep.solve_sum_s"), sum("core.sweep.shard_s"))});
  out.push_back(
      {"synth.prescreen_decided_ratio", "ratio",
       ratio(sum("synth.prescreen_rejected") + sum("synth.prescreen_witnessed"),
             sum("synth.candidates"))});
  out.push_back({"cache.hit_ratio", "ratio",
                 ratio(sum("cache.hits"), sum("cache.lookups"))});
  out.push_back({"process.cpu_s_per_op", "s", traced.cpu / ops});
  out.push_back({"process.rss_growth_mb", "MB",
                 peakRssMb() - plain.firstPassRssMb});
  // Each half is host-corrected with its own probes and steal, so that
  // the host drifting between the halves does not read as overhead.
  const double plainOp = mean(plain.latencies) * hostScale(plain);
  const double tracedOp = mean(traced.latencies) * hostScale(traced);
  out.push_back({"trace.untraced_op_s", "s", plainOp});
  out.push_back({"trace.traced_op_s", "s", tracedOp});
  out.push_back({"trace.overhead_ratio", "ratio", ratio(tracedOp, plainOp) - 1.0});
  return out;
}

struct Args {
  std::string workload;
  unsigned long long seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selfCheck = false;
  std::string tmpRoot;
  std::string traceOut;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tmp-root DIR] [--trace-out FILE]\n"
               "       perfbench --self-check [--tmp-root DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--tmp-root") {
        a.tmpRoot = value();
      } else if (flag == "--trace-out") {
        a.traceOut = value();
      } else if (flag == "--self-check") {
        a.selfCheck = true;
      } else {
        usage("unknown argument " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (a.tmpRoot.empty()) {
    a.tmpRoot = std::filesystem::temp_directory_path().string();
  }
  if (!a.selfCheck) {
    const auto& names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
      usage("unknown workload '" + a.workload + "'");
    }
    if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  }
  return a;
}

/// Runs `passes` whole passes and returns every op's record.
std::vector<OpRecord> recordPasses(Workload& w, unsigned long long seed,
                                   int passes) {
  std::mt19937_64 rng(seed);
  Tracer tracer(false);
  Layers layers;
  OpContext ctx{tracer, layers};
  std::vector<OpRecord> out;
  for (int p = 0; p < passes; ++p) {
    w.startPass(rng);
    for (std::size_t k = 0; k < w.passSize(); ++k) {
      try {
        out.push_back(w.runOp(k, ctx));
      } catch (const std::exception& e) {
        OpRecord rec;
        rec.detail = std::string("threw: ") + e.what();
        out.push_back(rec);
      }
    }
  }
  return out;
}

/// Self-check, outside any timed run: (1) native vs SMT-LIB text solve
/// paths agree with the oracle on every bounded case; (2) two runs with
/// one seed repeat verdicts and exact counts; (3) another seed gives the
/// same verdicts and solution set.
int selfCheck(const Args& args) {
  TempDir tmp(args.tmpRoot);
  std::printf("host-speed probe: %s s\n", num(probeOnce()).c_str());
  constexpr unsigned long long kSeedA = 1;
  constexpr unsigned long long kSeedB = 2;
  std::vector<std::string> problems;
  for (const std::string& name : workloadNames()) {
    auto w = makeWorkload(name, tmp.path());
    w->setup();
    const std::size_t before = problems.size();
    w->crossCheckPaths(problems);
    const auto a1 = recordPasses(*w, kSeedA, 2);
    const auto a2 = recordPasses(*w, kSeedA, 2);
    const auto b = recordPasses(*w, kSeedB, 2);
    std::vector<std::string> exact1, exact2;
    std::multiset<std::string> answersA, answersB;
    for (const auto& runs : {&a1, &a2, &b}) {
      for (const OpRecord& rec : *runs) {
        if (!rec.ok) {
          problems.push_back(name + ": " + rec.id + " " + rec.answer + " " +
                             rec.detail);
        }
      }
    }
    for (const OpRecord& rec : a1) {
      exact1.push_back(rec.id + " " + rec.answer + " " + rec.counts);
      answersA.insert(rec.id + " " + rec.answer);
      std::printf("  %-15s %-36s %-14.14s %s\n", name.c_str(), rec.id.c_str(),
                  rec.answer.c_str(), rec.counts.c_str());
    }
    for (const OpRecord& rec : a2) {
      exact2.push_back(rec.id + " " + rec.answer + " " + rec.counts);
    }
    for (const OpRecord& rec : b) answersB.insert(rec.id + " " + rec.answer);
    for (std::size_t i = 0; i < std::max(exact1.size(), exact2.size()); ++i) {
      const std::string x = i < exact1.size() ? exact1[i] : "(none)";
      const std::string y = i < exact2.size() ? exact2[i] : "(none)";
      if (x != y) {
        problems.push_back(name + ": same seed differs: '" + x + "' vs '" +
                           y + "'");
      }
    }
    if (answersA != answersB) {
      problems.push_back(name + ": seeds " + std::to_string(kSeedA) +
                         " and " + std::to_string(kSeedB) +
                         " give different answers");
    }
    std::printf("self-check %-15s %s\n", name.c_str(),
                problems.size() == before ? "ok" : "FAILED");
  }
  for (const std::string& p : problems) std::printf("  problem: %s\n", p.c_str());
  std::printf("{\"self_check\":%s,\"problems\":%zu}\n",
              problems.empty() ? "\"pass\"" : "\"fail\"", problems.size());
  return problems.empty() ? 0 : 1;
}

int run(const Args& args) {
  TempDir tmp(args.tmpRoot);
  auto w = makeWorkload(args.workload, tmp.path());
  const std::vector<int> cpus = pinToCpus(w->workers());

  std::vector<double> setups;
  double setupTotal = 0.0;
  while (setups.size() < static_cast<std::size_t>(kMinSetupRuns) ||
         (setupTotal < kSetupSeconds &&
          setups.size() < static_cast<std::size_t>(kMaxSetupRuns))) {
    const double t0 = now();
    w->setup();
    setups.push_back(now() - t0);
    setupTotal += setups.back();
  }

  std::mt19937_64 rng(args.seed);
  Tracer off(false);
  Tracer on(true);
  Loop plain = timedLoop(*w, rng, args.trace ? args.seconds / 2 : args.seconds,
                         off, cpus);
  Loop traced;
  if (args.trace) traced = timedLoop(*w, rng, args.seconds / 2, on, cpus);
  const Loop& measured = args.trace ? traced : plain;
  const double scale = hostScale(plain);
  const std::vector<Metric> metrics =
      args.trace ? perLayer(traced, plain)
                 : endToEnd(plain, median(setups), scale);

  w.reset();
  tmp.remove();
  // Every Z3 object is gone; release Z3's global state, which includes the
  // idle timer threads its timeouts leave behind.
  Z3_finalize_memory();
  const std::size_t attempted = plain.latencies.size() + traced.latencies.size();
  const std::size_t failed = plain.failed + traced.failed;
  const std::string host = hostFacts(args.seed, cpus);

  if (args.trace && !args.traceOut.empty() &&
      !on.writeTraceEvents(args.traceOut, host)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.traceOut.c_str());
    return 1;
  }

  std::vector<double> sorted = measured.latencies;
  std::sort(sorted.begin(), sorted.end());
  const double p90 = quantile(sorted, 0.9);
  const auto beyond = static_cast<std::size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), p90));
  std::string failures;
  for (const Loop* loop : {&plain, &traced}) {
    for (const std::string& f : loop->failures) {
      if (!failures.empty()) failures += ',';
      failures += jsonString(f);
    }
  }
  std::string setupRuns;
  for (const double t : setups) {
    if (!setupRuns.empty()) setupRuns += ',';
    setupRuns += num(t);
  }
  std::string probeRuns;
  for (const double t : plain.probes) {
    if (!probeRuns.empty()) probeRuns += ',';
    probeRuns += num(t);
  }
  std::string raw;
  for (const Metric& m : endToEnd(plain, median(setups), 1.0)) {
    if (!raw.empty()) raw += ',';
    raw += jsonString(m.name) + ":" + num(m.value);
  }
  std::printf(
      "{\"report\":{\"workload\":%s,\"traced\":%s,\"seconds\":%s,"
      "\"samples\":%zu,\"samples_beyond_p90\":%zu,\"setup_runs_s\":[%s],"
      "\"speed\":{\"steal_share\":%s,\"probe_mean_s\":%s,"
      "\"scale\":%s,\"probe_runs_s\":[%s]},"
      "\"unscaled\":{%s},\"cpu_s\":%s,\"vm_steal_s\":%s,"
      "\"threads_at_exit\":%d,\"children_at_exit\":%d,\"host\":%s,"
      "\"failures\":[%s]}}\n",
      jsonString(args.workload).c_str(), args.trace ? "true" : "false",
      num(measured.seconds).c_str(), sorted.size(), beyond,
      setupRuns.c_str(), num(plain.stealShare).c_str(),
      num(probeMean(plain.probes)).c_str(),
      num(scale).c_str(), probeRuns.c_str(), raw.c_str(),
      num(measured.cpu).c_str(), num(measured.steal).c_str(), liveThreads(),
      liveChildren(), host.c_str(), failures.c_str());

  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += jsonString(metrics[i].name) + ": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": " +
           jsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parseArgs(argc, argv);
  try {
    return args.selfCheck ? perfbench::selfCheck(args) : perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
