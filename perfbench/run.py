#!/usr/bin/env python3
"""Builds and runs the time-to-verdict benchmark (see README.md).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

Run from the repository root. The first call configures and builds the
benchmark (Buffy's library targets from src/ plus perfbench/*.cpp, Release)
under .bench_build/perfbench; later calls rebuild only what changed. Build
output goes to .bench_build/perfbench/build.log, never to stdout, so the
last stdout line is the benchmark's JSON result. Traced runs also write a
trace-event file to .bench_build/traces/ (open it in ui.perfetto.dev or
chrome://tracing).
"""
import argparse
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
BINARY = BUILD / "perfbench"
BUILD_JOBS = "3"
# A run measures for --seconds plus set-up; anything near this is a hang.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Buffy sources at {ROOT / 'src'}; run from a full checkout", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}")
    return BINARY


def run_binary(args, timeout=RUN_TIMEOUT_S, **kwargs):
    """Runs the benchmark binary and waits for it; kills it on timeout."""
    sys.stdout.flush()
    try:
        return subprocess.run([str(BINARY)] + args, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="cross-path and determinism checks, untimed")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")

    build()
    tmp_root = OUT / "tmp"
    command = ["--tmp-root", str(tmp_root)]
    if args.self_check:
        command.append("--self-check")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = OUT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            command += ["--trace-out", str(
                traces / f"{args.workload}-seed{args.seed}.json")]
    result = run_binary(command, timeout=None if args.self_check
                        else RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
