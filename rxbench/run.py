#!/usr/bin/env python3
"""Receiver benchmark entry point.

Builds rxbench (Release) over the repository's sources, prepares the model
weight cache once per source tree, runs one workload and relays its report.
The last line of stdout is the benchmark's JSON result.

  python3 rxbench/run.py --workload single_stream --seed 1 --seconds 15 --trace 0
  python3 rxbench/run.py --self-test      # the benchmark's own tests

Run from the repository root. Everything is written under .bench_build/
(or $CARGO_TARGET_DIR when set): the CMake tree, the weight cache, one JSON
report per run in reports/ and, for traced runs, the spans in traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600
PREPARE_TIMEOUT_S = 600


def log(msg):
    print(f"rxbench: {msg}", file=sys.stderr, flush=True)


_child = None  # the subprocess running now, stopped with the runner


def _stop(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def communicate(cmd, timeout, **popen_args):
    """Runs cmd to completion (or kills it after timeout, returning None as
    the exit code). Returns (exit code, stdout or None)."""
    global _child
    _child = subprocess.Popen(cmd, **popen_args)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.communicate()
        return None, None
    finally:
        rc = _child.returncode
        _child = None
    return rc, out


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    p = Path(base)
    if not p.is_absolute():
        p = ROOT / p
    return p


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; raises on failure or timeout."""
    rc, _ = communicate(cmd, timeout, stdout=sys.stderr, stderr=sys.stderr)
    if rc is None:
        raise RuntimeError(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")
    if rc != 0:
        raise RuntimeError(f"exit {rc}: {' '.join(map(str, cmd))}")


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no DCDiff sources under {ROOT / 'src'}")
    tree = build_dir() / "cmake"
    if not (tree / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", str(HERE), "-B", str(tree),
                    "-DCMAKE_BUILD_TYPE=Release"] + gen, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(tree), "-j", jobs, "--target"] + targets,
               BUILD_TIMEOUT_S)
    return tree


def source_digest():
    """Hash of the library sources: the weight cache is valid per digest."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown"
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def prepare_weights(binary, digest):
    """Trains the default and toy models once per source digest, outside any
    timed run. A timed run that finds no weights fails instead of training."""
    cache = build_dir() / "weights" / digest
    if (cache / "ready").is_file():
        return cache
    tmp = cache.with_name(digest + ".partial")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    log(f"training the default and toy models into {cache} (minutes, once)")
    run_logged([str(binary), "--prepare", "--cache-dir", str(tmp)],
               PREPARE_TIMEOUT_S)
    (tmp / "ready").write_text(digest + "\n")
    shutil.rmtree(cache, ignore_errors=True)
    tmp.rename(cache)
    return cache


def declared_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def recorded_psnr_gain():
    """The quality-floor margin BENCHMARK.json passes in its command."""
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    return float(cmd[cmd.index("--min-psnr-gain-db") + 1])


def check_result(line, trace):
    """Returns the problems with the final JSON line (empty when fine)."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    want = declared_metrics(trace)
    got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {[k for k in want if k in got and got[k] != want[k]]}")
    for k, v in res.get("metrics", {}).items():
        if not isinstance(v.get("value"), (int, float)):
            problems.append(f"metric {k} has no numeric value")
    return problems


def run_workload(args):
    tree = build(["rxbench"])
    binary = tree / "rxbench"
    digest = source_digest()
    cache = prepare_weights(binary, digest)
    out = build_dir()
    (out / "reports").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache-dir", str(cache),
           "--report", str(out / "reports" / f"{tag}.json"),
           "--min-psnr-gain-db", str(args.min_psnr_gain_db),
           "--git-sha", git_sha(), "--source-digest", digest]
    if args.trace:
        (out / "traces").mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(out / "traces" / f"{tag}.json")]
    rc, stdout = communicate(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if rc is None:
        log(f"run timed out after {RUN_TIMEOUT_S}s")
        return 1
    lines = stdout.rstrip("\n").split("\n")
    if rc not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        log(f"rxbench failed with exit code {rc}")
        return rc or 1
    problems = check_result(lines[-1], args.trace)
    if problems:
        sys.stdout.write(stdout)
        for p in problems:
            log(p)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return rc


def self_test():
    tree = build(["rxbench", "rxbench_tests"])
    run_logged([str(tree / "rxbench_tests")], 120)
    env = dict(os.environ, RXBENCH_BINARY=str(tree / "rxbench"))
    rc, _ = communicate([sys.executable, "-B", "-m", "unittest", "-v",
                         "test_names"], 120, cwd=HERE / "tests", env=env)
    return 1 if rc is None else rc


def main():
    # A runner stopped from outside stops its child first.
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-psnr-gain-db", type=float,
                    help="quality floor: served default-model PSNR must beat "
                         "a naive DC-less decode by this much (default: the "
                         "value in BENCHMARK.json's command)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        if args.min_psnr_gain_db is None:
            args.min_psnr_gain_db = recorded_psnr_gain()
        return run_workload(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
