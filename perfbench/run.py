"""Closed-loop benchmark of the ``milnorq`` CLI.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload chern --seed 1 --seconds 28 --trace 0

One client runs one CLI subprocess at a time and checks each call's stdout
(see ``workloads.py``).  It repeats passes over the workload's call list and
never starts a pass that it expects to end after ``--seconds``; at least one
pass always runs.  During the first pass it also times a fresh
``import milnorq.cli`` several times (``setup_s``).  ``--trace 1`` instead
runs each call twice, plainly and under ``tracer.py``, and reports
per-layer metrics from the traced runs.

Times are reported in reference seconds (see ``Calibration``); the raw
times are printed too.

The metric names and units are those of BENCHMARK.json at the checkout root.
The last stdout line is the JSON result; earlier lines describe the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACE_PREFIX, TRACED  # noqa: E402

SETUP_REPS = 7
CALL_TIMEOUT_S = 150
TAIL_BEYOND = 10
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class Calibration:
    """The host's speed, from a fixed pure-Python task timed before each call.

    On a virtual machine that shares its host, the speed of the same code
    drifts by 20-45% between periods a few minutes apart, which is more than
    any bound a regression test could use.  Times are therefore reported in
    reference seconds: the raw time multiplied by ``factor()``, NOMINAL_S
    over the median time of the task in the same run.  The task is sparse
    dict-polynomial arithmetic, the same kind of work that dominates the
    program.  Raw times are printed beside the scaled ones.
    """

    NOMINAL_S = 0.02

    def __init__(self):
        one = (0, 0, 0)
        self.a = reference.poly_pow({one: 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}, 6, 7, 3)
        self.b = reference.poly_pow({one: 1, (1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3}, 3, 7, 3)
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        for _ in range(10):
            reference.poly_mul(self.a, self.b, 7)
        self.samples.append(time.perf_counter() - t0)

    def factor(self):
        return self.NOMINAL_S / statistics.median(self.samples)


class Result:
    """Outcome of one child process."""

    def __init__(self, code, out, err, wall_s, maxrss_kb):
        self.code, self.out, self.err = code, out, err
        self.wall_s, self.maxrss_kb = wall_s, maxrss_kb


def spawn(argv, env):
    """Run argv to completion; wall time from spawn to exit, peak RSS via wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=env,
    )
    timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, out.decode(), err[0].decode(), wall, usage.ru_maxrss)


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def cli_argv(call):
    return [sys.executable, "-m", "milnorq.cli"] + call.args


def traced_argv(call):
    return [sys.executable, str(HERE / "tracer.py")] + call.args


def verdict(call, res):
    """None when the call exited 0 with the right answer."""
    if res.code != 0:
        return f"exit code {res.code}: {res.err.strip()[-300:]}"
    try:
        return call.check(res.out)
    except (KeyError, TypeError, ValueError) as exc:
        return f"could not read the answer: {exc!r}"


def tail(values, beyond=TAIL_BEYOND):
    """(percentile, value) of the highest percentile with ``beyond`` samples
    above it, or None when there are too few samples."""
    ranked = sorted(values)
    k = len(ranked) - beyond
    if k < 1:
        return None
    return 100.0 * k / len(ranked), ranked[k - 1]


def import_wall(env):
    """Wall time of a fresh interpreter importing milnorq.cli: the set-up cost."""
    res = spawn([sys.executable, "-c", "import milnorq.cli"], env)
    if res.code != 0:
        raise RuntimeError(f"import milnorq.cli failed: {res.err.strip()[-300:]}")
    return res.wall_s


def run_passes(calls, seconds, one_pass):
    """Repeat one_pass(calls) while the next pass is expected to end in time."""
    start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(one_pass(calls))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return passes


class Tally:
    """Calls attempted and failed, with a description of each problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, call, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{' '.join(call.args)[:160]}: {problem}")


def plain_run(calls, seconds, env, tally, setup_reps, calib):
    """End-to-end metrics from untraced passes.

    The set-up samples are spread over the first pass, because the host's
    speed drifts within seconds and back-to-back samples share one state.
    """
    import_wall(env)  # writes bytecode caches on a fresh checkout; not timed
    due = [len(calls) * j // setup_reps for j in range(setup_reps)]
    setup_walls = []

    def one_pass(calls):
        first = not setup_walls
        results = []
        for i, call in enumerate(calls):
            for _ in range(due.count(i) if first else 0):
                calib.sample()
                setup_walls.append(import_wall(env))
            calib.sample()
            res = spawn(cli_argv(call), env)
            tally.record(call, verdict(call, res))
            results.append(res)
        return results

    passes = run_passes(calls, seconds, one_pass)
    walls = [r.wall_s for results in passes for r in results]
    times = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(sum(r.wall_s for r in results) for results in passes),
        "call_p50_s": statistics.median(walls),
    }
    found = tail(walls)
    if found:
        times["call_tail_s"] = found[1]
    factor = calib.factor()
    print(f"passes: {len(passes)} of {len(calls)} calls; speed factor {factor:.4f}")
    print("raw: " + ", ".join(f"{k} {v:.4f} s" for k, v in times.items()))
    print(f"call_p50_s: {times['call_p50_s'] * factor:.4f} s over N={len(walls)} calls")
    if found:
        print(f"call_tail_s: p{found[0]:.1f} of N={len(walls)} calls = {found[1] * factor:.4f} s")
    else:
        print(f"call_tail_s: omitted, N={len(walls)} calls leave fewer than {TAIL_BEYOND} beyond")
    return {
        "setup_s": times["setup_s"] * factor,
        "wall_s": times["wall_s"] * factor,
        "peak_rss_mb": max(r.maxrss_kb for results in passes for r in results) / 1024.0,
    }


def read_trace(err):
    for line in reversed(err.splitlines()):
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX):])
    raise ValueError("traced run printed no trace")


def layer_metrics(trace):
    """Per-layer metrics of one traced call, named as in BENCHMARK.json."""
    out = {k: v for k, v in trace.items() if isinstance(v, (int, float))}
    out["cli.self_s"] = trace.get("cli.main.self_s", 0.0)
    for layer in TRACED:
        out[f"layer.{layer}.self_s"] = sum(
            v for k, v in trace.items() if k.startswith(layer + ".") and k.endswith(".self_s")
        )
    return out


def traced_run(calls, seconds, env, tally, calib):
    """Per-layer metrics: each call runs plainly, then under the tracer."""
    plain_wall = []
    traced_wall = []
    missing = set()

    def one_pass(calls):
        sums = {}
        counts = []
        for call in calls:
            calib.sample()
            plain = spawn(cli_argv(call), env)
            traced = spawn(traced_argv(call), env)
            problem = verdict(call, plain)
            if not problem and (traced.code, traced.out) != (plain.code, plain.out):
                problem = "traced stdout or exit code differs from the untraced run"
            metrics = {}
            if not problem:
                try:
                    trace = read_trace(traced.err)
                except ValueError as exc:
                    problem = str(exc)
                else:
                    missing.update(trace["missing"])
                    metrics = layer_metrics(trace)
            tally.record(call, problem)
            plain_wall.append(plain.wall_s)
            traced_wall.append(traced.wall_s)
            counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
            for k, v in metrics.items():
                sums[k] = sums.get(k, 0) + v
        return sums, counts

    passes = run_passes(calls, seconds, one_pass)
    for sums, counts in passes[1:]:
        if counts != passes[0][1]:
            tally.problems.append("work counts differ between passes of the same calls")
    print(f"passes: {len(passes)} of {len(calls)} calls, each plain and traced")
    if missing:
        print("traced functions not found in the program: " + ", ".join(sorted(missing)))
    metrics = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        if name == "trace.overhead_frac":
            metrics[name] = (sum(traced_wall) - sum(plain_wall)) / sum(plain_wall)
        else:
            metrics[name] = statistics.median(sums.get(name, 0) for sums, _ in passes)
            if spec["unit"] == "s":
                metrics[name] *= calib.factor()
    print(f"speed factor {calib.factor():.4f}")
    return metrics


def environment(env):
    probe = spawn(
        [sys.executable, "-c", "import numpy, milnorq; print(numpy.__version__, milnorq.backend_name())"],
        env,
    )
    numpy_version, backend = (probe.out.split() + ["?", "?"])[:2]
    cpu = platform.processor() or "?"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="self-test mode: one pass over the first calls only, one timed import",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "milnorq" / "cli.py").is_file():
        print(f"no milnorq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    work = ROOT / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        calls = workloads.build(args.workload, args.seed, work)
        seconds, setup_reps = args.seconds, SETUP_REPS
        if args.smoke:
            calls, seconds, setup_reps = calls[:6], 0, 1
        info = environment(env)
        info["loadavg_before"] = os.getloadavg()
        print(f"workload {args.workload}, seed {args.seed}, {len(calls)} calls per pass")
        tally = Tally()
        calib = Calibration()
        if args.trace:
            metrics = traced_run(calls, seconds, env, tally, calib)
            specs = SPEC["per_layer"]
        else:
            metrics = plain_run(calls, seconds, env, tally, setup_reps, calib)
            specs = SPEC["end_to_end"]
        info["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("environment " + json.dumps(info))
    for problem in tally.problems:
        print("FAILED " + problem, file=sys.stderr)
    print(f"failed_frac: {tally.failed / max(tally.attempted, 1)} "
          f"({tally.failed} of {tally.attempted} calls)")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
    }
    for s in specs:
        print(f"{s['name']}: {metrics[s['name']]} {s['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
