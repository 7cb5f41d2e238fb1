"""Self-tests of the benchmark: python3 -m pytest perfbench/tests"""

import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref
import workloads
from run import ROOT, SPEC, Calibration, tail
from tracer import TRACE_PREFIX, Spans, label

PERFBENCH = Path(__file__).resolve().parents[1]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    spans = Spans(clock)
    spans.enter()  # outer: 0 .. 10
    clock.now = 1.0
    spans.enter()  # child a: 1 .. 4
    clock.now = 2.0
    spans.enter()  # grandchild: 2 .. 3
    clock.now = 3.0
    spans.exit("grand")
    clock.now = 4.0
    spans.exit("a")
    clock.now = 6.0
    spans.enter()  # child a again: 6 .. 8
    clock.now = 8.0
    spans.exit("a")
    clock.now = 10.0
    spans.exit("outer")
    assert spans.stats["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert spans.stats["a"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert spans.stats["grand"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_labels():
    assert label("algebra", "ExtClass.__mul__") == "algebra.ExtClass_mul"
    assert label("backend", "poly_mul") == "backend.poly_mul"


def test_tail_keeps_ten_samples_beyond():
    assert tail(list(range(10))) is None
    assert tail(list(range(11))) == (100.0 / 11, 0)
    pct, value = tail([float(v) for v in range(100, 0, -1)])
    assert (pct, value) == (90.0, 90.0)
    assert sum(1 for v in range(1, 101) if v > value) == 10


def test_calibration_scales_by_the_median_task_time():
    calib = Calibration()
    calib.samples = [0.01, 0.08, 0.04]
    assert calib.factor() == Calibration.NOMINAL_S / 0.04
    calib.sample()
    assert len(calib.samples) == 4 and calib.samples[-1] > 0


def test_dickson_reference_matches_regular_chern_class():
    # two routes: the f_n recursion against the product of (1 + v) over V_n
    for p, n in [(3, 1), (3, 2), (5, 2), (3, 3)]:
        reg = {v: 1 for v in itertools.product(range(p), repeat=n)}
        creg = ref.chern_product(reg, p, n)
        for idx, c in enumerate(ref.dickson_invariants(p, n)):
            i = n - 1 - idx
            part = ref.homogeneous(creg, p**n - p**i)
            assert part == {m: (v * (-1) ** (idx + 1)) % p for m, v in c.items()}
        e = ref.moore_determinant(p, n)
        assert ref.poly_pow(e, p - 1, p, n) == ref.dickson_invariants(p, n)[-1]


def test_reference_steenrod_rules():
    p, n = 5, 2
    x = {(0b11, (0, 0)): 1}
    qq = ref.apply_word([("Q", 0), ("Q", 1)], x, p, n)
    assert qq == {(0, (5, 1)): 1, (0, (1, 5)): 4}
    assert ref.milnor_q(1, ref.milnor_q(1, {(0b11, (2, 1)): 3}, p, n), p, n) == {}
    assert ref.reduced_power(1, {(0, (1, 0)): 1}, p, n) == {(0, (5, 0)): 1}


def cli(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, "-m", "milnorq.cli"] + args, capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def corrupt(data):
    """The same JSON answer with one term or coefficient wrong."""
    if "decomposition" in data:
        data["decomposition"][0]["coeff"] += 1
        return data
    terms = data["class"]["terms"] if "class" in data else data["terms"]
    terms.append({"coeff": 1, "exps": [999] * data["n"], "dts": []})
    return data


@pytest.fixture
def calls(tmp_path):
    return {name: build(random.Random(7), tmp_path) for name, build in workloads.WORKLOADS.items()}


def test_desk_checkers_accept_the_program_and_reject_wrong_answers(calls):
    seen = set()
    for call in calls["desk"]:
        out = cli(call.args)
        assert call.check(out) is None, call.args
        seen.add(call.name)
        if call.name == "orbit":
            assert call.check(out.replace("orbit size: ", "orbit size: 1")) is not None
        elif call.name == "invariance":
            flipped = out.replace("yes", "n0").replace("no", "yes").replace("n0", "no")
            assert call.check(flipped) is not None
        elif call.name in ("membership", "chern-rep", "apply"):
            assert call.check(json.dumps(corrupt(json.loads(out)))) is not None
        elif call.name == "mu":
            assert call.check(out.replace(" = 1", " = 2", 1)) is not None
        else:
            assert call.check(out + "\n") is not None
    assert seen == {
        "apply", "membership", "mu", "prop-iso", "theorem-main", "e8-adjoint",
        "moore", "dickson", "orbit", "invariance", "chern-rep",
    }


def test_mu_check_knows_powers_of_the_regular_representation(tmp_path):
    rng = random.Random(3)
    pure = workloads.mu_call(rng, tmp_path, 3, 2, 2, 0)
    assert pure.check(cli(pure.args)) is None
    assert cli(pure.args).splitlines()[-1] == "power of c(reg): 2"
    mixed = workloads.mu_call(rng, tmp_path, 3, 2, 2, 1)
    assert cli(mixed.args).splitlines()[-1] == "not a power of c(reg)"
    assert mixed.check(cli(mixed.args)) is None


def test_digests_cover_every_fixed_call(calls):
    keys = set()
    for call_list in calls.values():
        for call in call_list:
            key = " ".join(call.args)
            if key in workloads.DIGESTS:
                keys.add(key)
    assert keys == set(workloads.DIGESTS)
    assert workloads.digest_check("no such call")("") is not None
    key = "moore -p 3 -n 2"
    assert hashlib.sha256(cli(key.split()).encode()).hexdigest() == workloads.DIGESTS[key]


def traced(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py")] + args,
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    line = res.stderr.splitlines()[-1]
    assert line.startswith(TRACE_PREFIX)
    return res.stdout, json.loads(line[len(TRACE_PREFIX):])


def test_tracer_keeps_stdout_and_repeats_counts():
    args = ["chern-reg", "-p", "3", "-n", "2"]
    out1, t1 = traced(args)
    out2, t2 = traced(args)
    assert out1 == out2 == cli(args)
    assert t1["missing"] == []
    counts = [k for k in t1 if k.endswith((".calls", ".pairs", ".terms_out"))]
    assert counts and all(t1[k] == t2[k] for k in counts)
    # total_chern reaches poly_mul through algebra's imported binding
    assert t1["backend.poly_mul.calls"] > 0
    assert t1["algebra.ExtClass_mul.calls"] > 0
    assert t1["invariants.dickson_classes.cache_misses"] == 1


def test_tracer_counts_rref_cells():
    _, t = traced(["prop-iso", "-p", "3", "-n", "2"])
    assert t["linalg.rref.calls"] >= 1 and t["linalg.rref.cells"] > 0
    assert t["cli.main.self_s"] <= t["cli.main.total_s"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + list(args),
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_pass_prints_every_metric(trace):
    res = run_bench("--workload", "desk", "--seed", "5", "--seconds", "0", "--trace", trace, "--smoke")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    specs = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for s in specs:
        metric = result["metrics"][s["name"]]
        assert metric["unit"] == s["unit"]
        assert metric["value"] >= 0 or s["name"] == "trace.overhead_frac"
    assert not (ROOT / ".perfbench_work").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = run_bench("--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
