"""No call of the package loads numpy, and each runs only what it uses.

The import, the kernel products however large, membership by subduction,
the sparse solvers of linalg and the invariant dimensions of hilbert and
prop-iso, and the other CLI calls all leave numpy unloaded.  The library
modules sit in sys.modules from the import on but run on first use, so
a CLI call runs only the modules of its subcommand, and the benchmark's
tracer, which wraps what it finds in sys.modules, still sees every
function.  Each check runs in a fresh interpreter: this test process
already holds numpy (tests/oracles.py imports it) and every module, so
sys.modules here says nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import milnorq

SRC = str(Path(milnorq.__file__).resolve().parent.parent)
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
LIBRARY = {
    "algebra",
    "backend",
    "chern",
    "errors",
    "exprio",
    "invariants",
    "linalg",
    "steenrod",
    "torus",
}

IMPORT = """
import sys
import milnorq
assert "numpy" not in sys.modules, "import milnorq"
import milnorq.cli
assert "numpy" not in sys.modules, "import milnorq.cli"
"""

C1_32 = "t1^6 + t1^4*t2^2 + t1^2*t2^4 + t2^6"
E_32 = "t1^3*t2 - t1*t2^3"

# each a CLI call of its own, in a fresh interpreter
QUIET_CALL = """
import contextlib, io, sys
import milnorq.cli
code, argv = {code!r}, {argv!r}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert milnorq.cli.main(argv) == code, argv
assert "numpy" not in sys.modules, argv
"""

QUIET_CLI = [
    (0, ["moore", "-p", "5", "-n", "3"]),
    (0, ["orbit", "-p", "5", "-n", "2", "--group", "gl", "--start", "1,0"]),
    (0, ["apply", "-p", "5", "-n", "2", "--ops", "Q0,P1", "--expr", "t1*dt2"]),
    (0, ["e8-adjoint", "-p", "3"]),
    (0, ["chern-reg", "-p", "5", "-n", "3"]),
    (0, ["chern-reg", "-p", "7", "-n", "3"]),
    (0, ["chern-reg", "-p", "3", "-n", "4"]),
    (0, ["theorem-main", "-p", "7", "-n", "3"]),
    (0, ["dickson", "-p", "3", "-n", "4"]),
    (0, ["dickson", "-p", "7", "-n", "3"]),
    (2, ["hilbert", "-p", "97", "-n", "4", "--group", "sl", "--max-degree", "200"]),
    (2, ["membership", "-p", "3", "-n", "4", "--ring", "d", "--expr", "t1^600"]),
    # members (c1 and e at (3, 2)) and a non-member, on both rings
    (0, ["membership", "-p", "3", "-n", "2", "--ring", "d", "--expr", C1_32]),
    (0, ["membership", "-p", "3", "-n", "2", "--ring", "sd", "--expr", E_32]),
    (0, ["membership", "-p", "3", "-n", "4", "--ring", "d", "--expr", "t1^162"]),
    (0, ["membership", "-p", "3", "-n", "4", "--ring", "sd", "--expr", "t1^162"]),
    # invariant dimensions through the sparse solvers
    (0, ["prop-iso", "-p", "3", "-n", "2"]),
    (0, ["prop-iso", "-p", "5", "-n", "3"]),
    (0, ["hilbert", "-p", "3", "-n", "4", "--group", "sl", "--max-degree", "10"]),
    (0, ["hilbert", "-p", "3", "-n", "2", "--group", "gl", "--max-degree", "16"]),
]

LARGE_PRODUCT = """
import sys
from milnorq.backend import poly_mul
a = {(i, 0): 1 for i in range(1 << 13)}
b = {(0, j): 2 for j in range(16)}
assert poly_mul(a, b, 3) == {(i, j): 2 for i in range(1 << 13) for j in range(16)}
assert "numpy" not in sys.modules, "a 2^17-pair poly_mul"
"""

SOLVERS = """
import sys
from milnorq.linalg import Matrix, kernel_basis, rref, solve
m = Matrix([{0: 1, 1: 2}, {0: 2, 1: 4}], 2)
red, pivots = rref(m, 5)
assert red.rows == [{0: 1, 1: 2}, {}] and pivots == [0]
assert kernel_basis(m, 5) == [{0: 1, 1: 2}]
assert solve(m, {0: 1, 1: 2}, 5) == {0: 1}
assert "numpy" not in sys.modules, "linalg solvers"
"""


# the library modules that have run: a lazy one is not yet a plain module
RAN = """
import contextlib, io, sys, types
import milnorq.cli

def ran():
    return {
        name.rpartition(".")[2]
        for name, module in sys.modules.items()
        if name.startswith("milnorq.") and type(module) is types.ModuleType
    } - {"cli"}

def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert milnorq.cli.main(argv) == 0, argv
"""

LAZY_IMPORT = RAN + """
assert ran() == {"errors"}, ran()
assert {name for name in sys.modules if name.startswith("milnorq.")} == {
    "milnorq.cli", *("milnorq." + m for m in %r)
}
assert "json" not in sys.modules
""" % sorted(LIBRARY)


def lazy_call(argv, unused):
    """Code that runs one CLI call and checks that none of unused ran."""
    return RAN + f"quiet({argv!r})\nassert not ran() & {unused!r}, ran()\n"


LAZY_APPLY = lazy_call(
    ["apply", "-p", "5", "-n", "2", "--ops", "Q0,P1", "--expr", "t1*dt2", "--json"],
    {"chern", "torus", "invariants", "linalg"},
)


def weights_call(command):
    """Code that writes a weights file, runs command on it and checks that
    none of invariants, linalg and steenrod ran."""
    return RAN + f"""
import os, tempfile
with tempfile.TemporaryDirectory() as tmp:
    weights = os.path.join(tmp, "weights.txt")
    with open(weights, "w", encoding="utf-8") as fh:
        fh.write("1,0 x2\\n0,1\\n")
    quiet([{command!r}, "-p", "3", "-n", "2", "--weights", weights])
assert not ran() & {{"invariants", "linalg", "steenrod"}}, ran()
"""


LAZY_CHERN_REP = weights_call("chern-rep")

LAZY_MU = weights_call("mu")

LAZY_INVARIANCE = lazy_call(
    ["invariance", "-p", "3", "-n", "2", "--group", "sl", "--expr", E_32],
    {"linalg", "steenrod"},
)

LAZY_ORBIT = lazy_call(
    ["orbit", "-p", "5", "-n", "2", "--group", "gl", "--start", "1,0"],
    {"linalg", "steenrod"},
)

LAZY_DICKSON = lazy_call(["dickson", "-p", "3", "-n", "2"], {"linalg"})

LAZY_MEMBERSHIP = lazy_call(
    ["membership", "-p", "3", "-n", "2", "--ring", "sd", "--expr", E_32], {"linalg"}
)

LAZY_E8 = RAN + """
quiet(["e8-adjoint", "-p", "3"])
assert ran() == {"torus", "errors"}, ran()
"""

STAR = """
import milnorq
assert set(milnorq.__all__) <= set(dir(milnorq))
names = {}
exec("from milnorq import *", names)
assert set(milnorq.__all__) <= set(names)
assert names["Config"] is milnorq.algebra.Config
assert names["e8_adjoint_check"] is milnorq.torus.e8_adjoint_check
try:
    milnorq.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("milnorq.no_such_name resolved")
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_fresh(code):
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_import_and_small_cli_calls_leave_numpy_unloaded():
    run_fresh(IMPORT)
    for code, argv in QUIET_CLI:
        run_fresh(QUIET_CALL.format(code=code, argv=argv))


def test_large_product_leaves_numpy_unloaded():
    run_fresh(LARGE_PRODUCT)


def test_solvers_leave_numpy_unloaded():
    run_fresh(SOLVERS)


@pytest.mark.parametrize(
    "code",
    [
        LAZY_IMPORT,
        LAZY_APPLY,
        LAZY_E8,
        LAZY_CHERN_REP,
        LAZY_MU,
        LAZY_INVARIANCE,
        LAZY_ORBIT,
        LAZY_DICKSON,
        LAZY_MEMBERSHIP,
        STAR,
    ],
    ids=[
        "import",
        "apply",
        "e8-adjoint",
        "chern-rep",
        "mu",
        "invariance",
        "orbit",
        "dickson",
        "membership",
        "star-import",
    ],
)
def test_calls_run_only_the_modules_they_use(code):
    run_fresh(code)


@pytest.mark.parametrize(
    "argv",
    [
        ["chern-reg", "-p", "3", "-n", "2"],
        ["apply", "-p", "5", "-n", "2", "--ops", "Q0,P1", "--expr", "t1*dt2"],
        ["e8-adjoint", "-p", "3"],
    ],
    ids=["chern-reg", "apply", "e8-adjoint"],
)
def test_the_tracer_finds_every_function(argv):
    def call(*cmd):
        return subprocess.run(
            [sys.executable, *cmd, *argv],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )

    plain = call("-m", "milnorq.cli")
    traced = call(str(TRACER))
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    prefix, _, trace = traced.stderr.strip().splitlines()[-1].partition(" ")
    assert prefix == "perfbench-trace"
    assert json.loads(trace)["missing"] == []
