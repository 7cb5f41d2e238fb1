"""No call of the package loads numpy.

The import, the kernel products however large, membership by subduction,
the sparse solvers of linalg and the invariant dimensions of hilbert and
prop-iso, and the other CLI calls all leave it unloaded.  Each check runs
in a fresh interpreter: this test process already holds numpy
(tests/oracles.py imports it), so sys.modules here says nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import milnorq

SRC = str(Path(milnorq.__file__).resolve().parent.parent)

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
    (2, ["hilbert", "-p", "97", "-n", "4", "--group", "sl", "--max-degree", "40"]),
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


def run_fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
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
