"""numpy is loaded only by the packed product and the dense solvers.

Each check runs in a fresh interpreter: this test process already holds
numpy (tests/oracles.py imports it), so sys.modules here says nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import milnorq

SRC = str(Path(milnorq.__file__).resolve().parent.parent)

QUIET_CLI = """
import contextlib, io, sys
import milnorq
assert "numpy" not in sys.modules, "import milnorq"
import milnorq.cli
assert "numpy" not in sys.modules, "import milnorq.cli"
for code, argv in (
    (0, ["moore", "-p", "5", "-n", "3"]),
    (0, ["orbit", "-p", "5", "-n", "2", "--group", "gl", "--start", "1,0"]),
    (0, ["apply", "-p", "5", "-n", "2", "--ops", "Q0,P1", "--expr", "t1*dt2"]),
    (0, ["e8-adjoint", "-p", "3"]),
    (2, ["hilbert", "-p", "97", "-n", "4", "--group", "sl", "--max-degree", "40"]),
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert milnorq.cli.main(argv) == code, argv
    assert "numpy" not in sys.modules, argv
"""

PACKED_PRODUCT = """
import sys
from milnorq.backend import PACKED_MIN_PAIRS, _dict_mul, poly_mul
a = {(i, 0): 1 for i in range(PACKED_MIN_PAIRS // 8)}
b = {(0, j): 2 for j in range(8)}
product = poly_mul(a, {(0, 0): 1}, 3)
assert "numpy" not in sys.modules, "a product below the packed cutoff"
product = poly_mul(a, b, 3)
assert "numpy" in sys.modules, "a product of PACKED_MIN_PAIRS pairs"
assert product == _dict_mul(a, b, 3)
"""

RREF = """
import sys
from milnorq import linalg
assert "numpy" not in sys.modules, "import milnorq.linalg"
red, pivots = linalg.rref([[1, 2], [2, 4]], 5)
assert "numpy" in sys.modules, "linalg.rref"
assert red.tolist() == [[1, 2], [0, 0]] and pivots == [0]
"""


def run_fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_import_and_small_cli_calls_leave_numpy_unloaded():
    run_fresh(QUIET_CLI)


def test_packed_product_loads_numpy():
    run_fresh(PACKED_PRODUCT)


def test_rref_loads_numpy():
    run_fresh(RREF)
