"""numpy is loaded only by the packed product and the dense solvers.

The packed product loads it only once the dict loop has spent
NUMPY_IMPORT_PAIRS pairs on products of PACKED_MIN_PAIRS pairs or more, or
when a solver has loaded it already.  Each check runs in a fresh
interpreter: this test process already holds numpy (tests/oracles.py
imports it), so sys.modules here says nothing.
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

# each a CLI call of its own, in a fresh interpreter: the rent budget is
# spent per process
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
    # products under NUMPY_IMPORT_PAIRS in total stay on the dict loop
    (0, ["chern-reg", "-p", "5", "-n", "3"]),
    (0, ["theorem-main", "-p", "7", "-n", "3"]),
    (0, ["dickson", "-p", "3", "-n", "4"]),
    (2, ["hilbert", "-p", "97", "-n", "4", "--group", "sl", "--max-degree", "40"]),
    (2, ["membership", "-p", "3", "-n", "4", "--ring", "d", "--expr", "t1^600"]),
]

SPY = """
import sys
from milnorq import backend
from milnorq.backend import NUMPY_IMPORT_PAIRS, PACKED_MIN_PAIRS, _dict_mul, poly_mul
packed = []  # |a|*|b| of each product that reaches the packed path
packed_mul = backend._packed_mul
def spy(a, b, p):
    packed.append(len(a) * len(b))
    return packed_mul(a, b, p)
backend._packed_mul = spy
a = {(i, i % 3): 1 + i % 2 for i in range(PACKED_MIN_PAIRS // 8)}
b = {(j % 2, j): 2 for j in range(8)}
assert len(a) * len(b) == PACKED_MIN_PAIRS
"""

# one product of PACKED_MIN_PAIRS short of the budget
BELOW_BUDGET = SPY + """
for k in range(NUMPY_IMPORT_PAIRS // PACKED_MIN_PAIRS - 1):
    x, y, p = (a, b, 3) if k % 2 else (b, a, 5)
    assert poly_mul(x, y, p) == _dict_mul(a, b, p)
    assert poly_mul(a, {(0, 0): 1}, 3) == a  # under PACKED_MIN_PAIRS: not counted
assert "numpy" not in sys.modules, "products below the budget"
assert not packed
"""

CROSSING = BELOW_BUDGET + """
assert poly_mul(a, b, 3) == _dict_mul(a, b, 3)
assert "numpy" in sys.modules, "the product that crosses the budget"
assert packed == [PACKED_MIN_PAIRS]
"""

# a single product of NUMPY_IMPORT_PAIRS pairs buys numpy at once
ONE_LARGE_PRODUCT = SPY + """
big = {(i, 0): 1 for i in range(NUMPY_IMPORT_PAIRS // 8)}
assert poly_mul(big, b, 3) == _dict_mul(big, b, 3)
assert "numpy" in sys.modules and packed == [NUMPY_IMPORT_PAIRS]
"""

AFTER_SOLVER = SPY + """
from milnorq import linalg
linalg.rref([[1, 2], [2, 4]], 5)
assert "numpy" in sys.modules
assert poly_mul(a, b, 3) == _dict_mul(a, b, 3)
assert packed == [PACKED_MIN_PAIRS], "a product of PACKED_MIN_PAIRS once numpy is loaded"
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
    run_fresh(IMPORT)
    for code, argv in QUIET_CLI:
        run_fresh(QUIET_CALL.format(code=code, argv=argv))


def test_products_below_the_budget_leave_numpy_unloaded():
    run_fresh(BELOW_BUDGET)


def test_product_that_crosses_the_budget_loads_numpy():
    run_fresh(CROSSING)
    run_fresh(ONE_LARGE_PRODUCT)


def test_packed_path_once_a_solver_has_loaded_numpy():
    run_fresh(AFTER_SOLVER)


def test_rref_loads_numpy():
    run_fresh(RREF)
