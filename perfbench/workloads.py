"""The benchmark's workloads: fixed lists of ``milnorq`` CLI calls with answers.

Each call carries a check that decides, from the call's stdout, whether the
answer is right.  Calls without a seed-dependent input are checked against
the sha256 of their stdout recorded in ``digests.json``, which holds the
CLI contract that identical invocations give byte-identical output.  Seeded
calls are checked against answers the benchmark knows on its own (see
``reference.py``): the program receives only the generated inputs.

Input sizes are fixed per call slot and only the random vectors, exponents
and coefficients change with the seed, so the cost of a pass hardly depends
on the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import reference as ref

DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())


@dataclass
class Call:
    """One CLI invocation: arguments after ``milnorq`` and its answer check.

    Every call must exit 0.  ``check`` maps stdout to None when the answer is
    right, else to a short description of what is wrong.
    """

    args: list
    check: Callable[[str], Optional[str]]

    @property
    def name(self):
        return self.args[0]


# -- checks ------------------------------------------------------------------


def digest_check(key):
    want = DIGESTS.get(key)

    def check(out):
        if want is None:
            return f"no recorded digest for {key!r}"
        got = hashlib.sha256(out.encode()).hexdigest()
        return None if got == want else f"stdout digest {got[:12]} != {want[:12]}"

    return check


def both(*checks):
    def check(out):
        for c in checks:
            msg = c(out)
            if msg:
                return msg
        return None

    return check


def fixed(*args):
    """A call without seeded input, checked by its recorded stdout digest."""
    args = list(args)
    return Call(args, digest_check(" ".join(args)))


def json_check(predicate):
    def check(out):
        try:
            data = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        return predicate(data)

    return check


def line_check(pattern, want):
    """The first line matching ``pattern`` has group 1 equal to ``want``."""
    rx = re.compile(pattern, re.M)

    def check(out):
        m = rx.search(out)
        if m is None:
            return f"no line matching {pattern!r}"
        return None if m.group(1) == want else f"got {m.group(1)!r}, want {want!r}"

    return check


def check_mu(p, n, weights):
    """mu(v) is the multiplicity of v; the power of c(reg) is a iff rho = a*reg."""
    nonzero = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    want_mu = {v: weights.get(v, 0) for v in nonzero}
    mults = set(want_mu.values())
    power = str(mults.pop()) if len(mults) == 1 else None
    want_last = f"power of c(reg): {power}" if power else "not a power of c(reg)"

    def check(out):
        lines = out.splitlines()
        got = {}
        for line in lines[:-1]:
            m = re.fullmatch(r"mu\(([\d,]+)\) = (\d+)", line)
            if m is None:
                return f"unexpected line {line!r}"
            got[tuple(int(c) for c in m.group(1).split(","))] = int(m.group(2))
        if got != want_mu:
            return "divisibility profile differs from the weight multiplicities"
        if not lines or lines[-1] != want_last:
            return f"last line {lines[-1:]!r}, want {want_last!r}"
        return None

    return check


# -- seeded inputs -------------------------------------------------------------


def random_nonzero(rng, p, n):
    while True:
        v = tuple(rng.randrange(p) for _ in range(n))
        if any(v):
            return v


def weights_file(rng, work, p, n, a, extras):
    """a*reg plus ``extras`` random nonzero weights of multiplicity one."""
    weights = {v: a for v in itertools.product(range(p), repeat=n)} if a else {}
    for _ in range(extras):
        v = random_nonzero(rng, p, n)
        weights[v] = weights.get(v, 0) + 1
    lines = [f"{','.join(map(str, v))} x{m}" for v, m in weights.items()]
    rng.shuffle(lines)
    path = Path(work) / f"weights-{rng.getrandbits(48):012x}.txt"
    path.write_text("\n".join(lines) + "\n")
    return weights, str(path)


def mu_call(rng, work, p, n, a, extras):
    weights, path = weights_file(rng, work, p, n, a, extras)
    return Call(["mu", "-p", str(p), "-n", str(n), "--weights", path], check_mu(p, n, weights))


def chern_rep_call(rng, work, p, n, a, extras):
    weights, path = weights_file(rng, work, p, n, a, extras)
    want = ref.poly_class(ref.chern_product(weights, p, n))
    dim = sum(weights.values())

    def predicate(data):
        if data["dimension"] != dim:
            return f"dimension {data['dimension']} != {dim}"
        return None if ref.class_from_json(data["class"]) == want else "Chern class differs"

    args = ["chern-rep", "-p", str(p), "-n", str(n), "--weights", path, "--json"]
    return Call(args, json_check(predicate))


def apply_call(rng, p, n, terms=4, ops=2):
    """A random class and operation word; always one P so P^j is exercised."""
    x = {}
    while len(x) < terms:
        key = (rng.randrange(1 << n), tuple(rng.randrange(4) for _ in range(n)))
        x[key] = rng.randrange(1, p)
    word = [("P", rng.randrange(1, 3))]
    word += [(rng.choice("QP"), rng.randrange(3)) for _ in range(ops - 1)]
    rng.shuffle(word)
    want = ref.apply_word(word, x, p, n)
    text = ",".join(f"{kind}{idx}" for kind, idx in word)
    args = ["apply", "-p", str(p), "-n", str(n), "--ops", text, "--expr", ref.class_text(x, n), "--json"]
    return Call(args, json_check(lambda d: None if ref.class_from_json(d) == want else "class differs"))


def orbit_call(rng, p, n, group):
    """For n >= 2, SL_n and GL_n are transitive on the p^n - 1 nonzero vectors."""
    start = ",".join(map(str, random_nonzero(rng, p, n)))
    args = ["orbit", "-p", str(p), "-n", str(n), "--group", group, "--start", start]
    return Call(args, line_check(r"^orbit size: (\d+)$", str(p**n - 1)))


def dickson_degrees(p, n, ring):
    """t-degrees of the generators of D_n ("d") or SD_n ("sd"), in CLI order."""
    cs = [p**n - p**i for i in range(n - 1, -1, -1)]
    return cs if ring == "d" else [(p**n - 1) // (p - 1)] + cs[:-1]


def dickson_generators(p, n, ring):
    cs = ref.dickson_invariants(p, n)
    return cs if ring == "d" else [ref.moore_determinant(p, n)] + cs[:-1]


def compositions(total, degrees):
    """Exponent tuples E with sum(E[i] * degrees[i]) == total."""
    if not degrees:
        return [()] if total == 0 else []
    return [
        (k,) + rest
        for k in range(total // degrees[0] + 1)
        for rest in compositions(total - k * degrees[0], degrees[1:])
    ]


def dickson_monomial(p, n, ring, exps, coeff):
    out = {(0,) * n: coeff % p}
    for gen, e in zip(dickson_generators(p, n, ring), exps):
        if e:
            out = ref.poly_mul(out, ref.poly_pow(gen, e, p, n), p)
    return out


def invariance_call(rng, p, n, group, degree, terms, with_e):
    """A sum of Dickson monomials of t-degree ``degree``, plus e_n if with_e.

    Dickson classes are GL_n-invariant; e_n is SL_n-invariant and the GL_n
    generator diag(r, 1, ..., 1) scales it by r != 1, so adding e_n keeps
    SL_n-invariance and breaks GL_n-invariance.
    """
    choices = compositions(degree, dickson_degrees(p, n, "d"))
    x = {}
    for exps in rng.sample(choices, min(terms, len(choices))):
        x = ref.poly_add(x, dickson_monomial(p, n, "d", exps, rng.randrange(1, p)), p)
    if with_e:
        x = ref.poly_add(x, ref.moore_determinant(p, n), p)
    want = "no" if with_e and group == "gl" else "yes"
    args = ["invariance", "-p", str(p), "-n", str(n), "--group", group]
    args += ["--expr", ref.class_text(ref.poly_class(x), n)]
    return Call(args, line_check(r"^invariant under \S+: (\w+)$", want))


def membership_call(rng, p, n, ring, degree):
    """A Dickson monomial c*g^E decomposes as exactly {E: c}."""
    exps = rng.choice(compositions(degree, dickson_degrees(p, n, ring)))
    coeff = rng.randrange(1, p)
    x = dickson_monomial(p, n, ring, exps, coeff)
    want = [{"exponents": list(exps), "coeff": coeff}]
    args = ["membership", "-p", str(p), "-n", str(n), "--ring", ring]
    args += ["--expr", ref.class_text(ref.poly_class(x), n), "--json"]
    return Call(args, json_check(lambda d: None if d["decomposition"] == want else "wrong decomposition"))


E8_C2 = line_check(r"^c2 = (-?\d+)$", "-120")


# -- workloads ---------------------------------------------------------------


def coverage(rng, work):
    """Cheap calls that reach every traced layer, so each workload's trace
    reports a measured time for every layer metric."""
    return [
        apply_call(rng, 3, 2),
        membership_call(rng, 3, 2, "d", 24),
        mu_call(rng, work, 3, 2, 1, 1),
        fixed("prop-iso", "-p", "3", "-n", "2"),
        fixed("theorem-main", "-p", "3", "-n", "2"),
        Call(["e8-adjoint", "-p", "3"], both(E8_C2, digest_check("e8-adjoint -p 3"))),
    ]


def chern(rng, work):
    return [
        fixed("chern-reg", "-p", "5", "-n", "3"),
        fixed("chern-reg", "-p", "3", "-n", "3"),
        fixed("chern-reg", "-p", "5", "-n", "2"),
        fixed("chern-reg", "-p", "7", "-n", "2"),
        mu_call(rng, work, 3, 3, 1, 3),
        mu_call(rng, work, 5, 2, 3, 0),
        mu_call(rng, work, 5, 2, 2, 2),
        mu_call(rng, work, 7, 2, 1, 3),
        chern_rep_call(rng, work, 3, 3, 1, 2),
        chern_rep_call(rng, work, 5, 2, 2, 2),
        chern_rep_call(rng, work, 7, 2, 1, 1),
    ] + coverage(rng, work)


def substitution(rng, work):
    return [
        fixed("theorem-main", "-p", "7", "-n", "3"),
        fixed("theorem-main", "-p", "5", "-n", "3"),
        fixed("dickson", "-p", "7", "-n", "3"),
        fixed("dickson", "-p", "3", "-n", "4"),
        invariance_call(rng, 7, 3, "gl", 294, 1, False),
        invariance_call(rng, 5, 3, "gl", 200, 3, True),
        invariance_call(rng, 3, 4, "gl", 54, 1, False),
        invariance_call(rng, 7, 2, "gl", 168, 4, True),
    ] + coverage(rng, work)


def hilbert(rng, work):
    return [
        fixed("hilbert", "-p", "3", "-n", "4", "--group", "sl", "--max-degree", "10"),
        fixed("hilbert", "-p", "5", "-n", "3", "--group", "gl", "--max-degree", "16"),
        fixed("prop-iso", "-p", "5", "-n", "3"),
        fixed("prop-iso", "-p", "7", "-n", "3"),
        membership_call(rng, 3, 3, "d", 96),
        membership_call(rng, 5, 3, "d", 200),
        membership_call(rng, 3, 3, "sd", 52),
        membership_call(rng, 7, 2, "d", 168),
    ] + coverage(rng, work)


def desk(rng, work):
    return coverage(rng, work) + [
        apply_call(rng, 5, 2),
        apply_call(rng, 3, 3, terms=6, ops=3),
        apply_call(rng, 7, 2),
        apply_call(rng, 5, 3, terms=3),
        fixed("moore", "-p", "3", "-n", "2"),
        fixed("moore", "-p", "5", "-n", "3"),
        fixed("dickson", "-p", "3", "-n", "2"),
        fixed("dickson", "-p", "5", "-n", "2"),
        fixed("dickson", "-p", "3", "-n", "3"),
        orbit_call(rng, 3, 2, "sl"),
        orbit_call(rng, 5, 2, "gl"),
        orbit_call(rng, 3, 3, "sl"),
        orbit_call(rng, 7, 2, "gl"),
        Call(["e8-adjoint", "-p", "5"], both(E8_C2, digest_check("e8-adjoint -p 5"))),
        invariance_call(rng, 3, 2, "gl", 8, 2, False),
        invariance_call(rng, 5, 2, "gl", 20, 1, True),
        invariance_call(rng, 3, 3, "sl", 24, 2, True),
        invariance_call(rng, 7, 2, "gl", 48, 2, False),
        membership_call(rng, 5, 2, "sd", 20),
        membership_call(rng, 3, 3, "d", 48),
        membership_call(rng, 7, 2, "d", 90),
        chern_rep_call(rng, work, 3, 2, 1, 2),
        chern_rep_call(rng, work, 5, 2, 1, 1),
        chern_rep_call(rng, work, 3, 3, 0, 5),
    ]


WORKLOADS = {
    "chern": chern,
    "substitution": substitution,
    "hilbert": hilbert,
    "desk": desk,
}


def build(name, seed, work):
    """The call list of workload ``name`` for ``seed``; inputs go under ``work``."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)
