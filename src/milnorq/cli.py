"""Command-line front end: one subcommand per verification.

Exit codes: 0 when every asserted check passed, 1 when a mathematical check
failed, 2 for usage, parse or resource-guard errors.  Every subcommand
honors --json and --out FILE, and identical invocations produce
byte-identical output.

A call runs only what its subcommand uses.  build_parser adds only the
subcommand argv names, json is imported only for --json, and the library
modules are the package's lazily loaded ones (see milnorq/__init__.py),
each run when a handler first reaches into it.  Handlers look functions up
through their module at call time.  The modules are bound here, not
imported inside each handler, because a bound module is still unexecuted:
one import line serves every handler and runs nothing a call does not use.
(perfbench/tracer.py finds the modules either way: milnorq/__init__.py
puts every one of them in sys.modules.)
"""

from __future__ import annotations

import argparse
import os
import sys

from . import algebra, chern, exprio, invariants, steenrod, torus
from .errors import (
    ConfigMismatchError,
    ConsistencyError,
    ParseError,
    ResourceGuardError,
    ascii_int,
    guard_bytes,
)

# hilbert's rows and lines per degree: whole n = 1 calls peaked (tracemalloc)
# at 364-518 B a degree for 2 * 10^4 to 10^5 degrees, 958 B for 2,001
_HILBERT_DEGREE_BYTES = 1024
# reading and parsing a weights file peaked (tracemalloc) at up to 61 B a
# byte, for files of one-digit lines
_WEIGHTS_FILE_BYTES = 128


def _add_common(sub, with_n=True):
    sub.add_argument("-p", "--p", dest="p", type=ascii_int, required=True, help="odd prime")
    if with_n:
        sub.add_argument("-n", "--n", dest="n", type=ascii_int, required=True, help="rank")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    sub.add_argument("--out", metavar="FILE", help="write the report to FILE")


def _group_name(cfg, kind):
    return f"{kind.upper()}_{cfg.n}(F_{cfg.p})"


def cmd_dickson(args, cfg):
    ds = invariants.dickson_classes(cfg)
    lines = [f"dickson classes for p={cfg.p}, n={cfg.n}"]
    lines.append(f"e  (degree {ds.e.degree():3d}) = {exprio.render_class(ds.e)}")
    for idx, ci in enumerate(ds.c):
        i = cfg.n - 1 - idx
        lines.append(f"c{i} (degree {ci.degree():3d}) = {exprio.render_class(ci)}")
    payload = {"e": exprio.class_to_json(ds.e), "c": [exprio.class_to_json(ci) for ci in ds.c]}
    return 0, payload, lines


def cmd_moore(args, cfg):
    x = invariants.moore_class(cfg)
    return 0, exprio.class_to_json(x), [exprio.render_class(x)]


def cmd_apply(args, cfg):
    word = steenrod.parse_op_word(args.ops)
    y = steenrod.apply_word(word, exprio.parse_class(args.expr, cfg))
    return 0, exprio.class_to_json(y), [exprio.render_class(y)]


def cmd_invariance(args, cfg):
    group = invariants.group_generators(cfg, args.group)
    inv = invariants.is_invariant(exprio.parse_class(args.expr, cfg), group)
    payload = {"group": group.kind, "invariant": inv}
    lines = [f"invariant under {_group_name(cfg, args.group)}: {'yes' if inv else 'no'}"]
    return 0, payload, lines


def cmd_membership(args, cfg):
    ring = args.ring.upper()
    dec = invariants.membership_dickson(exprio.parse_class(args.expr, cfg), ring)
    names = list(invariants._generator_degrees(cfg, ring))
    payload = {
        "ring": ring,
        "generators": names,
        "member": dec is not None,
        "decomposition": None
        if dec is None
        else [
            {"exponents": list(exps), "coeff": dec[exps]} for exps in sorted(dec)
        ],
    }
    if dec is None:
        lines = [f"not a member of {ring}_{cfg.n}"]
    else:
        lines = [
            f"member of {ring}_{cfg.n}",
            f"decomposition: {invariants.decomposition_text(cfg, ring, dec)}",
        ]
    return 0, payload, lines


def cmd_orbit(args, cfg):
    start = tuple(ascii_int(c) for c in args.start.split(","))
    group = invariants.group_generators(cfg, args.group)
    size = invariants.orbit_size(group, start)
    payload = {
        "group": args.group.upper(),
        "start": list(start),
        "orbit_size": size,
    }
    return 0, payload, [f"orbit size: {size}"]


def cmd_hilbert(args, cfg):
    if args.max_degree < 0:
        raise ValueError("max degree must be non-negative")
    degrees = range(args.max_degree + 1)
    guard_bytes(f"rows and lines for {len(degrees)} degrees", _HILBERT_DEGREE_BYTES * len(degrees))
    group = invariants.group_generators(cfg, args.group)
    ring = "SM" if group.kind == "SL" else "M"
    for d in reversed(degrees):  # refuse before any work, the top degrees first
        invariants.check_invariant_matrix_bytes(group, d)
    rows = []
    for d, pred in enumerate(invariants._hilbert_series(cfg, args.max_degree, ring)):
        dim, _ = invariants.invariant_dimension(group, d)
        rows.append({"d": d, "computed": dim, "predicted": pred, "match": dim == pred})
    ok = all(row["match"] for row in rows)
    payload = {
        "group": group.kind,
        "ring": ring,
        "rows": rows,
        "all_match": ok,
    }
    lines = [f"invariant dimensions vs {ring}_{cfg.n} free-module prediction"]
    for row in rows:
        mark = "ok" if row["match"] else "MISMATCH"
        lines.append(
            f"d={row['d']:2d}: computed {row['computed']:3d}, "
            f"predicted {row['predicted']:3d} [{mark}]"
        )
    lines.append("all degrees match" if ok else "MISMATCH FOUND")
    return (0 if ok else 1), payload, lines


def cmd_theorem_main(args, cfg):
    a_max = args.a_max if args.a_max is not None else 2 * (cfg.p - 1)
    table = chern.obstruction_table(cfg, a_max)
    contract = all(in_d == (a % (cfg.p - 1) == 0) for a, in_d in table)
    payload = {
        "case": chern.CASES[cfg.n][0],
        "rows": [{"a": a, "in_D": in_d} for a, in_d in table],
        "contract_holds": contract,
    }
    e_degree = invariants._generator_degrees(cfg, "SD")["e"]  # e_n is built in the table
    lines = [f"powers of the degree-{e_degree} class vs D_{cfg.n}"]
    for a, in_d in table:
        expected = a % (cfg.p - 1) == 0
        mark = "ok" if in_d == expected else "UNEXPECTED"
        lines.append(
            f"a={a:2d}: in D_{cfg.n}? {'yes' if in_d else 'no'} "
            f"(expected {'yes' if expected else 'no'}) [{mark}]"
        )
    lines.append(
        "membership exactly at multiples of p-1"
        if contract
        else "CONTRACT VIOLATED"
    )
    return (0 if contract else 1), payload, lines


def cmd_chern_reg(args, cfg):
    creg = chern.total_chern(chern.regular_representation(cfg))
    ds = invariants.dickson_classes(cfg)
    expected = algebra.ExtClass.one(cfg)
    for idx, ci in enumerate(ds.c):
        expected = expected + ci.scale((-1) ** (idx + 1))
    match = creg == expected
    nterms = sum(len(poly) for poly in creg.parts.values())
    payload = {
        "dimension": cfg.p**cfg.n,
        "terms": nterms,
        "match": match,
    }
    lines = [
        f"total Chern class of the regular representation: "
        f"{nterms} terms, top degree {creg.degree()}",
        "identity with the alternating Dickson sum: "
        + ("holds" if match else "FAILS"),
    ]
    return (0 if match else 1), payload, lines


def _load_weights(args, cfg):
    with open(args.weights, encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size  # priced before it is read
        guard_bytes(f"a weights file of {size} bytes", _WEIGHTS_FILE_BYTES * size)
        return chern.WeightMultiset.parse(fh.read(), cfg)


def cmd_chern_rep(args, cfg):
    rho = _load_weights(args, cfg)
    c = chern.total_chern(rho)
    payload = {
        "dimension": rho.dimension,
        "class": exprio.class_to_json(c),
    }
    lines = [
        f"dimension {rho.dimension}",
        f"total Chern class: {exprio.render_class(c)}",
    ]
    return 0, payload, lines


def cmd_mu(args, cfg):
    rho = _load_weights(args, cfg)
    c = chern.total_chern(rho)
    profile = chern.divisibility_profile(c)
    a = chern.power_of_regular(c)
    payload = {
        "profile": [{"weight": list(v), "mu": m} for v, m in sorted(profile.items())],
        "power_of_regular": a,
    }
    lines = [
        f"mu({','.join(str(c) for c in v)}) = {m}" for v, m in sorted(profile.items())
    ]
    lines.append(
        f"power of c(reg): {a}" if a is not None else "not a power of c(reg)"
    )
    return 0, payload, lines


def cmd_prop_iso(args, cfg):
    if cfg.n == 2:
        d = 2
        expected = algebra.ExtClass.dt_top(cfg)
    elif cfg.n == 3:
        d = 4
        expected = steenrod.milnor_q(0, algebra.ExtClass.dt_top(cfg))
    else:
        raise ValueError("prop-iso is defined for n = 2 or n = 3")
    sl = invariants.group_generators(cfg, "SL")
    dim, basis = invariants.invariant_dimension(sl, d)
    ok = dim == 1 and basis[0] == expected
    payload = {
        "d": d,
        "dim": dim,
        "basis": [exprio.class_to_json(b) for b in basis],
        "match": ok,
    }
    lines = [f"SL-invariants of degree {d}: dimension {dim}"]
    lines += [f"basis: {exprio.render_class(b)}" for b in basis]
    lines.append(
        f"matches the expected one-dimensional space spanned by "
        f"{exprio.render_class(expected)}: {'yes' if ok else 'NO'}"
    )
    return (0 if ok else 1), payload, lines


def cmd_e8_adjoint(args, cfg):
    report = torus.e8_adjoint_check(args.p)
    lines = [
        f"Chern series: {report['series']}",
        f"c2 = {report['c2']}",
        f"v_{report['p']}(|c2|) = {report['valuation']}",
        f"gamma = {report['gamma']} = {report['gamma_mod_p']} (mod {report['p']})",
        f"restricted character dimensions: {report['lambda2_dim']} + {report['spin_dim']}",
        "note: the symmetric-square-style character has dimension 112; the"
        " 120-dimensional orthogonal summand it models differs by 8 zero"
        " weights, which contribute only factors of 1 to the Chern class",
    ]
    return 0, report, lines


GROUP = ("--group", {"required": True, "choices": ["sl", "gl"]})
EXPR = ("--expr", {"required": True})
WEIGHTS = ("--weights", {"required": True, "metavar": "FILE"})

# name -> (help, handler, arguments after the common ones), in help order
SUBCOMMANDS = {
    "dickson": ("Dickson classes e, c_{n,i} with degrees", cmd_dickson, []),
    "moore": ("e_n as the Moore determinant", cmd_moore, []),
    "apply": (
        "apply an operation word to an expression",
        cmd_apply,
        [
            (
                "--ops",
                {"required": True, "help": "comma-separated word, e.g. Q0,Q1,P2"},
            ),
            ("--expr", {"required": True, "help": "algebra class expression"}),
        ],
    ),
    "invariance": (
        "test invariance under SL or GL generators",
        cmd_invariance,
        [GROUP, EXPR],
    ),
    "membership": (
        "decompose over the D or SD generators",
        cmd_membership,
        [("--ring", {"required": True, "choices": ["d", "sd"]}), EXPR],
    ),
    "orbit": (
        "orbit size of a weight vector",
        cmd_orbit,
        [GROUP, ("--start", {"required": True, "help": "comma-separated residues"})],
    ),
    "hilbert": (
        "invariant dimensions vs free-module prediction",
        cmd_hilbert,
        [
            GROUP,
            ("--max-degree", {"dest": "max_degree", "type": ascii_int, "required": True}),
        ],
    ),
    "theorem-main": (
        "powers of e_n against D_n membership",
        cmd_theorem_main,
        [("--a-max", {"dest": "a_max", "type": ascii_int})],
    ),
    "chern-reg": ("c(reg) vs the alternating Dickson sum", cmd_chern_reg, []),
    "chern-rep": ("total Chern class of a weights file", cmd_chern_rep, [WEIGHTS]),
    "mu": ("divisibility profile of a weights file", cmd_mu, [WEIGHTS]),
    "prop-iso": ("low-degree SL-invariant bases", cmd_prop_iso, []),
    "e8-adjoint": ("restricted rank-248 Chern series report", cmd_e8_adjoint, []),
}


def build_parser(argv=None):
    """The parser, with only the subcommand that argv starts with, if any.

    Building all the subparsers is a noticeable part of a short call.  Once
    argv[0] is a subcommand, argparse hands the rest of argv to that
    subparser alone, so the others could not take part in the parse.  Any
    other argv (help, an unknown command, a leading option, or none) gets
    every subcommand, so help lists them all and errors name every choice.
    """
    parser = argparse.ArgumentParser(
        prog="milnorq",
        description="exact verifications in modular invariant theory and Chern classes",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    names = argv[:1] if argv and argv[0] in SUBCOMMANDS else SUBCOMMANDS
    for name in names:
        help_text, handler, arguments = SUBCOMMANDS[name]
        s = sub.add_parser(name, help=help_text)
        _add_common(s, with_n=name != "e8-adjoint")
        for flag, keywords in arguments:
            s.add_argument(flag, **keywords)
        s.set_defaults(handler=handler)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        # every subcommand but e8-adjoint takes -n and works in one Config
        cfg = algebra.Config(args.p, args.n) if "n" in args else None
        code, payload, lines = args.handler(args, cfg)
        if cfg is not None:  # every report in one Config leads with its p and n
            payload = {"p": cfg.p, "n": cfg.n, **payload}
        if args.json:
            import json

            text = json.dumps(payload)
        else:
            text = "\n".join(lines)
        if args.out:  # a path that cannot be written is refused like any bad input
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 2
    except (ConfigMismatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    if not args.out:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
