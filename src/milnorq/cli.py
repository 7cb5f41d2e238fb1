"""Command-line front end: one subcommand per verification.

Exit codes: 0 when every asserted check passed, 1 when a mathematical check
failed, 2 for usage, parse or resource-guard errors.  Every subcommand
honors --json and --out FILE, and identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import Config, ExtClass
from .chern import (
    WeightMultiset,
    divisibility_profile,
    obstruction_table,
    power_of_regular,
    regular_representation,
    total_chern,
)
from .errors import (
    ConfigMismatchError,
    ConsistencyError,
    ParseError,
    ResourceGuardError,
)
from .exprio import class_to_json, parse_class, render_class
from .invariants import (
    _generator_degrees,
    check_invariant_matrix_bytes,
    decomposition_text,
    dickson_classes,
    group_generators,
    invariant_dimension,
    is_invariant,
    membership_dickson,
    moore_class,
    orbit_size,
    predicted_dimension,
)
from .steenrod import apply_word, milnor_q, parse_op_word
from .torus import e8_adjoint_check


def _add_common(sub, with_n=True):
    sub.add_argument("-p", "--p", dest="p", type=int, required=True, help="odd prime")
    if with_n:
        sub.add_argument("-n", "--n", dest="n", type=int, required=True, help="rank")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    sub.add_argument("--out", metavar="FILE", help="write the report to FILE")


def _group_name(cfg, kind):
    return f"{kind.upper()}_{cfg.n}(F_{cfg.p})"


def cmd_dickson(args, cfg):
    ds = dickson_classes(cfg)
    lines = [f"dickson classes for p={cfg.p}, n={cfg.n}"]
    lines.append(f"e  (degree {ds.e.degree():3d}) = {render_class(ds.e)}")
    for idx, ci in enumerate(ds.c):
        i = cfg.n - 1 - idx
        lines.append(f"c{i} (degree {ci.degree():3d}) = {render_class(ci)}")
    return 0, ds.to_json(), lines


def cmd_moore(args, cfg):
    x = moore_class(cfg)
    return 0, class_to_json(x), [render_class(x)]


def cmd_apply(args, cfg):
    word = parse_op_word(args.ops)
    y = apply_word(word, parse_class(args.expr, cfg))
    return 0, class_to_json(y), [render_class(y)]


def cmd_invariance(args, cfg):
    group = group_generators(cfg, args.group)
    inv = is_invariant(parse_class(args.expr, cfg), group)
    payload = {"p": cfg.p, "n": cfg.n, "group": group.kind, "invariant": inv}
    lines = [f"invariant under {_group_name(cfg, args.group)}: {'yes' if inv else 'no'}"]
    return 0, payload, lines


def cmd_membership(args, cfg):
    ring = args.ring.upper()
    dec = membership_dickson(parse_class(args.expr, cfg), ring)
    names = list(_generator_degrees(cfg, ring))
    payload = {
        "p": cfg.p,
        "n": cfg.n,
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
            f"decomposition: {decomposition_text(cfg, ring, dec)}",
        ]
    return 0, payload, lines


def cmd_orbit(args, cfg):
    start = tuple(int(c) for c in args.start.split(","))
    size = orbit_size(cfg, group_generators(cfg, args.group), start)
    payload = {
        "p": cfg.p,
        "n": cfg.n,
        "group": args.group.upper(),
        "start": list(start),
        "orbit_size": size,
    }
    return 0, payload, [f"orbit size: {size}"]


def cmd_hilbert(args, cfg):
    if args.max_degree < 0:
        raise ValueError("max degree must be non-negative")
    group = group_generators(cfg, args.group)
    ring = "SM" if group.kind == "SL" else "M"
    for d in range(args.max_degree + 1):
        check_invariant_matrix_bytes(cfg, d)  # refuse before any work
    rows = []
    for d in range(args.max_degree + 1):
        dim, _ = invariant_dimension(cfg, d, group)
        pred = predicted_dimension(cfg, d, ring)
        rows.append({"d": d, "computed": dim, "predicted": pred, "match": dim == pred})
    ok = all(row["match"] for row in rows)
    payload = {
        "p": cfg.p,
        "n": cfg.n,
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
    case = args.case
    if case is None:
        if cfg.n == 2:
            case = "pu"
        elif cfg.n == 3:
            case = "rank3"
        else:
            raise ValueError("theorem-main needs n = 2 or n = 3")
    a_max = args.a_max if args.a_max is not None else 2 * (cfg.p - 1)
    table = obstruction_table(cfg, case, a_max)
    contract = all(in_d == (a % (cfg.p - 1) == 0) for a, in_d in table)
    payload = {
        "p": cfg.p,
        "n": cfg.n,
        "case": case,
        "rows": [{"a": a, "in_D": in_d} for a, in_d in table],
        "contract_holds": contract,
    }
    lines = [f"powers of the degree-{moore_class(cfg).degree()} class vs D_{cfg.n}"]
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
    creg = total_chern(regular_representation(cfg))
    ds = dickson_classes(cfg)
    expected = ExtClass.one(cfg)
    for idx, ci in enumerate(ds.c):
        expected = expected + ci.scale((-1) ** (idx + 1))
    match = creg == expected
    nterms = sum(len(poly) for poly in creg.parts.values())
    payload = {
        "p": cfg.p,
        "n": cfg.n,
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
        return WeightMultiset.parse(fh.read(), cfg)


def cmd_chern_rep(args, cfg):
    rho = _load_weights(args, cfg)
    c = total_chern(rho)
    payload = {
        "p": cfg.p,
        "n": cfg.n,
        "dimension": rho.dimension,
        "class": class_to_json(c),
    }
    lines = [f"dimension {rho.dimension}", f"total Chern class: {render_class(c)}"]
    return 0, payload, lines


def cmd_mu(args, cfg):
    rho = _load_weights(args, cfg)
    chern = total_chern(rho)
    profile = divisibility_profile(chern)
    a = power_of_regular(chern)
    payload = {
        "p": cfg.p,
        "n": cfg.n,
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
        expected = ExtClass.dt_top(cfg)
    elif cfg.n == 3:
        d = 4
        expected = milnor_q(0, ExtClass.dt_top(cfg))
    else:
        raise ValueError("prop-iso is defined for n = 2 or n = 3")
    dim, basis = invariant_dimension(cfg, d, group_generators(cfg, "SL"))
    ok = dim == 1 and basis[0] == expected
    payload = {
        "p": cfg.p,
        "n": cfg.n,
        "d": d,
        "dim": dim,
        "basis": [class_to_json(b) for b in basis],
        "match": ok,
    }
    lines = [f"SL-invariants of degree {d}: dimension {dim}"]
    lines += [f"basis: {render_class(b)}" for b in basis]
    lines.append(
        f"matches the expected one-dimensional space spanned by "
        f"{render_class(expected)}: {'yes' if ok else 'NO'}"
    )
    return (0 if ok else 1), payload, lines


def cmd_e8_adjoint(args, cfg):
    report = e8_adjoint_check(args.p, args.trunc)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="milnorq",
        description="exact verifications in modular invariant theory and Chern classes",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    s = sub.add_parser("dickson", help="Dickson classes e, c_{n,i} with degrees")
    _add_common(s)
    s.set_defaults(handler=cmd_dickson)

    s = sub.add_parser("moore", help="e_n as the Moore determinant")
    _add_common(s)
    s.set_defaults(handler=cmd_moore)

    s = sub.add_parser("apply", help="apply an operation word to an expression")
    _add_common(s)
    s.add_argument("--ops", required=True, help="comma-separated word, e.g. Q0,Q1,P2")
    s.add_argument("--expr", required=True, help="algebra class expression")
    s.set_defaults(handler=cmd_apply)

    s = sub.add_parser("invariance", help="test invariance under SL or GL generators")
    _add_common(s)
    s.add_argument("--group", required=True, choices=["sl", "gl"])
    s.add_argument("--expr", required=True)
    s.set_defaults(handler=cmd_invariance)

    s = sub.add_parser("membership", help="decompose over the D or SD generators")
    _add_common(s)
    s.add_argument("--ring", required=True, choices=["d", "sd"])
    s.add_argument("--expr", required=True)
    s.set_defaults(handler=cmd_membership)

    s = sub.add_parser("orbit", help="orbit size of a weight vector")
    _add_common(s)
    s.add_argument("--group", required=True, choices=["sl", "gl"])
    s.add_argument("--start", required=True, help="comma-separated residues")
    s.set_defaults(handler=cmd_orbit)

    s = sub.add_parser("hilbert", help="invariant dimensions vs free-module prediction")
    _add_common(s)
    s.add_argument("--group", required=True, choices=["sl", "gl"])
    s.add_argument("--max-degree", dest="max_degree", type=int, required=True)
    s.set_defaults(handler=cmd_hilbert)

    s = sub.add_parser("theorem-main", help="powers of e_n against D_n membership")
    _add_common(s)
    s.add_argument("--case", choices=["pu", "rank3"])
    s.add_argument("--a-max", dest="a_max", type=int)
    s.set_defaults(handler=cmd_theorem_main)

    s = sub.add_parser("chern-reg", help="c(reg) vs the alternating Dickson sum")
    _add_common(s)
    s.set_defaults(handler=cmd_chern_reg)

    s = sub.add_parser("chern-rep", help="total Chern class of a weights file")
    _add_common(s)
    s.add_argument("--weights", required=True, metavar="FILE")
    s.set_defaults(handler=cmd_chern_rep)

    s = sub.add_parser("mu", help="divisibility profile of a weights file")
    _add_common(s)
    s.add_argument("--weights", required=True, metavar="FILE")
    s.set_defaults(handler=cmd_mu)

    s = sub.add_parser("prop-iso", help="low-degree SL-invariant bases")
    _add_common(s)
    s.set_defaults(handler=cmd_prop_iso)

    s = sub.add_parser("e8-adjoint", help="restricted rank-248 Chern series report")
    _add_common(s, with_n=False)
    s.add_argument("--trunc", type=int, default=4)
    s.set_defaults(handler=cmd_e8_adjoint)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        # every subcommand but e8-adjoint takes -n and works in one Config
        cfg = Config(args.p, args.n) if "n" in args else None
        code, payload, lines = args.handler(args, cfg)
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
    text = json.dumps(payload) if args.json else "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
