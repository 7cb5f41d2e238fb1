"""Parsing and printing of algebra classes.

Grammar (whitespace insignificant)::

    class   := ["+"|"-"] term (("+"|"-") term)*
    term    := INT | [INT ["*"]] factor (["*"] factor)*
    factor  := "t" INDEX ["^" POSINT] | "dt" INDEX

Factors may be juxtaposed ("2t1", "t1 dt2"); a "*" stands only between a
number or factor and the factor after it, so no term starts with "*".
Only the first term may carry a sign, which joins its coefficient.
Exterior factors may appear in any order (Koszul signs are applied), but a
repeated dt index in one term is rejected as a likely user error, as is an
explicit exponent on a dt factor.

render_class produces the canonical text: terms sorted by (degree,
graded-lex monomial, subset), coefficients printed with balanced sign so
that e.g. coefficient p-1 renders as "- ...".  parse_class(render_class(x))
recovers x exactly.
"""

from __future__ import annotations

import re

from .algebra import Config, ExtClass, _perm_sign
from .errors import ParseError

# one token per match; finditer skips whitespace, since no group matches it.
# Digits are ASCII only: int() would also read other scripts' digits
_TOKEN = re.compile(
    r"(?P<num>[0-9]+)|(?P<dt>dt[0-9]+)|(?P<t>t[0-9]+)|(?P<op>[-+*^])|(?P<bad>\S)"
)


def parse_class(text, cfg):
    """Parse expression text into a normalized ExtClass."""
    if not isinstance(cfg, Config):
        raise TypeError("cfg must be a Config")
    n = cfg.n
    # (kind, value, position): kind is "num", "t" or "dt" with an integer
    # value, or the operator itself; the sentinel kind None ends the list
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, word, at = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}", at)
        tokens.append((word, None, at) if kind == "op" else (kind, int(word.lstrip("dt")), at))
    if not tokens:
        raise ParseError("empty expression", 0)
    tokens.append((None, None, len(text)))
    # state is what the last token allows next: "sign" and "term" open a
    # term (only the first may take a sign), "t" follows a t factor that
    # may take an exponent, "body" follows a number, a dt factor or an
    # exponent, and "*" and "^" wait for their operand
    terms = []
    coeff, exps, dts, state = 1, [0] * n, [], "sign"
    for i, (kind, value, at) in enumerate(tokens):
        if state == "*" and kind not in ("t", "dt"):
            raise ParseError("expected a t or dt factor after '*'", at)
        if state == "^":
            if kind != "num":
                raise ParseError("expected an exponent after '^'", at)
            if value < 1:
                raise ParseError("exponent must be positive", at)
            exps[last] += value - 1
            state = "body"
        elif kind in ("t", "dt"):
            if not 1 <= value <= n:
                raise ParseError(f"index {value} out of range 1..{n}", at)
            if kind == "t":
                last, state = value - 1, "t"
                exps[last] += 1
            elif tokens[i + 1][0] == "^":  # reported before a repeat
                raise ParseError("exponent not allowed on a dt factor", tokens[i + 1][2])
            elif value in dts:
                raise ParseError(f"repeated exterior generator dt{value}", at)
            else:
                dts.append(value)
                state = "body"
        elif state in ("sign", "term"):
            if kind == "num":
                coeff *= value
                state = "body"
            elif state == "sign" and kind in ("+", "-"):
                coeff = -1 if kind == "-" else 1
                state = "term"
            else:
                raise ParseError("expected a term", at)
        elif kind == "*":
            state = "*"
        elif kind == "^" and state == "t":
            state = "^"
        else:
            # the term ends; Koszul sign for dt factors out of ascending order
            mask = sum(1 << (k - 1) for k in dts)
            terms.append((mask, tuple(exps), coeff * _perm_sign(dts)))
            if kind not in ("+", "-", None):
                raise ParseError("expected '+' or '-' between terms", at)
            coeff, exps, dts, state = -1 if kind == "-" else 1, [0] * n, [], "term"
    return ExtClass.from_terms(cfg, terms)


def _factor_text(mask, mono):
    factors = [f"t{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(mono) if e]
    factors += [f"dt{k + 1}" for k in range(len(mono)) if mask >> k & 1]
    return "*".join(factors)


def render_class(x):
    """Canonical text form; inverse of parse_class on normalized classes."""
    p = x.cfg.p
    pieces = []
    for mask, mono, coeff in x.iter_terms():
        if coeff <= (p - 1) // 2:
            negative, mag = False, coeff
        else:
            negative, mag = True, p - coeff
        body = _factor_text(mask, mono)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if not pieces:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces) if pieces else "0"


def class_to_json(x):
    """JSON-ready dict: {"p", "n", "terms": [{"coeff", "exps", "dts"}...]}."""
    terms = []
    for mask, mono, coeff in x.iter_terms():
        dts = [k + 1 for k in range(x.cfg.n) if mask >> k & 1]
        terms.append({"coeff": coeff, "exps": list(mono), "dts": dts})
    return {"p": x.cfg.p, "n": x.cfg.n, "terms": terms}

