"""Parsing and printing of algebra classes.

Grammar (whitespace insignificant)::

    class   := term (("+"|"-") term)*
    term    := [INT ("*")?]? factor ("*" factor)* | INT
    factor  := "t" INDEX ("^" POSINT)? | "dt" INDEX

A leading sign on the first term is accepted as part of its coefficient.
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

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<dt>dt(?P<dtidx>\d+))|(?P<t>t(?P<tidx>\d+))"
    r"|(?P<plus>\+)|(?P<minus>-)|(?P<star>\*)|(?P<caret>\^))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        start = m.start() + len(m.group(0)) - len(m.group(0).lstrip())
        if m.group("num"):
            tokens.append(("num", int(m.group("num")), start))
        elif m.group("dt"):
            tokens.append(("dt", int(m.group("dtidx")), start))
        elif m.group("t"):
            tokens.append(("t", int(m.group("tidx")), start))
        elif m.group("plus"):
            tokens.append(("+", None, start))
        elif m.group("minus"):
            tokens.append(("-", None, start))
        elif m.group("star"):
            tokens.append(("*", None, start))
        else:
            tokens.append(("^", None, start))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, cfg, length):
        self.tokens = tokens
        self.cfg = cfg
        self.i = 0
        self.length = length

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def pos(self):
        return self.tokens[self.i][2] if self.i < len(self.tokens) else self.length

    def parse_class(self):
        if not self.tokens:
            raise ParseError("empty expression", 0)
        terms = [self.parse_term(lead_sign=True)]
        while self.peek() is not None:
            kind, _, pos = self.next()
            if kind not in "+-":
                raise ParseError("expected '+' or '-' between terms", pos)
            terms.append(self.parse_term(sign=-1 if kind == "-" else 1))
        return terms

    def parse_term(self, sign=1, lead_sign=False):
        if lead_sign and self.peek() in ("+", "-"):
            kind, _, _ = self.next()
            sign = -1 if kind == "-" else 1
        coeff = sign
        saw_number = False
        if self.peek() == "num":
            _, value, _ = self.next()
            coeff *= value
            saw_number = True
            if self.peek() == "*":
                self.next()
                if self.peek() not in ("t", "dt"):
                    raise ParseError("expected a t or dt factor after '*'", self.pos())
        exps = [0] * self.cfg.n
        dts = []
        while True:
            kind = self.peek()
            if kind in ("t", "dt"):
                self.parse_factor(exps, dts)
            elif kind == "*":
                _, _, pos = self.next()
                if self.peek() not in ("t", "dt"):
                    raise ParseError("expected a t or dt factor after '*'", self.pos())
            else:
                break
        if not saw_number and not dts and not any(exps):
            raise ParseError("expected a term", self.pos())
        # Koszul sign for exterior factors written out of ascending order
        coeff *= _perm_sign(dts)
        mask = 0
        for k in dts:
            mask |= 1 << (k - 1)
        return mask, tuple(exps), coeff

    def parse_factor(self, exps, dts):
        kind, idx, pos = self.next()
        if not 1 <= idx <= self.cfg.n:
            raise ParseError(f"index {idx} out of range 1..{self.cfg.n}", pos)
        if kind == "dt":
            if self.peek() == "^":
                raise ParseError("exponent not allowed on a dt factor", self.pos())
            if idx in dts:
                raise ParseError(f"repeated exterior generator dt{idx}", pos)
            dts.append(idx)
            return
        e = 1
        if self.peek() == "^":
            self.next()
            if self.peek() != "num":
                raise ParseError("expected an exponent after '^'", self.pos())
            _, e, epos = self.next()
            if e < 1:
                raise ParseError("exponent must be positive", epos)
        exps[idx - 1] += e


def parse_class(text, cfg):
    """Parse expression text into a normalized ExtClass."""
    if not isinstance(cfg, Config):
        raise TypeError("cfg must be a Config")
    parser = _Parser(_tokenize(text), cfg, len(text))
    return ExtClass.from_terms(cfg, parser.parse_class())


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


def _field(obj, key):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"JSON payload is missing the key {key!r}")
    return obj[key]


def _integer(value, what):
    # JSON integers only: bool is an int subclass and floats would truncate
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _list(value, what):
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def class_from_json(data, cfg=None):
    """Rebuild a class from its JSON dict; validates shape, types and ranges."""
    p = _integer(_field(data, "p"), "p")
    n = _integer(_field(data, "n"), "n")
    if cfg is None:
        cfg = Config(p, n)
    elif (cfg.p, cfg.n) != (p, n):
        raise ValueError("JSON payload does not match the given config")
    terms = []
    for entry in _list(_field(data, "terms"), "terms"):
        exps = [_integer(e, "exponent") for e in _list(_field(entry, "exps"), "exps")]
        if len(exps) != cfg.n or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps}")
        mask = 0
        for k in _list(_field(entry, "dts"), "dts"):
            k = _integer(k, "dt index")
            if not 1 <= k <= cfg.n:
                raise ValueError(f"dt index {k} out of range 1..{cfg.n}")
            bit = 1 << (k - 1)
            if mask & bit:
                raise ValueError(f"repeated dt index {k}")
            mask |= bit
        coeff = _integer(_field(entry, "coeff"), "coeff")
        terms.append((mask, tuple(exps), coeff))
    return ExtClass.from_terms(cfg, terms)
