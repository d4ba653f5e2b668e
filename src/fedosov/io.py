"""Canonical serialization, text rendering and input parsing.

JSON conventions (bit-exact across runs):
  * rationals are "p/q" strings (or "p" when q = 1); the decoder also
    takes a JSON integer, and refuses a float,
  * an integer field takes a JSON integer only, never a float, a numeric
    string or a boolean,
  * polynomials are lists of {"coeff": "p/q", "exps": [e1..e_{2n}]} sorted by
    exponent vector,
  * each sparse type is described once, in LAYOUTS, whose key fields are
    the type's own KEY declaration (which the GL transport reads too);
    to_json and from_json read that table.  The decoder sums duplicate
    terms and checks every vector and index set it reads.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

from .cochains import FiberwiseCochain
from .poly import XPoly, _acc, as_fraction
from .quantize import FedosovData, GaugeOperator
from .weyl import FormWeyl, SymplecticChart, WeylElement
from .weylhh import BarChain, KoszulChain, PsiElement, WeylCochain


class SchemaError(ValueError):
    pass


@contextmanager
def _schema(what):
    """Raise malformed input inside the block as a SchemaError."""
    try:
        yield
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise SchemaError(f"malformed {what}: {exc}") from exc


# ---------------------------------------------------------------------------
# coefficients and key fields


def frac_str(c: Fraction) -> str:
    return str(as_fraction(c))


def _is_int(v):
    # a JSON integer; json reads true and false as bools, which are ints
    return isinstance(v, int) and not isinstance(v, bool)


def _int(v):
    """A JSON integer, refusing floats, numeric strings and booleans."""
    if not _is_int(v):
        raise SchemaError(f"{v!r} is not an integer")
    return v


_RATIONAL = re.compile(r"[-+]?[0-9]+(/[0-9]+)?")


def _rational(v):
    """A "p/q" (or "p") string or a JSON integer as a Fraction.  A float
    is refused: its binary value is not the decimal written."""
    if isinstance(v, str) and _RATIONAL.fullmatch(v) or _is_int(v):
        return Fraction(v)
    raise SchemaError(f"{v!r} is not a rational: write \"p/q\" or an integer")


def _vector(v, dim):
    v = tuple(_int(e) for e in v)
    if len(v) != dim or any(e < 0 for e in v):
        raise SchemaError(f"vector {list(v)} must have {dim} non-negative entries")
    return v


def _index_set(v, dim):
    v = tuple(_int(i) for i in v)
    if any(not 1 <= i <= dim for i in v) or any(i >= j for i, j in zip(v, v[1:])):
        raise SchemaError(f"index set {list(v)} must increase strictly within "
                          f"1..{dim} (i < j for consecutive entries i, j)")
    return v


def xpoly_to_json(p: XPoly):
    return [{"coeff": frac_str(c), "exps": list(e)}
            for e, c in sorted(p.terms.items())]


def xpoly_from_json(data, nvars: int) -> XPoly:
    terms = {}
    for item in data:
        _acc(terms, _vector(item["exps"], nvars), _rational(item["coeff"]))
    return XPoly(nvars, terms)


_INT = (int, lambda v, dim: _int(v))
_VECTOR = (list, _vector)
_VECTORS = (lambda vs: [list(v) for v in vs],
            lambda vs, dim: tuple(_vector(v, dim) for v in vs))
_INDEX_SET = (sorted, _index_set)
_INTS = (list, lambda v, dim: tuple(_int(i) for i in v))
# every field of a term, with its (encode, decode(value, dim)): a field name
# has one kind in every layout
_FIELDS = {"hbar": _INT, "hbar_power": _INT, "upper": _INT, "lower": _INTS,
           "ydeg": _VECTOR, "y1": _VECTOR, "y2": _VECTOR, "dx_multi_index": _VECTOR,
           "slots": _VECTORS, "copies": _VECTORS, "dx": _INDEX_SET, "C": _INDEX_SET,
           "psi": _INDEX_SET, "indices": _INDEX_SET,
           "coeff": (frac_str, lambda v, dim: _rational(v)),
           "poly": (xpoly_to_json, xpoly_from_json)}

# A document is the integer header fields and, under items, the list of
# terms sorted by key (items None: the document is that list).  A term is
# its key fields, in key order, then its coefficient field; a sparse type
# names its key fields once, in its KEY, which the transport reads too.  A
# layout with group = (name, body, layout) writes the terms that share a
# first key entry as one item {name: entry, body: the rest in that layout}.
# build(terms=..., **header) makes the value; None means the type itself.
Layout = namedtuple("Layout", "header fields items group build",
                    defaults=("terms", None, None))
_WEYL = Layout(("dim", "order"), WeylElement.KEY + ("poly",))
# an element of W itself (constant coefficients) is written as a WeylCochain
# is, with Fraction "coeff" fields and no order; a WeylElement document
# without an order is read as one
_W = Layout(("dim",), WeylElement.KEY + ("coeff",),
            build=lambda terms, dim: WeylElement(dim, None, terms))
LAYOUTS = {
    WeylElement: _WEYL,
    # a form is written by dx block, each block a WeylElement: its empty
    # slots (the last key field) are not written
    FormWeyl: Layout(("dim", "order"), (), "components", (FormWeyl.KEY[0], "value", _WEYL),
                     lambda terms, **head: FormWeyl.from_terms(
                         terms={key + ((),): c for key, c in terms.items()}, **head)),
    FiberwiseCochain: Layout(("dim", "order", "arity", "cap"),
                             FiberwiseCochain.KEY + ("poly",)),
    WeylCochain: Layout(("dim", "arity"), WeylCochain.KEY + ("coeff",)),
    BarChain: Layout(("dim", "degree"), BarChain.KEY + ("coeff",)),
    KoszulChain: Layout(("dim", "degree"), KoszulChain.KEY + ("coeff",)),
    PsiElement: Layout(("dim",), PsiElement.KEY + ("coeff",)),
    # a gauge file carries no dim: its reader is told it
    GaugeOperator: Layout((), ("hbar_power", "dx_multi_index", "poly"),
                          build=lambda terms, dim: GaugeOperator(dim, _nest(terms))),
}
_ATTRS = {"degree": "m"}  # header field -> attribute, where they differ
# a 2-form series {hbar_power: {(i, j): XPoly}}
_SERIES = Layout((), (), None,
                 ("hbar_power", "form", Layout((), ("indices", "poly"), None)))
# the Christoffel symbols of a chart, {(j, (i, k)): XPoly}
_CHRISTOFFEL = Layout((), ("upper", "lower", "poly"), None)


def _nest(terms):
    """{(k, rest): c} -> {k: {rest: c}}."""
    out = {}
    for (k, rest), c in terms.items():
        out.setdefault(k, {})[rest] = c
    return out


def _encode(layout, head, terms):
    if layout.group:
        name, body_name, body = layout.group
        groups = _nest({(key[0], key[1:]): c for key, c in terms.items()})
        items = [{name: _FIELDS[name][0](g), body_name: _encode(body, head, sub)}
                 for g, sub in sorted(groups.items())]
    else:
        *keys, coeff = [(name, _FIELDS[name][0]) for name in layout.fields]
        items = []
        for key, c in sorted(terms.items()):
            item = {name: enc(v) for (name, enc), v in zip(keys, key)}
            item[coeff[0]] = coeff[1](c)
            items.append(item)
    if layout.items is None:
        return items
    doc = {name: head[name] for name in layout.header}
    doc[layout.items] = items
    return doc


def _decode(layout, doc, dim):
    """The flat term dict of doc, duplicate terms summed."""
    terms = {}
    for item in doc if layout.items is None else doc[layout.items]:
        if layout.group:
            name, body_name, body = layout.group
            g = _FIELDS[name][1](item[name], dim)
            for key, c in _decode(body, item[body_name], dim).items():
                _acc(terms, (g,) + key, c)
        else:
            *key, c = (_FIELDS[name][1](item[name], dim) for name in layout.fields)
            _acc(terms, tuple(key), c)
    return terms


def to_json(x):
    """The JSON document of a value of a type in LAYOUTS, or of an element
    of W (a WeylElement with no order or a constant coefficient)."""
    layout = LAYOUTS[type(x)]
    if layout is _WEYL and (x.order is None
                            or any(c.__class__ is not XPoly for c in x.terms.values())):
        layout = _W
    head = {name: getattr(x, _ATTRS.get(name, name)) for name in layout.header}
    return _encode(layout, head, x.terms)


def from_json(cls, doc, **known):
    """The value of type cls that doc describes; known gives header fields
    that the document does not carry."""
    layout = LAYOUTS[cls]
    with _schema(cls.__name__):
        if layout is _WEYL and "order" not in doc:
            layout = _W
        head = dict(known, **{_ATTRS.get(name, name): _int(doc[name])
                              for name in layout.header if name in doc})
        return (layout.build or cls)(terms=_decode(layout, doc, head["dim"]), **head)


weyl_to_json = form_to_json = cochain_to_json = wcochain_to_json = to_json
barchain_to_json = koszulchain_to_json = psi_to_json = to_json
weyl_from_json = partial(from_json, WeylElement)
form_from_json = partial(from_json, FormWeyl)
cochain_from_json = partial(from_json, FiberwiseCochain)
wcochain_from_json = partial(from_json, WeylCochain)
barchain_from_json = partial(from_json, BarChain)
koszulchain_from_json = partial(from_json, KoszulChain)
psi_from_json = partial(from_json, PsiElement)
gauge_from_json = partial(from_json, GaugeOperator)


def series_to_json(series):
    return _encode(_SERIES, {}, {(k, ij): p for k, form in series.items()
                                 for ij, p in form.items()})


def series_from_json(doc, dim: int):
    with _schema("2-form series"):
        return _nest(_decode(_SERIES, doc, dim))


# ---------------------------------------------------------------------------
# Fedosov data files and CLI reports


def chart_to_json(chart: SymplecticChart):
    return {
        "omega_lower": [[xpoly_to_json(p) for p in row] for row in chart.omega_lower],
        "omega_upper": [[xpoly_to_json(p) for p in row] for row in chart.omega_upper],
        "christoffel": _encode(_CHRISTOFFEL, {}, {(j, (i, k)): g for (j, i, k), g
                                                  in chart.christoffel.items() if g}),
    }


def fedosov_data_to_json(data) -> dict:
    out = {"dim": data.chart.dim, "order": data.order}
    out.update(chart_to_json(data.chart))
    out["Omega"] = series_to_json(data.omega_series)
    return out


def _matrix(doc, name, n):
    """The n x n matrix doc[name] of polynomials in n variables."""
    rows = doc[name]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise SchemaError(f"{name} must have {n} rows of {n} entries")
    return [[xpoly_from_json(p, n) for p in row] for row in rows]


def fedosov_data_from_json(doc) -> FedosovData:
    with _schema("Fedosov data"):
        n = _int(doc["dim"])
        order = _int(doc["order"])
        if order < 0:
            raise SchemaError(f"order must be >= 0, got {order}")
        lower = _matrix(doc, "omega_lower", n)
        upper = _matrix(doc, "omega_upper", n)
        christoffel = {}
        gammas = _decode(_CHRISTOFFEL, doc.get("christoffel", []), n)
        for (j, (i, k)), g in gammas.items():
            christoffel[(j, i, k)] = christoffel[(j, k, i)] = g
        omega_series = series_from_json(doc.get("Omega", []), n)
    chart = SymplecticChart(n, lower, upper, christoffel)
    return FedosovData(chart, omega_series, order)


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc


def load_fedosov_data(path: str) -> FedosovData:
    return fedosov_data_from_json(load_json(path))


def verify_report(suite, checks, **config):
    # a check's elapsed time stays off the wire: reports are byte-identical
    return {"suite": suite, "config": config,
            "checks": [{"id": c.id, "status": "pass" if c.ok else "fail",
                        "witness": c.witness} for c in checks]}


# ---------------------------------------------------------------------------
# text rendering


def _mono_text(prefix: str, exps) -> str:
    bits = []
    for i, e in enumerate(exps):
        if e == 1:
            bits.append(f"{prefix}{i + 1}")
        elif e:
            bits.append(f"{prefix}{i + 1}^{e}")
    return " ".join(bits)


def term_text(k: int, p, coeff: Fraction, dx=(), x=()) -> str:
    """coeff hbar^k y^p dx_S x^x, leaving out unit factors."""
    bits = ["hbar" if k == 1 else f"hbar^{k}" if k else "", _mono_text("y", p),
            "".join(f"dx{i}" for i in dx), _mono_text("x", x)]
    text = " ".join(b for b in bits if b)
    if not text:
        return frac_str(coeff)
    if coeff == 1:
        return text
    if coeff == -1:
        return "-" + text
    return f"{frac_str(coeff)} {text}"


def weyl_text(w: WeylElement, dx=()) -> str:
    """The terms of w, an XPoly coefficient monomial by monomial and a
    constant one as it stands."""
    if not w.terms:
        return "0"
    bits = [term_text(k, p, coeff, dx, e) for (k, p), c in sorted(w.terms.items())
            for e, coeff in (sorted(c.terms.items()) if isinstance(c, XPoly) else [((), c)])]
    return " + ".join(bits).replace("+ -", "- ")


def form_text(f: FormWeyl) -> str:
    if f.is_zero():
        return "0"
    return " + ".join(weyl_text(w, dx=S) for S, w in sorted(f.components.items()))


def cochain_slot_text(alpha) -> str:
    return _mono_text("d", alpha) or "id"


def wcochain_text(a) -> str:
    """Compact notation for constant-theta cochains, one term per line:
    e.g. "hbar^-1 y1^2 d2" for hbar^{-1} (y^1)^2 d/dy^2."""
    if not a.terms:
        return "0"
    lines = []
    for (k, p, alphas), c in sorted(a.terms.items()):
        head = term_text(k, p, c)
        slots = " | ".join(cochain_slot_text(al) for al in alphas)
        lines.append(f"{head} {slots}".strip() if slots else head)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# polynomial input parser (CLI): sums of products of rationals, hbar^k, xi^e


class ParseError(ValueError):
    pass


# a token is a sign, a "*" or a factor, a run of any other non-space
# characters; a run that ends in "^" takes an optionally spaced "-" and the
# next run as its exponent: "hbar^ - 1" is one token
_TOKEN = re.compile(r"[-+*]|[^\s*+-]+(?:(?<=\^)\s*-\s*[^\s*+-]+)?")
# hbar, hbar^k, x<i> or x<i>^e, with k, i and e Python int literals; any
# other factor is a Fraction literal
_FACTOR = re.compile(r"(?:hbar|x([^^]*))(?:\^\s*(-?)\s*(.*))?")


def parse_poly(text: str, dim: int, order: int) -> WeylElement:
    """Parse expressions like "x1*x2 + 1/2 hbar - 3 x1^2" into a y-free
    WeylElement (hbar-Laurent polynomial in x).  A term is a product of
    factors, with an optional "*" between two of them; its sign is the
    product of the signs since the previous term."""
    tokens = _TOKEN.findall(text)
    if tokens and tokens[-1] in ("+", "-", "*"):
        raise ParseError("expression ends with a dangling operator")
    result = WeylElement.zero(dim, order)
    sign, term, prev = 1, None, None
    for tok in tokens + ["+"]:  # the appended "+" ends the last term
        if tok == "*" and prev in (None, "+", "-", "*") or prev == "*" and tok in "+-":
            raise ParseError("'*' must stand between two factors")
        prev = tok
        if tok in "+-":
            if term:
                coeff, k, exps = term
                result = result + WeylElement(
                    dim, order, {(k, (0,) * dim): XPoly.monomial(dim, tuple(exps), coeff)})
                sign, term = 1, None
            if tok == "-":
                sign = -sign
        elif tok != "*":
            coeff, k, exps = term or (Fraction(sign), 0, [0] * dim)
            factor = _FACTOR.fullmatch(tok)
            try:
                if factor is None:
                    coeff *= Fraction(tok)
                else:
                    var, minus, e = factor.groups()
                    e = 1 if e is None else int(minus + e)
                    if var is None:
                        k += e
                    elif e < 0 or not 1 <= int(var) <= dim:
                        raise ValueError(f"want x<i>^e with 1 <= i <= {dim} and e >= 0")
                    else:
                        exps[int(var) - 1] += e
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"cannot parse factor {tok!r}: {exc}") from exc
            term = coeff, k, exps
    return result


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
