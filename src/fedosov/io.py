"""Canonical serialization, text rendering and input parsing.

JSON conventions (bit-exact across runs):
  * rationals are "p/q" strings (or "p" when q = 1),
  * polynomials are lists of {"coeff": "p/q", "exps": [e1..e_{2n}]} sorted by
    exponent vector,
  * Weyl terms are sorted by (hbar_exp, y_degree_vector),
  * form components by dx index subset, cochain slots as sorted lists.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .poly import XPoly, _acc, as_fraction
from .weyl import FormWeyl, SymplecticChart, WeylElement

# ---------------------------------------------------------------------------
# rationals and polynomials


def frac_str(c: Fraction) -> str:
    c = as_fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def xpoly_to_json(p: XPoly):
    return [{"coeff": frac_str(c), "exps": list(e)}
            for e, c in sorted(p.terms.items())]


def xpoly_from_json(data, nvars: int) -> XPoly:
    terms = {}
    for item in data:
        _acc(terms, tuple(int(v) for v in item["exps"]), Fraction(item["coeff"]))
    return XPoly(nvars, terms)


# ---------------------------------------------------------------------------
# Weyl elements and forms


def weyl_to_json(w: WeylElement):
    return {
        "dim": w.dim,
        "order": w.order,
        "terms": [{"hbar": k, "ydeg": list(p), "poly": xpoly_to_json(c)}
                  for (k, p), c in sorted(w.terms.items())],
    }


def weyl_from_json(data) -> WeylElement:
    dim, order = int(data["dim"]), int(data["order"])
    terms = {}
    for item in data["terms"]:
        key = (int(item["hbar"]), tuple(int(v) for v in item["ydeg"]))
        terms[key] = xpoly_from_json(item["poly"], dim)
    return WeylElement(dim, order, terms)


def form_to_json(f: FormWeyl):
    return {
        "dim": f.dim,
        "order": f.order,
        "components": [{"dx": list(S), "value": weyl_to_json(w)}
                       for S, w in sorted(f.components.items())],
    }


def form_from_json(data) -> FormWeyl:
    dim, order = int(data["dim"]), int(data["order"])
    comps = {tuple(int(i) for i in item["dx"]): weyl_from_json(item["value"])
             for item in data["components"]}
    return FormWeyl(dim, order, comps)


# ---------------------------------------------------------------------------
# Fedosov data files


def chart_to_json(chart: SymplecticChart):
    n = chart.dim
    return {
        "omega_lower": [[xpoly_to_json(chart.omega_lower[i][j]) for j in range(n)]
                        for i in range(n)],
        "omega_upper": [[xpoly_to_json(chart.omega_upper[i][j]) for j in range(n)]
                        for i in range(n)],
        "christoffel": [{"upper": j, "lower": [i, k], "poly": xpoly_to_json(g)}
                        for (j, i, k), g in sorted(chart.christoffel.items())
                        if not g.is_zero()],
    }


def fedosov_data_to_json(data) -> dict:
    out = {"dim": data.chart.dim, "order": data.order}
    out.update(chart_to_json(data.chart))
    out["Omega"] = [
        {"hbar_power": k,
         "form": [{"indices": [i, j], "poly": xpoly_to_json(p)}
                  for (i, j), p in sorted(form.items())]}
        for k, form in sorted(data.omega_series.items())
    ]
    return out


def fedosov_data_from_json(doc) -> "FedosovData":
    from .quantize import FedosovData

    try:
        n = int(doc["dim"])
        order = int(doc["order"])
        lower = [[xpoly_from_json(doc["omega_lower"][i][j], n) for j in range(n)]
                 for i in range(n)]
        upper = [[xpoly_from_json(doc["omega_upper"][i][j], n) for j in range(n)]
                 for i in range(n)]
        christoffel = {}
        for item in doc.get("christoffel", []):
            j = int(item["upper"])
            i, k = (int(v) for v in item["lower"])
            g = xpoly_from_json(item["poly"], n)
            christoffel[(j, i, k)] = g
            christoffel[(j, k, i)] = g
        omega_series = {}
        for item in doc.get("Omega", []):
            k = int(item["hbar_power"])
            form = omega_series.setdefault(k, {})
            for entry in item["form"]:
                i, j = (int(v) for v in entry["indices"])
                if i >= j:
                    raise SchemaError("2-form indices must satisfy i < j")
                p = xpoly_from_json(entry["poly"], n)
                form[(i, j)] = form.get((i, j), XPoly.zero(n)) + p
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"malformed Fedosov data: {exc}") from exc
    chart = SymplecticChart(n, lower, upper, christoffel)
    return FedosovData(chart, omega_series, order)


class SchemaError(ValueError):
    pass


def load_fedosov_data(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return fedosov_data_from_json(doc)


# ---------------------------------------------------------------------------
# fiberwise cochains


def cochain_to_json(P):
    return {
        "dim": P.dim,
        "order": P.order,
        "arity": P.arity,
        "cap": P.cap,
        "terms": [{"dx": list(S), "hbar": m, "ydeg": list(p),
                   "slots": [list(al) for al in alphas],
                   "poly": xpoly_to_json(c)}
                  for (S, m, p, alphas), c in sorted(P.terms.items())],
    }


def cochain_from_json(data):
    from .cochains import FiberwiseCochain

    dim, order = int(data["dim"]), int(data["order"])
    arity = int(data["arity"])
    terms = {}
    for item in data["terms"]:
        key = (tuple(int(i) for i in item["dx"]), int(item["hbar"]),
               tuple(int(v) for v in item["ydeg"]),
               tuple(tuple(int(v) for v in al) for al in item["slots"]))
        terms[key] = xpoly_from_json(item["poly"], dim)
    return FiberwiseCochain(dim, order, arity, terms, data.get("cap"))


# ---------------------------------------------------------------------------
# Weyl-algebra chains and cochains (constant theta)


def wcochain_to_json(a):
    return {
        "dim": a.dim,
        "arity": a.arity,
        "terms": [{"hbar": k, "ydeg": list(p), "slots": [list(al) for al in alphas],
                   "coeff": frac_str(c)}
                  for (k, p, alphas), c in sorted(a.terms.items())],
    }


def wcochain_from_json(data):
    from .weylhh import WeylCochain

    dim, arity = int(data["dim"]), int(data["arity"])
    terms = {}
    for item in data["terms"]:
        key = (int(item["hbar"]), tuple(int(v) for v in item["ydeg"]),
               tuple(tuple(int(v) for v in al) for al in item["slots"]))
        terms[key] = Fraction(item["coeff"])
    return WeylCochain(dim, arity, terms)


def barchain_to_json(b):
    return {
        "dim": b.dim,
        "degree": b.m,
        "terms": [{"hbar": k, "copies": [list(p) for p in ps], "coeff": frac_str(c)}
                  for (k, ps), c in sorted(b.terms.items())],
    }


def barchain_from_json(data):
    from .weylhh import BarChain

    dim, m = int(data["dim"]), int(data["degree"])
    terms = {}
    for item in data["terms"]:
        key = (int(item["hbar"]),
               tuple(tuple(int(v) for v in p) for p in item["copies"]))
        terms[key] = Fraction(item["coeff"])
    return BarChain(dim, m, terms)


def koszulchain_to_json(a):
    return {
        "dim": a.dim,
        "degree": a.m,
        "terms": [{"hbar": k, "y1": list(p1), "y2": list(p2),
                   "C": sorted(T), "coeff": frac_str(c)}
                  for (k, p1, p2, T), c in sorted(a.terms.items())],
    }


def koszulchain_from_json(data):
    from .weylhh import KoszulChain

    dim, m = int(data["dim"]), int(data["degree"])
    terms = {}
    for item in data["terms"]:
        key = (int(item["hbar"]), tuple(int(v) for v in item["y1"]),
               tuple(int(v) for v in item["y2"]),
               tuple(int(v) for v in item["C"]))
        terms[key] = Fraction(item["coeff"])
    return KoszulChain(dim, m, terms)


def psi_to_json(a):
    return {
        "dim": a.dim,
        "terms": [{"hbar": k, "ydeg": list(p), "psi": sorted(T),
                   "coeff": frac_str(c)}
                  for (k, p, T), c in sorted(a.terms.items())],
    }


def psi_from_json(data):
    from .weylhh import PsiElement

    dim = int(data["dim"])
    terms = {}
    for item in data["terms"]:
        key = (int(item["hbar"]), tuple(int(v) for v in item["ydeg"]),
               tuple(int(v) for v in item["psi"]))
        terms[key] = Fraction(item["coeff"])
    return PsiElement(dim, terms)


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


def term_text(k: int, p, coeff: Fraction, dx=()) -> str:
    bits = []
    if k == 1:
        bits.append("hbar")
    elif k:
        bits.append(f"hbar^{k}")
    ys = _mono_text("y", p)
    if ys:
        bits.append(ys)
    if dx:
        bits.append("".join(f"dx{i}" for i in dx))
    if not bits:
        return frac_str(coeff)
    if coeff == 1:
        return " ".join(bits)
    if coeff == -1:
        return "-" + " ".join(bits)
    return f"{frac_str(coeff)} " + " ".join(bits)


def weyl_text(w: WeylElement, dx=()) -> str:
    if not w.terms:
        return "0"
    bits = []
    for (k, p), c in sorted(w.terms.items()):
        for e, coeff in sorted(c.terms.items()):
            xs = _mono_text("x", e)
            base = term_text(k, p, coeff, dx)
            if xs:
                if coeff == 1:
                    stripped = base if base != "1" else ""
                    base = (stripped + " " + xs).strip()
                elif coeff == -1:
                    stripped = base[1:] if base != "-1" else ""
                    base = ("-" + (stripped + " " + xs).strip())
                else:
                    base = f"{base} {xs}"
            bits.append(base)
    return " + ".join(bits).replace("+ -", "- ")


def form_text(f: FormWeyl) -> str:
    if f.is_zero():
        return "0"
    return " + ".join(weyl_text(w, dx=S) for S, w in sorted(f.components.items()))


def cochain_slot_text(alpha) -> str:
    if not any(alpha):
        return "id"
    return _mono_text("d", alpha)


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


def parse_poly(text: str, dim: int, order: int) -> WeylElement:
    """Parse expressions like "x1*x2 + 1/2 hbar - 3 x1^2" into a y-free
    WeylElement (hbar-Laurent polynomial in x)."""
    tokens = _tokenize(text)
    result = WeylElement.zero(dim, order)
    sign = 1
    factors = []

    def flush():
        nonlocal factors, result
        if not factors:
            return
        coeff = Fraction(sign)
        k = 0
        exps = [0] * dim
        for kind, val in factors:
            if kind == "num":
                coeff *= val
            elif kind == "hbar":
                k += val
            else:
                i, e = val
                if not 1 <= i <= dim:
                    raise ParseError(f"variable x{i} out of range for dim {dim}")
                exps[i - 1] += e
        result = result + WeylElement(
            dim, order, {(k, (0,) * dim): XPoly.monomial(dim, tuple(exps), coeff)})
        factors = []

    pending_sign = 1
    prev = None
    for tok in tokens:
        # a "*" stands between two factors
        if tok == "*" and prev in (None, "+", "-", "*") or prev == "*" and tok in "+-":
            raise ParseError("'*' must stand between two factors")
        prev = tok
        if tok in "+-":
            if factors:
                flush()
                pending_sign = 1
            if tok == "-":
                pending_sign = -pending_sign
            sign = pending_sign
        elif tok == "*":
            continue
        else:
            factors.append(_parse_factor(tok))
    if prev == "*" or not factors and tokens:
        raise ParseError("expression ends with a dangling operator")
    flush()
    return result


def _tokenize(text: str):
    out = []
    cur = ""
    for ch in text:
        if ch in "+-" :
            if cur:
                out.append(cur)
                cur = ""
            out.append(ch)
        elif ch.isspace() or ch == "*":
            if cur:
                out.append(cur)
                cur = ""
            if ch == "*":
                out.append("*")
        else:
            cur += ch
    if cur:
        out.append(cur)
    # re-attach exponent minus signs: "hbar^" "-1" -> "hbar^-1"
    merged = []
    i = 0
    while i < len(out):
        tok = out[i]
        if tok.endswith("^") and i + 2 < len(out) and out[i + 1] == "-":
            merged.append(tok + "-" + out[i + 2])
            i += 3
        else:
            merged.append(tok)
            i += 1
    return merged


def _parse_factor(tok: str):
    if tok == "hbar":
        return ("hbar", 1)
    if tok.startswith("hbar^"):
        try:
            return ("hbar", int(tok[5:]))
        except ValueError as exc:
            raise ParseError(f"bad hbar power in {tok!r}") from exc
    if tok.startswith("x"):
        body = tok[1:]
        if "^" in body:
            var, exp = body.split("^", 1)
        else:
            var, exp = body, "1"
        try:
            var, exp = int(var), int(exp)
        except ValueError as exc:
            raise ParseError(f"bad variable token {tok!r}") from exc
        if exp < 0:
            raise ParseError(f"negative exponent in {tok!r}")
        return ("var", (var, exp))
    try:
        return ("num", Fraction(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse token {tok!r}") from exc


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
