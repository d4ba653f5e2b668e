import json
import random
from fractions import Fraction

import pytest

from fedosov import io as fio
from fedosov.cochains import FiberwiseCochain
from fedosov.poly import XPoly
from fedosov.quantize import FedosovData, GaugeOperator
from fedosov.verify import (builtin_curved_data, builtin_flat_data, rand_bar,
                            rand_cochain, rand_form, rand_koszul, rand_psi,
                            rand_wcochain, rand_weyl)
from fedosov.weyl import FormWeyl, WeylElement
from fedosov.weylhh import KoszulChain, PsiElement, WeylCochain, WeylContext


def test_frac_str():
    assert fio.frac_str(Fraction(3, 4)) == "3/4"
    assert fio.frac_str(Fraction(-5)) == "-5"


def test_xpoly_roundtrip_and_canonical_order():
    p = XPoly(2, {(2, 0): Fraction(1, 3), (0, 1): Fraction(-2)})
    blob = fio.xpoly_to_json(p)
    assert blob == [{"coeff": "-2", "exps": [0, 1]},
                    {"coeff": "1/3", "exps": [2, 0]}]
    assert fio.xpoly_from_json(blob, 2) == p


def test_weyl_roundtrip():
    w = WeylElement(2, 6, {(1, (1, 0)): XPoly.variable(2, 2),
                           (-1, (0, 2)): XPoly.const(2, Fraction(1, 2))})
    assert fio.weyl_from_json(fio.weyl_to_json(w)) == w


@pytest.mark.parametrize("order", [None, 3])
def test_element_of_w_roundtrip(order):
    """An element of W (Fraction coefficients) is written as a WeylCochain
    is, with "coeff" fields and no order, and read back with order None."""
    w = WeylElement(2, order, {(0, (1, 0)): Fraction(1), (-1, (0, 2)): Fraction(-3, 4)})
    blob = fio.dumps_canonical(fio.weyl_to_json(w))
    assert blob == ('{"dim":2,"terms":[{"coeff":"-3/4","hbar":-1,"ydeg":[0,2]},'
                    '{"coeff":"1","hbar":0,"ydeg":[1,0]}]}')
    back = fio.weyl_from_json(json.loads(blob))
    assert back == w and back.order is None
    assert all(type(c) is Fraction for c in back.terms.values())
    zero = WeylElement(2, None)
    assert fio.weyl_from_json(json.loads(fio.dumps_canonical(fio.weyl_to_json(zero)))) == zero


def test_form_constructor_truncates_at_order():
    f = FormWeyl(2, 2, {(): WeylElement.y_monomial(2, 6, (2, 1))})
    assert f.is_zero() and f == f.truncate(2)
    doc = fio.form_to_json(FormWeyl(2, 6, {(1,): WeylElement.y_monomial(2, 6, (2, 1))}))
    doc["order"] = 2
    assert fio.form_from_json(doc).is_zero()


def test_form_roundtrip():
    w = FormWeyl(2, 6, {(1, 2): WeylElement.const(2, 6, 3),
                        (1,): WeylElement.y_variable(2, 6, 2)})
    assert fio.form_from_json(fio.form_to_json(w)) == w


def test_fedosov_data_roundtrip():
    for data in (builtin_flat_data(2, 6), builtin_curved_data(6),
                 FedosovData(builtin_flat_data(2, 6).chart,
                             {1: {(1, 2): XPoly.const(2, 1)}}, 6)):
        blob = fio.fedosov_data_to_json(data)
        back = fio.fedosov_data_from_json(json.loads(json.dumps(blob)))
        back.validate()
        assert back.order == data.order
        assert back.chart.omega_upper == data.chart.omega_upper
        assert back.chart.christoffel == data.chart.christoffel
        assert back.omega_series == data.omega_series


def test_schema_errors():
    with pytest.raises(fio.SchemaError):
        fio.fedosov_data_from_json({"dim": 2})
    bad = fio.fedosov_data_to_json(builtin_flat_data(2, 6))
    bad["Omega"] = [{"hbar_power": 1,
                     "form": [{"indices": [2, 1], "poly": []}]}]
    with pytest.raises(fio.SchemaError, match="i < j"):
        fio.fedosov_data_from_json(bad)


def test_weyl_text():
    w = WeylElement(2, 6, {(0, (0, 0)): XPoly.monomial(2, (1, 1), 1),
                           (1, (0, 0)): XPoly.const(2, Fraction(1, 2))})
    assert fio.weyl_text(w) == "x1 x2 + 1/2 hbar"
    assert fio.weyl_text(WeylElement.zero(2, 6)) == "0"


def test_parse_poly_basics():
    got = fio.parse_poly("x1*x2 + 1/2 hbar", 2, 6)
    want = WeylElement(2, 6, {(0, (0, 0)): XPoly.monomial(2, (1, 1), 1),
                              (1, (0, 0)): XPoly.const(2, Fraction(1, 2))})
    assert got == want
    assert fio.parse_poly("-3 x1^2 + hbar^-1", 2, 6) == WeylElement(
        2, 6, {(0, (0, 0)): XPoly.monomial(2, (2, 0), -3),
               (-1, (0, 0)): XPoly.const(2, 1)})
    assert fio.parse_poly("1", 2, 6) == WeylElement.const(2, 6, 1)
    assert fio.parse_poly("x2 - x2", 2, 6).is_zero()
    assert fio.parse_poly("2*x1 * x2*hbar^-1", 2, 6) == fio.parse_poly("2 x1 x2 hbar^-1", 2, 6)


def test_parse_poly_errors():
    with pytest.raises(fio.ParseError):
        fio.parse_poly("x3", 2, 6)
    with pytest.raises(fio.ParseError):
        fio.parse_poly("x1 +", 2, 6)
    with pytest.raises(fio.ParseError):
        fio.parse_poly("foo", 2, 6)


def test_parse_round_trips_text():
    w = WeylElement(2, 6, {(0, (0, 0)): XPoly.monomial(2, (2, 1), Fraction(-7, 3)),
                           (2, (0, 0)): XPoly.const(2, 5)})
    assert fio.parse_poly(fio.weyl_text(w), 2, 6) == w


def test_dumps_canonical_is_deterministic():
    blob = fio.fedosov_data_to_json(builtin_curved_data(6))
    assert fio.dumps_canonical(blob) == fio.dumps_canonical(
        json.loads(json.dumps(blob)))


def test_fiberwise_cochain_roundtrip():
    import random

    from fedosov.verify import rand_cochain

    rng = random.Random(21)
    P = rand_cochain(rng, 2, 6, 2, nterms=4)
    assert fio.cochain_from_json(fio.cochain_to_json(P)) == P


def test_weylhh_types_roundtrip():
    import random

    from fedosov.verify import rand_bar, rand_koszul, rand_psi, rand_wcochain
    from fedosov.weylhh import WeylContext

    ctx = WeylContext.standard(2, 6)
    rng = random.Random(22)
    a = rand_wcochain(rng, ctx, 1, nterms=4)
    assert fio.wcochain_from_json(fio.wcochain_to_json(a)) == a
    b = rand_bar(rng, ctx, 2, nterms=4)
    assert fio.barchain_from_json(fio.barchain_to_json(b)) == b
    k = rand_koszul(rng, ctx, 1, nterms=4)
    assert fio.koszulchain_from_json(fio.koszulchain_to_json(k)) == k
    p = rand_psi(rng, ctx)
    assert fio.psi_from_json(fio.psi_to_json(p)) == p


def test_wcochain_compact_text():
    from fractions import Fraction as F

    from fedosov.weylhh import WeylCochain

    a = WeylCochain(2, 1, {(-1, (2, 0), ((0, 1),)): F(1)})
    assert fio.wcochain_text(a) == "hbar^-1 y1^2 d2"
    assert fio.wcochain_text(WeylCochain(2, 0, {})) == "0"


def test_star_golden_bytes(tmp_path):
    import json as _json

    from fedosov.cli import main
    from fedosov.verify import builtin_flat_data

    path = tmp_path / "flat.json"
    path.write_text(_json.dumps(fio.fedosov_data_to_json(builtin_flat_data(2, 6))))
    import io as _stdio
    import contextlib

    buf = _stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["--json", "star", str(path), "x1", "x2"]) == 0
    golden = ('{"star":{"dim":2,"order":6,"terms":[{"hbar":0,"poly":'
              '[{"coeff":"1","exps":[1,1]}],"ydeg":[0,0]},{"hbar":1,"poly":'
              '[{"coeff":"1/2","exps":[0,0]}],"ydeg":[0,0]}]}}')
    assert buf.getvalue().strip() == golden


def test_parse_poly_rejects_dangling_exponent_sign():
    with pytest.raises(fio.ParseError):
        fio.parse_poly("hbar^-", 2, 6)


@pytest.mark.parametrize("text", ["x1**2", "2 ** 3", "x1*-2", "2*-x1", "x1 *", "*x1"])
def test_parse_poly_rejects_misplaced_star(text):
    # refused, not dropped: dropping the stray "*" reads x1**2 as 2 x1,
    # 2 ** 3 as 6, x1*-2 as x1 - 2 and 2*-x1 as 2 - x1
    with pytest.raises(fio.ParseError):
        fio.parse_poly(text, 2, 6)


def _xw(*terms):
    """The y-free WeylElement sum of coeff hbar^k x^exps, at dim 2, order 6."""
    return sum((WeylElement(2, 6, {(k, (0, 0)): XPoly.monomial(2, exps, Fraction(c))})
                for c, k, exps in terms), WeylElement.zero(2, 6))


# the accepted language, pinned value by value: repeated signs multiply,
# an exponent "-" may stand apart from its "^", a number is any Fraction
# literal, and a variable index or exponent is any Python int literal
@pytest.mark.parametrize("text, want", [
    ("x1 x2", _xw((1, 0, (1, 1)))),
    ("x1 - - x2", _xw((1, 0, (1, 0)), (1, 0, (0, 1)))),
    ("--x1", _xw((1, 0, (1, 0)))),
    ("hbar^ -1 x1", _xw((1, -1, (1, 0)))),
    ("1.5 x1", _xw(("3/2", 0, (1, 0)))),
    ("3/4", _xw(("3/4", 0, (0, 0)))),
    ("x01^02", _xw((1, 0, (2, 0)))),
    ("", _xw()),
    ("2*x1 * x2*hbar^-1", _xw((2, -1, (1, 1)))),
    ("x1x2", None),
    ("x1 ^2", None),
    ("hbar^--1", None),
    ("hbar^+1", None),
])
def test_parse_poly_language(text, want):
    if want is None:
        with pytest.raises(fio.ParseError):
            fio.parse_poly(text, 2, 6)
    else:
        assert fio.parse_poly(text, 2, 6) == want


def test_parse_poly_rejects_zero_denominator():
    with pytest.raises(fio.ParseError):
        fio.parse_poly("1/0", 2, 6)


def test_parse_poly_rejects_negative_x_exponent():
    with pytest.raises(fio.ParseError):
        fio.parse_poly("x1^-1", 2, 6)


def _pinned_samples():
    ctx = WeylContext.standard(2, 6)
    R = random.Random
    curved = builtin_curved_data(4)
    return {
        "weyl": rand_weyl(R(1), 2, 4, nterms=3, hmin=-1, hmax=1),
        "form": rand_form(R(2), 2, 4, nterms=3),
        "cochain": rand_cochain(R(6), 2, 4, 1, nterms=4),
        "wcochain": rand_wcochain(R(5), ctx, 2, nterms=4),
        "bar": rand_bar(R(5), ctx, 1, nterms=3),
        "koszul": rand_koszul(R(6), ctx, 1, nterms=3),
        "psi": rand_psi(R(7), ctx, nterms=3),
        "gauge": GaugeOperator(2, {1: {(1, 0): XPoly.monomial(2, (0, 1), Fraction(1, 2))},
                                   2: {(0, 2): XPoly.const(2, -3)}}),
        "data": FedosovData(curved.chart,
                            {1: {(1, 2): XPoly.monomial(2, (1, 0), Fraction(-2, 3))}}, 4),
    }


# canonical bytes of the samples above, recorded before the codec became
# table-driven; the gauge bytes are the gauge-file layout the CLI reads
PINNED_BYTES = {
    "weyl": '{"dim":2,"order":4,"terms":[{"hbar":-1,"poly":[{"coeff":"3/4","exps":[1,0]}],'
            '"ydeg":[2,0]},{"hbar":0,"poly":[{"coeff":"3/7","exps":[1,0]},{"coeff":"1",'
            '"exps":[2,0]}],"ydeg":[0,0]},{"hbar":1,"poly":[{"coeff":"-9","exps":[0,1]},'
            '{"coeff":"8","exps":[0,2]}],"ydeg":[0,2]}]}',
    "form": '{"components":[{"dx":[],"value":{"dim":2,"order":4,"terms":[{"hbar":0,"poly":'
            '[{"coeff":"1/5","exps":[0,2]},{"coeff":"-8/3","exps":[2,0]}],"ydeg":[0,1]}]}},'
            '{"dx":[1],"value":{"dim":2,"order":4,"terms":[{"hbar":2,"poly":[{"coeff":"1/9",'
            '"exps":[0,0]}],"ydeg":[0,0]}]}},{"dx":[2],"value":{"dim":2,"order":4,"terms":'
            '[{"hbar":1,"poly":[{"coeff":"1/7","exps":[1,1]}],"ydeg":[0,0]}]}}],"dim":2,'
            '"order":4}',
    "cochain": '{"arity":1,"cap":4,"dim":2,"order":4,"terms":[{"dx":[],"hbar":1,"poly":'
               '[{"coeff":"-1/8","exps":[1,0]}],"slots":[[0,2]],"ydeg":[0,0]},{"dx":[],'
               '"hbar":1,"poly":[{"coeff":"9/4","exps":[0,0]},{"coeff":"-3/5","exps":[1,0]}],'
               '"slots":[[1,1]],"ydeg":[0,2]},{"dx":[2],"hbar":0,"poly":[{"coeff":"-7/9",'
               '"exps":[1,0]}],"slots":[[0,2]],"ydeg":[0,2]}]}',
    "wcochain": '{"arity":2,"dim":2,"terms":[{"coeff":"-1/3","hbar":1,"slots":[[0,2],[0,1]],'
                '"ydeg":[0,1]},{"coeff":"-2","hbar":1,"slots":[[1,0],[2,0]],"ydeg":[2,0]}]}',
    "bar": '{"degree":1,"dim":2,"terms":[{"coeff":"1/4","copies":[[1,0],[2,0],[0,0]],'
           '"hbar":0},{"coeff":"-3/7","copies":[[1,2],[0,2],[0,0]],"hbar":0}]}',
    "koszul": '{"degree":1,"dim":2,"terms":[{"C":[2],"coeff":"-1","hbar":0,"y1":[0,2],'
              '"y2":[2,2]},{"C":[1],"coeff":"9/8","hbar":0,"y1":[1,1],"y2":[0,0]},{"C":[1],'
              '"coeff":"4/9","hbar":1,"y1":[1,0],"y2":[1,1]}]}',
    "psi": '{"dim":2,"terms":[{"coeff":"9","hbar":-1,"psi":[2],"ydeg":[0,0]},{"coeff":"2",'
           '"hbar":0,"psi":[1,2],"ydeg":[0,0]}]}',
    "gauge": '{"terms":[{"dx_multi_index":[1,0],"hbar_power":1,"poly":[{"coeff":"1/2",'
             '"exps":[0,1]}]},{"dx_multi_index":[0,2],"hbar_power":2,"poly":[{"coeff":"-3",'
             '"exps":[0,0]}]}]}',
    "data": '{"Omega":[{"form":[{"indices":[1,2],"poly":[{"coeff":"-2/3","exps":[1,0]}]}],'
            '"hbar_power":1}],"christoffel":[{"lower":[1,1],"poly":[{"coeff":"1","exps":'
            '[0,1]}],"upper":2}],"dim":2,"omega_lower":[[[],[{"coeff":"-1","exps":[0,0]}]],'
            '[[{"coeff":"1","exps":[0,0]}],[]]],"omega_upper":[[[],[{"coeff":"1","exps":'
            '[0,0]}]],[[{"coeff":"-1","exps":[0,0]}],[]]],"order":4}',
}


@pytest.mark.parametrize("name", sorted(PINNED_BYTES))
def test_pinned_canonical_bytes(name):
    x = _pinned_samples()[name]
    if name == "data":
        assert fio.dumps_canonical(fio.fedosov_data_to_json(x)) == PINNED_BYTES[name]
        back = fio.fedosov_data_from_json(json.loads(PINNED_BYTES[name]))
        assert (back.chart.christoffel, back.omega_series) == (x.chart.christoffel,
                                                               x.omega_series)
        return
    assert fio.dumps_canonical(fio.to_json(x)) == PINNED_BYTES[name]
    assert fio.from_json(type(x), json.loads(PINNED_BYTES[name]), dim=2) == x


def _doc(terms, **head):
    return dict(head, terms=terms)


ONE = [{"coeff": "1", "exps": [1, 0]}]


@pytest.mark.parametrize("cls,doc", [
    (WeylElement, _doc([{"hbar": 0, "ydeg": [0, 0, 0, -1], "poly": ONE}], dim=2, order=4)),
    (WeylElement, _doc([{"hbar": 0, "ydeg": [0, -1], "poly": ONE}], dim=2, order=4)),
    (WeylElement, _doc([{"hbar": 0, "ydeg": [0, 0],
                         "poly": [{"coeff": "1", "exps": [-1, 0]}]}], dim=2, order=4)),
    (FiberwiseCochain, _doc([{"dx": [], "hbar": 0, "ydeg": [0], "slots": [[0, 0]],
                              "poly": ONE}], dim=2, order=4, arity=1)),
    (FiberwiseCochain, _doc([{"dx": [], "hbar": 0, "ydeg": [0, 0], "slots": [[0, 0, 1]],
                              "poly": ONE}], dim=2, order=4, arity=1)),
    (FiberwiseCochain, _doc([{"dx": [2, 1], "hbar": 0, "ydeg": [0, 0], "slots": [[0, 0]],
                              "poly": ONE}], dim=2, order=4, arity=1)),
    (WeylCochain, _doc([{"hbar": 0, "ydeg": [0, 0], "slots": [[0, -1]], "coeff": "1"}],
                       dim=2, arity=1)),
    (KoszulChain, _doc([{"hbar": 0, "y1": [0, 0], "y2": [0, 0], "C": [0], "coeff": "1"}],
                       dim=2, degree=1)),
    (PsiElement, _doc([{"hbar": 0, "ydeg": [0, 0], "psi": [3], "coeff": "1"}], dim=2)),
    (PsiElement, _doc([{"hbar": 0, "ydeg": [0, 0], "psi": [1, 1], "coeff": "1"}], dim=2)),
    (FormWeyl, {"dim": 2, "order": 4, "components": [
        {"dx": [1], "value": _doc([{"hbar": 0, "ydeg": [0, 0, 0], "poly": ONE}])}]}),
    (GaugeOperator, _doc([{"hbar_power": 1, "dx_multi_index": [0, 0],
                           "poly": [{"coeff": "1", "exps": [0, -1]}]}])),
    # integers are JSON integers and rationals "p/q" strings or integers
    (WeylCochain, _doc([{"hbar": 0, "ydeg": [0, 0], "slots": [[0, 1]], "coeff": 0.5}],
                       dim=2, arity=1)),
    (WeylCochain, _doc([{"hbar": 0, "ydeg": [0, 0], "slots": [[0, 1]], "coeff": "0.5"}],
                       dim=2, arity=1)),
    (WeylCochain, _doc([{"hbar": 0, "ydeg": [0, 0], "slots": [[0, 1]], "coeff": True}],
                       dim=2, arity=1)),
    (WeylCochain, _doc([{"hbar": True, "ydeg": [0, 0], "slots": [[0, 1]], "coeff": "1"}],
                       dim=2, arity=1)),
    (WeylCochain, _doc([{"hbar": 0, "ydeg": [0, 0], "slots": [[0, 1]], "coeff": "1"}],
                       dim=2, arity=1.0)),
    (WeylElement, _doc([{"hbar": 0, "ydeg": [0, 1.5], "poly": ONE}], dim=2, order=4)),
    (WeylElement, _doc([{"hbar": 0, "ydeg": [0, 0], "poly": ONE}], dim=2, order="4")),
    (PsiElement, _doc([{"hbar": 0, "ydeg": [0, 0], "psi": [1.0], "coeff": "1"}], dim=2)),
])
def test_decoders_reject_malformed_key_vectors(cls, doc):
    with pytest.raises(fio.SchemaError):
        fio.from_json(cls, doc, dim=2)


def test_decoders_sum_duplicate_terms():
    poly = XPoly.monomial(2, (1, 0), 2)
    weyl = _doc([{"hbar": 0, "ydeg": [1, 0], "poly": ONE}] * 2, dim=2, order=4)
    assert fio.weyl_from_json(weyl) == WeylElement(2, 4, {(0, (1, 0)): poly})
    form = {"dim": 2, "order": 4, "components": [{"dx": [1], "value": weyl}] * 2}
    assert fio.form_from_json(form) == FormWeyl(2, 4, {(1,): WeylElement(
        2, 4, {(0, (1, 0)): poly.scale(2)})})
    psi = _doc([{"hbar": 0, "ydeg": [0, 0], "psi": [1], "coeff": "1/2"}] * 2, dim=2)
    assert fio.psi_from_json(psi) == PsiElement(2, {(0, (0, 0), (1,)): Fraction(1)})
    gauge = _doc([{"hbar_power": 1, "dx_multi_index": [0, 0], "poly": ONE}] * 2)
    assert fio.gauge_from_json(gauge, dim=2) == GaugeOperator(2, {1: {(0, 0): poly}})
    omega = [{"hbar_power": 1, "form": [{"indices": [1, 2], "poly": ONE}] * 2}]
    assert fio.series_from_json(omega, 2) == {1: {(1, 2): poly}}
    chart = builtin_curved_data(4).chart
    doc = fio.fedosov_data_to_json(builtin_curved_data(4))
    doc["christoffel"] *= 2
    assert fio.fedosov_data_from_json(doc).chart.christoffel == {
        key: g.scale(2) for key, g in chart.christoffel.items()}
