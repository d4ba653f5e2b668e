import json
from pathlib import Path

import pytest

from fedosov import io as fio
from fedosov.cli import main
from fedosov.poly import XPoly
from fedosov.quantize import FedosovData, solve_r, star, tau
from fedosov.verify import builtin_curved_data, builtin_flat_data

CURVED_OMEGA_FILE = str(Path(__file__).resolve().parents[1] / "bench" / "data"
                        / "curved_omega.json")


@pytest.fixture(scope="module")
def flat_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "flat.json"
    path.write_text(json.dumps(fio.fedosov_data_to_json(builtin_flat_data(2, 6))))
    return str(path)


@pytest.fixture(scope="module")
def curved_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "curved.json"
    path.write_text(json.dumps(fio.fedosov_data_to_json(builtin_curved_data(6))))
    return str(path)


@pytest.fixture(scope="module")
def omega_file(tmp_path_factory):
    data = FedosovData(builtin_flat_data(2, 6).chart,
                       {1: {(1, 2): XPoly.const(2, 1)}}, 6)
    path = tmp_path_factory.mktemp("data") / "omega.json"
    path.write_text(json.dumps(fio.fedosov_data_to_json(data)))
    return str(path)


def test_star_text_output(flat_file, capsys):
    code = main(["star", flat_file, "x1", "x2"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "x1 x2 + 1/2 hbar"


def test_star_unit(flat_file, capsys):
    assert main(["star", flat_file, "1", "x1"]) == 0
    assert capsys.readouterr().out.strip() == "x1"


def test_star_json_deterministic(flat_file, capsys):
    assert main(["--json", "star", flat_file, "x1^2", "x2"]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "star", flat_file, "x1^2", "x2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert "star" in payload


def test_tau_command(flat_file, capsys):
    assert main(["tau", flat_file, "x1"]) == 0
    assert capsys.readouterr().out.strip() == "x1 + y1"


def test_tau_command_negative_hbar_power(capsys):
    """hbar^-1 x1 x2 needs two more passes of the lift recursion; hbar
    times its lift is the lift of x1 x2 at the contract order."""
    args = ["--json", "--order", "4", "tau", CURVED_OMEGA_FILE]
    assert main(args + ["hbar^-1*x1*x2"]) == 0
    low = fio.weyl_from_json(json.loads(capsys.readouterr().out)["tau"])
    assert main(args + ["x1*x2"]) == 0
    plain = fio.weyl_from_json(json.loads(capsys.readouterr().out)["tau"])
    assert low.hbar_shift(1) == plain


@pytest.fixture(scope="module")
def curved_omega_r12():
    """The curved data file at order 12 with its connection."""
    data = fio.load_fedosov_data(CURVED_OMEGA_FILE)
    data.order = 12
    return data, solve_r(data)


@pytest.mark.parametrize("text", ["hbar^-2*x1*x2", "hbar^-2*x1^2*x2", "hbar^-3*x2^3"])
def test_tau_command_hbar_power_below_minus_one(text, curved_omega_r12, capsys):
    """The lift of hbar^k with k <= -2 at --order 4 is the order-12 lift
    truncated to 4: at order 12 it is exact to 14 + 2k >= 8."""
    assert main(["--json", "--order", "4", "tau", CURVED_OMEGA_FILE, text]) == 0
    got = fio.weyl_from_json(json.loads(capsys.readouterr().out)["tau"])
    data, r = curved_omega_r12
    assert got == tau(fio.parse_poly(text, 2, 12), data, r).truncate(4)


def test_star_command_negative_hbar_power(capsys):
    assert main(["--json", "--order", "4", "star", CURVED_OMEGA_FILE,
                 "hbar^-1*x1*x2", "x1"]) == 0
    got = fio.weyl_from_json(json.loads(capsys.readouterr().out)["star"])
    data = fio.load_fedosov_data(CURVED_OMEGA_FILE)
    data.order = 4
    a = fio.parse_poly("hbar^-1*x1*x2", 2, 4)
    assert got == star(a, fio.parse_poly("x1", 2, 4), data)


def test_solve_r_flat(flat_file, capsys):
    assert main(["solve-r", flat_file]) == 0
    out = capsys.readouterr().out
    assert "r = 0" in out
    assert "residual" in out and "= 0" in out


def test_solve_r_with_omega(omega_file, capsys):
    assert main(["--json", "solve-r", omega_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual_zero"] is True
    assert payload["r"]["components"]


def test_solve_r_curved(curved_file, capsys):
    assert main(["solve-r", curved_file]) == 0


def test_fedosov_class_command(omega_file, capsys):
    assert main(["--json", "fedosov-class", omega_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    levels = {entry["hbar_power"] for entry in payload["fedosov_class"]}
    assert levels == {-1, 0}


def test_gauge_command(flat_file, tmp_path, capsys):
    gauge = {"terms": [{"hbar_power": 1, "dx_multi_index": [1, 0],
                        "poly": [{"coeff": "1", "exps": [0, 0]}]}]}
    gpath = tmp_path / "gauge.json"
    gpath.write_text(json.dumps(gauge))
    assert main(["star", flat_file, "x1", "x1"]) == 0
    base = capsys.readouterr().out.strip()
    assert main(["gauge", flat_file, str(gpath), "x1", "x1"]) == 0
    gauged = capsys.readouterr().out.strip()
    assert base == "x1^2"
    assert gauged == "x1^2 + hbar^2"
    # Q^{-1} of hbar^-3 x1^9 sums (id - Q)^j for j = 0..6 at order 6
    assert main(["gauge", flat_file, str(gpath), "hbar^-3 x1^9", "1"]) == 0
    assert capsys.readouterr().out.strip() == "hbar^-3 x1^9"


def test_data_file_order_is_used_unless_order_given(tmp_path, capsys):
    path = tmp_path / "order2.json"
    path.write_text(json.dumps(fio.fedosov_data_to_json(builtin_curved_data(2))))
    outs = []
    for flags in ([], ["--order", "2"], ["--order", "6"]):
        assert main(flags + ["star", str(path), "x1^2", "x2^2"]) == 0
        outs.append(capsys.readouterr().out.strip())
    assert outs[0] == outs[1] == "x1^2 x2^2 + 2 hbar x1 x2"
    assert outs[2] == "x1^2 x2^2 + 2 hbar x1 x2 + 1/2 hbar^2"
    assert main(["--json", "verify", "dsquare", "--data", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["order"] == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["star", str(bad), "x1", "x2"]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_chart_exits_2(tmp_path, capsys):
    doc = fio.fedosov_data_to_json(builtin_flat_data(2, 6))
    doc["christoffel"] = [{"upper": 1, "lower": [1, 1],
                           "poly": [{"coeff": "1", "exps": [1, 0]}]}]
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    assert main(["star", str(path), "x1", "x2"]) == 2
    assert "nabla" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["star", "/nonexistent/data.json", "x1", "x2"]) == 2


def test_bad_polynomial_exits_2(flat_file, capsys):
    assert main(["star", flat_file, "x9", "x2"]) == 2


@pytest.mark.parametrize("a, b", [("x1^20000", "x2"), ("x1^9000", "x1^9000")])
def test_exponent_beyond_the_packed_field_exits_2(flat_file, a, b, capsys):
    assert main(["--order", "2", "star", flat_file, a, b]) == 2
    assert "exponent" in capsys.readouterr().err


def test_verify_suite_pass(capsys):
    assert main(["verify", "hodge", "--dim", "2"]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out
    assert "FAIL" not in out


def test_verify_json_report(capsys):
    assert main(["--json", "--seed", "1", "verify", "chi"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "chi"
    assert payload["config"]["seed"] == 1
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_verify_requires_data_for_dsquare(capsys):
    assert main(["verify", "dsquare"]) == 2
    assert "requires" in capsys.readouterr().err


def test_verify_dsquare_with_data(curved_file, capsys):
    assert main(["verify", "dsquare", "--data", curved_file]) == 0


def test_verify_guards_invalid_data_before_checks(tmp_path, capsys):
    doc = fio.fedosov_data_to_json(builtin_flat_data(2, 6))
    doc["christoffel"] = [{"upper": 1, "lower": [1, 1],
                           "poly": [{"coeff": "1", "exps": [1, 0]}]}]
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "assoc", "--data", str(path)]) == 2


def test_negative_order_exits_2(flat_file, capsys):
    assert main(["--order", "-3", "star", flat_file, "x1", "x2"]) == 2
    err = capsys.readouterr().err
    assert "--order" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("dim", ["3", "0"])
def test_verify_rejects_bad_dim(dim, capsys):
    assert main(["verify", "hodge", "--dim", dim]) == 2
    err = capsys.readouterr().err
    assert "--dim" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("suite", ["transfer", "psi"])
def test_verify_transfer_and_psi_suites(suite, curved_file, capsys):
    argv = ["--json", "verify", suite]
    if suite == "transfer":
        argv += ["--data", curved_file]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == suite
    assert payload["checks"]
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_gauge_file_sums_duplicate_terms(curved_file, tmp_path, capsys):
    def gauge_output(terms):
        path = tmp_path / "gauge.json"
        path.write_text(json.dumps({"terms": terms}))
        assert main(["--order", "4", "gauge", curved_file, str(path), "x1", "x2"]) == 0
        return capsys.readouterr().out

    def entry(coeff):
        return {"hbar_power": 1, "dx_multi_index": [0, 0],
                "poly": [{"coeff": coeff, "exps": [1, 1]}]}

    twice = gauge_output([entry("1"), entry("1")])
    assert twice == gauge_output([entry("2")])
    assert twice != gauge_output([entry("1")])


def test_python_m_fedosov_runs_the_cli(flat_file):
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "fedosov", "--order", "2", "star",
                           flat_file, "x1", "x2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "x1 x2 + 1/2 hbar"


def test_verify_requires_data_for_transfer(capsys):
    assert main(["verify", "transfer"]) == 2
    assert "requires" in capsys.readouterr().err


def _bad_data_files(tmp_path):
    """Data files that must be refused: name -> path."""
    good = fio.fedosov_data_to_json(builtin_curved_data(6))
    one = [{"coeff": "1", "exps": [0, 0]}]
    edits = {
        "no-dim": lambda d: d.pop("dim"),
        "no-omega-upper": lambda d: d.pop("omega_upper"),
        "dim-3": lambda d: d.update(dim=3),
        "dim-4": lambda d: d.update(dim=4),
        "dim-text": lambda d: d.update(dim="two"),
        "non-antisymmetric": lambda d: d["omega_upper"][1].__setitem__(0, one),
        "short-exponents": lambda d: d["omega_upper"][0].__setitem__(
            1, [{"coeff": "1", "exps": [0]}]),
        "zero-denominator": lambda d: d["omega_upper"][0].__setitem__(
            1, [{"coeff": "1/0", "exps": [0, 0]}]),
        "christoffel-index": lambda d: d.update(christoffel=[
            {"upper": 9, "lower": [1, 1], "poly": one}]),
        "christoffel-index-0": lambda d: d.update(christoffel=[
            {"upper": 0, "lower": [0, 1], "poly": one}]),
        "omega-indices": lambda d: d.update(Omega=[
            {"hbar_power": 1, "form": [{"indices": [1, 7], "poly": one}]}]),
        "poly-null": lambda d: d["omega_upper"][0].__setitem__(1, None),
        "negative-exponent": lambda d: d["christoffel"][0]["poly"][0].__setitem__(
            "exps", [-1, 0]),
        "omega-negative-exponent": lambda d: d.update(Omega=[
            {"hbar_power": 1, "form": [{"indices": [1, 2],
                                        "poly": [{"coeff": "1", "exps": [0, -1]}]}]}]),
        # an integer field takes a JSON integer only: no truncated float,
        # numeric string or boolean
        "order-fraction": lambda d: d.update(order=2.9),
        "order-bool": lambda d: d.update(order=True),
        "order-negative": lambda d: d.update(order=-1),
        "dim-numeric-text": lambda d: d.update(dim="2"),
        "christoffel-fractional-exponent": lambda d: d["christoffel"][0]["poly"][0]
        .__setitem__("exps", [0.5, 1]),
        # a float coefficient is not the decimal it was written as
        "omega-float-coeff": lambda d: d.update(Omega=[
            {"hbar_power": 1, "form": [{"indices": [1, 2],
                                        "poly": [{"coeff": 0.1, "exps": [0, 0]}]}]}]),
        # an omega matrix is dim rows of dim entries, with nothing beyond
        "omega-lower-extra-row": lambda d: d["omega_lower"].append(d["omega_lower"][0]),
        "omega-upper-extra-entry": lambda d: d["omega_upper"][0].append(one),
    }
    paths = {}
    for name, edit in edits.items():
        doc = json.loads(json.dumps(good))
        edit(doc)
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    paths["top-level-list"] = tmp_path / "list.json"
    paths["top-level-list"].write_text("[1, 2]")
    paths["truncated"] = tmp_path / "truncated.json"
    paths["truncated"].write_text('{"dim": 2,')
    paths["not-utf8"] = tmp_path / "binary.json"
    paths["not-utf8"].write_bytes(b"\xff\xfe garbage")
    return paths


def test_cli_fuzz_bad_invocations_exit_cleanly(tmp_path, curved_file):
    import os
    import subprocess
    import sys

    bad_gauge = tmp_path / "gauge.json"
    bad_gauge.write_text(json.dumps({"terms": [
        {"hbar_power": 1, "dx_multi_index": [1, 0],
         "poly": [{"coeff": "1/0", "exps": [0, 0]}]}]}))
    bad_indices = []
    for name, mu, exps in [("long", [1, 0, 2], [0, 0]), ("negative", [-1, 0], [0, 0]),
                           ("short", [1], [0, 0]), ("negative-exponent", [1, 0], [-1, 0])]:
        path = tmp_path / f"gauge_{name}.json"
        path.write_text(json.dumps({"terms": [
            {"hbar_power": 1, "dx_multi_index": mu,
             "poly": [{"coeff": "1", "exps": exps}]}]}))
        bad_indices.append(str(path))
    # refused: exit 2 with an error line; the rest may also be valid input
    refused = [["star", str(p), "x1", "x2"] for p in _bad_data_files(tmp_path).values()]
    refused += [["verify", "nosuch"], ["verify", "ALL"], ["star", str(tmp_path), "x1", "x2"],
                ["gauge", curved_file, str(bad_gauge), "x1", "x2"],
                ["gauge", curved_file, curved_file, "x1", "x2"]]
    refused += [["gauge", curved_file, path, "x1", "x2"] for path in bad_indices]
    # the data file fixes the dimension
    refused += [["--order", "2", "verify", "assoc", "--data", curved_file, "--dim", "4"]]
    refused += [["--caps", caps, "--order", "2", "verify", "cochain"] for caps in
                ["y", "y:", "y:x", "z:3", ",,", "y:3:4", "y:-1", ":", "y:3,y:4"]]
    # only the cochain and chi suites read generation caps
    refused += [["--caps", "y:2", "--order", "2", "verify", suite] for suite in
                ["psi", "hodge", "barkoszul", "equivariance"]]
    refused += [["--caps", "a:1", "verify", "dsquare", "--data", curved_file]]
    # a "*" must stand between two factors
    refused += [["star", curved_file, text, "x2"] for text in
                ["x1**2", "2 ** 3", "x1*-2", "2*-x1", "x1 *", "*x1"]]
    accepted = [["--caps", "y:2,a:1", "--order", "2", "verify", suite] for suite in
                ["cochain", "chi", "all"]]
    others = [["star", curved_file, text, "x2"] for text in
              ["x1^", "1/", "hbar^x", "x0", "", "+", "x1^-", "hbar^-",
               "(x1)", "x1^2^3", "y1", "1.5", "0/0", "x-1", "--x1"]]
    others += [["--caps", "y:\u0663", "--order", "2", "verify", "cochain"]]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for argv in refused + accepted + others:
        proc = subprocess.run([sys.executable, "-m", "fedosov.cli"] + argv,
                              capture_output=True, text=True, env=env, timeout=120)
        want = (2,) if argv in refused else (0,) if argv in accepted else (0, 1, 2)
        assert proc.returncode in want, argv
        assert "Traceback" not in proc.stderr, argv
        if proc.returncode == 2:
            assert "error:" in proc.stderr.strip().splitlines()[-1], argv
