import hashlib
import json
import math
import random
import re

import pytest

import bvcalc.bv as bv
import bvcalc.cli as cli
import bvcalc.cohomology as cohomology
from bvcalc import BvModel, Expr, Functional
from bvcalc.grammar import ParseError, format_expr, parse_expr, parse_model_file
from bvcalc.cli import main, run_suite
from bvcalc.models import build_yang_mills_bv, random_functional

from util_random import ghost_model, labelled_operands, nested_brackets, plane_model, random_expr


MODEL_TEXT = """
[base]
dim = 1
[fields]
q ghost = 0
[sections]
s1: q = sin(x1)
s1: dag(q) = g1*sin(x1)
"""


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "scalar.model"
    path.write_text(MODEL_TEXT)
    return str(path)


# -- grammar -------------------------------------------------------------------

def test_round_trip_on_random_expressions():
    models = [ghost_model(), plane_model()]
    rng = random.Random(99)
    for i in range(1000):
        model = models[i % 2]
        e = random_expr(model, rng, with_attach=True)
        text = format_expr(e)
        assert parse_expr(text, model) == e, text
    # engine outputs: monomials of several blocks, nested ones, and equal
    # blocks squared, their channels named 0, 1, ... in print order
    outputs = []
    for model in models:
        ops = labelled_operands(model, 3)
        outputs += [(model, ops[name]) for name in ("x", "y", "z")]
    m, S, X = nested_brackets(2)
    outputs += [(m, b) for F in (X, bv.schouten(S, X), bv.laplacian(X)) for b in F.blocks()]
    several = 0
    for model, e in outputs:
        text = format_expr(e)
        assert parse_expr(text, model) == e, text
        several += "; " in text or "frz[1:" in text
    assert several >= 5


def test_a_label_named_twice_in_one_monomial_is_a_parse_error(model_file, capsys):
    # a label only names a channel, and every block is its own channel: a
    # label named twice in one monomial (two factors, one spec, or a block
    # and a block inside it) is refused at its second naming, with exit 2;
    # in two monomials it is two names
    m = ghost_model()
    for text, column in (("frz[0:x1](q)*frz[0:x1](q_x)", 18),
                         ("frz[3:x1; 3:x1 x1](q)", 11),
                         ("frz[3:x1](q*frz[3:x1](c))", 17),
                         ("(frz[2:x1](q) + q)*c*frz[2:x1](c)", 26)):
        with pytest.raises(ParseError, match=rf"^channel label \d+ named twice in one "
                                             rf"monomial \(column {column}\)$"):
            parse_expr(text, m)
    two = parse_expr("frz[3:x1](q) + frz[3:x1](q_x)", m)
    assert len(two.terms) == 2
    assert parse_expr("frz[3:x1](q)*frz[4:x1](q)", m) == parse_expr("frz[0:x1](q)^2", m)
    assert main(["euler", model_file, "--expr", "frz[0:x1](q)*frz[0:x1](q_x)",
                 "--field", "q"]) == 2
    assert "named twice" in capsys.readouterr().err


def test_parse_basic_forms():
    m = ghost_model()
    assert parse_expr("q_xx", m) == m.jet("q", (2,))
    assert parse_expr("q''", m) == m.jet("q", (2,))
    assert parse_expr("dag(q)_x * q", m) == m.jet("q", (1,), dagger=True) * m.jet("q")
    assert parse_expr("2/3 * sin(q)", m) == m.sin("q").scale(__import__("fractions").Fraction(2, 3))
    assert parse_expr("D[1](q^2)", m) == (m.jet("q") * m.jet("q", (1,))).scale(2)
    assert parse_expr("hbar^-1 * i * q", m) is not None
    assert parse_expr("q_{x1 x1}", m) == m.jet("q", (2,))


def test_parse_plane_indices():
    m = plane_model()
    assert parse_expr("u_{x1 x2}", m) == m.jet("u", (1, 1))
    assert parse_expr("x2 * u", m) == m.x(1) * m.jet("u")


def test_parse_errors_have_positions():
    m = ghost_model()
    with pytest.raises(ParseError):
        parse_expr("q +* q", m)
    with pytest.raises(ParseError):
        parse_expr("nope", m)
    with pytest.raises(ParseError):
        parse_expr("sin(dag(q))", m)  # odd argument rejected
    with pytest.raises(ParseError):
        parse_expr("q_{x9}", m)
    # every form of a jet variable is read by one rule, with one field check
    for text, column in (("r", 1), ("dag(r)", 5), ("sin(dag(r))", 9), ("q * r_x", 5)):
        with pytest.raises(ParseError, match=rf"^unknown field 'r' \(column {column}\)$"):
            parse_expr(text, m)


def test_model_file_parsing():
    model, sections = parse_model_file(MODEL_TEXT)
    assert model.base_dim == 1
    assert model.fields == (("q", 0),)
    assert ("q", True) in sections["s1"]
    with pytest.raises(ParseError):
        parse_model_file("[base]\nwrong = 1\n")
    with pytest.raises(ParseError):
        parse_model_file("[unknown]\n")
    with pytest.raises(ParseError):
        parse_model_file("[base]\ndim = 1\n")  # missing fields
    # a field declared twice, and a section that names an undeclared field,
    # its dag, or one variable twice, are refused at their line
    header = "[base]\ndim = 1\n[fields]\nq ghost = 0\n"
    for tail, line, message in (
            ("q ghost = 0\n", 5, "field 'q' declared twice"),
            ("[sections]\ns: p = sin(x1)\n", 6, "undeclared field 'p'"),
            ("[sections]\nt: dag(p) = g1*sin(x1)\n", 6, "undeclared field 'p'"),
            ("[sections]\ns: q = sin(x1)\ns: q = 2*sin(x1)\n", 7, "gives q twice"),
            ("[sections]\ns: dag(q) = 1\ns: dag(q) = 2\n", 7, r"gives dag\(q\) twice")):
        with pytest.raises(ParseError, match=rf"{message} \(line {line}\)$"):
            parse_model_file(header + tail)
    # a section may come before the fields it names, and two sections may
    # each give one variable
    _, sections = parse_model_file(
        "[base]\ndim = 1\n[sections]\na: q = 1\nb: q = 2\n[fields]\nq ghost = 0\n")
    assert sections == {"a": {("q", False): "1"}, "b": {("q", False): "2"}}


# -- commands -------------------------------------------------------------------

def test_cmd_euler(model_file, capsys):
    assert main(["euler", model_file, "--expr", "q*q_xx", "--field", "q"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "2*q_xx"


def test_cmd_schouten_and_laplacian(model_file, capsys):
    assert main(["schouten", model_file, "--f", "dag(q)*q_x", "--g", "q^2",
                 "--collapse"]) == 0
    out = capsys.readouterr().out
    assert "-2*q*q_x" in out
    assert main(["laplacian", model_file, "--expr", "dag(q)*q*q_xx"]) == 0
    out = capsys.readouterr().out
    assert "frz[0:x1 x1](q)" in out and "q_xx" in out


def test_cmd_check_json_schema(model_file, capsys):
    rc = main(["check", "skew", "--cases", "5", "--seed", "3", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["suite"] == "skew"
    assert payload["cases"] == 5
    assert payload["passed"] is True
    assert len(payload["results"]) == 5
    assert all(set(r) >= {"case", "seed", "passed"} for r in payload["results"])


def test_cmd_check_naive_regression(capsys):
    rc = main(["check", "derivation-1c", "--scalar-pair", "--mode", "naive"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "discrepancy density" in out


def test_cmd_check_reports_a_discrepancy_on_every_failure(capsys):
    argv = ["check", "delta-squared-1d", "--mode", "naive", "--cases", "6", "--seed", "9"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "FAIL case 2 (seed 90002)\n    discrepancy density: (1)*<" in out
    assert main(argv + ["--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    failed = [r for r in payload["results"] if not r["passed"]]
    assert [r["case"] for r in failed] == [2] and failed[0]["discrepancy"]
    assert all("discrepancy" not in r for r in payload["results"] if r["passed"])


def test_cmd_check_prints_one_integral_and_a_reproducer(capsys):
    # the two integrals of the discrepancy are printed as one, and each
    # printed command fails again, on its last case
    pinned = ("  FAIL case 2 (seed 90002)\n"
              "    discrepancy density: (1)*<8*q*dag(q)_x - 8*q_x*dag(q)>\n"
              "    reproduce: bvcalc check delta-squared-1d --mode naive --seed 9 --cases 3"
              " --max-order 2\n")
    for argv, expected in (
            (["check", "delta-squared-1d", "--mode", "naive", "--cases", "6", "--seed", "9"],
             pinned),
            (["check", "derivation-1c", "--scalar-pair", "--mode", "naive"],
             "    reproduce: bvcalc check derivation-1c --scalar-pair --mode naive\n")):
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert expected in out
        (line,) = [l for l in out.splitlines() if "reproduce:" in l]
        assert main(line.split("reproduce: bvcalc ")[1].split()) == 1
        rerun = capsys.readouterr().out.splitlines()
        assert rerun[-3].startswith("  FAIL case") and rerun[-1] == line


def test_cmd_check_shortens_a_long_discrepancy_in_text_mode(capsys):
    # the text line carries the first 400 characters and the size of the
    # discrepancy; --json keeps it whole
    argv = ["check", "omega", "--mode", "naive", "--cases", "1", "--seed", "20240808"]
    assert main(argv + ["--json"]) == 1
    (failed,) = json.loads(capsys.readouterr().out)["results"]
    full = failed["discrepancy"]
    assert len(full) > 5000 and full.startswith("(1)*<") and full.endswith(">")
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == f"    discrepancy density: {full[:400]} ... [1 terms, 131 monomials]"
    assert lines[3].startswith("    reproduce: bvcalc check omega --mode naive")


def test_run_suite_records_structural_agreement_apart_from_the_verdict():
    # case 0 at seed 4 holds modulo collapse but not structurally; the
    # failing naive scalar pair records no structural agreement either
    _, (r,) = run_suite("derivation-1c", 1, 4, 2)
    assert r["passed"] and r["collapse"] and r["structural"] is False
    _, (r,) = run_suite("derivation-1c", 1, 0, 2, mode="naive", scalar_pair=True)
    assert r["passed"] is r["structural"] is r["collapse"] is False


def test_every_suite_draws_one_argument_per_declared_parity():
    # the draws and the parities of a row are separate columns: a drawn
    # random functional of fixed parity must have the parity its slot declares
    for name, row in bv.IDENTITIES.items():
        assert len(row.draws) == len(row.parities), name
        for item, parity in zip(row.draws, row.parities):
            if parity is not None:
                assert item[0] == parity, (name, item)


def test_gauge_closure_draws_an_even_action_per_case():
    # the row declares S even and draws a random even S, a different one for
    # each case
    m = BvModel(1, [("q", 0)])
    actions = [cli._draw("gauge-closure", m, cs, 2)[2] for cs in range(10)]
    assert all(not S.is_zero() and S.parity() == 0 for S in actions)
    assert len(set(actions)) == len(actions)


def test_run_suite_rejects_bad_input_before_any_case():
    for suite, cases in (("nope", 0), ("nope", 2), ("skew", 0), ("skew", -3)):
        with pytest.raises(ValueError):
            run_suite(suite, cases, 1, 2)


def test_omega_suite_decides_on_the_report(monkeypatch):
    # pretend every block of the master-equation obstruction is trivial:
    # (Omega)^2(O) still agrees with its reduced form but [[Q_c, O]] is not
    # trivial, so the report fails and the suite must fail with it
    monkeypatch.setattr(bv, "is_trivial", lambda model, b: True)
    passed, results = run_suite("omega", cases=1, seed=2, max_order=2)
    m = BvModel(1, [("q", 0)])
    O, S = (random_functional(m, 2, 3, 0, 20_000 + k) for k in (1, 2))
    rep = bv.check_identity("omega", (O, S))
    assert rep.data["agreed"] == [True, False] and not rep.passed
    assert not passed and results[0]["discrepancy"]


def test_cmd_check_seed_determinism(capsys):
    main(["check", "derivation-1c", "--cases", "4", "--seed", "11", "--json"])
    first = capsys.readouterr().out
    main(["check", "derivation-1c", "--cases", "4", "--seed", "11", "--json"])
    second = capsys.readouterr().out
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed_s"), b.pop("elapsed_s")
    assert a == b


def test_cmd_example_scalar(capsys):
    rc = main(["example", "scalar"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "LHS = RHS (structural) ; LHS ~ RHS (cohomological)" in out


def test_cmd_evaluate(model_file, capsys):
    rc = main(["evaluate", model_file, "--expr", "q^2", "--section", "s1"])
    assert rc == 0
    assert "3.14159" in capsys.readouterr().out


def test_section_coefficients_in_scientific_notation(tmp_path, capsys):
    # the sign of an exponent does not start a term
    path = tmp_path / "sci.model"
    path.write_text("[base]\ndim = 1\n[fields]\nq ghost = 0\n[sections]\n"
                    "s: q = 2e-3*sin(x1)\nt: q = 1.5E+1*sin(x1) - 2e-3*cos(x1)\n")
    assert main(["evaluate", str(path), "--expr", "q^2", "--section", "s"]) == 0
    assert capsys.readouterr().out == "integral value: +1.25664e-05\n"
    assert main(["evaluate", str(path), "--expr", "q^2", "--section", "t"]) == 0
    value = float(capsys.readouterr().out.split(":")[1])
    assert abs(value - (15.0 ** 2 + 2e-3 ** 2) * math.pi) < 1e-3


def test_section_factors_of_one_coordinate_multiply(tmp_path, capsys):
    # two factors of x1 multiply by product to sum: sin^2 and cos^2
    # integrate to pi, sin*cos and cos(x1)*cos(2x1) to 0; cos(0x1) is 1 and
    # sin(0x1) drops its term
    sections = {"ss": "sin(x1)*sin(x1)", "cc": "cos(x1)*cos(x1)", "sc": "sin(x1)*cos(x1)",
                "c12": "cos(x1)*cos(2x1)", "zero": "sin(x1)*cos(0x1) + 5*sin(0x1)"}
    path = tmp_path / "products.model"
    path.write_text("[base]\ndim = 1\n[fields]\nq ghost = 0\n[sections]\n"
                    + "".join(f"{name}: q = {text}\n" for name, text in sections.items()))
    values = {}
    for name in sections:
        assert main(["evaluate", str(path), "--expr", "q", "--section", name]) == 0
        values[name] = float(capsys.readouterr().out.split(":")[1])
    expected = {"ss": math.pi, "cc": math.pi, "sc": 0.0, "c12": 0.0, "zero": 0.0}
    assert all(abs(values[k] - v) < 1e-5 for k, v in expected.items()), values
    assert main(["evaluate", str(path), "--expr", "q^2", "--section", "zero"]) == 0
    assert capsys.readouterr().out == "integral value: +3.14159\n"


def test_cmd_usage_errors(model_file, tmp_path, capsys):
    assert main(["euler", model_file, "--expr", "q +* q", "--field", "q"]) == 2
    assert main(["evaluate", model_file, "--expr", "q", "--section", "nope"]) == 2
    capsys.readouterr()
    # a model file that cannot be read, or that does not parse
    missing = str(tmp_path / "missing.model")
    assert main(["euler", missing, "--expr", "q", "--field", "q"]) == 2
    out, err = capsys.readouterr()
    assert not out and "cannot read model file" in err
    bad = tmp_path / "bad.model"
    bad.write_text("[base]\ndim = x\n[fields]\nq ghost = 0\n")
    assert main(["euler", str(bad), "--expr", "q", "--field", "q"]) == 2
    out, err = capsys.readouterr()
    assert not out and "(line 2)" in err
    bad.write_text("[base]\ndim = 1\n[fields]\ni ghost = 0\n")
    assert main(["euler", str(bad), "--expr", "q", "--field", "q"]) == 2
    out, err = capsys.readouterr()
    assert not out and "reserved" in err and "(line 4)" in err
    bad.write_text("[base]\ndim = 1\n[fields]\nq ghost = 0\n[sections]\ns: p = sin(x1)\n")
    assert main(["evaluate", str(bad), "--expr", "q^2", "--section", "s"]) == 2
    out, err = capsys.readouterr()
    assert not out and "undeclared field 'p' (line 6)" in err
    bad.write_text("[base]\ndim = 1\n[fields]\nq ghost = 0\nq ghost = 0\n")
    assert main(["euler", str(bad), "--expr", "q", "--field", "q"]) == 2
    out, err = capsys.readouterr()
    assert not out and "declared twice (line 5)" in err
    # a negative power of a scalar that has no inverse
    for text, shown in (("(1+hbar)^-1", "1 + hbar"), ("0^-1", "0")):
        assert main(["euler", model_file, "--expr", text, "--field", "q"]) == 2
        out, err = capsys.readouterr()
        assert not out and f"the scalar {shown} has no inverse" in err
    # a transcendental density whose value leaves the float range
    bad.write_text("[base]\ndim = 1\n[fields]\nq ghost = 0\n[sections]\ns: q = 1000*sin(x1)\n")
    assert main(["evaluate", str(bad), "--expr", "exp(q)", "--section", "s"]) == 2
    out, err = capsys.readouterr()
    assert not out and err == "bvcalc: exp overflows at the section\n"
    for n in ("0", "-3"):
        assert main(["check", "skew", "--cases", n, "--json"]) == 2
        out, err = capsys.readouterr()
        assert not out and "--cases must be at least 1" in err
    assert main(["check", "skew", "--max-order", "-1"]) == 2
    out, err = capsys.readouterr()
    assert not out and err == "bvcalc: --max-order must be at least 0, got -1\n"
    assert main(["check", "skew", "--cases", "1", "--scalar-pair"]) == 2
    out, err = capsys.readouterr()
    assert not out and "--scalar-pair applies only to derivation-1c" in err


def test_cmd_euler_unknown_field_is_a_usage_error(model_file, capsys):
    assert main(["euler", model_file, "--expr", "q*q", "--field", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown field" in err
    # the message itself, not the repr a KeyError's str() gives
    assert err == "bvcalc: unknown field 'nope'\n"
    assert main(["euler", model_file, "--expr", "dag(r)", "--field", "q"]) == 2
    assert capsys.readouterr().err == "bvcalc: unknown field 'r' (column 5)\n"


def test_bvcalc_seed_env(model_file, monkeypatch, capsys):
    # the effective seed of a check without --seed is BVCALC_SEED's
    monkeypatch.setenv("BVCALC_SEED", "21")
    assert main(["check", "skew", "--cases", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 21
    assert main(["check", "skew", "--cases", "1", "--seed", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3


def test_invalid_bvcalc_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("BVCALC_SEED", "abc")
    assert main(["check", "skew", "--cases", "1"]) == 2
    out, err = capsys.readouterr()
    assert not out and "invalid BVCALC_SEED 'abc'" in err
    # it is read only by a check that gets no --seed
    assert main(["example", "scalar"]) == 0
    assert main(["check", "skew", "--cases", "1", "--seed", "3"]) == 0
    assert not capsys.readouterr().err


# -- the Yang-Mills example ----------------------------------------------------

def test_ym_example_takes_one_laplacian_and_one_euler_pass(monkeypatch, capsys):
    # Delta S and the CME are read from the master-equation report: one
    # Laplacian density of S, and one Euler pass, the one that reduces the
    # obstruction
    calls = {"eulers": 0, "laplacian_density": 0}

    def counted(module, name):
        f = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, count)

    counted(cohomology, "eulers")
    counted(bv, "laplacian_density")
    assert main(["example", "ym-su2", "--dim", "2"]) == 0
    assert calls == {"eulers": 1, "laplacian_density": 1}


def test_ym_example_fails_the_cme_without_the_ghost_term(monkeypatch, capsys):
    # with its gam*gam*dag(gam) monomials dropped the action no longer
    # closes: the example prints a failing CME and exits 1
    def without_ghost_term(algebra, n):
        model, S = build_yang_mills_bv(algebra, n)
        ((s,), c), = S.terms.items()
        kept = {k: mono for k, mono in s.terms.items()
                if not any(a.dagger for a, _ in mono.even)}
        assert 0 < len(kept) < len(s.terms)
        return model, Functional.from_density(model, Expr(kept).scale(c))

    monkeypatch.setattr(cli, "build_yang_mills_bv", without_ghost_term)
    assert main(["example", "ym-su2", "--dim", "2"]) == 1
    out = capsys.readouterr().out
    assert "classical master equation: the collapsed [[S,S]] is trivial: False\n" in out


def test_ym_example_json_carries_the_text_lines(capsys):
    assert main(["example", "ym-su2", "--dim", "2"]) == 0
    text = capsys.readouterr().out
    assert main(["example", "ym-su2", "--dim", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True and payload["example"] == "ym-su2"
    assert "\n".join(payload["lines"]) + "\n" == text


# -- printed outputs -----------------------------------------------------------

# one SHA-256 over what four commands print, elapsed times stripped: a change
# meant to keep every output (a performance change) must keep it
PRINTED = "f8e6805cdf58259c32ca1471ceef1e04c35cc919fb7217e018dc788d0eedfbe9"
PRINTED_COMMANDS = (
    (["example", "scalar"], 0),
    (["example", "ym-su2", "--dim", "2"], 0),
    (["check", "derivation-1c", "--scalar-pair", "--mode", "naive"], 1),
    (["check", "jacobi", "--cases", "4", "--seed", "3", "--json"], 0),
)
_ELAPSED = re.compile(r'(?<="elapsed_s": )[0-9.]+|(?<= passed in )[0-9.]+(?=s$)', re.M)


def printed_digest(capsys) -> str:
    h = hashlib.sha256()
    for argv, code in PRINTED_COMMANDS:
        assert main(argv) == code, argv
        h.update(_ELAPSED.sub("_", capsys.readouterr().out).encode())
    return h.hexdigest()


def test_printed_outputs(capsys):
    assert printed_digest(capsys) == PRINTED
