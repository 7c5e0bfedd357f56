"""Command-line front-end.

Subcommands: euler, schouten, laplacian, check, example, evaluate.
Exit codes: 0 all checks pass, 1 mathematical failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
import time
from fractions import Fraction

from .cohomology import Functional, _blocks_key, functional_equal
from .jetcalc import BvModel, euler, euler_left
from .bv import (
    COIN,
    GEOMETRIC,
    IDENTITIES,
    NAIVE,
    _Ops,
    _summarize,
    check_identity,
    check_master_equation,
    laplacian,
    schouten,
)
from .grammar import ParseError, _read_model_file, format_coefficient, format_expr, parse_expr
from .models import (
    LieAlgebraData,
    build_scalar_example,
    build_yang_mills_bv,
    random_functional,
)
from .oracle import GrassmannNumber, SectionSpec, evaluate

SUITES = tuple(IDENTITIES)

SCHEMA_VERSION = 1


def _default_seed() -> int:
    env = os.environ.get("BVCALC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"bvcalc: invalid BVCALC_SEED {env!r}", file=sys.stderr)
            raise SystemExit(2)
    return 0


def _load_model(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"bvcalc: cannot read model file: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return _read_model_file(text)
    except ParseError as exc:
        print(f"bvcalc: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _print_functional(F: Functional, do_collapse: bool):
    if do_collapse:
        F = F.collapse()
    if F.is_zero():
        print("0")
        return
    for blocks in sorted(F.terms, key=_blocks_key):
        cs = format_coefficient(F.terms[blocks])
        body = " * ".join(f"<{format_expr(b)}>" for b in blocks) or "<vol>"
        print(f"  ({cs}) {body}")


# ---------------------------------------------------------------------------
# simple commands


def cmd_euler(args) -> int:
    model, _, _ = _load_model(args.model)
    e = parse_expr(args.expr, model)
    print(format_expr(euler(model, e, args.field, args.dagger, side=args.side)))
    return 0


def cmd_schouten(args) -> int:
    model, _, _ = _load_model(args.model)
    F, G = (Functional.from_density(model, parse_expr(t, model)) for t in (args.f, args.g))
    _print_functional(schouten(F, G, args.mode), args.collapse)
    return 0


def cmd_laplacian(args) -> int:
    model, _, _ = _load_model(args.model)
    F = Functional.from_density(model, parse_expr(args.expr, model))
    _print_functional(laplacian(F, args.mode), args.collapse)
    return 0


def cmd_evaluate(args) -> int:
    model, sections, lines = _load_model(args.model)
    e = parse_expr(args.expr, model)
    if args.section not in sections:
        print(f"bvcalc: no section {args.section!r} in model file", file=sys.stderr)
        return 2
    spec = SectionSpec(model, {key: _parse_trig_poly(model, text, lines[args.section, key])
                               for key, text in sections[args.section].items()})
    value = evaluate(Functional.from_density(model, e), spec)
    print(f"integral value: {value!r}")
    return 0


def _parse_trig_poly(model, text: str, line: int):
    """Parse 'c * sin(k x1) * cos(m x2) + ...' with float or g<k> coefficients.
    Factors of one coordinate multiply by product to sum, so a term may
    become several; cos(0 x) is 1, and sin(0 x) drops its term.  A
    ParseError names the model file ``line`` the text was given on."""
    terms = []
    # a term starts at a sign, but not at the sign of an exponent (2e-3)
    for chunk in re.split(r"(?<![eE])(?=[+-])", text.replace(" ", "")):
        if not chunk or chunk in "+-":
            continue
        coeff = GrassmannNumber.scalar(-1.0 if chunk.startswith("-") else 1.0)
        chunk = chunk.lstrip("+-")
        products = [(1.0, (("one", 0),) * model.base_dim)]  # (scale, factors)
        for factor in chunk.split("*"):
            if not factor:
                continue
            m = re.fullmatch(r"(sin|cos)\((\d*)x(\d+)\)", factor)
            if m:
                freq = int(m.group(2)) if m.group(2) else 1
                coord = int(m.group(3)) - 1
                if not 0 <= coord < model.base_dim:
                    raise ParseError(f"coordinate x{coord + 1} out of range", line=line)
                products = [(s * t, fs[:coord] + (f,) + fs[coord + 1:])
                            for s, fs in products
                            for t, f in _trig_product(fs[coord], m.group(1), freq)]
                continue
            m = re.fullmatch(r"g(\d+)", factor)
            if m:
                coeff = coeff * GrassmannNumber.generator(int(m.group(1)) - 1)
                continue
            try:
                coeff = coeff.scale(float(Fraction(factor)))
            except ValueError:
                raise ParseError(f"bad section factor {factor!r}", line=line)
            except ZeroDivisionError:
                raise ParseError(f"division by zero in {factor}", line=line)
        terms += [(coeff.scale(s), fs) for s, fs in products]
    return terms


def _trig_product(factor, kind: str, freq: int):
    """The factor (k, f) of one coordinate times kind(freq x), as (scale,
    factor) pairs by product to sum: sin a sin b = (cos(a - b) - cos(a + b))/2,
    cos a cos b = (cos(a - b) + cos(a + b))/2, sin a cos b = (sin(a + b) +
    sin(a - b))/2; sin(-a) = -sin a, cos(0) is 1 and sin(0) is left out."""
    k, f = factor
    if k == "one":
        pairs = [(1.0, kind, freq)]
    elif k == kind:
        pairs = [(0.5, "cos", f - freq), (0.5 if k == "cos" else -0.5, "cos", f + freq)]
    else:
        pairs = [(0.5, "sin", f + freq), (0.5, "sin", f - freq if k == "sin" else freq - f)]
    return [(-t if k == "sin" and f < 0 else t, (k, abs(f)) if f else ("one", 0))
            for t, k, f in pairs if f or k == "cos"]


# ---------------------------------------------------------------------------
# identity suites

def _draw(suite: str, model, cs: int, max_order: int) -> list:
    """The arguments of the suite's case cs, drawn as its row's ``draws`` say."""
    r = random.Random(cs)
    args = []
    for parity, offset, *blocks in IDENTITIES[suite].draws:
        parity = r.randint(0, 1) if parity == COIN else parity
        args.append(random_functional(model, max_order, 3, parity, cs + offset,
                                      n_blocks=r.choice(blocks[0]) if blocks else 1))
    return args


def run_suite(suite: str, cases: int, seed: int, max_order: int,
              mode: str = GEOMETRIC, scalar_pair: bool = False, describe=repr):
    """Run one named identity suite; returns (passed, result dicts).  A failing
    case records its discrepancy as ``describe`` renders it."""
    if suite not in IDENTITIES:
        raise ValueError(f"unknown suite {suite!r}")
    if cases < 1:
        raise ValueError(f"--cases must be at least 1, got {cases}")
    if max_order < 0:
        raise ValueError(f"--max-order must be at least 0, got {max_order}")
    if scalar_pair and suite != "derivation-1c":
        raise ValueError(f"--scalar-pair applies only to derivation-1c, not {suite}")
    model = BvModel(1, [("q", 0)])
    results = []
    for i in range(1 if scalar_pair else cases):
        if scalar_pair:
            cs, args = seed, build_scalar_example()[1:]
        else:
            cs = seed * 10_000 + i
            args = _draw(suite, model, cs, max_order)
        rep = check_identity(suite, args, mode)
        result = {"case": i, "seed": cs, "passed": rep.passed}
        result.update((how, rep.data[how]) for how in IDENTITIES[suite].records)
        if not rep.passed:
            result["discrepancy"] = describe(rep.data["discrepancy"])
        results.append(result)
    return all(r["passed"] for r in results), results


def cmd_check(args) -> int:
    if args.seed is None:
        args.seed = _default_seed()
    t0 = time.perf_counter()
    # text mode prints a discrepancy cut to its first 400 characters
    passed, results = run_suite(
        args.suite, args.cases, args.seed, args.max_order,
        mode=args.mode, scalar_pair=args.scalar_pair,
        describe=repr if args.json else _summarize,
    )
    structural_rate = None
    if args.suite == "derivation-1c":
        structural_rate = sum(1 for r in results if r.get("structural")) / len(results)
    payload = {
        "schema": SCHEMA_VERSION,
        "suite": args.suite,
        "mode": args.mode,
        "cases": len(results),
        "seed": args.seed,
        "max_order": args.max_order,
        "passed": passed,
        "failures": sum(1 for r in results if not r["passed"]),
        "elapsed_s": round(time.perf_counter() - t0, 3),
        "results": results,
    }
    if structural_rate is not None:
        payload["structural_pass_rate"] = structural_rate
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(f"suite {args.suite} ({args.mode}): "
              f"{payload['cases'] - payload['failures']}/{payload['cases']} passed "
              f"in {payload['elapsed_s']}s")
        if structural_rate is not None:
            print(f"  structural pass rate: {structural_rate:.2f}")
        for r in results:
            if not r["passed"]:
                print(f"  FAIL case {r['case']} (seed {r['seed']})")
                print(f"    discrepancy density: {r['discrepancy']}")
                print(f"    reproduce: {_reproducer(args, r['case'])}")
    return 0 if passed else 1


def _reproducer(args, case: int) -> str:
    """The bvcalc command whose last case is the given failing case."""
    if args.scalar_pair:
        return f"bvcalc check {args.suite} --scalar-pair --mode {args.mode}"
    return (f"bvcalc check {args.suite} --mode {args.mode} --seed {args.seed} "
            f"--cases {case + 1} --max-order {args.max_order}")


# ---------------------------------------------------------------------------
# worked examples


def cmd_example(args) -> int:
    ok, lines = _example_scalar() if args.which == "scalar" else _example_ym(args.dim)
    if args.json:
        print(json.dumps({"schema": SCHEMA_VERSION, "example": args.which,
                          "passed": bool(ok), "lines": lines}, indent=2))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


def _example_scalar():
    model, F, G = build_scalar_example()
    fd = next(iter(F.blocks()))
    gd = next(iter(G.blocks()))
    lines = []
    ok = True

    ef = euler_left(model, fd, "q")
    eg = euler_left(model, gd, "q")
    lines.append(f"delta F / delta q = {format_expr(ef)}")
    lines.append(f"delta G / delta q = {format_expr(eg)}")
    expected_eg = -(model.jet("q", (2,), dagger=True) * model.sin("q"))
    ok &= (eg == expected_eg)

    dF = laplacian(F)
    dG = laplacian(G)
    lines.append(f"Delta F (structured) = {repr(dF)}")
    lines.append(f"Delta G (structured) = {repr(dG)}")

    bracket_dFG = schouten(dF, G)
    lines.append(f"[[Delta F, G]] = {repr(bracket_dFG)}")
    ok &= bracket_dFG.is_zero()

    ((L, R),) = IDENTITIES["derivation-1c"].build(F, G, _Ops(GEOMETRIC))
    structural = functional_equal(L, R, "structural")
    cohomological = functional_equal(L, R, "collapse")
    ok &= structural and cohomological
    lines.append(f"Delta[[F,G]] (canonical) = {repr(L)}")
    lines.append(f"[[F,Delta G]] + [[Delta F,G]] (canonical) = {repr(R)}")
    lines.append(f"collapsed common value = {repr(L.collapse())}")

    naive_bracket = schouten(F, laplacian(G, NAIVE), NAIVE)
    naive = check_identity("derivation-1c", (F, G), NAIVE)
    naive_holds = naive.passed
    lines.append(f"naive [[F,Delta G]] = {repr(naive_bracket)}")
    lines.append(f"naive mode satisfies the derivation identity: {naive_holds}")
    if not naive_holds:
        lines.append(f"naive discrepancy density = {repr(naive.data['discrepancy'])}")
    ok &= (not naive_holds) and naive_bracket.is_zero()

    verdict = (f"LHS {'=' if structural else '!='} RHS (structural) ; "
               f"LHS {'~' if cohomological else '!~'} RHS (cohomological)")
    lines.append(verdict)
    return ok, lines


def _example_ym(n: int):
    algebra = LieAlgebraData.su2()
    model, S = build_yang_mills_bv(algebra, n)
    rep = check_master_equation(S)
    dS = rep.data["delta"]
    lines = [f"su(2) Yang-Mills over a {n}-dimensional base; "
             f"{len(model.fields)} field pairs",
             f"Delta(S_BV) = {'0' if dS.is_zero() else repr(dS)} (exact)"]
    ok = dS.is_zero()

    # the diagonal trace pattern behind Delta(S_BV) = 0
    lines.append("cancellation pattern: the A-sector contributes the trace "
                 "f^d_dc gam^c and the ghost sector -f^d_db gam^b; both vanish "
                 "for traceless structure constants")

    lines.append(f"classical master equation: the collapsed [[S,S]] is trivial: {rep.data['cme']}")
    ok &= rep.data["cme"]

    lines.extend("  " + l for l in rep.lines)
    lines.append(f"quantum master-equation report: {'PASS' if rep.passed else 'FAIL'}")
    ok &= rep.passed

    return ok, lines


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bvcalc",
        description="variational Schouten bracket and BV-Laplacian calculator",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("euler", help="variational derivative of a density")
    pe.add_argument("model")
    pe.add_argument("--expr", required=True)
    pe.add_argument("--field", required=True)
    pe.add_argument("--dagger", action="store_true")
    pe.add_argument("--side", choices=("left", "right"), default="left")
    pe.set_defaults(func=cmd_euler)

    ps = sub.add_parser("schouten", help="variational Schouten bracket")
    ps.add_argument("model")
    ps.add_argument("--f", required=True)
    ps.add_argument("--g", required=True)
    ps.add_argument("--mode", choices=(GEOMETRIC, NAIVE), default=GEOMETRIC)
    ps.add_argument("--collapse", action="store_true")
    ps.set_defaults(func=cmd_schouten)

    pl = sub.add_parser("laplacian", help="BV-Laplacian of a density")
    pl.add_argument("model")
    pl.add_argument("--expr", required=True)
    pl.add_argument("--mode", choices=(GEOMETRIC, NAIVE), default=GEOMETRIC)
    pl.add_argument("--collapse", action="store_true")
    pl.set_defaults(func=cmd_laplacian)

    pc = sub.add_parser("check", help="run an identity suite")
    pc.add_argument("suite", choices=SUITES)
    pc.add_argument("--cases", type=int, default=100)
    pc.add_argument("--seed", type=int, help="default: BVCALC_SEED, else 0")
    pc.add_argument("--max-order", type=int, default=2)
    pc.add_argument("--mode", choices=(GEOMETRIC, NAIVE), default=GEOMETRIC)
    pc.add_argument("--scalar-pair", action="store_true",
                    help="restrict derivation-1c to the worked scalar pair")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_check)

    px = sub.add_parser("example", help="reproduce a worked computation")
    px.add_argument("which", choices=("scalar", "ym-su2"))
    px.add_argument("--dim", type=int, default=4,
                    help="base dimension for ym-su2")
    px.add_argument("--json", action="store_true")
    px.set_defaults(func=cmd_example)

    pv = sub.add_parser("evaluate", help="numeric value at a section")
    pv.add_argument("model")
    pv.add_argument("--expr", required=True)
    pv.add_argument("--section", required=True)
    pv.set_defaults(func=cmd_evaluate)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message: print the message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"bvcalc: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
