"""Command-line surface.

Curve files are plain text, one curve per file::

    # optional comments
    name: cusp
    k: 2
    term: 3 1
    term: 5 -2/3      # exponent, then coefficient (rationals as p/q)

Exponents must be strictly increasing positive integers, coefficients
nonzero rationals. Subcommands: validate, semigroup, polygon, implicitize,
verify, bench. Output is deterministic; ``--json`` switches to a
machine-readable document (identical across runs, timing fields aside).
Exit status is 0 exactly when everything requested passed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .algebra import BiPoly, Coeff
from .chardata import Branch, BranchInput, validate_branch
from .errors import CurveFileError, CurveLiftError
from .implicitize import LiftChain, implicitize_all, lift_levels
from .oracle import DEFAULT_ORACLE_BOUND
from .polygon import polygon_desc
from .semigroup import generators

APPROXIMATION_NOTE = ("f_s approximates the branch equation: same "
                      "multiplicity and characteristic exponents")


# ---------------------------------------------------------------------------
# curve files
# ---------------------------------------------------------------------------

@dataclass
class CurveFile:
    k: int
    terms: list[tuple[int, Coeff]]
    name: str = ""
    notes: str = ""


# an integer or p/q; Fraction alone also takes exponent notation, whose
# cost grows without bound with the exponent ("1e-4000000" takes seconds)
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Coeff:
    if not _RATIONAL.fullmatch(text):
        raise CurveFileError(f"bad rational {text!r}: write an integer or p/q")
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CurveFileError(f"bad rational {text!r}: {exc}") from None
    return f.numerator if f.denominator == 1 else f


def format_rational(c: Coeff) -> str:
    return str(c)


def parse_curve_text(text: str, path: str = "<string>") -> CurveFile:
    cf = CurveFile(k=0, terms=[])
    last_exp = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise CurveFileError("expected 'key: value'", path, lineno)
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "name":
            cf.name = value
        elif key == "notes":
            cf.notes = value
        elif key == "k":
            try:
                cf.k = int(value)
            except ValueError:
                raise CurveFileError(f"bad k {value!r}", path, lineno) from None
            if cf.k < 1:
                raise CurveFileError("k must be a positive integer", path, lineno)
        elif key == "term":
            fields = value.split()
            if len(fields) != 2:
                raise CurveFileError("term wants 'term: <exp> <coeff>'", path, lineno)
            try:
                exp = int(fields[0])
                coeff = parse_rational(fields[1])
            except (ValueError, CurveFileError) as exc:
                raise CurveFileError(str(exc), path, lineno) from None
            if exp <= 0:
                raise CurveFileError("exponent must be positive", path, lineno)
            if exp <= last_exp:
                raise CurveFileError("exponents must be strictly increasing",
                                     path, lineno)
            if not coeff:
                raise CurveFileError("coefficient must be nonzero", path, lineno)
            last_exp = exp
            cf.terms.append((exp, coeff))
        else:
            raise CurveFileError(f"unknown key {key!r}", path, lineno)
    if cf.k == 0:
        raise CurveFileError("missing 'k:' line", path)
    if not cf.terms:
        raise CurveFileError("no 'term:' lines", path)
    return cf


def load_curve(path) -> CurveFile:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise CurveFileError(str(exc), str(path)) from None
    cf = parse_curve_text(text, str(path))
    if not cf.name:
        cf.name = p.stem
    return cf


def branch_from_file(cf: CurveFile) -> Branch:
    return validate_branch(BranchInput.from_terms(cf.k, cf.terms))


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def format_poly(f: BiPoly) -> str:
    """Fixed term order: ascending total degree, higher y-power first."""
    if f.is_zero:
        return "0"
    items = sorted(f.terms(), key=lambda kv: (kv[0][0] + kv[0][1], -kv[0][1]))
    parts = []
    for (a, b), c in items:
        mono = "*".join(bit for bit in (
            "y" if b == 1 else f"y^{b}" if b else "",
            "x" if a == 1 else f"x^{a}" if a else "") if bit)
        neg = c < 0
        cabs = -c if neg else c
        if not mono:
            body = format_rational(cabs)
        elif cabs == 1:
            body = mono
        else:
            body = f"{format_rational(cabs)}*{mono}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def poly_to_doc(f: BiPoly) -> list[dict]:
    items = sorted(f.terms(), key=lambda kv: (kv[0][0] + kv[0][1], -kv[0][1]))
    return [{"x": a, "y": b, "c": format_rational(c)} for (a, b), c in items]


def poly_from_doc(doc: list[dict]) -> BiPoly:
    return BiPoly([((t["x"], t["y"]), parse_rational(t["c"])) for t in doc])


def _mark(ok: bool) -> str:
    return "✓" if ok else "✗"


def certificate_lines(chain: LiftChain) -> list[str]:
    """Human-readable certificate report, one line per check."""
    cd = chain.cd
    lines = []
    for cert in chain.certificates:
        i = cert.level
        e_i = cd.es[i]
        mark = _mark
        lines.append(f"level {i} (e_{i} = {e_i}):")
        lines.append(f"  ι_{i}*f_{i} = 0 {mark(cert.pullback_zero)}")
        lines.append(f"  Supp(f_{i}) ⊆ N_{i} {mark(cert.support_in_polygon)}")
        lines.append(f"  (0,{e_i}) ∉ Supp(δ_{i}) {mark(cert.apex_absent_in_delta)}")
        lines.append(f"  {{(0,{e_i}),({int(e_i * cd.lambdas[0])},0)}} ⊆ Supp(f_{i}) "
                     f"{mark(cert.compact_face_present)}")
        lines.append(f"  f_{i} monic Weierstrass of degree {e_i} "
                     f"{mark(cert.monic_weierstrass)}")
        lines.append(f"  elimination orders strictly increasing "
                     f"{mark(cert.n_log_increasing)}")
        lines.append(f"  elimination orders in Γ {mark(cert.n_log_in_semigroup)}")
        lines.append(f"  resultant oracle: {cert.oracle} "
                     f"{mark(cert.oracle in ('match', 'skipped'))}")
    if chain.table is not None:
        yes, no = "✓", "✗"
        for row in chain.table.rows:
            m1 = yes if row.value == row.expected else no
            m2 = yes if row.dvalue == row.dexpected else no
            lines.append(
                f"ϑ_{{ι_{row.j}}}(f_{row.i - 1}) = {row.value} = "
                f"γ_{row.i}^{{({row.j})}} {m1}")
            lines.append(
                f"ϑ_{{ι_{row.j}}}(∂_yf_{row.i - 1}) = {row.dvalue} = "
                f"γ_{row.i}^{{({row.j})}} - e_{row.j}λ_{row.i} {m2}")
    return lines


def chain_to_doc(cf: CurveFile, chain: LiftChain) -> dict:
    cd = chain.cd
    doc = {
        "name": cf.name,
        "k": cf.k,
        "terms": [{"exp": e, "coeff": format_rational(c)} for e, c in cf.terms],
        "characteristic_exponents": [format_rational(l) for l in cd.lambdas],
        "ks": list(cd.ks),
        "es": list(cd.es),
        "levels": [],
        "approximation": APPROXIMATION_NOTE,
    }
    for i in range(1, cd.s + 1):
        sd = generators(cd, i)
        level = {
            "level": i,
            "e": cd.es[i],
            "semigroup": sd.generators_list(),
            "f": poly_to_doc(chain.fs[i - 1]),
            "delta": poly_to_doc(chain.deltas[i - 1]),
            "iterations": [
                {"n": rec.n, "pivot": list(rec.pivot),
                 "coeff": format_rational(rec.coeff)}
                for rec in chain.logs[i - 1]],
        }
        if chain.certificates:
            level["certificates"] = chain.certificates[i - 1].checks()
        doc["levels"].append(level)
    if chain.table is not None:
        doc["valuation_table"] = [
            {"i": r.i, "j": r.j, "value": str(r.value), "expected": r.expected,
             "dvalue": str(r.dvalue), "dexpected": r.dexpected, "ok": r.ok}
            for r in chain.table.rows]
        doc["ok"] = chain.ok
    return doc


def doc_rebuild(doc: dict) -> tuple[Branch, tuple[BiPoly, ...]]:
    """Rebuild (branch, chain polynomials) from a --json document."""
    terms = [(t["exp"], parse_rational(t["coeff"])) for t in doc["terms"]]
    branch = validate_branch(BranchInput.from_terms(doc["k"], terms))
    fs = tuple(poly_from_doc(level["f"]) for level in doc["levels"])
    return branch, fs


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _levels(level: int, s: int):
    """The levels a ``--level`` argument asks for: all of 1..s when it is 0."""
    if not level:
        return range(1, s + 1)
    if not 1 <= level <= s:
        raise CurveLiftError(f"level {level} out of range 1..{s}")
    return [level]


def cmd_validate(args) -> int:
    cf = load_curve(args.file)
    branch = branch_from_file(cf)
    cd = branch.cd
    if args.json:
        doc = {
            "name": cf.name, "k": cf.k,
            "characteristic_exponents": [format_rational(l) for l in cd.lambdas],
            "ks": list(cd.ks), "es": list(cd.es),
            "cs": [format_rational(c) for c in branch.cs],
            "tails": [sorted((e, format_rational(c)) for e, c in phi.terms())
                      for phi in branch.phis],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"{cf.name}: valid branch, k = {cf.k}")
        lams = ", ".join(format_rational(l) for l in cd.lambdas)
        print(f"  characteristic exponents: {lams}")
        print(f"  ks = {list(cd.ks)}, es = {list(cd.es)}")
        for i, phi in enumerate(branch.phis, start=1):
            if not phi.is_zero:
                terms = " + ".join(f"{format_rational(c)}*t^{e}"
                                   for e, c in sorted(phi.terms()))
                print(f"  tail phi_{i} = {terms}")
    return 0


def cmd_semigroup(args) -> int:
    cf = load_curve(args.file)
    branch = branch_from_file(cf)
    cd = branch.cd
    if args.json:
        doc = {"name": cf.name,
               "levels": [{"level": i, "generators": generators(cd, i).generators_list()}
                          for i in range(1, cd.s + 1)]}
        print(json.dumps(doc, indent=2))
    else:
        for i in range(1, cd.s + 1):
            gens = generators(cd, i).generators_list()
            print(f"({gens[0]}; " + ", ".join(str(g) for g in gens[1:]) + ")")
    return 0


def cmd_polygon(args) -> int:
    cf = load_curve(args.file)
    branch = branch_from_file(cf)
    docs = []
    for i in _levels(args.level, branch.cd.s):
        pd = polygon_desc(branch, i)
        docs.append({
            "level": i,
            "lower": {"a": pd.lower[0], "b": pd.lower[1], "c": pd.lower[2]},
            "upper": {"a": pd.upper[0], "b": pd.upper[1], "c": pd.upper[2]},
            "vertices": [list(v) for v in pd.vertices],
            "mu": format_rational(pd.mu),
        })
    if args.json:
        print(json.dumps({"name": cf.name, "polygons": docs}, indent=2))
    else:
        for d in docs:
            lo, up = d["lower"], d["upper"]
            print(f"N_{d['level']}: {lo['a']}*a + {lo['b']}*b >= {lo['c']}  and  "
                  f"{up['a']}*a + {up['b']}*b <= {up['c']}")
            print(f"  vertices {d['vertices']}, mu = {d['mu']}")
    return 0


def _chain_for(args, verify: bool) -> tuple[CurveFile, LiftChain]:
    cf = load_curve(args.file)
    branch = branch_from_file(cf)
    chain = implicitize_all(branch, verify=verify, oracle_bound=args.oracle_bound)
    return cf, chain


def cmd_implicitize(args) -> int:
    verify = not args.no_verify
    cf, chain = _chain_for(args, verify)
    levels = _levels(args.level, chain.cd.s)
    if args.json:
        print(json.dumps(chain_to_doc(cf, chain), indent=2))
    else:
        for i in levels:
            print(f"f_{i} = {format_poly(chain.fs[i - 1])}")
        if not args.level:
            print(APPROXIMATION_NOTE)
        if verify:
            bad = [c.level for c in chain.certificates if not c.ok]
            print("certificates: " + ("all passed" if chain.ok else
                                      f"FAILED at levels {bad}"))
    if verify and not chain.ok:
        return 1
    return 0


def cmd_verify(args) -> int:
    cf, chain = _chain_for(args, verify=True)
    if args.json:
        print(json.dumps(chain_to_doc(cf, chain), indent=2))
    else:
        print(f"{cf.name}: certificate suite")
        for line in certificate_lines(chain):
            print(line)
        print("ALL PASSED" if chain.ok else "FAILURES PRESENT")
    return 0 if chain.ok else 1


def _bench_one(path: str) -> dict:
    """Wall time of each level of a certificate-free chain run."""
    cf = load_curve(path)
    branch = branch_from_file(cf)
    levels = []
    t_start = t0 = time.perf_counter()
    for i, (f_i, _, log) in enumerate(lift_levels(branch), start=1):
        t1 = time.perf_counter()
        levels.append({"level": i, "e": branch.cd.es[i], "iterations": len(log),
                       "terms": len(f_i), "seconds": t1 - t0})
        t0 = t1
    return {"name": cf.name, "k": branch.k, "levels": levels,
            "total_seconds": time.perf_counter() - t_start}


def cmd_bench(args) -> int:
    paths = sorted(str(p) for p in Path(args.corpus).glob("*.curve"))
    if not paths:
        raise CurveFileError("no .curve files found", args.corpus)
    results = [_bench_one(p) for p in paths]
    if args.json:
        print(json.dumps({"corpus": results}, indent=2))
    else:
        print(f"{'curve':20} {'level':>5} {'e_i':>4} {'iters':>6} {'terms':>6} "
              f"{'seconds':>9}")
        for res in results:
            for lv in res["levels"]:
                print(f"{res['name'][:20]:20} {lv['level']:>5} {lv['e']:>4} "
                      f"{lv['iterations']:>6} {lv['terms']:>6} "
                      f"{lv['seconds']:>9.3f}")
            print(f"{res['name'][:20]:20} {'total':>5} {'':>4} {'':>6} {'':>6} "
                  f"{res['total_seconds']:>9.3f}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="curvelift",
        description="implicit equations of plane-curve branch truncations")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, oracle=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if oracle:
            p.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND,
                           help="max level degree for the resultant oracle")

    p = sub.add_parser("validate", help="check a curve file and report its data")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("semigroup", help="value-semigroup generators per level")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("polygon", help="support polygon inequalities and vertices")
    p.add_argument("file")
    p.add_argument("--level", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_polygon)

    p = sub.add_parser("implicitize", help="compute the equation chain")
    p.add_argument("file")
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--no-verify", action="store_true",
                   help="skip certificate evaluation")
    add_common(p, oracle=True)
    p.set_defaults(func=cmd_implicitize)

    p = sub.add_parser("verify", help="full certificate suite")
    p.add_argument("file")
    add_common(p, oracle=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="timed chain runs over a corpus directory")
    p.add_argument("corpus")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CurveLiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
