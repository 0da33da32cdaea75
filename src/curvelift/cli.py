"""Command-line surface.

Curve files are plain text, one curve per file::

    # optional comments
    name: cusp
    k: 2
    term: 3 1
    term: 5 -2/3      # exponent, then coefficient (rationals as p/q)

There is one ``k:`` line and at most one ``name:`` line. Exponents must be
strictly increasing positive integers, coefficients nonzero rationals, all
in ASCII digits. Subcommands: validate, semigroup, polygon, implicitize,
verify, bench. Each builds one document; ``--json`` prints it, and the text
output is rendered from it. Output is deterministic (identical across runs,
timing fields aside). Exit status is 0 exactly when everything requested
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd
from pathlib import Path

from .algebra import BiPoly, Coeff
from .chardata import Branch, split_tails, validate_branch
from .errors import CurveFileError, CurveLiftError, InvalidBranchError
from .implicitize import (DEFAULT_ORACLE_BOUND, MAX_SLICE_BOUND, LevelCertificate,
                          LiftChain, implicitize_all, lift_levels)
from .parametrize import truncation
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


# an integer or p/q; Fraction alone also takes exponent notation, whose
# cost grows without bound with the exponent ("1e-4000000" takes seconds),
# and int and Fraction both take "1_1" and non-ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _quote(token: str) -> str:
    """A bad token as an error message shows it: if long, a prefix and its length."""
    if len(token) <= 20:
        return repr(token)
    return f"{token[:20]!r}... ({len(token)} characters)"


def parse_rational(text: str) -> Coeff:
    if not _RATIONAL.fullmatch(text):
        raise CurveFileError(f"bad rational {_quote(text)}: write an integer or p/q")
    try:
        f = Fraction(text)
    except ValueError as exc:    # beyond int()'s digit limit
        raise CurveFileError(f"bad rational {_quote(text)}: {exc}") from None
    except ZeroDivisionError:
        raise CurveFileError(f"bad rational {_quote(text)}: zero denominator") from None
    return f.numerator if f.denominator == 1 else f


def _parse_int(text: str, what: str, path: str, line: int) -> int:
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:       # beyond int()'s digit limit
            pass
    raise CurveFileError(f"bad {what} {_quote(text)}: write an integer", path, line)


@contextmanager
def _naming(path: str, errors: type[CurveLiftError]):
    """Prefix ``path: `` to an error of type ``errors`` raised inside."""
    try:
        yield
    except errors as exc:
        raise CurveLiftError(f"{path}: {exc}") from None


@contextmanager
def _unlimited_digits():
    """Lift the int/str digit limit: the f_i may have any number of digits,
    while a curve file's numbers and a document's terms are read under it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def parse_curve_text(text: str, path: str = "<string>") -> CurveFile:
    cf = CurveFile(k=0, terms=[])
    last_exp = 0
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise CurveFileError("expected 'key: value'", path, lineno)
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key in ("name", "k"):
            if key in seen:
                raise CurveFileError(f"repeated '{key}:' line", path, lineno)
            seen.add(key)
        if key == "name":
            cf.name = value
        elif key == "k":
            cf.k = _parse_int(value, "k", path, lineno)
            if cf.k < 1:
                raise CurveFileError("k must be a positive integer", path, lineno)
        elif key == "term":
            fields = value.split()
            if len(fields) != 2:
                raise CurveFileError("term wants 'term: <exp> <coeff>'", path, lineno)
            exp = _parse_int(fields[0], "exponent", path, lineno)
            try:
                coeff = parse_rational(fields[1])
            except CurveFileError as exc:
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
        elif key != "notes":     # free text, accepted and ignored
            raise CurveFileError(f"unknown key {_quote(key)}", path, lineno)
    if cf.k == 0:
        raise CurveFileError("missing 'k:' line", path)
    if not cf.terms:
        raise CurveFileError("no 'term:' lines", path)
    return cf


def load_curve(path) -> CurveFile:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CurveFileError(str(exc), str(path)) from None
    cf = parse_curve_text(text, str(path))
    if not cf.name:
        cf.name = p.stem
    return cf


def branch_from_file(cf: CurveFile) -> Branch:
    return validate_branch(cf.k, cf.terms)


# ---------------------------------------------------------------------------
# documents and their text
# ---------------------------------------------------------------------------

def poly_to_doc(f: BiPoly) -> list[dict]:
    """Fixed term order: ascending total degree, higher y-power first. Each
    coefficient v/d is written as ``str(Fraction(v, d))`` would write it,
    reduced by one gcd: "p/q", or the integer when q is 1."""
    items = sorted(f._c.items(), key=lambda kv: (kv[0][0] + kv[0][1], -kv[0][1]))
    d = f._d
    out = []
    for (a, b), v in items:
        g = gcd(v, d)
        out.append({"x": a, "y": b, "c": str(v // g) if g == d else f"{v // g}/{d // g}"})
    return out


def format_poly(terms: list[dict]) -> str:
    """A ``poly_to_doc`` term list as text, in its order: "y^2 - x^3"."""
    parts = []
    for t in terms:
        a, b, c = t["x"], t["y"], t["c"]
        mono = "*".join(bit for bit in (
            "y" if b == 1 else f"y^{b}" if b else "",
            "x" if a == 1 else f"x^{a}" if a else "") if bit)
        neg = c.startswith("-")
        cabs = c[1:] if neg else c
        if not mono:
            body = cabs
        elif cabs == "1":
            body = mono
        else:
            body = f"{cabs}*{mono}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts) or "0"


def _field(obj, key: str, kind: type):
    """obj[key] of a --json document: a ``kind``, and not negative if int."""
    value = obj.get(key) if type(obj) is dict else None
    if type(value) is not kind or kind is int and value < 0:
        raise CurveFileError(f"document key {key!r}: missing or invalid")
    return value


def poly_from_doc(doc: list[dict]) -> BiPoly:
    """A --json term list as poly_to_doc writes it: no repeated (x, y), no zero."""
    terms = {}
    for t in doc:
        key = (_field(t, "x", int), _field(t, "y", int))
        if key in terms:
            raise CurveFileError(f"document keys 'x', 'y': repeated pair {key}")
        terms[key] = parse_rational(_field(t, "c", str))
        if not terms[key]:
            raise CurveFileError("document key 'c': coefficient must be nonzero")
    return BiPoly(terms)


def _mark(ok: bool | str) -> str:
    return "skipped" if ok == "skipped" else "✓" if ok else "✗"


def certificate_lines(doc: dict) -> list[str]:
    """Human-readable report of a certified chain's document, one line per
    check. The face vertex a is gamma_1 = e_i * lambda_1."""
    lines = []
    for level in doc["levels"]:
        i, e, checks = level["level"], level["e"], level["certificates"]
        values = {"i": i, "e": e, "a": level["semigroup"][1], "oracle": checks["oracle"]}
        lines.append(f"level {i} (e_{i} = {e}):")
        for f in fields(LevelCertificate):
            if label := f.metadata.get("label"):
                ok = checks[f.name]
                if f.name == "oracle":  # the label shows the outcome
                    ok = ok in ("match", "skipped")
                lines.append(f"  {label.format(**values)} {_mark(ok)}")
    for r in doc["valuation_table"]:
        i, j = r["i"], r["j"]
        lines.append(f"ϑ_{{ι_{j}}}(f_{i - 1}) = {r['value']} = γ_{i}^{{({j})}} "
                     + _mark(r["value"] == str(r["expected"])))
        lines.append(f"ϑ_{{ι_{j}}}(∂_yf_{i - 1}) = {r['dvalue']} = "
                     f"γ_{i}^{{({j})}} - e_{j}λ_{i} "
                     + _mark(r["dvalue"] == str(r["dexpected"])))
    return lines


def chain_to_doc(cf: CurveFile, chain: LiftChain) -> dict:
    cd = chain.cd
    doc = {
        "name": cf.name,
        "k": cf.k,
        "terms": [{"exp": e, "coeff": str(c)} for e, c in cf.terms],
        "characteristic_exponents": [str(l) for l in cd.lambdas],
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
                 "coeff": str(rec.coeff)}
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
    """Rebuild (branch, chain polynomials) from a --json document. With m
    the largest exponent, a top slice bound k*m above MAX_SLICE_BOUND or an
    f_i term (x, y) with y > k or k*x + m*y above it raises CurveFileError;
    a genuine f_i has y-degree e_i <= k and k*x + m*y <= e_i*m on N_i."""
    terms = [(_field(t, "exp", int), parse_rational(_field(t, "coeff", str)))
             for t in _field(doc, "terms", list)]
    branch = validate_branch(_field(doc, "k", int), terms)
    k, m = branch.k, branch.terms[-1][0]
    if k * m > MAX_SLICE_BOUND:
        raise CurveFileError(f"document key 'terms': slice bound k*m = {k * m} "
                             f"is above {MAX_SLICE_BOUND}")
    levels = _field(doc, "levels", list)
    if len(levels) != branch.cd.s:
        raise CurveFileError(f"document key 'levels': {len(levels)} levels, "
                             f"the branch has {branch.cd.s}")
    with _unlimited_digits():
        fs = tuple(poly_from_doc(_field(level, "f", list)) for level in levels)
    for i, f in enumerate(fs, start=1):
        for x, y in f.support():
            if y > k or k * x + m * y > MAX_SLICE_BOUND:
                raise CurveFileError(f"document key 'f': term ({x}, {y}) of f_{i} "
                                     f"is above the lift's ceilings")
    return branch, fs


# ---------------------------------------------------------------------------
# subcommands: each returns (--json document, text lines, exit status). main
# loads the curve files; a FILE command takes its file and branch, bench the
# list of (path, file, branch) triples of its corpus directory
# ---------------------------------------------------------------------------

def _levels(level: int, s: int):
    """The levels a ``--level`` argument asks for: all of 1..s when it is 0."""
    if not level:
        return range(1, s + 1)
    if not 1 <= level <= s:
        raise CurveLiftError(f"level {level} out of range 1..{s}")
    return [level]


def _oracle_bound(text: str) -> int:
    """The ``--oracle-bound`` value: an int >= 0, since no level degree is
    negative (0 skips every oracle check)."""
    try:
        bound = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if bound < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {bound}")
    return bound


def cmd_validate(args, cf: CurveFile, branch: Branch):
    cd = branch.cd
    cs, phis = split_tails(cd, branch.terms)
    doc = {
        "name": cf.name, "k": cf.k,
        "characteristic_exponents": [str(l) for l in cd.lambdas],
        "ks": list(cd.ks), "es": list(cd.es),
        "cs": [str(c) for c in cs],
        "tails": [sorted((e, str(c)) for e, c in phi.terms()) for phi in phis],
    }
    lines = [f"{cf.name}: valid branch, k = {cf.k}",
             "  characteristic exponents: "
             + ", ".join(doc["characteristic_exponents"]),
             f"  ks = {doc['ks']}, es = {doc['es']}"]
    lines += [f"  tail phi_{i} = " + " + ".join(f"{c}*t^{e}" for e, c in tail)
              for i, tail in enumerate(doc["tails"], start=1) if tail]
    return doc, lines, 0


def cmd_semigroup(args, cf: CurveFile, branch: Branch):
    rows = [generators(branch.cd, i).generators_list()
            for i in range(1, branch.cd.s + 1)]
    doc = {"name": cf.name,
           "levels": [{"level": i, "generators": gens}
                      for i, gens in enumerate(rows, start=1)]}
    return doc, [f"({gens[0]}; " + ", ".join(map(str, gens[1:])) + ")"
                 for gens in rows], 0


def cmd_polygon(args, cf: CurveFile, branch: Branch):
    polygons, lines = [], []
    for i in _levels(args.level, branch.cd.s):
        pd = polygon_desc(truncation(branch, i))
        d = {
            "level": i,
            "lower": {"a": pd.lower[0], "b": pd.lower[1], "c": pd.lower[2]},
            "upper": {"a": pd.upper[0], "b": pd.upper[1], "c": pd.upper[2]},
            "vertices": [list(v) for v in pd.vertices],
            "mu": str(pd.mu),
        }
        lo, up = d["lower"], d["upper"]
        lines.append(f"N_{i}: {lo['a']}*a + {lo['b']}*b >= {lo['c']}  and  "
                     f"{up['a']}*a + {up['b']}*b <= {up['c']}")
        lines.append(f"  vertices {d['vertices']}, mu = {d['mu']}")
        polygons.append(d)
    return {"name": cf.name, "polygons": polygons}, lines, 0


def cmd_implicitize(args, cf: CurveFile, branch: Branch):
    if args.json and args.level:
        raise CurveLiftError("--level selects text output; --json always "
                             "emits every level")
    verify = not args.no_verify
    levels = _levels(args.level, branch.cd.s)
    chain = implicitize_all(branch, verify=verify, oracle_bound=args.oracle_bound)
    doc = chain_to_doc(cf, chain)
    lines = [f"f_{i} = {format_poly(doc['levels'][i - 1]['f'])}" for i in levels]
    if not args.level:
        lines.append(APPROXIMATION_NOTE)
    if verify:
        bad = [c.level for c in chain.certificates if not c.ok]
        lines.append("certificates: " + ("all passed" if chain.ok else
                                         f"FAILED at levels {bad}"))
    return doc, lines, 1 if verify and not chain.ok else 0


def cmd_verify(args, cf: CurveFile, branch: Branch):
    doc = chain_to_doc(cf, implicitize_all(branch, oracle_bound=args.oracle_bound))
    lines = [f"{cf.name}: certificate suite", *certificate_lines(doc),
             "ALL PASSED" if doc["ok"] else "FAILURES PRESENT"]
    return doc, lines, 0 if doc["ok"] else 1


def _bench_one(path: str, cf: CurveFile, branch: Branch) -> dict:
    """Wall time of each level of a certificate-free chain run; an error
    names the curve file."""
    levels = []
    t_start = t0 = time.perf_counter()
    with _naming(path, CurveLiftError):
        for i, (f_i, _, log) in enumerate(lift_levels(branch), start=1):
            t1 = time.perf_counter()
            levels.append({"level": i, "e": branch.cd.es[i], "iterations": len(log),
                           "terms": len(f_i), "seconds": t1 - t0})
            t0 = t1
    return {"name": cf.name, "k": branch.k, "levels": levels,
            "total_seconds": time.perf_counter() - t_start}


def cmd_bench(args, curves: list[tuple[str, CurveFile, Branch]]):
    doc = {"corpus": [_bench_one(*curve) for curve in curves]}
    row = "{:20} {:>5} {:>4} {:>6} {:>6} {:>9}".format
    lines = [row("curve", "level", "e_i", "iters", "terms", "seconds")]
    for res in doc["corpus"]:
        name = res["name"][:20]
        lines += [row(name, lv["level"], lv["e"], lv["iterations"], lv["terms"],
                      f"{lv['seconds']:.3f}") for lv in res["levels"]]
        lines.append(row(name, "total", "", "", "", f"{res['total_seconds']:.3f}"))
    return doc, lines, 0


# every flag's argparse options, and per subcommand its handler, its help and
# its flags; bench takes a corpus directory, every other command a curve file
FLAGS = {
    "--level": {"type": int, "default": 0},
    "--no-verify": {"action": "store_true", "help": "skip certificate evaluation"},
    "--json": {"action": "store_true", "help": "machine-readable output"},
    "--oracle-bound": {"type": _oracle_bound, "default": DEFAULT_ORACLE_BOUND,
                       "help": "max level degree for the resultant oracle"},
}
COMMANDS = {
    "validate": (cmd_validate, "check a curve file and report its data", ["--json"]),
    "semigroup": (cmd_semigroup, "value-semigroup generators per level", ["--json"]),
    "polygon": (cmd_polygon, "support polygon inequalities and vertices",
                ["--level", "--json"]),
    "implicitize": (cmd_implicitize, "compute the equation chain",
                    ["--level", "--no-verify", "--json", "--oracle-bound"]),
    "verify": (cmd_verify, "full certificate suite", ["--json", "--oracle-bound"]),
    "bench": (cmd_bench, "timed chain runs over a corpus directory", ["--json"]),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="curvelift",
        description="implicit equations of plane-curve branch truncations")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("corpus" if name == "bench" else "file")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    args = ap.parse_args(argv)
    handler = COMMANDS[args.command][0]
    try:
        if args.command == "bench":
            paths = sorted(str(p) for p in Path(args.corpus).glob("*.curve"))
            if not paths:
                raise CurveFileError("no .curve files found", args.corpus)
        else:
            paths = [args.file]
        curves = []
        for path in paths:
            cf = load_curve(path)
            with _naming(path, InvalidBranchError):
                curves.append((path, cf, branch_from_file(cf)))
        with _unlimited_digits():
            doc, lines, status = (handler(args, curves) if args.command == "bench"
                                  else handler(args, *curves[0][1:]))
            print(json.dumps(doc, indent=2) if args.json else "\n".join(lines))
            sys.stdout.flush()
        return status
    except CurveLiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; send the interpreter's exit flush to
        # devnull so it cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
