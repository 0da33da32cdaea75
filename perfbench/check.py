"""Independent output check for one emitted ``verify --json`` document.

Nothing here imports the program under test. The curve file is re-read with
a parser of its own, the characteristic exponents and the level-i
truncation ``x = t**e_i, y = yt(t)`` are rebuilt in plain ``int`` and
``Fraction``, and each emitted ``f_i`` is evaluated at seeded points modulo
the Mersenne prime ``P = 2**61 - 1``:

    f_i(t0**e_i, yt(t0)) == 0  (mod P).

A nonzero pullback of t-degree at most ``D = e_i * deg(yt)`` vanishes at no
more than ``D`` of the ``P - 2`` sampled values, so a wrong ``f_i`` passes
one point with odds below ``D / P`` (Schwartz-Zippel). The check also asks
that ``f_i`` be monic of y-degree ``e_i`` and that the document claim every
certificate passed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

P = 2**61 - 1


def parse_curve(text: str) -> tuple[int, list[tuple[int, Fraction]]]:
    """(k, [(exponent, coefficient)]) from curve-file text."""
    k = 0
    terms = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        key, _, value = line.partition(":")
        key = key.strip().lower()
        if key == "k":
            k = int(value)
        elif key == "term":
            exp, coeff = value.split()
            terms.append((int(exp), Fraction(coeff)))
    return k, sorted(terms)


def level_degrees(k: int, terms) -> list[tuple[int, int]]:
    """[(m_i, e_i)]: the characteristic exponents, where the running gcd
    of k and the exponents drops, with e_i = k / gcd."""
    g = k
    out = []
    for m, _ in terms:
        g2 = gcd(g, m)
        if g2 < g:
            out.append((m, k // g2))
            g = g2
    return out


def _mod(c: Fraction) -> int:
    if c.denominator % P == 0:
        raise ZeroDivisionError("coefficient denominator divisible by P")
    return c.numerator * pow(c.denominator, -1, P) % P


def truncation(k: int, terms, levels, i: int) -> tuple[int, dict[int, Fraction]]:
    """(e_i, {t-exponent: coefficient} of yt) for 1-based level i."""
    e_i = levels[i - 1][1]
    cutoff = levels[i][0] if i < len(levels) else None
    yt = {}
    for m, c in terms:
        if cutoff is not None and m >= cutoff:
            break
        q, r = divmod(m * e_i, k)
        if r:
            raise ValueError(f"exponent {m} leaves the level-{i} lattice")
        yt[q] = c
    return e_i, yt


def evaluate(f_terms, x: int, y: int) -> int:
    """sum c * x**a * y**b mod P, Horner in y over the emitted terms."""
    rows: dict[int, int] = {}
    for t in f_terms:
        a, b = t["x"], t["y"]
        rows[b] = (rows.get(b, 0) + _mod(Fraction(t["c"])) * pow(x, a, P)) % P
    acc = 0
    for b in range(max(rows, default=0), -1, -1):
        acc = (acc * y + rows.get(b, 0)) % P
    return acc


def check_document(curve_text: str, doc_text: str, rng: random.Random,
                   points: int = 3) -> list[str]:
    """Problems found in one emitted document; empty when it is correct."""
    k, terms = parse_curve(curve_text)
    levels = level_degrees(k, terms)
    doc = json.loads(doc_text)
    problems = []
    if doc.get("ok") is not True:
        problems.append("document does not claim ok")
    if len(doc["levels"]) != len(levels):
        return problems + [f"{len(doc['levels'])} levels emitted, "
                           f"{len(levels)} expected"]
    for i, level in enumerate(doc["levels"], start=1):
        if not all(v in (True, "match", "skipped")
                   for v in level.get("certificates", {None: False}).values()):
            problems.append(f"level {i}: a certificate failed")
        e_i, yt = truncation(k, terms, levels, i)
        if level["e"] != e_i:
            problems.append(f"level {i}: e = {level['e']}, expected {e_i}")
        f = level["f"]
        ys = [t["y"] for t in f]
        apex = [t["c"] for t in f if t["x"] == 0 and t["y"] == e_i]
        if max(ys, default=-1) != e_i or apex != ["1"]:
            problems.append(f"level {i}: f_{i} is not monic of y-degree {e_i}")
        for _ in range(points):
            t0 = rng.randrange(2, P - 1)
            y0 = sum(_mod(c) * pow(t0, q, P) for q, c in yt.items()) % P
            if evaluate(f, pow(t0, e_i, P), y0):
                problems.append(f"level {i}: f_{i} does not vanish at t0 = {t0}")
                break
    return problems
