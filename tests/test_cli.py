import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from curvelift import BiPoly, basis_reconstruct, certify
from curvelift.cli import (certificate_lines, chain_to_doc, doc_rebuild, format_poly,
                           load_curve, main, parse_curve_text, parse_rational,
                           poly_from_doc, poly_to_doc)
from curvelift.errors import CurveFileError, CurveLiftError
from curvelift.implicitize import chain_from_polynomials

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
README = CORPUS.parent / "README.md"
SRC = CORPUS.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_curve_text():
    cf = parse_curve_text("name: demo\nk: 6\nterm: 9 1\nterm: 15 -2/3\n")
    assert cf.k == 6 and cf.name == "demo"
    assert cf.terms == [(9, 1), (15, Fraction(-2, 3))]


def test_parse_errors_carry_line_numbers(capsys, tmp_path):
    # k and exponents take the coefficients' ASCII integer rule, which int()
    # alone is wider than: "1_1" would read as 11 and "２" as 2
    for text, line in (("k: 6\nterm: 9 1\nterm: 9 2\n", 3),
                       ("k: 2\nterm: 1_1 1\n", 2),
                       ("k: ２\nterm: 3 1\n", 1),
                       ("k: 2\nterm: ３ 1\n", 2),
                       ("k: 2\nk: 3\nterm: 3 1\n", 2),
                       ("name: a\nname: b\nk: 2\nterm: 3 1\n", 2),
                       ("name:\nk: 2\nname: b\nterm: 3 1\n", 3)):
        with pytest.raises(CurveFileError) as err:
            parse_curve_text(text, path="f.curve")
        assert f"f.curve:{line}:" in str(err.value)
        path = tmp_path / "f.curve"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert f"f.curve:{line}:" in capsys.readouterr().err
    with pytest.raises(CurveFileError):
        parse_curve_text("term: 3 1\n")          # missing k
    with pytest.raises(CurveFileError):
        parse_curve_text("k: 6\nterm: 9 0\n")    # zero coefficient
    with pytest.raises(CurveFileError):
        parse_curve_text("k: 6\nnope\n")


def test_parse_rejects_all_but_p_over_q(capsys, tmp_path):
    for text in ("1e3", "0.5", "1_0", "1e-100000", "1/0", "2/-3"):
        with pytest.raises(CurveFileError) as err:
            parse_curve_text(f"k: 2\nterm: 3 {text}\n", path="f.curve")
        assert "f.curve:2" in str(err.value)
    cf = parse_curve_text("k: 6\nterm: 9 -2/3\nterm: 10 7\nterm: 11 +4/6\n")
    assert cf.terms == [(9, Fraction(-2, 3)), (10, 7), (11, Fraction(2, 3))]
    path = tmp_path / "big.curve"
    path.write_text("k: 2\nterm: 3 1e-4000000\n")
    assert main(["validate", str(path)]) == 2
    assert "bad rational" in capsys.readouterr().err


def test_format_poly_reference():
    f1 = BiPoly({(0, 2): 1, (3, 0): -1})
    assert format_poly(f1) == "y^2 - x^3"
    f2 = f1 ** 3 + BiPoly({(5, 3): -2, (8, 1): -6, (10, 0): 1})
    assert format_poly(f2) == ("y^6 - 3*y^4*x^3 - 2*y^3*x^5 + 3*y^2*x^6 "
                               "- 6*y*x^8 - x^9 + x^10")
    assert format_poly(BiPoly.zero()) == "0"


def test_cmd_semigroup_rows(capsys):
    code, out = run(capsys, "semigroup", str(CORPUS / "paper-ex1.curve"))
    assert code == 0
    assert "(6; 9, 19)" in out and "(12; 18, 38, 117)" in out
    code, out = run(capsys, "semigroup", str(CORPUS / "paper-ex2.curve"))
    assert "(2; 3)" in out and "(6; 9, 25)" in out
    code, out = run(capsys, "semigroup", str(CORPUS / "intro-689.curve"))
    assert "(6; 8, 25)" in out


def test_cmd_implicitize_cusp(capsys):
    code, out = run(capsys, "implicitize", str(CORPUS / "cusp.curve"))
    assert code == 0
    assert "f_1 = y^2 - x^3" in out
    assert "certificates: all passed" in out


def test_cmd_validate(capsys):
    code, out = run(capsys, "validate", str(CORPUS / "tails-weighted.curve"))
    assert code == 0
    assert "3/2" in out and "8/3" in out and "phi_1" in out


def test_cmd_polygon(capsys):
    code, out = run(capsys, "polygon", str(CORPUS / "paper-ex1.curve"),
                    "--level", "2")
    assert code == 0
    assert "2*a + 3*b >= 18" in out and "6*a + 10*b <= 60" in out


def test_cmd_verify_certificate_lines(capsys):
    code, out = run(capsys, "verify", str(CORPUS / "paper-ex1.curve"))
    assert code == 0
    assert "ϑ_{ι_3}(f_2) = 117 = γ_3^{(3)} ✓" in out
    assert "ALL PASSED" in out


def test_cmd_bench(capsys, tmp_path):
    (tmp_path / "a.curve").write_text("k: 2\nterm: 3 1\n")
    (tmp_path / "b.curve").write_text("k: 4\nterm: 6 1\nterm: 7 1\n")
    code, out = run(capsys, "bench", str(tmp_path))
    assert code == 0
    assert "a" in out and "b" in out and "total" in out


def test_bench_rejects_jobs(capsys, tmp_path):
    # bench runs in one process; --jobs is gone
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(tmp_path), "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_json_roundtrip_reverifies_identically(capsys):
    for name in ("paper-ex1", "paper-ex2"):
        path = str(CORPUS / f"{name}.curve")
        code, out = run(capsys, "implicitize", path, "--json")
        assert code == 0
        doc = json.loads(out)
        branch, fs = doc_rebuild(doc)
        rebuilt = certify(chain_from_polynomials(branch, fs))
        assert rebuilt.ok
        # the rebuilt chain has no iteration logs, so their two checks are
        # skipped; its document is otherwise the original
        log_checks = ("n_log_increasing", "n_log_in_semigroup")
        for level in doc["levels"]:
            assert all(level["certificates"][key] is True for key in log_checks)
            level["certificates"].update(dict.fromkeys(log_checks, "skipped"))
            level["iterations"] = []
        assert chain_to_doc(load_curve(path), rebuilt) == doc
        lines = certificate_lines(rebuilt)
        assert "  elimination orders strictly increasing skipped" in lines
        assert "  elimination orders in Γ skipped" in lines


def test_doc_rebuild_rejects_invalid_terms():
    for k, term in ((2, {"exp": 3, "coeff": "0"}), (2, {"exp": "3", "coeff": "1"}),
                    (0, {"exp": 3, "coeff": "1"})):
        with pytest.raises(CurveLiftError):
            doc_rebuild({"k": k, "terms": [term], "levels": []})
    # a missing key or a wrong-typed value is a typed error naming the key
    cusp = {"k": 2, "terms": [{"exp": 3, "coeff": "1"}]}
    f = [{"x": 0, "y": 2, "c": "1"}, {"x": 3, "y": 0, "c": "-1"}]
    assert doc_rebuild({**cusp, "levels": [{"f": f}]})[1] == (
        BiPoly({(0, 2): 1, (3, 0): -1}),)
    def level(term):
        return {**cusp, "levels": [{"f": [term]}]}

    for doc, pattern in (({}, "'terms'"),
                         ({**cusp, "levels": []}, "'levels'"),
                         ({"k": 2, "terms": [{"exp": 3}], "levels": []}, "'coeff'"),
                         ({"terms": cusp["terms"], "levels": []}, "'k'"),
                         ({**cusp, "levels": 1}, "'levels'"),
                         ({**cusp, "levels": [{}]}, "'f'"),
                         (level({"x": 0, "c": "1"}), "'y'"),
                         (level({"x": 0, "y": 2, "c": 1}), "'c'"),
                         (level({"x": -1, "y": 2, "c": "1"}), "'x'")):
        with pytest.raises(CurveFileError, match=pattern):
            doc_rebuild(doc)


def test_implicitize_rejects_level_with_json(capsys):
    code = main(["implicitize", str(CORPUS / "paper-ex1.curve"), "--level", "2",
                 "--json"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_json_output_deterministic(capsys):
    _, out1 = run(capsys, "implicitize", str(CORPUS / "quartic.curve"), "--json")
    _, out2 = run(capsys, "implicitize", str(CORPUS / "quartic.curve"), "--json")
    assert out1 == out2


def test_error_exit_code(capsys):
    code = main(["validate", str(CORPUS / "missing.curve")])
    assert code == 2


def test_polygon_level_out_of_range(capsys):
    for level in ("5", "-1"):
        code = main(["polygon", str(CORPUS / "cusp.curve"), "--level", level])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [f"error: level {level} out of range 1..1"]


def _flags(text: str) -> set[str]:
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text)) - {"--help"}


def test_readme_command_table_matches_parser(capsys):
    # the README's command-line block names every subcommand and exactly
    # the flags its parser takes
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    documented = {line.split()[1]: _flags(line.split("#", 1)[0])
                  for line in block.splitlines() if line.startswith("curvelift ")}
    with pytest.raises(SystemExit):
        main(["--help"])
    subs = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1)
    assert sorted(documented) == sorted(subs.split(","))
    for sub, flags in documented.items():
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert _flags(capsys.readouterr().out) == flags, sub


def test_verify_rejects_no_verify(capsys):
    # verify always evaluates the certificates; only implicitize can skip them
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(CORPUS / "cusp.curve"), "--no-verify"])
    assert exc.value.code == 2
    assert "--no-verify" in capsys.readouterr().err


# SHA-256 of the stdout of ``curvelift verify FILE --json`` per corpus curve;
# any change to an f_i, a certificate or the JSON layout moves a digest.
VERIFY_JSON_SHA256 = {
    "cubic-tail.curve": "09013627ce0534cb0ce5a6615d54ac91c8fefcbd18f44c4bb783e707e7f390cb",
    "cusp.curve": "e02ac855631dfa8bf5fe06f4064785420cabf88cfafcaae6b047ba7e7db2b991",
    "intro-689.curve": "626c5edb995043c8dd1d5771a83022e4cc6886a0bc74126a1630e9a964073367",
    "nonic.curve": "0b265fc4f62cff036d0fb53e2d586274fb112bda4e312721b29392f9210c5573",
    "octic-three-level.curve": "f40ea2e72af334d9212ec26c7d40010af2ae8eff3a9b2f4e3391ffdc579f17fb",
    "paper-ex1.curve": "c0112e8d0382607899819ecf55b760e95db736f13f79b15ab4af98001d70f87c",
    "paper-ex2.curve": "ff8b98cb51b3cb45fbc6c5932e812dbfa620966eb1cc38dd2f6d572b655f5686",
    "paper-ex3.curve": "74a457da84e953c5fac447c7c0cece17fe775916fdbe44e26e2206679a37313b",
    "quartic-deep.curve": "f30bcd175188ad9cbc0e300eb578f15f18b43a234518e77cb75e7af6d9a16575",
    "quartic.curve": "4517962c93544ba705a474c41bd660452f51d2d0d5b623d30cf6aac6ea6a877a",
    "rational-coeffs.curve": "923891c779d8b3e8b68c26709f44fee6d2901aa53e3cad835561937d58ea828a",
    "tails-weighted.curve": "6068e1aa773d800f3260ea166116787bb5cec39989d74e3d4748444b50222430",
}


def test_verify_json_bytes_pinned(capsys):
    assert sorted(p.name for p in CORPUS.glob("*.curve")) == sorted(VERIFY_JSON_SHA256)
    for name, digest in VERIFY_JSON_SHA256.items():
        code, out = run(capsys, "verify", str(CORPUS / name), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


# SHA-256 of the same documents with every level's "iterations" key removed
# and re-emitted as ``verify --json`` prints: the f_i, deltas, certificates
# and valuation table, which a change of elimination pivot must not move.
VERIFY_JSON_WITHOUT_LOGS_SHA256 = {
    "cubic-tail.curve": "3c6c6afca03ace9128dc376d7e40de1b21e27700d95131a3cab6506f9257e84e",
    "cusp.curve": "2568a4dda57f53c7ac519af9cdfdbc4620713e7bafd45f7f4af9ac16173e2ca7",
    "intro-689.curve": "991d01542242ef183a707419535928f5ffde8fb5ed06b3e5c2e761a7809b2ebc",
    "nonic.curve": "e70f89610055c52bf3c22a9222d612f2d81583b43d0c7ec81cf09298436de9c7",
    "octic-three-level.curve": "ff6bf97bb9832dc6d72b7f5fffaae444d6e0fb669dfb5c43fa111022b401fba5",
    "paper-ex1.curve": "afb39b7fab777d6e71e8008cb50d52ca9773195d68abe7c49af7fe74bcc77bb1",
    "paper-ex2.curve": "3ba4c4f85ed0d2fef8d6f77af4b8b45b2787e19d5a2dd29cd1c1b6e171abb977",
    "paper-ex3.curve": "3b2b4fc02e04b7aec733ffb8da6fbee29b2e26617e23d8824f82ec8e9a3939ff",
    "quartic-deep.curve": "876f44f8e9d2ee743208b83d0e9547c08d9e265b5dc998c0e408a5b32cf7050d",
    "quartic.curve": "0eb80b1343fb687be716eb28cf85d968f033e953cd22178b15931425c23f3e12",
    "rational-coeffs.curve": "a68f4f50333ad1da7325f77f854545466e16eefe7b2d7f8d58678e082a29f83a",
    "tails-weighted.curve": "3b94007b89da8550ba7b836f5f6526fc98e9d22ef8c1caddcb45158bfadda42a",
}


def test_verify_json_bytes_without_logs_pinned(capsys):
    assert sorted(VERIFY_JSON_WITHOUT_LOGS_SHA256) == sorted(VERIFY_JSON_SHA256)
    for name, digest in VERIFY_JSON_WITHOUT_LOGS_SHA256.items():
        code, out = run(capsys, "verify", str(CORPUS / name), "--json")
        assert code == 0
        doc = json.loads(out)
        for level in doc["levels"]:
            del level["iterations"]
        out = json.dumps(doc, indent=2) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_json_iteration_log_replays(capsys):
    # the emitted log is a replayable record: summing its basis terms gives
    # delta_i, and f_{i-1}**k_i + delta_i gives f_i
    for path in sorted(CORPUS.glob("*.curve")):
        code, out = run(capsys, "verify", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        fs = [poly_from_doc(level["f"]) for level in doc["levels"]]
        for i, level in enumerate(doc["levels"], start=1):
            terms = [(parse_rational(it["coeff"]), tuple(it["pivot"]))
                     for it in level["iterations"]]
            delta = poly_from_doc(level["delta"])
            assert basis_reconstruct(terms, fs[:i - 1]) == delta, (path.name, i)
            prev = BiPoly.y() if i == 1 else fs[i - 2]
            assert prev ** doc["ks"][i - 1] + delta == fs[i - 1], (path.name, i)


@pytest.mark.parametrize("argv", [
    ["validate", "paper-ex3.curve", "--json"],
    ["semigroup", "paper-ex3.curve", "--json"],
    ["polygon", "paper-ex3.curve", "--json"],
    ["implicitize", "paper-ex3.curve", "--json"],
    ["verify", "paper-ex3.curve", "--json"],
    ["verify", "paper-ex3.curve"],
])
def test_closed_stdout_exits_1_quietly(argv):
    # the reader is gone before the first write, as after `| head -1`
    # finishes early: exit 1, and no traceback on stderr
    argv = [str(CORPUS / a) if a.endswith(".curve") else a for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from curvelift.cli import main; sys.exit(main())", *argv],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert b"Traceback" not in proc.stderr
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_corpus_polynomials_round_trip(corpus_chains):
    # every f_i and delta_i survives a rebuild from its coefficients and a
    # trip through the JSON form; the deltas are recomputed from the fs
    for name, (branch, chain, _) in corpus_chains.items():
        for f in (*chain.fs, *chain.deltas):
            assert BiPoly(dict(f.terms())) == f, name
            assert poly_from_doc(poly_to_doc(f)) == f, name
        assert chain_from_polynomials(branch, chain.fs).deltas == chain.deltas, name
