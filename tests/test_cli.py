import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from bytes_contract import pinned_digests
from curvelift import BiPoly, basis_reconstruct, certify
from curvelift.cli import (branch_from_file, certificate_lines,
                           chain_to_doc, doc_rebuild, format_poly, load_curve, main,
                           parse_curve_text, parse_rational, poly_from_doc, poly_to_doc)
from curvelift.errors import CurveFileError, CurveLiftError
from curvelift.implicitize import (DEFAULT_ORACLE_BOUND, LevelCertificate,
                                   chain_from_polynomials, implicitize_all)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
README = CORPUS.parent / "README.md"
SRC = CORPUS.parent / "src"
WORKLOADS = CORPUS.parent / "perfbench" / "workloads.py"
# a child interpreter that imports curvelift from this checkout
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))


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
    with pytest.raises(CurveFileError) as err:
        parse_curve_text("k: 2\nterm: 3 1/0\n", path="f.curve")
    assert str(err.value) == "f.curve:2: bad rational '1/0': zero denominator"
    cf = parse_curve_text("k: 6\nterm: 9 -2/3\nterm: 10 7\nterm: 11 +4/6\n")
    assert cf.terms == [(9, Fraction(-2, 3)), (10, 7), (11, Fraction(2, 3))]
    path = tmp_path / "big.curve"
    path.write_text("k: 2\nterm: 3 1e-4000000\n")
    assert main(["validate", str(path)]) == 2
    assert "bad rational" in capsys.readouterr().err
    # a long bad token is echoed as a prefix and its length, not whole
    for text in (f"k: 2\nterm: 3 {'9' * 4400}\n", f"k: {'1' * 4400}\nterm: 3 1\n",
                 f"k: 2\nterm: 3 {'9' * 4399}x\n", f"{'a' * 4400}: 1\nk: 2\n"):
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:") and err.count("\n") == 1
        assert "... (4400 characters)" in err and len(err) < 300


def test_format_poly_reference():
    f1 = BiPoly({(0, 2): 1, (3, 0): -1})
    assert format_poly(poly_to_doc(f1)) == "y^2 - x^3"
    f2 = f1 ** 3 + BiPoly({(5, 3): -2, (8, 1): -6, (10, 0): 1})
    assert format_poly(poly_to_doc(f2)) == ("y^6 - 3*y^4*x^3 - 2*y^3*x^5 + 3*y^2*x^6 "
                                            "- 6*y*x^8 - x^9 + x^10")
    assert format_poly(poly_to_doc(BiPoly.zero())) == "0"
    assert format_poly(poly_to_doc(f1 - BiPoly({(0, 0): Fraction(2, 3)}))) == \
        "-2/3 + y^2 - x^3"


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


def test_certificate_fields_declare_labels_and_key_order(capsys):
    # each LevelCertificate check field carries its verify label; only the
    # valuation rows, printed one line per row, have none
    checks = [f for f in fields(LevelCertificate) if f.name != "level"]
    for f in checks:
        label = f.metadata["label"]
        assert (label is None) if f.name == "valuation_rows_ok" else label, f.name
    # the field order is the order of the JSON certificate keys
    code, out = run(capsys, "verify", str(CORPUS / "paper-ex1.curve"), "--json")
    assert code == 0
    for level in json.loads(out)["levels"]:
        assert list(level["certificates"]) == [f.name for f in checks]


def test_cmd_bench(capsys, tmp_path):
    (tmp_path / "a.curve").write_text("k: 2\nterm: 3 1\n")
    (tmp_path / "b.curve").write_text("k: 4\nterm: 6 1\nterm: 7 1\n")
    code, out = run(capsys, "bench", str(tmp_path))
    assert code == 0
    assert "a" in out and "b" in out and "total" in out
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", str(empty)]) == 2
    assert "no .curve files found" in capsys.readouterr().err


def test_invalid_branch_error_names_its_file(capsys, tmp_path):
    # a file that parses but is no branch: one error line, after its path
    path = tmp_path / "k1.curve"
    path.write_text("k: 1\nterm: 3 1\n")
    for command in ("validate", "verify"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: exponent 3 is divisible by k = 1")
        assert err.count("\n") == 1
    (tmp_path / "cusp.curve").write_text("k: 2\nterm: 3 1\n")
    assert main(["bench", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: exponent 3")


def test_bench_error_names_its_curve(capsys, tmp_path):
    # a curve that validates but whose lift is refused, beside one that
    # lifts: bench exits 2 with one error line that names the refused file
    (tmp_path / "cusp.curve").write_text("k: 2\nterm: 3 1\n")
    path = tmp_path / "wide.curve"
    path.write_text("k: 3000\nterm: 3001 1\nterm: 3002 1\n")
    assert main(["bench", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err == (f"error: {path}: level 1: slice bound e_1*deg(yt) = 9006000 "
                   f"is above 8388608\n")


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
        lines = certificate_lines(doc)
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
                         (level({"x": -1, "y": 2, "c": "1"}), "'x'"),
                         # above the lift's ceilings: y > k, k*x + m*y > 2**23,
                         # a top slice bound k*m > 2**23
                         (level({"x": 0, "y": 3, "c": "1"}), "ceilings"),
                         (level({"x": 10**9, "y": 0, "c": "1"}), "ceilings"),
                         ({"k": 2, "terms": [{"exp": 2**22 + 1, "coeff": "1"}],
                           "levels": []}, "slice bound")):
        with pytest.raises(CurveFileError, match=pattern):
            doc_rebuild(doc)
    # poly_to_doc writes each (x, y) once and no zero coefficient; summing a
    # repeated pair or dropping a zero term would rebuild a different document
    split = [{"x": 0, "y": 2, "c": "1/2"}, {"x": 0, "y": 2, "c": "1/2"},
             {"x": 3, "y": 0, "c": "-1"}]
    zero = [*f, {"x": 1, "y": 1, "c": "0"}]
    for terms, pattern in ((split, "'x', 'y'"), (zero, "'c'")):
        with pytest.raises(CurveFileError, match=pattern):
            doc_rebuild({**cusp, "levels": [{"f": terms}]})


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


def test_error_exit_code(capsys, tmp_path):
    # a missing file and a file that is not UTF-8 are typed errors
    undecodable = tmp_path / "undecodable.curve"
    undecodable.write_bytes(b"k: 2\nterm: 3 1\n# \xff\n")
    for path in (CORPUS / "missing.curve", undecodable):
        code = main(["validate", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}:") and "Traceback" not in err


def test_utf8_bom_is_accepted(capsys, tmp_path):
    # a byte-order mark before line 1 changes nothing; bytes that are not
    # UTF-8 after it are still a typed error
    for src in sorted(CORPUS.glob("*.curve")):
        bom = tmp_path / src.name
        bom.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        for command in ("validate", "verify"):
            plain = run(capsys, command, str(src))
            assert plain[0] == 0 and run(capsys, command, str(bom)) == plain
    undecodable = tmp_path / "undecodable.curve"
    undecodable.write_bytes(b"\xef\xbb\xbfk: 2\nterm: 3 1\n# \xff\n")
    assert main(["validate", str(undecodable)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {undecodable}:")


def test_polygon_level_out_of_range(capsys, monkeypatch):
    # implicitize rejects the level before it lifts anything
    def refuse(*args, **kwargs):
        raise AssertionError("implicitize lifted before checking --level")

    monkeypatch.setattr("curvelift.cli.implicitize_all", refuse)
    for cmd in ("polygon", "implicitize"):
        for level in ("5", "-1"):
            code = main([cmd, str(CORPUS / "cusp.curve"), "--level", level])
            err = capsys.readouterr().err
            assert code == 2
            assert err.splitlines() == [f"error: level {level} out of range 1..1"]


def test_residual_overflow_is_a_typed_error(capsys, monkeypatch):
    # with no width slack and no repack, a residual step on quartic-deep
    # outgrows its packed width: the check exits 2 with one error line,
    # not a traceback
    monkeypatch.setattr("curvelift.algebra._WIDTH_SLACK", 0)
    monkeypatch.setattr("curvelift.algebra.Residual._repack", lambda self, grow: None)
    code = main(["implicitize", str(CORPUS / "quartic-deep.curve"), "--no-verify", "--json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: a residual step outgrew its repacked width"]


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


def test_negative_oracle_bound_is_rejected(capsys):
    # a negative bound would skip every oracle check and still exit 0; a
    # bound that is no integer is the same usage error
    for cmd, bound, message in (("verify", "-3", "must be >= 0, got -3"),
                                ("implicitize", "-3", "must be >= 0, got -3"),
                                ("verify", "x", "not an integer: 'x'")):
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(CORPUS / "cusp.curve"), "--oracle-bound", bound])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"--oracle-bound: {message}" in err
        assert "Traceback" not in err
    assert main(["verify", str(CORPUS / "cusp.curve"), "--oracle-bound", "0"]) == 0


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


# SHA-256 of the stdout of ``curvelift polygon FILE --json`` per corpus curve
POLYGON_JSON_SHA256 = {
    "cubic-tail.curve": "5dfef53dc9f5bd583853c41c03db60cb04adc264d1919bee3110077bdab8532d",
    "cusp.curve": "c68d997cb4817e4a250ba4daf4f5871d3064ef80db1275ead6b7facb595d2d73",
    "intro-689.curve": "ad021ea2626fac0f36f306c3a1e42348d56242094e16df829181bc75ef6cff76",
    "nonic.curve": "df48037ed6fb15c93c48dc018140347799ce56542da4d0f0c5a2c12c0a8e887f",
    "octic-three-level.curve": "52976f717331b069318c34795549d7e794299aba874bd2d743903cbf52ad1b03",
    "paper-ex1.curve": "b7aa014af332725a1b1db8e33f8284f4b34282090fbb24c75c6afa71e97ccb1b",
    "paper-ex2.curve": "3bd1744da7cf330cd13df871c10615b9db8c2b8d7303ea637f92f05af1bd10a1",
    "paper-ex3.curve": "bb810bc425138b0dddf8ce3603a803af3ef590a7d2b4fc57716d5380aeb2a895",
    "quartic-deep.curve": "0786d69787cd582adef8019172c0a2c1f88789c2f4d1586480963d10e2f784e3",
    "quartic.curve": "f680d501757cd4c4f5645a8e23c13cc9731c619969566403ed62754d5a88732f",
    "rational-coeffs.curve": "e9eddd1da9ed605260789faa1a475930c4475bcdf86a83539f6143f4d64f1845",
    "tails-weighted.curve": "8e6c99aadf1b7df780b8836f9624211412a2e1880d0f85561a8d04201d5419e1",
}


def test_polygon_json_bytes_pinned(capsys):
    assert sorted(POLYGON_JSON_SHA256) == sorted(VERIFY_JSON_SHA256)
    for name, digest in POLYGON_JSON_SHA256.items():
        code, out = run(capsys, "polygon", str(CORPUS / name), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


# SHA-256 per command line of "<exit code>\n<stdout>" of ``curvelift CMD FILE
# FLAGS``, concatenated over the corpus curves in name order: every text mode,
# and the --json modes the tables above do not pin
COMMAND_OUTPUT_SHA256 = {
    "validate": "ee85c401fed3ba5b29f82ba36d9a66b8de17594fe6a1f54a251ebbcde91b5c71",
    "validate --json": "f9b3716a4583efdb8226be314eeeb679c27d9010b8f06563dc2b24bea12921d3",
    "semigroup": "309632903f477183d4268157ca09fddbe45515e1f6571122f11ec93e5a82d54e",
    "semigroup --json": "3d30aa988e7d7dfdf29ee5b2ee79575b1dcf310ba57113db9126d6de4e4f8bcf",
    "polygon": "a9708f839b2fe039ce5ffcef46da1e0db0edb7ca36d3d99ce8bcbe32a695d333",
    "implicitize": "b26f6299fcab7a2bd56673d5076b63ac0649797b0e966ed10dc6937d67e0e981",
    "implicitize --no-verify": "1daf5d3967bfa979277b096065b9bd21c85b2bebf83790597b1bddac44e69038",
    "implicitize --level 1": "3294b5f7a43532d57831859d62683cdc25efcb45284a71f9283ba0db6c726ac1",
    "verify": "65008c041ba5810c58229ee78c479d5dec6667c33908da96b1c59f43a4b78a01",
}


@pytest.mark.parametrize("command", sorted(COMMAND_OUTPUT_SHA256))
def test_command_output_bytes_pinned(capsys, command):
    cmd, *flags = command.split()
    h = hashlib.sha256()
    for name in sorted(VERIFY_JSON_SHA256):
        code, out = run(capsys, cmd, str(CORPUS / name), *flags)
        h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == COMMAND_OUTPUT_SHA256[command]


# SHA-256 per benchmark workload of the ``verify --json`` stdout of its seed-1
# curves, concatenated in run order, each at the oracle bound the benchmark
# uses: e_s where the workload raises it to the top level, else the default.
WORKLOAD_VERIFY_JSON_SHA256 = {
    "deep-integer": "1d4aecc6584ca03e3a872689bdcd64d9b224a3aff0fe3ee7fb7db887795a2197",
    "mid-rational": "b9f118fd486abf3d16591ee9ecf5391366ea31420a0a526885d963b03c97e180",
    "small-batch": "e27702ba0138ad542023b6dc7805f733ba22f856d9daa91a657798e51605b9be",
}


def test_workload_verify_json_bytes_pinned(capsys, tmp_path):
    workloads = runpy.run_path(str(WORKLOADS))
    assert sorted(workloads["WORKLOADS"]) == sorted(WORKLOAD_VERIFY_JSON_SHA256)
    for name, digest in WORKLOAD_VERIFY_JSON_SHA256.items():
        w = workloads["WORKLOADS"][name]
        h = hashlib.sha256()
        for path in workloads["generate"](w, 1, tmp_path / name):
            es = branch_from_file(load_curve(path)).cd.es
            bound = es[-1] if w.oracle_at_top else DEFAULT_ORACLE_BOUND
            code, out = run(capsys, "verify", str(path), "--json",
                            "--oracle-bound", str(bound))
            assert code == 0, path.name
            h.update(out.encode())
        assert h.hexdigest() == digest, name


# the routes of a BiPoly product and of the residual's next-order read, by
# the settings of algebra's constants: as shipped, every nonzero product
# packed, none packed, an order window of one digit (the digit each step
# has just zeroed, so that every read falls back to the whole int's lowest
# set bit) and one of more digits than any residual below holds (so that
# none does)
ROUTES = {"shipped": {}, "packed": {"_PACKED_FILL": 0},
          "schoolbook": {"_PACKED_FILL": float("inf")},
          "one-digit window": {"_ORDER_DIGITS": 1},
          "wide window": {"_ORDER_DIGITS": 4096}}


def test_product_routes_give_equal_chains_and_bytes(capsys, monkeypatch, tmp_path):
    # on the corpus and a deep-integer branch (k_i = 2, 2, 2, 5, unit
    # coefficients), each route lifts the same f_i, deltas and logs and
    # prints the same ``verify --json`` bytes; the shipped route packs some
    # of the deep branch's products, and its residuals outgrow its window
    import curvelift.algebra as algebra
    from curvelift.algebra import Residual
    deep = tmp_path / "deep.curve"
    deep.write_text("name: deep\nk: 40\nterm: 60 1\nterm: 70 1\nterm: 75 1\nterm: 76 1\n")
    paths = sorted(CORPUS.glob("*.curve")) + [deep]
    assert len(paths) == len(VERIFY_JSON_SHA256) + 1
    skewed, eliminate = algebra._skewed_product, Residual.eliminate
    longest = 0     # digits of a residual where a step reads its next order

    def measured(self, betas):
        nonlocal longest
        n = self._n
        a = eliminate(self, betas)
        if self._u:     # the read saw U before U was shifted down to its order
            longest = max(longest, abs(self._u).bit_length() // self._w + 1
                          + self._n - n)
        return a

    results, packs = {}, dict.fromkeys(ROUTES, 0)
    for route, settings in ROUTES.items():
        def counted(a, b):
            out = skewed(a, b)
            packs[route] += out is not None
            return out
        monkeypatch.setattr(algebra, "_skewed_product", counted)
        monkeypatch.setattr(Residual, "eliminate", measured)
        for name, value in settings.items():
            monkeypatch.setattr(algebra, name, value)
        results[route] = []
        for path in paths:
            chain = implicitize_all(branch_from_file(load_curve(path)), verify=False)
            code, out = run(capsys, "verify", str(path), "--json")
            assert code == 0, (route, path.name)
            results[route].append((chain.fs, chain.deltas, chain.logs, out))
        monkeypatch.undo()
    assert all(results[route] == results["shipped"] for route in ROUTES)
    assert 0 == packs["schoolbook"] < packs["shipped"] < packs["packed"]
    assert algebra._ORDER_DIGITS < longest < ROUTES["wide window"]["_ORDER_DIGITS"]


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
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from curvelift.cli import main; sys.exit(main())", *argv],
            stdout=w, stderr=subprocess.PIPE, env=SUBPROCESS_ENV, timeout=120)
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


def test_coefficients_of_any_size_are_printed_exactly(capsys, tmp_path):
    # f_i coefficients grow like powers of the input's, here past the
    # interpreter's limit on the digits of an int converted to or from str;
    # main lifts that limit after the file is read and restores it on return
    nines = tmp_path / "nines.curve"
    nines.write_text(f"k: 12\nterm: 18 1\nterm: 20 1\nterm: 23 {'9' * 400}\n")
    cusp = tmp_path / "cusp.curve"
    c = int("7" * 3000)
    cusp.write_text(f"k: 2\nterm: 3 {c}\n")
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "verify", str(nines), "--json")
    assert code == 0 and sys.get_int_max_str_digits() == limit
    code, text = run(capsys, "implicitize", str(cusp))
    assert code == 0 and sys.get_int_max_str_digits() == limit
    chain = implicitize_all(branch_from_file(load_curve(nines)))
    sys.set_int_max_str_digits(0)
    try:
        levels = json.loads(out)["levels"]
        assert max(len(t["c"]) for level in levels for t in level["f"]) > limit
        assert tuple(poly_from_doc(level["f"]) for level in levels) == chain.fs
        assert text.splitlines()[0] == f"f_1 = y^2 - {c * c}*x^3"
    finally:
        sys.set_int_max_str_digits(limit)


def test_doc_rebuild_reads_coefficients_of_any_size(capsys, tmp_path):
    # the f_i of a verify --json document may exceed the interpreter's digit
    # limit; doc_rebuild reads them with the limit lifted, the curve's terms
    # under it, and restores it on return
    nines = tmp_path / "nines.curve"
    nines.write_text(f"k: 12\nterm: 18 1\nterm: 20 1\nterm: 23 {'9' * 400}\n")
    code, out = run(capsys, "verify", str(nines), "--json")
    assert code == 0
    doc = json.loads(out)
    limit = sys.get_int_max_str_digits()
    branch, fs = doc_rebuild(doc)
    assert sys.get_int_max_str_digits() == limit
    chain = implicitize_all(branch_from_file(load_curve(nines)))
    assert fs == chain.fs
    rebuilt = certify(chain_from_polynomials(branch, fs))
    log_checks = ("n_log_increasing", "n_log_in_semigroup")
    assert rebuilt.ok and rebuilt.table.ok
    for cert in rebuilt.certificates:
        checks = cert.checks()
        assert all(checks.pop(key) == "skipped" for key in log_checks)
        assert all(v in (True, "match", "skipped") for v in checks.values())
    too_long = {**doc, "terms": [*doc["terms"][:2], {"exp": 23, "coeff": "9" * (limit + 1)}]}
    with pytest.raises(CurveFileError, match="bad rational"):
        doc_rebuild(too_long)
    assert sys.get_int_max_str_digits() == limit


# a child interpreter that runs main(argv) under a 1 GB address-space cap and
# prints its wall seconds last, so that a regression fails without
# exhausting the machine's memory
CAPPED_MAIN = ("import resource, sys, time\n"
               "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
               "from curvelift.cli import main\n"
               "t0 = time.perf_counter()\n"
               "status = main(sys.argv[1:])\n"
               "print(time.perf_counter() - t0)\n"
               "sys.exit(status)\n")


def test_huge_exponent_is_a_typed_error(capsys, tmp_path):
    # valid branches whose top level has a slice bound e_i*deg(yt) above the
    # ceiling, ~1.2e14 and 4.0e8: lift refuses each before packing
    path = tmp_path / "huge-exponent.curve"
    for text, level in (("k: 12\nterm: 18 1\nterm: 20 1\nterm: 9999999999923 1\n", 3),
                        ("k: 4\nterm: 6 1\nterm: 7 1\nterm: 99999999 1\n", 2)):
        path.write_text(text)
        assert main(["validate", str(path)]) == 0
        proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, "implicitize", str(path)],
                              capture_output=True, text=True, env=SUBPROCESS_ENV,
                              timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"error: level {level}: slice bound")
        assert float(proc.stdout) < 1.0


def test_one_class_of_a_huge_level_costs_one_class(tmp_path):
    # k = 2**22 with y = t is one level with e_1 = 2**22 and a slice bound of
    # 2**22, under the ceiling, and its lift takes one step. lift fills its
    # class table as classes come up: one built for all e_1 classes at once
    # runs out of memory under the cap.
    path = tmp_path / "one-class.curve"
    path.write_text("k: 4194304\nterm: 1 1\n")
    proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, "implicitize", str(path),
                           "--no-verify", "--json"],
                          capture_output=True, text=True, env=SUBPROCESS_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *doc, seconds = proc.stdout.splitlines()
    assert len(json.loads("\n".join(doc))["levels"][0]["iterations"]) == 1
    assert float(seconds) < 5.0


def test_bytes_contract_script_reads_the_pinned_digests():
    # tests/bytes_contract.py recomputes these digests without pytest; it
    # reads them out of this file, so both check the same contract
    corpus, workloads = pinned_digests()
    assert corpus == VERIFY_JSON_SHA256 and len(corpus) == 12
    assert workloads == WORKLOAD_VERIFY_JSON_SHA256 and len(workloads) == 3
