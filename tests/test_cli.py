import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from curvelift import BiPoly, basis_reconstruct, certify
from curvelift.cli import (doc_rebuild, format_poly, main, parse_curve_text,
                           parse_rational, poly_from_doc)
from curvelift.errors import CurveFileError
from curvelift.implicitize import chain_from_polynomials

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
README = CORPUS.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_curve_text():
    cf = parse_curve_text("name: demo\nk: 6\nterm: 9 1\nterm: 15 -2/3\n")
    assert cf.k == 6 and cf.name == "demo"
    assert cf.terms == [(9, 1), (15, Fraction(-2, 3))]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CurveFileError) as err:
        parse_curve_text("k: 6\nterm: 9 1\nterm: 9 2\n", path="f.curve")
    assert "f.curve:3" in str(err.value)
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
    code, out = run(capsys, "implicitize", str(CORPUS / "paper-ex2.curve"), "--json")
    assert code == 0
    doc = json.loads(out)
    branch, fs = doc_rebuild(doc)
    rebuilt = certify(chain_from_polynomials(branch, fs))
    assert rebuilt.ok
    for level, cert in zip(doc["levels"], rebuilt.certificates):
        assert level["certificates"] == {
            "pullback_zero": cert.pullback_zero,
            "support_in_polygon": cert.support_in_polygon,
            "apex_absent_in_delta": cert.apex_absent_in_delta,
            "compact_face_present": cert.compact_face_present,
            "monic_weierstrass": cert.monic_weierstrass,
            "n_log_increasing": cert.n_log_increasing,
            "n_log_in_semigroup": cert.n_log_in_semigroup,
            "valuation_rows_ok": cert.valuation_rows_ok,
            "oracle": cert.oracle,
        }


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
    "intro-689.curve": "995c1a9a372d502d102c90e3c5b29bbf05515705c1a8504b349c1d8d15e3b426",
    "nonic.curve": "b38df26788cd299be85417ddb8e10995edc70ab8e4a4d83658ea4fa34e6d60a1",
    "octic-three-level.curve": "61b95fd0a49d8a1c5746add55c180fe11f0188bd60b9794e73185b23e12948c4",
    "paper-ex1.curve": "900b8f01e1dba87f6801f4198036200fccd7dd4bb7860449a9cfac5e597394b5",
    "paper-ex2.curve": "2d7511b5c663af9a6e8179a2b7af7a67633adf196df7d59b0b7c4155b451ba36",
    "paper-ex3.curve": "766f83d261bb29057f2fd7193f5abc81a987e70ade745c0317cb976709a156aa",
    "quartic-deep.curve": "f30bcd175188ad9cbc0e300eb578f15f18b43a234518e77cb75e7af6d9a16575",
    "quartic.curve": "4517962c93544ba705a474c41bd660452f51d2d0d5b623d30cf6aac6ea6a877a",
    "rational-coeffs.curve": "3ab380bb050241e5f1422afb3110288a7727d8878e119f8244936f7217eb6c8d",
    "tails-weighted.curve": "497f6a67e41e0d4fe1467670864239adc13106770dc7f8de81220db2db44b08e",
}


def test_verify_json_bytes_pinned(capsys):
    assert sorted(p.name for p in CORPUS.glob("*.curve")) == sorted(VERIFY_JSON_SHA256)
    for name, digest in VERIFY_JSON_SHA256.items():
        code, out = run(capsys, "verify", str(CORPUS / name), "--json")
        assert code == 0
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
