"""Seeded fuzzing of the input boundary. Mutated corpus curve files go through
``validate``, and those it accepts through ``verify --json``; mutated
``verify --json`` documents go through ``doc_rebuild``, and those it rebuilds
through re-certification. Every input must either pass or fail with a typed
error. Each mutation kind runs on every corpus file; lower the repeat counts
to cut the run time, never drop a kind."""

import json
import random
import re
import sys

import pytest

from curvelift.cli import chain_to_doc, doc_rebuild, load_curve, main
from curvelift.errors import CurveFileError, InvalidBranchError
from curvelift.implicitize import certify, chain_from_polynomials

CURVE_REPEATS = 4
DOC_REPEATS = 60

# --- curve files, as bytes ----------------------------------------------------

_NUMBER = re.compile(rb"-?[0-9]+(?:/[0-9]+)?")
# 0, -1, past the int/str digit limit, a zero denominator, non-ASCII digits
# (Arabic-Indic, fullwidth, superscript)
NUMBERS = ("0", "-1", "9" * 4301, "1/0", "١٢", "３", "1/٣", "²")


def _byte_edit(rng, data):
    i = rng.randrange(len(data) + 1)
    byte = bytes([rng.randrange(256)])
    return rng.choice((data[:i] + byte + data[i:],          # insert
                       data[:i] + data[i + 1:],             # delete
                       data[:i] + byte + data[i + 1:]))     # replace


def _line_edit(edit):
    def mutate(rng, data):
        lines = data.split(b"\n")
        i = rng.randrange(len(lines))
        lines[i:i + 1] = edit(rng, lines[i])
        return b"\n".join(lines)
    return mutate


@_line_edit
def _duplicate_line(rng, line):
    return [line, line]


@_line_edit
def _drop_line(rng, line):
    return []


@_line_edit
def _truncate_line(rng, line):
    return [line[:rng.randrange(len(line) + 1)]]


def _numeric_edit(rng, data):
    spot = rng.choice(list(_NUMBER.finditer(data)))
    return data[:spot.start()] + rng.choice(NUMBERS).encode() + data[spot.end():]


def _crlf(rng, data):
    return data.replace(b"\n", b"\r\n")


def _bom(rng, data):
    return b"\xef\xbb\xbf" + data


def _not_utf8(rng, data):
    i = rng.randrange(len(data) + 1)
    return data[:i] + rng.choice((b"\xff", b"\xc3", b"\xe9", b"\x80")) + data[i:]


CURVE_MUTATIONS = (_byte_edit, _duplicate_line, _drop_line, _truncate_line,
                   _numeric_edit, _crlf, _bom, _not_utf8)


def _exit_0_or_2(capsys, data, *argv):
    """(status, stdout, stderr) of main(argv): no exception, exit 0 with an
    empty stderr or exit 2 with one ``error:`` line."""
    try:
        status = main(list(argv))
    except Exception as exc:
        pytest.fail(f"{argv[:1] + argv[2:]} on {data!r}: {exc!r}")
    out, err = capsys.readouterr()
    assert status in (0, 2), (argv[0], data)
    if status == 2:
        assert len(err.splitlines()) == 1, (data, err)
        assert err.startswith("error: "), (data, err)
    else:
        assert err == "", (data, err)
    return status, out, err


def test_mutated_curve_files_exit_0_or_2(capsys, tmp_path, corpus_files):
    rng = random.Random(0xF0221)
    path = tmp_path / "case.curve"
    verified = 0
    for source in corpus_files:
        original = source.read_bytes()
        for kind in CURVE_MUTATIONS:
            for _ in range(CURVE_REPEATS):
                # the named kind, then up to two more of any kind
                data = kind(rng, original)
                for extra in rng.sample(CURVE_MUTATIONS, rng.randrange(3)):
                    data = extra(rng, data)
                path.write_bytes(data)
                # a list, not a generator, so that both modes always run
                if any([_exit_0_or_2(capsys, data, "validate", str(path), *flags)[0]
                        for flags in ((), ("--json",))]):
                    continue
                # the pipeline half: what validate accepts verifies and its
                # document re-certifies, or it is above the slice-bound ceiling
                status, out, err = _exit_0_or_2(capsys, data, "verify", str(path), "--json")
                if status == 2:
                    assert "slice bound" in err, (data, err)
                    continue
                doc = json.loads(out)
                assert doc["ok"] is True, data
                assert certify(chain_from_polynomials(*doc_rebuild(doc))).ok, data
                verified += 1
    assert verified >= 100


# --- verify --json documents -------------------------------------------------

def _slots(node):
    """Every (container, key) below node, depth first."""
    items = (node.items() if type(node) is dict else
             enumerate(node) if type(node) is list else ())
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


def _parts(rng, doc):
    """The subtrees to mutate: the document, its terms, a level and that
    level's f, so the parts doc_rebuild reads are hit as often as the rest.
    An earlier mutation may have deleted or retyped some of them."""
    levels = doc.get("levels")
    level = rng.choice(levels) if type(levels) is list and levels else None
    f = level.get("f") if type(level) is dict else None
    return [part for part in (doc, doc.get("terms"), level, f)
            if type(part) in (dict, list) and part]


def _delete_key(rng, doc):
    part = rng.choice(_parts(rng, doc))
    dicts = [node for node in (part, *(n[k] for n, k in _slots(part)))
             if type(node) is dict and node]
    if dicts:
        node = rng.choice(dicts)
        del node[rng.choice(list(node))]


def _swap_type(rng, doc):
    node, key = rng.choice(list(_slots(rng.choice(_parts(rng, doc)))))
    node[key] = rng.choice([v for v in (None, True, 1, 1.5, "1", [], {})
                            if type(v) is not type(node[key])])


def _edit_int(rng, doc):
    ints = [(node, key) for node, key in _slots(rng.choice(_parts(rng, doc)))
            if type(node[key]) is int]
    if ints:
        node, key = rng.choice(ints)
        node[key] = rng.choice((0, -1, 10 ** 50))


def _duplicate_term(rng, doc):
    lists = [part for part in _parts(rng, doc)[1:] if type(part) is list]
    if lists:
        terms = rng.choice(lists)
        terms.insert(rng.randrange(len(terms) + 1), rng.choice(terms))


DOC_MUTATIONS = (_delete_key, _swap_type, _edit_int, _duplicate_term)


def test_mutated_documents_rebuild_or_raise_typed(corpus_files, corpus_chains):
    rng = random.Random(0xD0C)
    limit = sys.get_int_max_str_digits()
    for path in corpus_files:
        cf = load_curve(path)
        text = json.dumps(chain_to_doc(cf, corpus_chains[cf.name][1]))
        for kind in DOC_MUTATIONS:
            for _ in range(DOC_REPEATS):
                doc = json.loads(text)
                for mutate in (kind, *rng.sample(DOC_MUTATIONS, rng.randrange(3))):
                    mutate(rng, doc)
                try:
                    rebuilt = doc_rebuild(doc)
                except (CurveFileError, InvalidBranchError):
                    continue
                except Exception as exc:
                    pytest.fail(f"{kind.__name__} on {path.name}: {exc!r}")
                # whatever rebuilds re-certifies to a chain, with no exception
                try:
                    chain = certify(chain_from_polynomials(*rebuilt))
                except Exception as exc:
                    pytest.fail(f"re-certifying {kind.__name__} on {path.name}: {exc!r}")
                assert chain.certificates, (kind.__name__, path.name)
    assert sys.get_int_max_str_digits() == limit
