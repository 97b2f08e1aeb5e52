"""Text-format round trips, canonical serialization, and parser diagnostics."""

import sys
from itertools import combinations

import pytest

from rotagrid import (FormatError, GridInstance, builtin_instance,
                      instance_digest, k4_c2_instance, matroid_digest,
                      mcdiarmid_instance, oxley_j_instance, parse_grid_instance,
                      parse_matroid, serialize_grid_instance, serialize_matroid,
                      uniform_matroid, write_instance_files)


ALL_NAMED = ["k4-c2", "oxley-j", "mcdiarmid", "odd-wheel-3", "u39"]


# --- round trips ---------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_NAMED)
def test_matroid_round_trip_is_canonical(name):
    oracle = builtin_instance(name).instance.matroid
    text = serialize_matroid(oracle)
    reparsed = parse_matroid(text)
    assert serialize_matroid(reparsed) == text
    assert reparsed.ground.size == oracle.ground.size
    assert reparsed.rank_total == oracle.rank_total
    # identical rank function on a subset sample
    m = oracle.ground.size
    for size in (1, 2, 3):
        for c in combinations(range(m), size):
            assert reparsed.rank(c) == oracle.rank(c)
            if size > 2:
                break


@pytest.mark.parametrize("name", ALL_NAMED)
def test_grid_instance_round_trip(name, tmp_path):
    inst = builtin_instance(name).instance
    mpath, gpath = write_instance_files(inst, tmp_path, name)
    reparsed = parse_grid_instance(gpath.read_text(), base_dir=tmp_path)
    assert reparsed.n == inst.n
    assert reparsed.k == inst.k
    assert reparsed.rows == inst.rows
    assert reparsed.independence == inst.independence
    assert instance_digest(reparsed) == instance_digest(inst)


def test_serialization_independent_of_set_order():
    m = uniform_matroid(2, 4)
    a = GridInstance(m, 2, 2, (frozenset({3, 0}), frozenset({2, 1})))
    b = GridInstance(m, 2, 2, (frozenset({0, 3}), frozenset({1, 2})))
    assert serialize_grid_instance(a, "x") == serialize_grid_instance(b, "x")
    assert instance_digest(a) == instance_digest(b)


def test_digest_ignores_matroid_path(tmp_path):
    inst = k4_c2_instance().instance
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    write_instance_files(inst, tmp_path / "a", "one")
    write_instance_files(inst, tmp_path / "b", "two")
    ra = parse_grid_instance((tmp_path / "a" / "one.grid").read_text(),
                             base_dir=tmp_path / "a")
    rb = parse_grid_instance((tmp_path / "b" / "two.grid").read_text(),
                             base_dir=tmp_path / "b")
    assert instance_digest(ra) == instance_digest(rb)


def test_empty_row_serializes_and_parses(tmp_path):
    m = uniform_matroid(2, 4)
    inst = GridInstance(m, 2, 2, (frozenset(), frozenset({1})))
    text = serialize_grid_instance(inst, "m.matroid")
    assert "ROW 0:\n" in text
    (tmp_path / "m.matroid").write_text(serialize_matroid(m))
    reparsed = parse_grid_instance(text, base_dir=tmp_path)
    assert reparsed.rows[0] == frozenset()


def test_rationals_round_trip():
    text = ("MATROID v1\nNAME q\nGROUND 3\nTYPE LINEAR\nDIM 2\n"
            "ROW 1/2 -3 0\nROW 2/4 7 -1/9\n")
    oracle = parse_matroid(text)
    out = serialize_matroid(oracle)
    assert "1/2 -3 0" in out
    assert "1/2 7 -1/9" in out       # 2/4 normalizes


# --- parser diagnostics -----------------------------------------------------------

def err_line(text, parse=parse_matroid):
    with pytest.raises(FormatError) as info:
        parse(text)
    return info.value.line


def test_zero_denominator_rejected():
    line = err_line("MATROID v1\nNAME z\nGROUND 2\nTYPE LINEAR\nDIM 1\n"
                    "ROW 1 3/0\n")
    assert line == 6


# one digit past the interpreter's limit on converting a string to an int
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()
LONG = "7" * (DIGIT_LIMIT + 1)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="int() converts any length")
@pytest.mark.parametrize("tok", [LONG, f"-{LONG}/3", f"1/{LONG}"],
                         ids=["integer", "numerator", "denominator"])
def test_overlong_rational_is_format_error(tok):
    with pytest.raises(FormatError) as info:
        parse_matroid("MATROID v1\nNAME z\nGROUND 2\nTYPE LINEAR\nDIM 1\n"
                      f"ROW 1 {tok}\n")
    assert info.value.line == 6
    assert str(info.value) == f"line 6: rational of {len(tok)} characters is too long"


# over-long tokens, each in the place of one message that quotes a token
LINEAR_HEAD = "MATROID v1\nNAME z\nGROUND 2\nTYPE LINEAR\nDIM 1\n"
LONG_TOKEN_FILES = {
    "bad-int": ("MATROID v1\nNAME z\nGROUND " + "4" * 4301 + "x\n", 3),
    "malformed-rational": (LINEAR_HEAD + "ROW 1 " + "1.5" * 2000 + "\n", 6),
    "zero-denominator": (LINEAR_HEAD + "ROW 1 " + "7" * 4000 + "/0\n", 6),
    "trailing": (LINEAR_HEAD + "ROW 1 1\n" + "T" * 5000 + "\n", 7),
    "keyword": ("MATROID v1\n" + "N" * 5000 + " z\n", 2),
}


@pytest.mark.parametrize("text, line", LONG_TOKEN_FILES.values(),
                         ids=LONG_TOKEN_FILES.keys())
def test_long_token_is_quoted_by_prefix_and_length(text, line):
    with pytest.raises(FormatError) as info:
        parse_matroid(text)
    assert info.value.line == line
    message = str(info.value)
    assert message.startswith(f"line {line}: ") and len(message) < 120
    assert "characters)" in message


def test_malformed_rational_rejected():
    assert err_line("MATROID v1\nNAME z\nGROUND 1\nTYPE LINEAR\nDIM 1\n"
                    "ROW 1.5\n") == 6


def test_duplicate_basis_rejected():
    text = ("MATROID v1\nNAME d\nGROUND 3\nTYPE BASES\nRANK 2\n"
            "BASIS 0 1\nBASIS 1 0\n")
    assert err_line(text) == 7


def test_index_overflow_rejected():
    text = ("MATROID v1\nNAME d\nGROUND 3\nTYPE BASES\nRANK 2\n"
            "BASIS 0 5\n")
    assert err_line(text) == 6


def test_edge_outside_vertex_range():
    text = ("MATROID v1\nNAME g\nGROUND 1\nTYPE GRAPHIC\nVERTICES 2\n"
            "EDGE 0 2\n")
    assert err_line(text) == 6


def test_bad_header_rejected():
    assert err_line("MATROID v2\nNAME x\n") == 1


def test_comments_and_blank_lines_ignored():
    text = ("# a matroid\nMATROID v1\n\nNAME c  # inline comment\n"
            "GROUND 2\nTYPE GRAPHIC\nVERTICES 2\nEDGE 0 1\nEDGE 0 1\n")
    oracle = parse_matroid(text)
    assert oracle.name == "c"
    assert oracle.ground.size == 2


def test_ground_nk_mismatch_rejected(tmp_path):
    m = uniform_matroid(2, 4)
    (tmp_path / "m.matroid").write_text(serialize_matroid(m))
    text = ("GRIDINSTANCE v1\nMATROID m.matroid\nROWS 2\nCOLS 3\n"
            "INDEPENDENCE REQUIRED\nROW 0:\nROW 1:\n")
    with pytest.raises(FormatError) as info:
        parse_grid_instance(text, base_dir=tmp_path)
    assert "n*k" in str(info.value)


@pytest.mark.parametrize("dims,line", [("ROWS -1\nCOLS 2\n", 3),
                                       ("ROWS 2\nCOLS -1\n", 4)])
def test_negative_dimension_reports_its_own_line(dims, line, tmp_path):
    m = uniform_matroid(2, 4)
    (tmp_path / "m.matroid").write_text(serialize_matroid(m))
    text = ("GRIDINSTANCE v1\nMATROID m.matroid\n" + dims
            + "INDEPENDENCE REQUIRED\nROW 0:\nROW 1:\n")
    with pytest.raises(FormatError) as info:
        parse_grid_instance(text, base_dir=tmp_path)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: dimensions must be nonnegative"


def test_missing_matroid_file(tmp_path):
    text = ("GRIDINSTANCE v1\nMATROID nope.matroid\nROWS 1\nCOLS 1\n"
            "INDEPENDENCE REQUIRED\nROW 0:\n")
    with pytest.raises(FormatError):
        parse_grid_instance(text, base_dir=tmp_path)


def test_row_count_must_match(tmp_path):
    m = uniform_matroid(2, 4)
    (tmp_path / "m.matroid").write_text(serialize_matroid(m))
    text = ("GRIDINSTANCE v1\nMATROID m.matroid\nROWS 2\nCOLS 2\n"
            "INDEPENDENCE REQUIRED\nROW 0: 1\n")
    with pytest.raises(FormatError):
        parse_grid_instance(text, base_dir=tmp_path)


def test_repeated_row_element_rejected(tmp_path):
    m = uniform_matroid(2, 4)
    (tmp_path / "m.matroid").write_text(serialize_matroid(m))
    text = ("GRIDINSTANCE v1\nMATROID m.matroid\nROWS 2\nCOLS 2\n"
            "INDEPENDENCE REQUIRED\nROW 0: 1 1\nROW 1:\n")
    with pytest.raises(FormatError):
        parse_grid_instance(text, base_dir=tmp_path)


# --- digests ------------------------------------------------------------------------

def test_matroid_digest_stable():
    a = matroid_digest(oxley_j_instance().instance.matroid)
    b = matroid_digest(oxley_j_instance().instance.matroid)
    assert a == b
    assert len(a) == 64


def test_different_instances_different_digests():
    assert (instance_digest(k4_c2_instance().instance)
            != instance_digest(mcdiarmid_instance().instance))
