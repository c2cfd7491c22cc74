import itertools
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from softbounds import costfn
from softbounds.core import CapError, INFINITY, Domain, ParseError, ValuationStructure, Variable
from softbounds.costfn import (
    AntiFunctionalNeq,
    CostFunction,
    ExtTable,
    FunctionalEq,
    LinPlus,
    MonoLeq,
    Spacer,
)
from softbounds.fileformat import emit, parse_path, parse_text
from softbounds.generators import gen_random, gen_satellite, gen_spacerchain
from softbounds.network import Instance

from helpers import repeated_keys, suite

SAMPLE = """\
# a small mixed instance
wcsp sample
k 10
w0 1
var 0 0 4
var 1 -2 2
var 2 0 3
fun ext 2 0 1 0 3
0 -2 3
1 0 2
4 2 10
fun funceq 0 1 2
fun antifuncneq 0 1 3 -1 0
fun monoleq 1 2 1 4
fun linplus 0 2 1 -1 2
fun spacer 0 2 -1 0 2 4 2
fun ext 1 2 0 2
0 5
3 9
"""


class TestParse:
    def test_sample_round_trip(self):
        inst = parse_text(SAMPLE)
        assert inst.name == "sample"
        assert inst.valuation.k == 10
        assert inst.w_zero == 1
        assert len(inst.variables) == 3
        assert len(inst.functions) == 7
        again = parse_text(emit(inst))
        assert again == inst

    def test_infinite_top(self):
        inst = parse_text("wcsp t\nk inf\nvar 0 0 5\n")
        assert inst.valuation.k == INFINITY
        assert parse_text(emit(inst)) == inst

    def test_semiconvex_tag_accepted(self):
        text = (
            "wcsp t\nk 9\nvar 0 0 2\nvar 1 0 2\n"
            "fun ext 2 0 1 0 3\n0 0 2\n0 1 1\n1 0 1\n"
            "tag semiconvex 1 asc\n"
        )
        inst = parse_text(text)
        kind = inst.functions[0].kind
        assert isinstance(kind, ExtTable) and kind.semiconvex == (1, "asc")
        assert parse_text(emit(inst)) == inst

    def test_semiconvex_tag_rejects_gapped_table(self):
        text = (
            "wcsp t\nk 9\nvar 0 0 0\nvar 1 0 2\n"
            "fun ext 2 0 1 0 2\n0 0 5\n0 2 5\n"
            "tag semiconvex 1 asc\n"
        )
        with pytest.raises(ParseError) as err:
            parse_text(text)
        assert err.value.lineno == 8

    def test_each_tag_validated_once(self, monkeypatch):
        calls = []
        real = costfn.validate_semiconvex

        def counting(fn, bounds, wrt, order, val):
            calls.append(fn.scope)
            return real(fn, bounds, wrt, order, val)

        monkeypatch.setattr(costfn, "validate_semiconvex", counting)
        text = (
            "wcsp t\nk 9\nvar 0 0 2\nvar 1 0 2\nvar 2 0 2\n"
            "fun ext 2 0 1 0 3\n0 0 2\n0 1 1\n1 0 1\n"
            "tag semiconvex 1 asc\n"
            "fun ext 2 1 2 0 1\n2 2 4\n"
            "tag semiconvex 2 desc\n"
        )
        inst = parse_text(text)
        assert calls == [(0, 1), (1, 2)]
        # Built without re-running them, the parsed instance passes the
        # construction checks.
        assert Instance(**vars(inst)) == inst

    def test_spacer_parsed(self):
        inst = parse_text("wcsp t\nk 9\nvar 0 0 5\nvar 1 0 5\nfun spacer 0 1 1 2 3 4 1\n")
        assert inst.functions[0].kind == Spacer(1, 2, 3, 4, 1)

    def test_comments_and_blank_lines(self):
        text = "# lead\n\nwcsp t # trailing\n\nk 5\nvar 0 0 1 # interval\n"
        inst = parse_text(text)
        assert inst.valuation.k == 5


NEGATIVE = [
    ("", 1, "empty instance"),
    ("k 5\nvar 0 0 1\n", 1, "expected header"),
    ("wcsp t\nvar 0 0 1\nfun monoleq 0 1 0 1\n", 3, "k must be declared"),
    ("wcsp t\nk 0\n", 2, "at least 1"),
    ("wcsp t\nk 5\nk 6\n", 3, "duplicate k"),
    ("wcsp t\nk 5\nw0 9\n", 3, "outside"),
    ("wcsp t\nk 5\nvar 1 0 1\n", 3, "in order"),
    ("wcsp t\nk 5\nvar 0 0 1\nvar 0 0 1\n", 4, "in order"),
    ("wcsp t\nk 5\nvar 0 3 1\n", 3, "empty interval"),
    ("wcsp t\nk 5\nvar 0 0 1\nfrob 1\n", 4, "unknown directive"),
    ("wcsp t\nk 5\nvar 0 0 1\nfun glue 0 1\n", 4, "unknown function kind"),
    ("wcsp t\nk 5\nvar 0 0 1\nfun monoleq 0 1 0 1\n", 4, "unknown variable"),
    ("wcsp t\nk 5\nvar 0 0 1\nvar 1 0 1\nfun monoleq 0 0 0 1\n", 5, "distinct"),
    ("wcsp t\nk 5\nvar 0 0 1\nfun ext 1 0 0 1\n9 1\n", 5, "outside"),
    ("wcsp t\nk 5\nvar 0 0 1\nfun ext 1 0 0 1\n0 7\n", 5, "outside"),
    ("wcsp t\nk 5\nvar 0 0 1\nfun ext 1 0 0 2\n0 1\n0 2\n", 6, "duplicate tuple"),
    ("wcsp t\nk 5\nvar 0 0 1\nfun ext 1 0 0 2\n0 1\n", 4, "ended early"),
    ("wcsp t\nk 5\nvar 0 0 1\nfun funceq 0 1 0\n", 4, "unknown variable"),
    ("wcsp t\nk 5\nvar 0 0 1\nvar 1 0 1\nfun funceq 0 1 0\n", 5, "outside [1, 5]"),
    ("wcsp t\nk 5\nvar 0 0 1\nvar 1 0 1\nfun spacer 0 1 4 3 2 1 1\n", 5, "ordered"),
    ("wcsp t\nk 5\nvar 0 0 1\nvar 1 0 1\nfun spacer 0 1 1 2 3 4 0\n", 5, "positive"),
    ("wcsp t\nk 5\nvar 0 0 1\ntag semiconvex 0 asc\n", 4, "no preceding"),
    ("wcsp t\nk 5\nvar 0 0 1\nvar 1 0 1\nfun monoleq 0 1 0 1\ntag semiconvex 0 asc\n", 6, "extensional"),
    ("wcsp t\nk 5\nvar 0 0 1\nfun ext 1 0 0 0\ntag semiconvex 0 asc\n", 5, "binary"),
    ("wcsp t\nk 5\nvar 0 0 1\nvar 1 0 1\nfun ext 2 0 1 0 0\ntag semiconvex 9 asc\n", 6, "variable 9 not in scope (0, 1)"),
    ("wcsp t\nk 5\nvar 0 0 x\n", 3, "integer"),
    ("wcsp t\nk 5\nw0 2\nw0 2\n", 4, "duplicate w0"),
    ("wcsp t\nk 5\nvar 0 0 1\nfun ext 1 0 0 -1\n", 4, "tuple count must be at least 0"),
    ("wcsp t\nk 5 6\n", 2, "expected 'k <int|inf>'"),
    (f"wcsp t\nk {INFINITY}\n", 2, "infinity sentinel"),
    ("wcsp t\nk 5\nw0\n", 3, "expected 'w0 <int>'"),
    ("wcsp t\nk 5\nvar 0 1\n", 3, "expected 'var <id> <lb> <ub>'"),
    ("wcsp t\nk 5\nfun\n", 3, "truncated fun"),
    ("wcsp t\nk 5\nvar 0 0 1\nfun ext 1 0\n", 4, "expected 'fun ext <r> <ids...> <default> <t>'"),
    ("wcsp t\nk 5\nvar 0 0 1\nfun ext 0 0 0\n", 4, "arity must be at least 1"),
    ("wcsp t\nk 5\nvar 0 0 1\nfun ext 2 0 0 0\n", 4, "expected 2 variable ids"),
    ("wcsp t\nk 5\nvar 0 0 1\nfun ext 2 0 0 0 0\n", 4, "repeats a variable"),
    ("wcsp t\nk 5\nvar 0 0 1\nfun ext 1 0 9 0\n", 4, "default cost 9 outside [0, 5]"),
    ("wcsp t\nk 5\nvar 0 0 1\nvar 1 0 1\nfun ext 2 0 1 0 0\ntag semiconvex 0 up\n", 6, "expected 'tag semiconvex"),
    (
        "wcsp t\nk 5\nvar 0 0 1\nvar 1 0 1\nfun ext 2 0 1 0 0\ntag semiconvex 0 asc\ntag semiconvex 0 asc\n",
        7,
        "already carries",
    ),
]


@pytest.mark.parametrize("text,lineno,fragment", NEGATIVE)
def test_malformed_inputs_name_their_line(text, lineno, fragment):
    with pytest.raises(ParseError) as err:
        parse_text(text)
    assert err.value.lineno == lineno, err.value
    assert fragment in err.value.message


# Malformed `fun` lines of every non-table kind: an argument list one short
# or one long, a bad token in each position, an unknown variable on each
# side, the same variable twice, and out-of-range parameters.
MALFORMED_FUN = [
    ('fun funceq 0 1', 5, "expected 'fun funceq <i> <j> <alpha> [p q]'"),
    ('fun funceq 0 1 2 7', 5, "expected 'fun funceq <i> <j> <alpha> [p q]'"),
    ('fun funceq x 1 2', 5, "variable id must be an integer, got 'x'"),
    ('fun funceq 0 x 2', 5, "variable id must be an integer, got 'x'"),
    ('fun funceq 0 1 x', 5, "alpha must be an integer, got 'x'"),
    ('fun funceq 9 1 2', 5, 'unknown variable id 9'),
    ('fun funceq 0 9 2', 5, 'unknown variable id 9'),
    ('fun funceq 0 0 2', 5, 'binary function needs two distinct variables'),
    ('fun funceq 0 1 2 3', 5, "expected 'fun funceq <i> <j> <alpha> [p q]'"),
    ('fun funceq 0 1 2 3 -1 7', 5, "expected 'fun funceq <i> <j> <alpha> [p q]'"),
    ('fun funceq x 1 2 3 -1', 5, "variable id must be an integer, got 'x'"),
    ('fun funceq 0 x 2 3 -1', 5, "variable id must be an integer, got 'x'"),
    ('fun funceq 0 1 x 3 -1', 5, "alpha must be an integer, got 'x'"),
    ('fun funceq 0 1 2 x -1', 5, "p must be an integer, got 'x'"),
    ('fun funceq 0 1 2 3 x', 5, "q must be an integer, got 'x'"),
    ('fun funceq 9 1 2 3 -1', 5, 'unknown variable id 9'),
    ('fun funceq 0 9 2 3 -1', 5, 'unknown variable id 9'),
    ('fun funceq 0 0 2 3 -1', 5, 'binary function needs two distinct variables'),
    ('fun funceq', 5, "expected 'fun funceq <i> <j> <alpha> [p q]'"),
    ('fun antifuncneq 0 1', 5, "expected 'fun antifuncneq <i> <j> <alpha> [p q]'"),
    ('fun antifuncneq 0 1 2 7', 5, "expected 'fun antifuncneq <i> <j> <alpha> [p q]'"),
    ('fun antifuncneq x 1 2', 5, "variable id must be an integer, got 'x'"),
    ('fun antifuncneq 0 x 2', 5, "variable id must be an integer, got 'x'"),
    ('fun antifuncneq 0 1 x', 5, "alpha must be an integer, got 'x'"),
    ('fun antifuncneq 9 1 2', 5, 'unknown variable id 9'),
    ('fun antifuncneq 0 9 2', 5, 'unknown variable id 9'),
    ('fun antifuncneq 0 0 2', 5, 'binary function needs two distinct variables'),
    ('fun antifuncneq 0 1 2 -2', 5, "expected 'fun antifuncneq <i> <j> <alpha> [p q]'"),
    ('fun antifuncneq 0 1 2 -2 1 7', 5, "expected 'fun antifuncneq <i> <j> <alpha> [p q]'"),
    ('fun antifuncneq x 1 2 -2 1', 5, "variable id must be an integer, got 'x'"),
    ('fun antifuncneq 0 x 2 -2 1', 5, "variable id must be an integer, got 'x'"),
    ('fun antifuncneq 0 1 x -2 1', 5, "alpha must be an integer, got 'x'"),
    ('fun antifuncneq 0 1 2 x 1', 5, "p must be an integer, got 'x'"),
    ('fun antifuncneq 0 1 2 -2 x', 5, "q must be an integer, got 'x'"),
    ('fun antifuncneq 9 1 2 -2 1', 5, 'unknown variable id 9'),
    ('fun antifuncneq 0 9 2 -2 1', 5, 'unknown variable id 9'),
    ('fun antifuncneq 0 0 2 -2 1', 5, 'binary function needs two distinct variables'),
    ('fun antifuncneq', 5, "expected 'fun antifuncneq <i> <j> <alpha> [p q]'"),
    ('fun monoleq 0 1 1', 5, "expected 'fun monoleq <i> <j> <delta> <alpha>'"),
    ('fun monoleq 0 1 1 4 7', 5, "expected 'fun monoleq <i> <j> <delta> <alpha>'"),
    ('fun monoleq x 1 1 4', 5, "variable id must be an integer, got 'x'"),
    ('fun monoleq 0 x 1 4', 5, "variable id must be an integer, got 'x'"),
    ('fun monoleq 0 1 x 4', 5, "delta must be an integer, got 'x'"),
    ('fun monoleq 0 1 1 x', 5, "alpha must be an integer, got 'x'"),
    ('fun monoleq 9 1 1 4', 5, 'unknown variable id 9'),
    ('fun monoleq 0 9 1 4', 5, 'unknown variable id 9'),
    ('fun monoleq 0 0 1 4', 5, 'binary function needs two distinct variables'),
    ('fun monoleq', 5, "expected 'fun monoleq <i> <j> <delta> <alpha>'"),
    ('fun linplus 0 1 1 -1', 5, "expected 'fun linplus <i> <j> <a> <b> <c>'"),
    ('fun linplus 0 1 1 -1 2 7', 5, "expected 'fun linplus <i> <j> <a> <b> <c>'"),
    ('fun linplus x 1 1 -1 2', 5, "variable id must be an integer, got 'x'"),
    ('fun linplus 0 x 1 -1 2', 5, "variable id must be an integer, got 'x'"),
    ('fun linplus 0 1 x -1 2', 5, "a must be an integer, got 'x'"),
    ('fun linplus 0 1 1 x 2', 5, "b must be an integer, got 'x'"),
    ('fun linplus 0 1 1 -1 x', 5, "c must be an integer, got 'x'"),
    ('fun linplus 9 1 1 -1 2', 5, 'unknown variable id 9'),
    ('fun linplus 0 9 1 -1 2', 5, 'unknown variable id 9'),
    ('fun linplus 0 0 1 -1 2', 5, 'binary function needs two distinct variables'),
    ('fun linplus', 5, "expected 'fun linplus <i> <j> <a> <b> <c>'"),
    ('fun spacer 0 1 1 2 3 4', 5, "expected 'fun spacer <i> <j> <d1> <d2> <d3> <d4> <slope>'"),
    ('fun spacer 0 1 1 2 3 4 1 7', 5, "expected 'fun spacer <i> <j> <d1> <d2> <d3> <d4> <slope>'"),
    ('fun spacer x 1 1 2 3 4 1', 5, "variable id must be an integer, got 'x'"),
    ('fun spacer 0 x 1 2 3 4 1', 5, "variable id must be an integer, got 'x'"),
    ('fun spacer 0 1 x 2 3 4 1', 5, "d1 must be an integer, got 'x'"),
    ('fun spacer 0 1 1 x 3 4 1', 5, "d2 must be an integer, got 'x'"),
    ('fun spacer 0 1 1 2 x 4 1', 5, "d3 must be an integer, got 'x'"),
    ('fun spacer 0 1 1 2 3 x 1', 5, "d4 must be an integer, got 'x'"),
    ('fun spacer 0 1 1 2 3 4 x', 5, "slope must be an integer, got 'x'"),
    ('fun spacer 9 1 1 2 3 4 1', 5, 'unknown variable id 9'),
    ('fun spacer 0 9 1 2 3 4 1', 5, 'unknown variable id 9'),
    ('fun spacer 0 0 1 2 3 4 1', 5, 'binary function needs two distinct variables'),
    ('fun spacer', 5, "expected 'fun spacer <i> <j> <d1> <d2> <d3> <d4> <slope>'"),
    ('fun funceq 0 1 0', 5, 'alpha 0 outside [1, 5]'),
    ('fun funceq 0 1 6', 5, 'alpha 6 outside [1, 5]'),
    ('fun funceq 0 1 -1 2 3', 5, 'alpha -1 outside [1, 5]'),
    ('fun funceq 0 1 0 x 1', 5, "p must be an integer, got 'x'"),
    ('fun antifuncneq 0 1 0', 5, 'alpha 0 outside [1, 5]'),
    ('fun antifuncneq 0 1 6 0 0', 5, 'alpha 6 outside [1, 5]'),
    ('fun antifuncneq 0 1 0 1', 5, "expected 'fun antifuncneq <i> <j> <alpha> [p q]'"),
    ('fun monoleq 0 1 0 -1', 5, 'alpha -1 outside [0, 5]'),
    ('fun monoleq 0 1 0 6', 5, 'alpha 6 outside [0, 5]'),
    ('fun monoleq 0 1 x 6', 5, "delta must be an integer, got 'x'"),
    ('fun monoleq 9 1 0 6', 5, 'unknown variable id 9'),
    ('fun spacer 0 1 2 1 3 4 1', 5, 'spacer breakpoints must be ordered, got (2, 1, 3, 4)'),
    ('fun spacer 0 1 1 3 2 4 1', 5, 'spacer breakpoints must be ordered, got (1, 3, 2, 4)'),
    ('fun spacer 0 1 1 2 4 3 1', 5, 'spacer breakpoints must be ordered, got (1, 2, 4, 3)'),
    ('fun spacer 0 1 1 2 3 4 0', 5, 'spacer slope must be positive, got 0'),
    ('fun spacer 0 1 1 2 3 4 -3', 5, 'spacer slope must be positive, got -3'),
    ('fun spacer 0 1 4 3 2 1 0', 5, 'spacer breakpoints must be ordered, got (4, 3, 2, 1)'),
    ('fun spacer 0 1 4 3 2 1 x', 5, "slope must be an integer, got 'x'"),
    ('fun spacer 0 0 4 3 2 1 1', 5, 'binary function needs two distinct variables'),
    ('fun linplus 0 1 1 1 1.5', 5, "c must be an integer, got '1.5'"),
]


@pytest.mark.parametrize("line,lineno,message", MALFORMED_FUN)
def test_malformed_fun_lines(line, lineno, message):
    with pytest.raises(ParseError) as err:
        parse_text(f"wcsp t\nk 5\nvar 0 0 3\nvar 1 0 3\n{line}\nvar 2 0 0\n")
    assert (err.value.lineno, err.value.message) == (lineno, message)


def test_semiconvex_tag_cap_refused():
    text = (
        "wcsp t\nk 5\nvar 0 0 2000\nvar 1 0 2\n"
        "fun ext 2 0 1 0 0\n"
        "tag semiconvex 0 asc\n"
    )
    with pytest.raises(CapError):
        parse_text(text)


class TestRoundTrips:
    def test_generated_instances(self):
        cases = [
            gen_random(n=4, d=5, e=6, seed=2),
            gen_satellite(N=4, seed=3),
            gen_spacerchain(m=5, L=500, seed=4),
        ]
        for inst in cases:
            assert parse_text(emit(inst)) == inst

    def test_suite_instances(self):
        for inst in suite(15):
            again = parse_text(emit(inst))
            assert again == inst, inst.name

    def test_emit_is_deterministic(self):
        a = emit(gen_random(n=5, d=6, e=7, seed=9))
        b = emit(gen_random(n=5, d=6, e=7, seed=9))
        assert a == b


class TestSharedKeys:
    """Equal keys of different tables are one tuple in a parsed instance,
    on both table readers."""

    TEXT = emit(gen_random(n=6, d=6, e=10, seed=1))

    def test_bulk_reader(self):
        repeats, shared = repeated_keys(parse_text(self.TEXT))
        assert repeats > 0 and shared == repeats

    def test_line_by_line_reader(self):
        # A comment after each `fun ext` line fails every table's first
        # chunk, so each body is read line by line.
        text = "".join(
            line + "\n# c\n" if line.startswith("fun ext") else line + "\n"
            for line in self.TEXT.splitlines()
        )
        assert text.count("# c") == 10
        inst = parse_text(text)
        assert inst == parse_text(self.TEXT)
        repeats, shared = repeated_keys(inst)
        assert repeats > 0 and shared == repeats


class TestParsePath:
    def test_reads_utf8(self, tmp_path):
        path = tmp_path / "ok.wcsp"
        path.write_bytes("# café\r\nwcsp t\rk 5\nvar 0 0 1\n".encode("utf-8"))
        assert parse_path(str(path)).valuation.k == 5

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.wcsp"
        path.write_bytes(b"wcsp t\r\nk 5\rvar 0 0 1\n# caf\xc3(\nvar 1 0 1\n")
        with pytest.raises(ParseError) as err:
            parse_path(str(path))
        assert err.value.lineno == 4
        assert err.value.message == "byte 0xc3 is not valid UTF-8 (invalid continuation byte)"


def _dense_table_text(rows: int, width: int) -> str:
    """One binary table listing every tuple of a rows x width grid."""
    lines = ["wcsp dense", "k 1000", f"var 0 0 {rows - 1}", f"var 1 0 {width - 1}",
             f"fun ext 2 0 1 0 {rows * width}"]
    lines += [f"{i} {j} {(i * 7 + j) % 1000}" for i in range(rows) for j in range(width)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "make_text",
    [
        lambda: emit(gen_random(n=30, d=50, e=100, tightness=0.5, seed=5)),  # many tables
        lambda: _dense_table_text(300, 200),  # one table of 60 000 lines
    ],
    ids=["random", "one-table"],
)
def test_parse_peak_memory_stays_below_twice_the_instance(make_text):
    # Tokenizing every line up front peaked at 4.7x (random) and 4.1x
    # (one-table) the size of the parsed instance.
    text = make_text()
    assert text.count("\n") >= 50_000
    tracemalloc.start()
    try:
        inst = parse_text(text)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.functions
    assert peak < 2 * size, (peak, size)


# -- text round trip of the non-table kinds ------------------------------

_ints = st.integers(-10**6, 10**6)


def _map_kind(cls):
    # `p q` at their defaults half of the time, so both text forms occur.
    return lambda k: st.builds(
        cls,
        st.integers(1, k),
        st.one_of(st.just(1), _ints),
        st.one_of(st.just(0), _ints),
    )


def _spacer(k):
    return st.builds(
        lambda ds, slope: Spacer(*sorted(ds), slope),
        st.lists(_ints, min_size=4, max_size=4),
        st.integers(1, 10**6),
    )


KIND_STRATEGIES = [
    _map_kind(FunctionalEq),
    _map_kind(AntiFunctionalNeq),
    lambda k: st.builds(MonoLeq, _ints, st.integers(0, k)),
    lambda k: st.builds(LinPlus, _ints, _ints, _ints),
    _spacer,
]


@st.composite
def non_table_instances(draw):
    k = draw(st.sampled_from([1, 7, 1000, INFINITY]))
    n = draw(st.integers(2, 4))
    variables = []
    for i in range(n):
        lb = draw(_ints)
        variables.append(Variable(i, Domain(lb, lb + draw(st.integers(0, 5)))))
    functions = []
    for _ in range(draw(st.integers(1, 6))):
        scope = tuple(draw(st.permutations(range(n)))[:2])
        kind = draw(draw(st.sampled_from(KIND_STRATEGIES))(k))
        functions.append(CostFunction(scope=scope, kind=kind))
    return Instance("t", ValuationStructure(k), variables, functions)


@given(inst=non_table_instances())
def test_non_table_kinds_round_trip(inst):
    text = emit(inst)
    assert parse_text(text) == inst
    # Fields in order after the scope; `p q` left out only at (1, 0).
    for fn, line in zip(inst.functions, text.splitlines()[-len(inst.functions):]):
        kind = fn.kind
        want = ["fun", kind.name, *map(str, fn.scope)]
        want += [str(getattr(kind, f.name)) for f in fields(kind)]
        if isinstance(kind, (FunctionalEq, AntiFunctionalNeq)) and (kind.p, kind.q) == (1, 0):
            want = want[:-2]
        assert line.split() == want


# -- text of the table kind against the per-line formula it replaced ---------


def _ext_text_per_line(kind: ExtTable, scope) -> str:
    """`ExtTable.text` as it was written before its body lines were built
    with one format per arity: a generator and a join per line."""
    table = kind.table
    ids = " ".join(str(v) for v in scope)
    out = [f"fun ext {len(scope)} {ids} {kind.default} {len(table)}"]
    for values in sorted(table):
        vals = " ".join(str(w) for w in values)
        out.append(f"{vals} {table[values]}")
    if kind.semiconvex is not None:
        wrt, order = kind.semiconvex
        out.append(f"tag semiconvex {wrt} {order}")
    return "\n".join(out)


# Domain lower bounds near zero, beyond 2**31 and below -2**31.
_table_lbs = st.one_of(_ints, st.integers(2**31, 2**40), st.integers(-2**40, -2**31))


@st.composite
def table_instances(draw):
    """Tables of arity 1 to 3, some empty, with drawn defaults and costs up
    to k (beyond 2**31 for the large tops); binary tables that are
    semi-convex along a drawn axis carry the tag."""
    k = draw(st.sampled_from([1, 9, 2**40, INFINITY]))
    n = draw(st.integers(3, 4))
    variables = []
    for i in range(n):
        lb = draw(_table_lbs)
        variables.append(Variable(i, Domain(lb, lb + draw(st.integers(0, 3)))))
    bounds = {v.id: (v.domain.lb, v.domain.ub) for v in variables}
    costs = st.integers(0, k)
    functions = []
    for _ in range(draw(st.integers(1, 5))):
        scope = tuple(draw(st.permutations(range(n)))[: draw(st.integers(1, 3))])
        cells = list(itertools.product(*(range(lo, hi + 1) for lo, hi in map(bounds.get, scope))))
        keys = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
        kind = ExtTable(draw(costs), {key: draw(costs) for key in keys})
        if len(scope) == 2 and draw(st.booleans()):
            tag = (draw(st.sampled_from(scope)), draw(st.sampled_from(["asc", "desc"])))
            fn = CostFunction(scope, kind)
            if costfn.validate_semiconvex(fn, bounds, *tag, ValuationStructure(k))[0]:
                kind = ExtTable(kind.default, kind.table, tag)
        functions.append(CostFunction(scope, kind))
    return Instance("tables", ValuationStructure(k), variables, functions)


@given(inst=table_instances())
def test_table_text_matches_the_per_line_formula(inst):
    for fn in inst.functions:
        assert fn.kind.text(fn.scope) == _ext_text_per_line(fn.kind, fn.scope)
    assert parse_text(emit(inst)) == inst
