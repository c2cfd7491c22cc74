import tracemalloc

import pytest

from softbounds.core import CapError, INFINITY, ParseError
from softbounds.costfn import ExtTable, Spacer
from softbounds.fileformat import emit, parse_path, parse_text
from softbounds.generators import gen_random, gen_satellite, gen_spacerchain

from helpers import suite

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
    ("wcsp t\nk 5\nvar 0 0 1\nvar 1 0 1\nfun ext 2 0 1 0 0\ntag semiconvex 9 asc\n", 6, "not in the function's scope"),
    ("wcsp t\nk 5\nvar 0 0 x\n", 3, "integer"),
    ("wcsp t\nk 5\nw0 2\nw0 2\n", 4, "duplicate w0"),
]


@pytest.mark.parametrize("text,lineno,fragment", NEGATIVE)
def test_malformed_inputs_name_their_line(text, lineno, fragment):
    with pytest.raises(ParseError) as err:
        parse_text(text)
    assert err.value.lineno == lineno, err.value
    assert fragment in err.value.message


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
