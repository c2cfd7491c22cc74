"""The block-by-block tokenizer and bulk table reader against the eager parser.

The reference is a copy of the eager `_Lines`, which splits the whole text
up front, and of the per-line table loop the parser had before table bodies
were read in bulk. Both are plugged into the shared directive parser, so
any difference in an accepted `Instance` or in the line and message of a
`ParseError` comes from the new reading path. Block and chunk sizes are
patched down to 1 so that every cut falls inside the generated texts.
`check_function` is compared the same way with a copy of its per-tuple loop.
"""

from __future__ import annotations

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import softbounds.fileformat as fileformat
from softbounds.core import (
    INFINITY,
    CapError,
    ContractError,
    ParseError,
    SolverError,
    ValuationStructure,
    check_cost,
)
from softbounds.costfn import CostFunction, ExtTable, check_function
from softbounds.fileformat import parse_text


class RefLines:
    """The eager tokenizer: every logical line split up front."""

    def __init__(self, text: str):
        self.items = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.items.append((lineno, body.split()))
        self.pos = 0

    def next(self):
        if self.pos >= len(self.items):
            return None
        item = self.items[self.pos]
        self.pos += 1
        return item


def ref_read_table(lines, lineno, count, intervals, k, pool):
    """The per-line table loop, one tuple line at a time; `pool` is unused."""
    r = len(intervals)
    table = {}
    for _ in range(count):
        item = lines.next()
        if item is None:
            raise ParseError(lineno, f"expected {count} tuple lines, file ended early")
        tl, ttoks = item
        if len(ttoks) != r + 1:
            raise ParseError(tl, f"expected {r} values and a cost")
        values = tuple(fileformat._int(t, tl, "value") for t in ttoks[:r])
        cost = fileformat._int(ttoks[r], tl, "cost")
        for w, (lo, hi) in zip(values, intervals):
            if not lo <= w <= hi:
                raise ParseError(tl, f"value {w} outside [{lo}, {hi}]")
        if not 0 <= cost <= k:
            raise ParseError(tl, f"cost {cost} outside [0, {k}]")
        if values in table:
            raise ParseError(tl, f"duplicate tuple {values}")
        table[values] = cost
    return table


def outcome(text: str):
    try:
        return ("ok", parse_text(text))
    except ParseError as exc:
        return ("parse", exc.lineno, exc.message)
    except CapError as exc:
        return ("cap", str(exc))


def reference_outcome(text: str):
    with mock.patch.object(fileformat, "_Lines", RefLines), mock.patch.object(
        fileformat, "_read_table", ref_read_table
    ):
        return outcome(text)


# -- instance text -------------------------------------------------------


@st.composite
def instance_lines(draw):
    """Lines of a random instance with every kind, ext tables of arity 1-3
    and semiconvex tags, and the indices of its tuple lines."""
    k = draw(st.sampled_from([3, 10, 100, "inf"]))
    cap = 20 if k == "inf" else k
    n = draw(st.integers(1, 4))
    lines = ["# generated", "wcsp t", f"k {k}"]
    if draw(st.booleans()):
        lines.append(f"w0 {draw(st.integers(0, min(cap, 2)))}")
    doms = []
    for i in range(n):
        lb = draw(st.integers(-300, 300))
        doms.append((lb, lb + draw(st.integers(0, 3))))
        lines.append(f"var {i} {doms[i][0]} {doms[i][1]}")
    body = []
    kinds = ["ext"] * 4 + ["funceq", "antifuncneq", "monoleq", "linplus", "spacer"]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(kinds if n >= 2 else ["ext"]))
        if kind == "ext":
            r = draw(st.integers(1, min(3, n)))
            scope = draw(st.permutations(range(n)))[:r]
            grid = list(itertools.product(*(range(doms[v][0], doms[v][1] + 1) for v in scope)))
            tagged = r == 2 and draw(st.booleans())
            if tagged:
                # Rows that never fall along the tagged axis are semi-convex
                # in either order; the whole grid is listed.
                wrt = draw(st.sampled_from(scope))
                axis = scope.index(wrt)
                rows = {}
                for t in grid:
                    rows.setdefault(t[1 - axis], []).append(t)
                tuples = []
                for row in rows.values():
                    costs = sorted(draw(st.lists(st.integers(0, cap), min_size=len(row),
                                                 max_size=len(row))))
                    tuples += zip(row, costs)
            else:
                picked = draw(st.lists(st.sampled_from(grid), unique=True, max_size=len(grid)))
                tuples = [(t, draw(st.integers(0, cap))) for t in picked]
            default = draw(st.integers(0, cap))
            lines.append(f"fun ext {r} {' '.join(map(str, scope))} {default} {len(tuples)}")
            for t, c in tuples:
                body.append(len(lines))
                lines.append(" ".join(map(str, t)) + f" {c}")
            if tagged:
                order = draw(st.sampled_from(["asc", "desc"]))
                lines.append(f"tag semiconvex {wrt} {order}")
            continue
        i, j = draw(st.permutations(range(n)))[:2]
        if kind in ("funceq", "antifuncneq"):
            extra = draw(st.sampled_from(["", " 2 -1", " -1 3"]))
            lines.append(f"fun {kind} {i} {j} {draw(st.integers(1, cap))}{extra}")
        elif kind == "monoleq":
            lines.append(f"fun monoleq {i} {j} {draw(st.integers(-2, 2))} {draw(st.integers(0, cap))}")
        elif kind == "linplus":
            a, b, c = draw(st.tuples(*[st.integers(-2, 2)] * 3))
            lines.append(f"fun linplus {i} {j} {a} {b} {c}")
        else:
            d = sorted(draw(st.lists(st.integers(-5, 5), min_size=4, max_size=4)))
            lines.append(f"fun spacer {i} {j} {' '.join(map(str, d))} {draw(st.integers(1, 2))}")
    return lines, body


# Tokens int() refuses, and tokens it accepts although they are not plain
# ASCII digits (an underscore, a sign, a leading zero, an Arabic-Indic 3).
BAD_TOKENS = ["x", "1.5", "1_0", "+2", "07", "\u0663", "#", "2#c", "9" * 5000]
BREAKS = ["\n", "\r\n", "\r", "\x0c", "\x85", "\x0b", "\x1e", "\u2028"]


@st.composite
def perturbed_text(draw):
    lines, body = draw(instance_lines())
    lines = list(lines)
    ops = draw(st.lists(st.sampled_from(
        ["comment", "blank", "trailing", "token", "value", "cost", "duplicate", "tab"]
    ), max_size=3)) if body else []
    for op in ops:
        at = draw(st.sampled_from(body))
        toks = lines[at].split()
        if op == "comment":
            lines[at] = draw(st.sampled_from(["# note", "#", "  # x"])) + "\n" + lines[at]
        elif op == "blank":
            lines[at] = draw(st.sampled_from(["", "  ", "\t"])) + "\n" + lines[at]
        elif op == "trailing":
            lines[at] += draw(st.sampled_from([" # c", "#c", " #"]))
        elif op == "tab":
            lines[at] = "\t".join(toks) + " "
        elif op == "token":
            pos = draw(st.integers(0, len(toks) - 1))
            how = draw(st.sampled_from(["replace", "insert", "drop"]))
            if how == "drop":
                del toks[pos]
            elif how == "insert":
                toks.insert(pos, draw(st.sampled_from(BAD_TOKENS)))
            else:
                toks[pos] = draw(st.sampled_from(BAD_TOKENS))
            lines[at] = " ".join(toks)
        elif op == "value":
            toks[draw(st.integers(0, len(toks) - 2))] = str(draw(st.integers(-305, 305)))
            lines[at] = " ".join(toks)
        elif op == "cost":
            toks[-1] = str(draw(st.sampled_from([-1, 101, 2**63, draw(st.integers(0, 30))])))
            lines[at] = " ".join(toks)
        else:
            other = lines[draw(st.sampled_from(body))].split()
            lines[at] = " ".join(other[:-1] + toks[-1:])
    # Re-split, so inserted lines are lines of their own before the cut.
    lines = "\n".join(lines).split("\n")
    if draw(st.booleans()):
        lines = lines[: draw(st.integers(0, len(lines)))]
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        breaks = ["\n"] * len(lines)
    return "".join(line + br for line, br in zip(lines, breaks))


BLOCKS = [1, 7, fileformat._BLOCK]


@settings(max_examples=400)
@given(
    text=perturbed_text(),
    chunk=st.sampled_from([1, 2, 3, fileformat._CHUNK]),
    block=st.sampled_from(BLOCKS),
)
def test_parser_matches_eager_per_line_reference(text, chunk, block):
    with mock.patch.object(fileformat, "_CHUNK", chunk), mock.patch.object(
        fileformat, "_BLOCK", block
    ):
        got = outcome(text)
    assert got == reference_outcome(text)


@pytest.mark.parametrize("block", BLOCKS)
def test_lines_are_cut_as_splitlines_cuts(block):
    text = "a\r\nb\rc\x85d\u2028e\n\nf\r\n\r\ng\x0ch"
    lines = fileformat._Lines(text)
    got = []
    with mock.patch.object(fileformat, "_BLOCK", block):
        while (item := lines.next()) is not None:
            got.append(item)
    assert got == [(n, [t]) for n, t in enumerate(text.splitlines(), 1) if t]


@pytest.mark.parametrize("block", BLOCKS)
def test_error_line_past_a_block_boundary(block):
    # Mixed line ends; only "\n" may end a block, and line 9 lies past at
    # least two of them whatever the block size.
    text = "wcsp t\r\nk 9\rvar 0 0 2\x85fun ext 1 0 0 3\u2028# c\n0 1\n\r\n1 2\n3 4\n"
    with mock.patch.object(fileformat, "_BLOCK", block):
        with pytest.raises(ParseError) as err:
            parse_text(text)
    assert (err.value.lineno, err.value.message) == (9, "value 3 outside [0, 2]")
    assert reference_outcome(text) == ("parse", 9, "value 3 outside [0, 2]")


@settings(max_examples=100)
@given(lines=instance_lines())
def test_clean_instances_parse_identically(lines):
    text = "\n".join(lines[0]) + "\n"
    got = outcome(text)
    assert got[0] == "ok", got
    assert got == reference_outcome(text)


ENDS = ["\n", "\r\n", "\r", "\x85", "\u2028"]


def _bulk_read(body, chunk, block, tail="var 2 0 0\n", mixed=False):
    # With `mixed`, the body's lines end in turn with each line break.
    ends = ENDS if mixed else ["\n"]
    head = "wcsp t\nk 9\nvar 0 0 2\nvar 1 0 2\nfun ext 2 0 1 0 3\n"
    text = head + "".join(line + ends[i % len(ends)] for i, line in enumerate(body)) + tail
    lines = fileformat._Lines(text)
    table = {}
    with mock.patch.object(fileformat, "_CHUNK", chunk), mock.patch.object(
        fileformat, "_BLOCK", block
    ):
        for _ in range(5):
            lines.next()
        done = fileformat._bulk_rows(lines, 3, [(0, 2), (0, 2)], 9, table, None)
        return done, table, lines.pos, lines.next()


@pytest.mark.parametrize("mixed", [False, True], ids=["lf", "mixed-ends"])
@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("chunk", [1, 2, fileformat._CHUNK])
def test_bulk_reader_consumes_valid_chunks_only(chunk, block, mixed):
    done, table, pos, after = _bulk_read(["0 0 1", "1 2 3", "2 1 9"], chunk, block, mixed=mixed)
    assert done == 3 and table == {(0, 0): 1, (1, 2): 3, (2, 1): 9}
    assert after == (9, ["var", "2", "0", "0"])
    # (body, index of its first bad line); the trailing `var` line is
    # read as the third tuple line when the body is one line short.
    for body, bad in (
        (["0 0 1", "# c", "2 1 9"], 1),
        (["0 0 1", "", "2 1 9"], 1),
        (["0 0 1", "1 2 3 # c", "2 1 9"], 1),
        (["0 0 1", "1 x 3", "2 1 9"], 1),
        (["0 0 1", "1 2", "2 1 9"], 1),
        (["0 0 1", "1 3 3", "2 1 9"], 1),
        (["0 0 1", "1 2 10", "2 1 9"], 1),
        (["0 0 1", "1 2 -1", "2 1 9"], 1),
        (["0 0 1", "0 0 3", "2 1 9"], 1),
        (["0 0 1", "1 2 3", "0 0 9"], 2),
        (["0 0 1", "1 2 3"], 2),
    ):
        done, table, pos, after = _bulk_read(body, chunk, block, mixed=mixed)
        whole = bad // chunk * chunk  # lines in the valid chunks before it
        assert (done, pos, len(table)) == (whole, 5 + whole, whole), body
    done, table, pos, after = _bulk_read(["0 0 1", "1 2 3"], chunk, block, tail="", mixed=mixed)
    assert done == 2 // chunk * chunk


# -- check_function --------------------------------------------------------


def ref_check_table(fn, bounds, val):
    """The per-tuple `ExtTable` check, without the semi-convexity part."""
    check_cost(fn.kind.default, val)
    for values, c in fn.kind.table.items():
        if len(values) != fn.arity:
            raise ContractError(f"tuple {values} does not match arity {fn.arity}")
        for w, v in zip(values, fn.scope):
            lo, hi = bounds[v]
            if not lo <= w <= hi:
                raise ContractError(f"tuple value {w} outside [{lo}, {hi}] of variable {v}")
        check_cost(c, val)


def checked(check, fn, bounds, val):
    try:
        check(fn, bounds, val)
        return "ok"
    except (SolverError, TypeError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def tables_with_bad_values(draw):
    k = draw(st.sampled_from([1, 5, 50, INFINITY]))
    r = draw(st.integers(1, 3))
    scope = tuple(draw(st.permutations(range(4)))[:r])
    bounds = {}
    for v in range(4):
        lo = draw(st.integers(-10**6, 10**6))
        bounds[v] = (lo, lo + draw(st.integers(0, 5)))
    cost = st.integers(0, min(k, 60))
    keys = st.tuples(*[st.integers(*bounds[v]) for v in scope])
    table = draw(st.dictionaries(keys, cost, max_size=12))
    bad = draw(st.lists(st.one_of(
        st.tuples(st.just("value"), st.integers(0, r - 1), st.integers(-3, 3)),
        st.tuples(st.just("cost"), st.sampled_from([-1, -2, k + 1, 2**64]), st.none()),
        st.tuples(st.just("arity"), st.integers(0, 4), st.none()),
        st.tuples(st.just("type"), st.sampled_from(["1", None]), st.none()),
    ), max_size=3))
    items = list(table.items())
    for what, a, b in bad:
        if not items:
            break
        at = draw(st.integers(0, len(items) - 1))
        values, c = items[at]
        if what == "value":
            lo, hi = bounds[scope[a]]
            w = (lo if b < 0 else hi) + b
            items[at] = (values[:a] + (w,) + values[a + 1:], c)
        elif what == "cost":
            items[at] = (values, a)
        elif what == "arity":
            items[at] = ((values * 4)[:a], c)
        else:
            items[at] = (values, a)
    fn = CostFunction(scope=scope, kind=ExtTable(default=0, table=dict(items)))
    return fn, bounds, ValuationStructure(k)


@settings(max_examples=400)
@given(case=tables_with_bad_values())
def test_check_function_matches_per_tuple_reference(case):
    fn, bounds, val = case
    assert checked(check_function, fn, bounds, val) == checked(ref_check_table, fn, bounds, val)
