"""Line-oriented instance text format.

Grammar (one directive per line, '#' starts a comment):

    wcsp <name>                          header; implies format version 1
    k <int|inf>                          top cost, before any w0/fun line
    w0 <int>                             constant term (optional, default 0)
    var <id> <lb> <ub>                   ids must appear as 0, 1, 2, ...
    fun ext <r> <ids...> <default> <t>   followed by t lines "<v...> <cost>"
    fun funceq <i> <j> <alpha> [p q]     zero cost iff v_j == p*v_i + q
    fun antifuncneq <i> <j> <alpha> [p q]
    fun monoleq <i> <j> <delta> <alpha>
    fun linplus <i> <j> <a> <b> <c>
    fun spacer <i> <j> <d1> <d2> <d3> <d4> <slope>
    tag semiconvex <var-id> <asc|desc>   applies to the preceding ext fun

Parsing is strict: unknown directives, duplicate or out-of-order variable
ids, tuple values outside the declared interval and costs outside [0, k]
are all reported with their line number. The parameters of a non-table
kind are the fields of its `costfn` class in field order, found through
`costfn.KINDS` by directive name; the kind checks them and writes its own
text, and a failed check is reported on the `fun` line. As every check
that `Instance` construction makes is made here on its line, the parsed
instance is built without making them again.

Lines are cut as `str.splitlines` cuts them, one block of text at a time,
and tokenized on demand, one logical line per directive, so neither a list
of every line nor a token list of the whole file is ever built. Table
bodies are read in bulk, a chunk of lines at a time: a chunk's lines are
converted to integers together and checked one column at a time. From the
first chunk that fails a check (a comment or blank line inside it, a bad
token, a value or cost out of range, a repeated tuple, an early end of
file) the body is read line by line, so every error still names its line
and says what is wrong with it. Both readers store each key through one
`costfn.KeyPool` per instance, so the tables of a parsed instance share
each distinct key tuple.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, fields, replace
from typing import List, Optional, Tuple

from .core import (
    INFINITY,
    ContractError,
    Domain,
    ParseError,
    ValuationStructure,
    Variable,
)
from .costfn import KINDS, CostFunction, ExtTable, KeyPool
from .network import Instance

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


def _int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"{what} must be an integer, got {tok!r}")


# Text is split into lines a block at a time: at least this many characters,
# up to and including the next "\n".
_BLOCK = 1 << 15


class _Lines:
    """Cursor over the lines of a text, cut exactly as `str.splitlines` cuts.

    The text is split one block at a time, each cut just after a "\n", where
    `splitlines` of the whole text cuts too, so the lines of the whole text
    are never held at once. `next` tokenizes one logical (non-empty,
    comment-stripped) line per call, so no token list outlives its
    directive; `peek` and `skip` let the table reader take whole chunks of
    a body at once.
    """

    def __init__(self, text: str):
        self.text = text
        self.cut = 0  # offset of the first character not yet split
        self.block: List[str] = []  # split lines; those from `at` on are unread
        self.at = 0
        self.pos = 0  # lines read; the next one's number is pos + 1

    def _split_block(self) -> bool:
        """Appends the next block's lines to the unread ones; False at the end."""
        text, cut = self.text, self.cut
        if cut >= len(text):
            return False
        end = text.find("\n", cut + _BLOCK - 1) + 1 or len(text)
        self.block = self.block[self.at :] + text[cut:end].splitlines()
        self.at = 0
        self.cut = end
        return True

    def next(self) -> Optional[Tuple[int, List[str]]]:
        while self.at < len(self.block) or self._split_block():
            line = self.block[self.at]
            self.at += 1
            self.pos += 1
            toks = line.split("#", 1)[0].split()
            if toks:
                return self.pos, toks
        return None

    def peek(self, n: int) -> List[str]:
        """The next `n` lines, unread, or as many as the text has left."""
        while len(self.block) - self.at < n and self._split_block():
            pass
        return self.block[self.at : self.at + n]

    def skip(self, n: int) -> None:
        """Reads past `n` lines that `peek` returned."""
        self.at += n
        self.pos += n


def parse_text(text: str) -> Instance:
    lines = _Lines(text)
    first = lines.next()
    if first is None:
        raise ParseError(1, "empty instance: expected a 'wcsp <name>' header")
    lineno, toks = first
    if toks[0] != "wcsp" or len(toks) != 2 or not _NAME_RE.match(toks[1]):
        raise ParseError(lineno, "expected header 'wcsp <name>'")
    name = toks[1]

    val: Optional[ValuationStructure] = None
    w_zero = 0
    saw_w0 = False
    variables: List[Variable] = []
    functions: List[CostFunction] = []
    pool = KeyPool()  # dropped with this frame, once the instance is built

    def need_val(lineno: int) -> ValuationStructure:
        if val is None:
            raise ParseError(lineno, "k must be declared before this line")
        return val

    def var_interval(vid: int, lineno: int) -> Tuple[int, int]:
        if not 0 <= vid < len(variables):
            raise ParseError(lineno, f"unknown variable id {vid}")
        d = variables[vid].domain
        return d.lb, d.ub

    while True:
        item = lines.next()
        if item is None:
            break
        lineno, toks = item
        head = toks[0]
        if head == "k":
            if val is not None:
                raise ParseError(lineno, "duplicate k directive")
            if len(toks) != 2:
                raise ParseError(lineno, "expected 'k <int|inf>'")
            if toks[1] == "inf":
                val = ValuationStructure(INFINITY)
            else:
                k = _int(toks[1], lineno, "k")
                if k < 1:
                    raise ParseError(lineno, f"k must be at least 1, got {k}")
                if k >= INFINITY:
                    raise ParseError(lineno, "finite k must stay below the infinity sentinel")
                val = ValuationStructure(k)
        elif head == "w0":
            if saw_w0:
                raise ParseError(lineno, "duplicate w0 directive")
            if len(toks) != 2:
                raise ParseError(lineno, "expected 'w0 <int>'")
            w_zero = _int(toks[1], lineno, "w0")
            v = need_val(lineno)
            if not 0 <= w_zero <= v.k:
                raise ParseError(lineno, f"w0 {w_zero} outside [0, {v.k}]")
            saw_w0 = True
        elif head == "var":
            if len(toks) != 4:
                raise ParseError(lineno, "expected 'var <id> <lb> <ub>'")
            vid = _int(toks[1], lineno, "variable id")
            lb = _int(toks[2], lineno, "lb")
            ub = _int(toks[3], lineno, "ub")
            if vid != len(variables):
                raise ParseError(
                    lineno,
                    f"variable ids must appear in order; expected {len(variables)}, got {vid}",
                )
            if lb > ub:
                raise ParseError(lineno, f"empty interval [{lb}, {ub}]")
            variables.append(Variable(vid, Domain(lb, ub)))
        elif head == "fun":
            if len(toks) < 2:
                raise ParseError(lineno, "truncated fun directive")
            functions.append(
                _parse_fun(lines, lineno, toks, need_val(lineno), var_interval, pool)
            )
        elif head == "tag":
            _apply_tag(functions, lineno, toks, need_val(lineno), variables)
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")

    if val is None:
        raise ParseError(1, "missing k directive")
    # Each check of `Instance` was made on its line above; making them again
    # would re-scan every table and re-validate every semi-convex tag.
    return Instance(name, val, variables, functions, w_zero, _prechecked=True)


def _parse_fun(lines, lineno, toks, val, var_interval, pool) -> CostFunction:
    sub = toks[1]
    args = toks[2:]
    if sub == "ext":
        if len(args) < 3:
            raise ParseError(lineno, "expected 'fun ext <r> <ids...> <default> <t>'")
        r = _int(args[0], lineno, "arity")
        if r < 1:
            raise ParseError(lineno, f"arity must be at least 1, got {r}")
        if len(args) != r + 3:
            raise ParseError(lineno, f"expected {r} variable ids, a default and a tuple count")
        scope = tuple(_int(t, lineno, "variable id") for t in args[1 : r + 1])
        if len(set(scope)) != r:
            raise ParseError(lineno, f"scope {scope} repeats a variable")
        intervals = [var_interval(v, lineno) for v in scope]
        default = _int(args[r + 1], lineno, "default cost")
        if not 0 <= default <= val.k:
            raise ParseError(lineno, f"default cost {default} outside [0, {val.k}]")
        count = _int(args[r + 2], lineno, "tuple count")
        if count < 0:
            raise ParseError(lineno, f"tuple count must be at least 0, got {count}")
        table = _read_table(lines, lineno, count, intervals, val.k, pool)
        return CostFunction(scope=scope, kind=ExtTable(default=default, table=table))

    cls = KINDS.get(sub)
    if cls is None:
        raise ParseError(lineno, f"unknown function kind {sub!r}")
    params = fields(cls)
    required = [f.name for f in params if f.default is MISSING]
    optional = [f.name for f in params if f.default is not MISSING]
    usage = " ".join([f"fun {sub} <i> <j>"] + [f"<{name}>" for name in required])
    if optional:
        usage += f" [{' '.join(optional)}]"
    if len(args) < 2 + len(required):
        raise ParseError(lineno, f"expected '{usage}'")
    scope = (_int(args[0], lineno, "variable id"), _int(args[1], lineno, "variable id"))
    bounds = {v: var_interval(v, lineno) for v in scope}
    if scope[0] == scope[1]:
        raise ParseError(lineno, "binary function needs two distinct variables")
    if len(args) not in (2 + len(required), 2 + len(params)):
        raise ParseError(lineno, f"expected '{usage}'")
    kind = cls(*(_int(tok, lineno, f.name) for tok, f in zip(args[2:], params)))
    try:
        kind.check(scope, bounds, val)
    except ContractError as exc:
        raise ParseError(lineno, str(exc))
    return CostFunction(scope=scope, kind=kind)


# Table bodies are read in bulk this many lines at a time, which bounds the
# token strings and integer columns alive at once.
_CHUNK = 4096


def _read_table(
    lines: _Lines, lineno: int, count: int, intervals, k: int, pool: KeyPool
) -> dict:
    """The `count` tuple lines after a `fun ext` line, as a table whose keys
    go through `pool`.

    Whole chunks of the body are read in bulk while each one is exactly its
    lines' worth of r + 1 in-range integers and repeats no tuple. The rest of
    the body, from the first chunk that fails (a comment, a blank line, a bad
    token, a value out of range, a repeated tuple, an early end), is read
    line by line. The chunks before it hold no fault, so that loop names the
    same line with the same message as reading the whole body line by line.
    """
    table: dict = {}
    keys = pool.start(table)
    done = _bulk_rows(lines, count, intervals, k, table, keys)
    r = len(intervals)
    for _ in range(count - done):
        item = lines.next()
        if item is None:
            raise ParseError(lineno, f"expected {count} tuple lines, file ended early")
        tl, ttoks = item
        if len(ttoks) != r + 1:
            raise ParseError(tl, f"expected {r} values and a cost")
        values = tuple(_int(t, tl, "value") for t in ttoks[:r])
        cost = _int(ttoks[r], tl, "cost")
        for w, (lo, hi) in zip(values, intervals):
            if not lo <= w <= hi:
                raise ParseError(tl, f"value {w} outside [{lo}, {hi}]")
        if not 0 <= cost <= k:
            raise ParseError(tl, f"cost {cost} outside [0, {k}]")
        if values in table:
            raise ParseError(tl, f"duplicate tuple {values}")
        table[values if keys is None else keys.setdefault(values, values)] = cost
    return table


def _bulk_rows(
    lines: _Lines, count: int, intervals, k: int, table: dict, keys: Optional[dict]
) -> int:
    """Adds the valid whole chunks that start the next `count` lines to
    `table`, checked one column at a time, and returns how many lines that
    consumed. Keys are stored through `keys` (`KeyPool.start`) when it is
    not None. A chunk's text is held only until the reader moves past its
    block.
    """
    r1 = len(intervals) + 1
    ranges = intervals + [(0, k)]
    done = 0
    while done < count:
        n = min(_CHUNK, count - done)
        chunk = lines.peek(n)
        if len(chunk) < n:
            break  # the file ends inside the body
        if set(map(len, map(str.split, chunk))) != {r1}:
            break
        try:
            ints = list(map(int, " ".join(chunk).split()))
        except ValueError:
            break
        cols = [ints[i::r1] for i in range(r1)]
        if any(min(col) < lo or max(col) > hi for col, (lo, hi) in zip(cols, ranges)):
            break
        ks = list(zip(*cols[:-1]))
        part = dict(zip(ks if keys is None else map(keys.setdefault, ks, ks), cols[-1]))
        if len(part) < n or not part.keys().isdisjoint(table.keys()):
            break  # a repeated tuple
        table.update(part)
        lines.skip(n)
        done += n
    return done


def _apply_tag(functions, lineno, toks, val, variables) -> None:
    if len(toks) != 4 or toks[1] != "semiconvex" or toks[3] not in ("asc", "desc"):
        raise ParseError(lineno, "expected 'tag semiconvex <var-id> <asc|desc>'")
    if not functions:
        raise ParseError(lineno, "tag with no preceding function")
    fn = functions[-1]
    if not isinstance(fn.kind, ExtTable):
        raise ParseError(lineno, "semiconvex tags apply to extensional functions")
    if fn.kind.semiconvex is not None:
        raise ParseError(lineno, "function already carries a semiconvex tag")
    wrt = _int(toks[2], lineno, "variable id")
    kind = replace(fn.kind, semiconvex=(wrt, toks[3]))
    # The tagged table checks its own scope, axis and contiguity; a failure
    # is reported on the tag line.
    bounds = {v: (variables[v].domain.lb, variables[v].domain.ub) for v in fn.scope}
    try:
        kind.check(fn.scope, bounds, val)
    except ContractError as exc:
        raise ParseError(lineno, str(exc))
    functions[-1] = replace(fn, kind=kind)


def parse_path(path: str) -> Instance:
    return parse_text(_read_utf8(path))


def _read_utf8(path: str) -> str:
    # The bytes die when this returns, before parsing starts.
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The prefix before the first bad byte decodes; count its lines the
        # way parse_text does.
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(
            lineno, f"byte 0x{data[exc.start]:02x} is not valid UTF-8 ({exc.reason})"
        ) from None


def emit(inst: Instance) -> str:
    """Canonical text for an instance; parsing it back yields an equal one."""
    out = [f"wcsp {inst.name}"]
    k = inst.valuation.k
    out.append(f"k {'inf' if k == INFINITY else k}")
    if inst.w_zero:
        out.append(f"w0 {inst.w_zero}")
    for v in inst.variables:
        out.append(f"var {v.id} {v.domain.lb} {v.domain.ub}")
    out.extend(fn.kind.text(fn.scope) for fn in inst.functions)
    return "\n".join(out) + "\n"
