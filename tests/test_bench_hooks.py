"""The entry points the benchmark's tracer wraps stay in place.

`perfbench/tracer.py` patches module attributes by name (the resume
functions as `search` calls them, the trail's `mark` and `undo_to`, the CLI's
enforcers). A refactor that renames or bypasses one of them would leave the
traced run without its spans or counters; these tests run the tracer itself.
"""

import importlib.util
from pathlib import Path

import pytest

import softbounds.cli
import softbounds.fileformat
import softbounds.propagation
import softbounds.search
from softbounds.generators import gen_random
from softbounds.fileformat import emit
from softbounds.search import SearchOptions, solve

ALL = ("nc", "ac", "bac", "bac0")


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched_names():
    prop = softbounds.propagation
    search = softbounds.search
    cli = softbounds.cli
    names = [
        (prop, "min_over_box_pinned"),
        (prop, "min_over_box"),
        (prop, "raw_cost"),
        (search, "raw_cost"),
        (prop.PropState, "undo_to"),
        (prop.PropState, "mark"),
        (search, "PropState"),
        (search, "resume_bounds"),
        (search, "resume_values"),
        (cli, "PropState"),
        (cli, "parse_path"),
        (cli, "search_solve"),
        (softbounds.fileformat, "Instance"),
    ]
    return [(owner, attr, getattr(owner, attr)) for owner, attr in names]


@pytest.fixture
def tracer():
    t = _load_tracer().Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_uninstall_restores_every_original():
    before = _patched_names()
    enforcers = dict(softbounds.cli.ENFORCERS)
    t = _load_tracer().Tracer()
    t.install()
    try:
        for owner, attr, orig in before:
            assert getattr(owner, attr) is not orig, attr
        for name, orig in enforcers.items():
            assert softbounds.cli.ENFORCERS[name] is not orig, name
    finally:
        t.uninstall()
    for owner, attr, orig in before:
        assert getattr(owner, attr) is orig, attr
    assert softbounds.cli.ENFORCERS == enforcers


@pytest.mark.parametrize("consistency", ALL)
def test_solve_records_resume_and_undo(tracer, consistency):
    inst = gen_random(n=5, d=5, e=6, tightness=0.6, max_cost=3, seed=4)
    result = solve(inst, SearchOptions(consistency=consistency))
    assert result.status == "optimal" and result.nodes > 1
    assert any(span[0] == "resume" for span in tracer.spans)
    assert tracer.counts["undo"] > 0
    assert tracer.peaks["search.trail_peak"] > 0


def test_cli_propagate_records_spans(tracer, tmp_path, capsys):
    path = tmp_path / "r.wcsp"
    path.write_text(emit(gen_random(n=5, d=5, e=6, seed=4)))
    assert softbounds.cli.main(["propagate", str(path), "--json"]) in (0, 1)
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    assert {"parse", "validate", "state_build", "enforce.bac0"} <= names
