"""The library entry points the benchmark's tracer patches stay in place.

``perfbench/spans.py`` wraps each ``(module, path)`` of its layer map by
replacing ``owner.__dict__[attr]``; an entry point that is renamed,
moved or only inherited makes every traced fit raise. This reads the
benchmark's files and changes none of them.
"""
import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        yield importlib.import_module("spans")
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _entries(spans):
    return [(m, p) for m, p, _ in spans.LAYERS + spans.SPARK_CALLS]


def test_every_patch_point_is_defined_on_its_owner(spans):
    for module, path in _entries(spans):
        owner, attr = _owner(module, path)
        assert attr in owner.__dict__, f"{module}.{path} is not defined on its owner"
        assert callable(owner.__dict__[attr])


def test_tracer_round_trip_restores_originals(spans):
    from repro.core import messages

    entries = _entries(spans)
    before = [_owner(m, p)[0].__dict__[_owner(m, p)[1]] for m, p in entries]
    engine_init = messages.MessageEngine.__dict__["__init__"]
    with spans.Tracer():
        patched = [_owner(m, p)[0].__dict__[_owner(m, p)[1]] for m, p in entries]
        assert all(a is not b for a, b in zip(before, patched))
        assert messages.MessageEngine.__dict__["__init__"] is not engine_init
    after = [_owner(m, p)[0].__dict__[_owner(m, p)[1]] for m, p in entries]
    assert all(a is b for a, b in zip(before, after))
    assert messages.MessageEngine.__dict__["__init__"] is engine_init
