"""The traced benchmark wraps functions by the names callers look them up
under (``bench/tracing.py``, ``TARGETS``).  A rename in the package would
only show when the traced benchmark runs; here every site must resolve."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name", sorted(tracing.TARGETS))
def test_every_site_resolves(name):
    functions = []
    for site in tracing.TARGETS[name]:
        owner, attr = tracing._site(site)
        assert hasattr(owner, attr), site
        functions.append(getattr(owner, attr))
    assert all(callable(f) for f in functions)
    # the tracer wraps all sites of a name with one wrapper of one function
    assert all(f is functions[0] for f in functions), name
