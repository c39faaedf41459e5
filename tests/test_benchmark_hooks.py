"""The names the benchmark's traced replay swaps must exist in the package.

``perfbench/replay.py`` wraps module-level names of ``bilip`` (such as
``cli.asymptotic_directions`` or ``maps.invert``) to time each layer.  A
change that drops or renames one of them would break only a traced
benchmark run; building the replay's table here makes it fail the tests.
"""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_swapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import replay
    import spans

    patches = replay._patches(spans.Recorder())  # looks up every name it swaps
    assert patches
    for module, attr, traced in patches:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"
        assert traced.__wrapped__ is getattr(module, attr)
