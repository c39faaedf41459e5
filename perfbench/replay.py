"""In-process replay of a workload's commands, with spans at the layer boundaries.

The replay calls ``bilip.cli.main`` with each command's arguments, so every
``cmd_*`` function runs exactly as the CLI runs it.  For a traced replay the
module-level names that the CLI and the library look up at call time are
swapped, from outside, for wrappers that record a span around the call:

* the names ``cli`` imported from ``serialize``, ``maps``, ``distortion``
  and ``cones``, and the ``fixtures`` and ``verify`` functions it reaches
  through their modules;
* the pointwise transforms ``maps`` calls inside ``invert_map`` and
  ``compactify_map``, the scalar identities ``verify`` loops over, and the
  Hausdorff distance ``verify_cone_exchange`` calls.

Nothing under ``src/`` changes; every swapped name is restored on exit.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
import tracemalloc

import gates
from spans import Recorder, Span


def _size(path) -> int:
    return os.path.getsize(path)


def _map_bytes(path) -> int:
    from bilip.serialize import sidecar_path

    return _size(path) + _size(sidecar_path(path))


def _estimate_name(m, strategy=None, *rest, **kw) -> str:
    from bilip.distortion import SeededRandom

    kind = "random" if isinstance(strategy, SeededRandom) else "all"
    return f"distortion.estimate_bilip.{kind}"


def _estimate_counts(report, m, strategy=None, *rest, **kw) -> dict:
    from bilip.distortion import SeededRandom

    n = m.n_pairs
    attempted = strategy.samples if isinstance(strategy, SeededRandom) else n * (n - 1) // 2
    return {"attempted": attempted, "evaluated": report.pairs_evaluated,
            "skipped": report.pairs_skipped}


def _suite_counts(result, *args, **kw) -> dict:
    gated = sum(c["tolerance"] is not None for c in result["checks"])
    return {"gated": gated, "informational": len(result["checks"]) - gated}


def _patches(rec: Recorder) -> list[tuple[object, str, object]]:
    """(module, attribute, traced replacement) for every swapped name."""
    from bilip import cli, cones, fixtures, maps, verify

    rows_in = lambda r, *a, **k: {"rows": len(r)}  # noqa: E731
    table = [
        (cli, "load_map", "serialize.load_map",
         lambda r, path, *a, **k: {"rows": r.n_pairs, "bytes": _map_bytes(path)}),
        (cli, "save_map", "serialize.save_map",
         lambda r, m, path, *a, **k: {"rows": m.n_pairs, "bytes": _map_bytes(path)}),
        (cli, "load_cloud", "serialize.load_cloud",
         lambda r, path, *a, **k: {"rows": len(r), "bytes": _size(path)}),
        (cli, "save_cloud", "serialize.save_cloud",
         lambda r, c, path, *a, **k: {"rows": len(c), "bytes": _size(path)}),
        (cli, "dumps_report", "serialize.dumps_report", None),
        (cli, "invert_map", "maps.invert_map", None),
        (cli, "compactify_map", "maps.compactify_map", None),
        (cli, "restrict_map", "maps.restrict_map", None),
        (cli, "estimate_bilip", _estimate_name, _estimate_counts),
        (cli, "verify_cone_exchange", "cones.verify_cone_exchange", None),
        (cli, "asymptotic_directions", "cones.asymptotic_directions", None),
        (fixtures, "map_samples", "fixtures.map_samples", None),
        (fixtures, "cloud", "fixtures.cloud", None),
        (verify, "run_suite", lambda name, *a, **k: f"verify.run_suite.{name}", _suite_counts),
        (verify, "inverted_distance_residual", "geometry.inverted_distance_residual", None),
        (verify, "law_of_cosines_residual", "geometry.law_of_cosines_residual", None),
        (verify, "inversion_derivative_norm", "geometry.inversion_derivative_norm", None),
        (maps, "invert", "geometry.invert", rows_in),
        (maps, "stereo_embed", "geometry.stereo_embed", rows_in),
        (cones, "angular_hausdorff", "cones.angular_hausdorff",
         lambda r, a, b, *x, **k: {"comparisons": 2 * len(a) * len(b)}),
    ]
    return [(mod, attr, rec.wrap(getattr(mod, attr), name, count))
            for mod, attr, name, count in table]


@contextlib.contextmanager
def traced(rec: Recorder):
    patches = _patches(rec)
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


@contextlib.contextmanager
def _cwd(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def replay(argvs, workdir, rec: Recorder | None = None, tag: str = "") -> tuple[float, list]:
    """Run each argv through ``bilip.cli.main`` in ``workdir``.

    Returns the wall time of the whole replay and each command's
    (exit code, stdout).  With a recorder, the names are traced and each
    command gets a root span ``cli.<command>`` and its own command id.
    """
    from bilip import cli

    outputs = []
    with _cwd(workdir), (traced(rec) if rec else contextlib.nullcontext()):
        start = time.perf_counter()
        for i, argv in enumerate(argvs):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if rec is None:
                    code = cli.main(list(argv))
                else:
                    rec.command = f"{tag}{i}:{argv[0]}"
                    code = rec.call(f"cli.{argv[0]}", cli.main, (list(argv),))
            outputs.append((code, buf.getvalue().encode()))
        elapsed = time.perf_counter() - start
    return elapsed, outputs


def allpairs_peak_mb(argvs, workdir) -> float:
    """Largest tracemalloc peak of an all-pairs ``estimate_bilip`` call in the commands.

    Measured in its own replay, so tracemalloc's cost stays out of the timed spans.
    """
    from bilip import cli
    from bilip.distortion import SeededRandom

    inner = cli.estimate_bilip
    peaks = [0]

    def measured(m, strategy=None, *args, **kwargs):
        if isinstance(strategy, SeededRandom):
            return inner(m, strategy, *args, **kwargs)
        tracemalloc.start()
        try:
            return inner(m, strategy, *args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    commands = [argv for argv in argvs if argv[0] == "distortion"]
    cli.estimate_bilip = measured
    try:
        replay(commands, workdir)
    finally:
        cli.estimate_bilip = inner
    return max(peaks) / 2**20


def layer_metrics(spans: list[Span], setup_spans: list[Span], outputs: list,
                  argvs) -> dict[str, float]:
    """The per-layer metrics of one traced replay (and its traced set-up)."""

    def pick(name, pool=spans):
        """Spans called ``name``, or named below it (``name.<suffix>``)."""
        return [s for s in pool if s.name == name or s.name.startswith(name + ".")]

    def busy(name, pool=spans):
        return sum(s.duration for s in pick(name, pool))

    def total(name, key):
        return sum(s.counts[key] for s in pick(name))

    def per_s(name, key):
        return total(name, key) / busy(name)

    def us_per_call(name):
        return 1e6 * busy(name) / len(pick(name))

    m = {
        "serialize.load_map.busy_s": busy("serialize.load_map"),
        "serialize.load_map.rows_per_s": per_s("serialize.load_map", "rows"),
        "serialize.save_map.busy_s": busy("serialize.save_map"),
        "serialize.save_map.rows_per_s": per_s("serialize.save_map", "rows"),
        "serialize.load_cloud.busy_s": busy("serialize.load_cloud"),
        "serialize.bytes_read": total("serialize.load_map", "bytes")
        + total("serialize.load_cloud", "bytes"),
        "serialize.bytes_written": total("serialize.save_map", "bytes")
        + total("serialize.save_cloud", "bytes"),
        "serialize.dumps_report.busy_s": busy("serialize.dumps_report"),
        "distortion.estimate_bilip.all.busy_s": busy("distortion.estimate_bilip.all"),
        "distortion.estimate_bilip.random.busy_s": busy("distortion.estimate_bilip.random"),
        "distortion.pairs_per_s": per_s("distortion.estimate_bilip", "attempted"),
        "distortion.pairs_evaluated": total("distortion.estimate_bilip", "evaluated"),
        "distortion.pairs_skipped": total("distortion.estimate_bilip", "skipped"),
        "distortion.useful_ratio": total("distortion.estimate_bilip", "evaluated")
        / total("distortion.estimate_bilip", "attempted"),
        "geometry.inverted_distance_residual.us_per_call":
            us_per_call("geometry.inverted_distance_residual"),
        "geometry.law_of_cosines_residual.us_per_call":
            us_per_call("geometry.law_of_cosines_residual"),
        "geometry.inversion_derivative_norm.us_per_call":
            us_per_call("geometry.inversion_derivative_norm"),
        "verify.checks_gated": total("verify.run_suite", "gated"),
        "verify.checks_informational": total("verify.run_suite", "informational"),
        "geometry.invert.rows_per_s": per_s("geometry.invert", "rows"),
        "geometry.stereo_embed.rows_per_s": per_s("geometry.stereo_embed", "rows"),
        "maps.invert_map.busy_s": busy("maps.invert_map"),
        "maps.compactify_map.busy_s": busy("maps.compactify_map"),
        "maps.restrict_map.busy_s": busy("maps.restrict_map"),
        "cones.verify_cone_exchange.busy_s": busy("cones.verify_cone_exchange"),
        "cones.angular_hausdorff.busy_s": busy("cones.angular_hausdorff"),
        "cones.angular_hausdorff.comparisons": total("cones.angular_hausdorff", "comparisons"),
        "fixtures.map_samples.busy_s": busy("fixtures.map_samples", setup_spans),
        "fixtures.cloud.busy_s": busy("fixtures.cloud", setup_spans),
    }
    for suite in ("identities", "cube-bound", "compactify-iff", "cone-exchange"):
        m[f"verify.run_suite.{suite}.busy_s"] = busy(f"verify.run_suite.{suite}")
    gaps = [gates.shell_gap_log(gates.parse_report(out)[0])
            for argv, (_, out) in zip(argvs, outputs) if argv[0] == "cones"]
    m["cones.shell_gap_log"] = min(gaps)
    return m
