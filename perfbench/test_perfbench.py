"""Tests of the benchmark's own logic: span arithmetic, metric names and output gates."""

import json
import pathlib

import numpy as np
import pytest

import gates
import replay
import run
import spans
import workloads

SPEC = json.loads((pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def span(id, name, start, end, parent=None, **counts):
    return spans.Span(id, name, start, end, parent, "c0", counts)


class TestSelfTime:
    def test_children_and_grandchildren(self):
        tree = [
            span(0, "root", 0.0, 10.0),
            span(1, "a", 1.0, 4.0, parent=0),
            span(2, "a.inner", 2.0, 3.0, parent=1),
            span(3, "b", 5.0, 9.0, parent=0),
        ]
        own = spans.self_times(tree)
        assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}

    def test_overlapping_children_count_once_and_clip_to_parent(self):
        tree = [
            span(0, "root", 0.0, 10.0),
            span(1, "x", 2.0, 6.0, parent=0),
            span(2, "y", 4.0, 8.0, parent=0),
            span(3, "z", 9.0, 12.0, parent=0),
        ]
        assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_recorder_nests_wrapped_calls(self):
        rec = spans.Recorder()
        inner = rec.wrap(lambda x: x + 1, "inner", count=lambda r, x: {"rows": r})
        outer = rec.wrap(lambda x: inner(x) * 2, lambda x: f"outer.{x}")
        rec.command = "r0.0:test"
        assert outer(3) == 8
        by_name = {s.name: s for s in rec.spans}
        assert by_name["inner"].parent == by_name["outer.3"].id
        assert by_name["outer.3"].parent is None
        assert by_name["inner"].counts == {"rows": 4}
        assert {s.command for s in rec.spans} == {"r0.0:test"}
        summary = spans.summary(rec.spans)
        outer_row = summary["outer.3"]
        assert outer_row["self_s"] == pytest.approx(outer_row["total_s"] - summary["inner"]["total_s"])


def _synthetic_layer_spans():
    """One span per traced name, each lasting 0.5 s, with the counts its wrapper records."""
    named = [
        ("serialize.load_map", {"rows": 10, "bytes": 100}),
        ("serialize.save_map", {"rows": 10, "bytes": 100}),
        ("serialize.load_cloud", {"rows": 5, "bytes": 50}),
        ("serialize.save_cloud", {"rows": 5, "bytes": 50}),
        ("serialize.dumps_report", {}),
        ("distortion.estimate_bilip.all", {"attempted": 45, "evaluated": 44, "skipped": 1}),
        ("distortion.estimate_bilip.random", {"attempted": 55, "evaluated": 50, "skipped": 0}),
        ("geometry.inverted_distance_residual", {}),
        ("geometry.law_of_cosines_residual", {}),
        ("geometry.inversion_derivative_norm", {}),
        ("geometry.invert", {"rows": 20}),
        ("geometry.stereo_embed", {"rows": 20}),
        ("maps.invert_map", {}),
        ("maps.compactify_map", {}),
        ("maps.restrict_map", {}),
        ("cones.verify_cone_exchange", {}),
        ("cones.angular_hausdorff", {"comparisons": 8}),
    ] + [(f"verify.run_suite.{s}", {"gated": 3, "informational": 1})
         for s in ("identities", "cube-bound", "compactify-iff", "cone-exchange")]
    pass_spans = [span(i, name, i, i + 0.5, **counts) for i, (name, counts) in enumerate(named)]
    setup_spans = [span(100, "fixtures.map_samples", 0.0, 0.5), span(101, "fixtures.cloud", 1.0, 1.5)]
    return pass_spans, setup_spans


def _cones_report(inner_max=0.5, outer_min=2.0, residual=1e-16):
    return {
        "command": "cones",
        "at_origin": {"count": 8, "radius_min": 0.1, "radius_max": inner_max},
        "at_infinity": {"count": 8, "radius_min": outer_min, "radius_max": 9.0},
        "exchange": {"infinity_to_origin": residual, "origin_to_infinity": 0.0},
    }


class TestMetricNames:
    def test_every_name_is_well_formed_and_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        assert len(names) == len(set(names))
        for name in names:
            assert spans.METRIC_NAME.fullmatch(name), name
            assert len(name) <= 64

    def test_layer_metrics_cover_the_per_layer_list(self):
        pass_spans, setup_spans = _synthetic_layer_spans()
        out = json.dumps(_cones_report()).encode()
        m = replay.layer_metrics(pass_spans, setup_spans, [(0, out)], [("cones", "x.csv")])
        passes = [(1.0, [run.Child(0.5, 0.25, 40.0, 0, b"", b"")] * len(workloads.TIMED_COMMANDS))]
        wl = workloads.Workload("t", (), tuple(workloads.Command((c,)) for c in workloads.TIMED_COMMANDS))
        m.update(run.cli_metrics(wl, passes))
        m.update({k: 1.0 for k in ("distortion.estimate_bilip.all.peak_mb",
                                   "trace.overhead_s", "trace.replay_gap_s")})
        assert set(m) == {x["name"] for x in SPEC["per_layer"]}
        assert m["serialize.load_map.rows_per_s"] == 20.0
        assert m["serialize.bytes_read"] == 150
        assert m["distortion.useful_ratio"] == 94 / 100
        assert m["distortion.pairs_per_s"] == 100 / 1.0
        assert m["verify.checks_gated"] == 12
        assert m["cones.shell_gap_log"] == pytest.approx(np.log(4.0))
        assert m["cli.verify.wait_s"] == 0.25

    def test_end_to_end_metrics_match_the_spec(self):
        wl = workloads.build("allpairs", 0)
        child = run.Child(0.1, 0.05, 50.0, 0, b"", b"")
        runs = {"passes": [(2.0, [child] * len(wl.commands))], "imports": [0.08]}
        m = run.end_to_end(wl, runs, [1.0, 2.0, 3.0])
        assert set(m) == {x["name"] for x in SPEC["end_to_end"]}
        assert m["setup_s"] == 2.0
        assert m["invert_s"] == pytest.approx(0.1 * sum(c.name == "invert" for c in wl.commands))


class TestGates:
    def test_verify_must_report_passed_true(self):
        cmd = workloads.Command(("verify", "all"))
        assert gates.check_report(cmd, {"command": "verify", "passed": True}) == []
        assert gates.check_report(cmd, {"command": "verify", "passed": False})
        assert gates.check_report(cmd, {"command": "verify", "passed": "true"})

    def test_cones_rejects_overlapping_shells_and_large_residuals(self):
        cmd = workloads.Command(("cones", "x.csv"))
        assert gates.check_report(cmd, _cones_report()) == []
        assert gates.check_report(cmd, _cones_report(inner_max=3.0, outer_min=2.0))
        assert gates.check_report(cmd, _cones_report(inner_max=2.0, outer_min=2.0))
        assert gates.check_report(cmd, _cones_report(residual=1e-9))

    def test_distortion_bounds(self):
        cmd = workloads.Command(("distortion", "x.csv"), at_most=10.0 + 1e-9, equals=10.0)
        assert gates.check_report(cmd, {"command": "distortion", "bilip_constant": 10.0}) == []
        assert gates.check_report(cmd, {"command": "distortion", "bilip_constant": 10.1})
        assert gates.check_report(cmd, {"command": "distortion", "bilip_constant": 9.9})

    def test_report_must_parse_and_name_its_command(self):
        assert gates.parse_report(b"not json")[1]
        assert gates.parse_report(b"[1]")[1]
        assert gates.check_report(workloads.Command(("cones", "x.csv")), {"command": "verify"})
        assert gates.check_report(workloads.Command(("cones", "x.csv")), {"command": "cones"})

    def test_linear_oracles(self):
        assert workloads.svd_constant("scale-10") == pytest.approx(10.0)
        assert workloads.svd_constant("diag-1-3") == pytest.approx(3.0)
        assert workloads.svd_constant("shear") == pytest.approx((1 + np.sqrt(17)) / 4)

    def test_same_map_sees_one_flipped_bit(self):
        from bilip.fixtures import map_samples

        want = map_samples("shear", count=20, seed=0)
        assert gates.same_map(want, want) == []
        pts = want.codomain.points.copy()
        pts.view(np.uint64)[3, 1] ^= 1
        got = type(want)(want.domain, type(want.codomain)(pts, "x"), want.fixes_origin,
                         want.avoids_origin, want.unbounded_domain, want.ambient)
        assert gates.same_map(got, want) == ["codomain differs from the in-process result"]
