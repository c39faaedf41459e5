"""End-to-end command-line tests via subprocess.

The golden path mirrors the hand derivation: conjugating y = 2x by
inversion gives y = x/2 on the inverted sample sites, and doing it
twice returns to the original file.  Determinism is asserted as byte
equality, not value closeness.  Every child is started through
``cli_runner``, which puts the directory of the ``bilip`` imported here
first on its PYTHONPATH; the first test checks that the child agrees.
"""

import argparse
import json
import pathlib

import numpy as np
import pytest

import bilip
from bilip import cli
from bilip.cli import build_parser, main
from bilip.serialize import load_cloud, load_map, sidecar_path
from cli_runner import run_cli, run_python


def test_children_import_the_tested_bilip(tmp_path):
    out = run_python("-c", "import bilip; print(bilip.__file__)", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert pathlib.Path(out.stdout.strip()) == pathlib.Path(bilip.__file__).resolve()


def test_cli_import_leaves_scipy_out(tmp_path):
    # every command pays its import; scipy alone would add more than bilip.cli costs
    out = run_python(
        "-c",
        "import sys, bilip.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_process_pools_out(tmp_path):
    # only writing a table of several chunks starts a pool; importing one would slow every command
    out = run_python(
        "-c",
        "import sys, bilip.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))",
        cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def subcommands() -> dict[str, argparse.ArgumentParser]:
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


# (subcommand, option) for every option of every subcommand that takes one value
VALUED_OPTIONS = [
    (name, action.option_strings[0])
    for name, sub in subcommands().items()
    for action in sub._actions
    if action.option_strings and action.nargs is None
]


def parse_prefix(command: str, option: str) -> list[str]:
    """``command`` with its positionals and every required option other than ``option``."""
    argv = [command]
    for action in subcommands()[command]._actions:
        if not action.option_strings:
            argv.append(next(iter(action.choices)) if action.choices else "in.csv")
        elif action.required and option not in action.option_strings:
            argv += [action.option_strings[0], "out.csv"]
    return argv


def write_map(path, rows, fixes_origin=False, avoids_origin=False):
    """A bounded affine 2-d map file with the given data rows and sidecar flags."""
    path.write_text("x1,x2,y1,y2\n" + rows)
    meta = {
        "q1": 2, "q2": 2, "fixes_origin": fixes_origin, "avoids_origin": avoids_origin,
        "unbounded_domain": False, "ambient": "Affine",
    }
    sidecar_path(path).write_text(json.dumps(meta))


def make_scaling(tmp_path, factor="2", n="40", name="scale.csv"):
    out = run_cli(
        "generate", "scaling", "--lambda", factor, "--n", n, "--output", name,
        cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    return tmp_path / name


class TestGoldenInversion:
    def test_inverted_scaling_is_the_halving_map(self, tmp_path):
        path = make_scaling(tmp_path)
        out = run_cli("invert", str(path), "--output", "inv.csv", cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        m = load_map(tmp_path / "inv.csv")
        x, y = m.domain.points, m.codomain.points
        r = np.linalg.norm(x, axis=1)
        keep = r > 0.0
        residual = np.linalg.norm(y[keep] - x[keep] / 2.0, axis=1) / r[keep]
        assert residual.max() < 1e-10

    def test_invert_twice_returns_to_the_original(self, tmp_path):
        path = make_scaling(tmp_path)
        assert run_cli("invert", str(path), "--output", "inv.csv", cwd=tmp_path).returncode == 0
        assert run_cli("invert", "inv.csv", "--output", "back.csv", cwd=tmp_path).returncode == 0
        original = load_map(path)
        back = load_map(tmp_path / "back.csv")
        scale = np.maximum(np.linalg.norm(original.domain.points, axis=1), 1e-30)
        for side in ("domain", "codomain"):
            a = getattr(original, side).points
            b = getattr(back, side).points
            assert (np.linalg.norm(a - b, axis=1) / scale).max() < 1e-10
        assert back.fixes_origin == original.fixes_origin
        assert back.unbounded_domain == original.unbounded_domain

    def test_origin_violation_exits_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y1,y2\n0.0,0.0,5.0,0.0\n1.0,0.0,1.0,0.0\n2.0,0.0,2.0,0.0\n")
        meta = {
            "q1": 2, "q2": 2, "fixes_origin": False, "avoids_origin": False,
            "unbounded_domain": False, "ambient": "Affine",
        }
        (tmp_path / "bad.csv.meta.json").write_text(json.dumps(meta))
        out = run_cli("invert", "bad.csv", "--output", "nope.csv", cwd=tmp_path)
        assert out.returncode == 3
        assert "hypothesis" in out.stderr.lower()
        assert "row 0 has domain radius 0 and codomain radius 5" in out.stderr

    def test_far_sample_of_a_bounded_map_inverts_under_the_guard(self, tmp_path):
        # the inverted far sample sits at radius 1e-10: the result neither fixes nor avoids 0
        write_map(tmp_path / "far.csv", "1.0,0.0,2.0,0.0\n1e10,0.0,2e10,0.0\n", avoids_origin=True)
        out = run_cli("invert", "far.csv", "--output", "inv.csv", cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        meta = json.loads((tmp_path / "inv.csv.meta.json").read_text())
        assert (meta["fixes_origin"], meta["avoids_origin"]) == (False, False)
        out = run_cli("invert", "inv.csv", "--output", "back.csv", cwd=tmp_path)
        assert out.returncode == 3
        assert "row 1 has domain radius 1e-10 and codomain radius 5e-11" in out.stderr
        assert not (tmp_path / "back.csv").exists()

    # sidecar flags that are wrong in exactly one field, either way round
    @pytest.mark.parametrize("rows, fixes, avoids, field", [
        ("0.0,0.0,0.0,0.0\n1.0,0.0,2.0,0.0\n", False, False, "fixes_origin"),
        ("1.0,0.0,2.0,0.0\n3.0,0.0,6.0,0.0\n", True, True, "fixes_origin"),
        ("1.0,0.0,2.0,0.0\n3.0,0.0,6.0,0.0\n", False, False, "avoids_origin"),
        ("1e-10,0.0,2.0,0.0\n3.0,0.0,6.0,0.0\n", False, True, "avoids_origin"),
    ], ids=["fixes-unsaid", "fixes-false-claim", "avoids-unsaid", "avoids-false-claim"])
    def test_sidecar_contradicting_its_samples_exits_3(self, tmp_path, rows, fixes, avoids, field):
        write_map(tmp_path / "m.csv", rows, fixes_origin=fixes, avoids_origin=avoids)
        stated = {"fixes_origin": fixes, "avoids_origin": avoids}[field]
        out = run_cli("distortion", "m.csv", cwd=tmp_path)
        assert out.returncode == 3
        assert f"m.csv.meta.json field '{field}' says {stated}, but the samples say {not stated}" in out.stderr
        assert out.stdout == ""

    def test_cloud_inversion(self, tmp_path):
        assert run_cli(
            "generate", "ray", "--dim", "3", "--n", "30", "--output", "ray.csv",
            cwd=tmp_path,
        ).returncode == 0
        assert run_cli("invert", "ray.csv", "--output", "iray.csv", cwd=tmp_path).returncode == 0
        a = load_cloud(tmp_path / "ray.csv")
        b = load_cloud(tmp_path / "iray.csv")
        r = np.linalg.norm(a.points, axis=1)
        expected = a.points / (r**2)[:, None]
        assert np.allclose(b.points, expected, rtol=1e-12, atol=0.0)


class TestDistortion:
    def test_identity_fixture_reports_one(self, tmp_path):
        assert run_cli(
            "generate", "identity", "--n", "50", "--output", "id.csv", cwd=tmp_path
        ).returncode == 0
        out = run_cli("distortion", "id.csv", cwd=tmp_path)
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data["bilip_constant"] == 1.0
        assert data["schema"] == 1

    def test_doubling_fixture_reports_two(self, tmp_path):
        path = make_scaling(tmp_path)
        out = run_cli("distortion", str(path), cwd=tmp_path)
        data = json.loads(out.stdout)
        assert data["bilip_constant"] == 2.0
        assert data["L_expand"] == 2.0
        assert data["L_contract"] == 0.5

    def test_shell_restriction_is_reported(self, tmp_path):
        assert run_cli(
            "generate", "radial-shell-1.25", "--n", "80", "--shell", "1:2",
            "--output", "shell.csv", cwd=tmp_path,
        ).returncode == 0
        out = run_cli("distortion", "shell.csv", "--shell", "1:1.5", cwd=tmp_path)
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data["shell"] == "1:1.5"
        assert data["pairs_evaluated"] > 0
        # a bound that %g would round is reported in full
        out = run_cli("distortion", "shell.csv", "--shell", "1.0000001:1.5", cwd=tmp_path)
        assert json.loads(out.stdout)["shell"] == "1.0000001:1.5"

    def test_report_file_output(self, tmp_path):
        path = make_scaling(tmp_path)
        out = run_cli("distortion", str(path), "--output", "report.json", cwd=tmp_path)
        assert out.returncode == 0
        assert out.stdout == ""
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["bilip_constant"] == 2.0

    def test_pair_beyond_the_float_range_exits_2(self, tmp_path):
        # |1.5e308 - (-1.5e308)| overflows even after scaling by a power of two
        write_map(tmp_path / "huge.csv", "1.5e308,0,1.5e308,0\n-1.5e308,0,-1.5e308,0\n2,0,2,0\n",
                  avoids_origin=True)
        out = run_cli("distortion", "huge.csv", cwd=tmp_path)
        assert out.returncode == 2
        assert "usage error: the distance of pair (0, 1) exceeds the float range" in out.stderr
        assert "RuntimeWarning" not in out.stderr
        assert out.stdout == ""

    def test_overflowing_pair_distance_is_exact(self, tmp_path):
        # |1e200 - 1| squared overflows; the pair's distances are still 1e200 and 2e200
        write_map(tmp_path / "far.csv", "1e200,0,2e200,0\n1,0,1,0\n2,0,2,0\n", avoids_origin=True)
        out = run_cli("distortion", "far.csv", cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        data = json.loads(out.stdout)
        assert (data["L_expand"], data["witnesses"]["expand"]) == (2.0, [0, 1])
        assert (data["L_contract"], data["witnesses"]["contract"]) == (1.0, [1, 2])
        assert data["pairs_evaluated"] == 3

    def test_self_pair_draws_exit_4(self, tmp_path):
        assert run_cli(
            "generate", "shear", "--n", "3", "--seed", "1", "--output", "m.csv", cwd=tmp_path
        ).returncode == 0
        out = run_cli(
            "distortion", "m.csv", "--strategy", "random", "--pairs", "1", "--seed", "11",
            cwd=tmp_path,
        )
        assert out.returncode == 4
        assert "self-pairs" in out.stderr

    def test_pair_counts_add_up_to_the_draws(self, tmp_path):
        path = make_scaling(tmp_path)
        out = run_cli("distortion", str(path), "--strategy", "random", "--pairs", "1000", cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        data = json.loads(out.stdout)
        assert data["pairs_self"] > 0
        assert data["pairs_evaluated"] + data["pairs_skipped"] + data["pairs_self"] == 1000
        out = run_cli("distortion", str(path), cwd=tmp_path)
        assert json.loads(out.stdout)["pairs_self"] == 0

    def test_zero_random_pairs_exits_2(self, tmp_path):
        path = make_scaling(tmp_path)
        out = run_cli("distortion", str(path), "--strategy", "random", "--pairs", "0", cwd=tmp_path)
        assert out.returncode == 2
        assert "need at least one sampled pair" in out.stderr

    def test_pairs_over_the_budget_exit_2(self, tmp_path):
        path = make_scaling(tmp_path)
        out = run_cli("distortion", str(path), "--strategy", "random", "--pairs", "16777217", cwd=tmp_path)
        assert out.returncode == 2
        assert "usage error: 16777217 sampled pairs exceed the pair budget 16777216" in out.stderr
        assert out.stdout == ""

    def test_generated_map_of_2000_samples_takes_all_pairs(self, tmp_path):
        # generate adds 4 probes and the origin pair to the 2000 samples
        assert run_cli("generate", "shear", "--n", "2000", "--output", "m.csv", cwd=tmp_path).returncode == 0
        out = run_cli("distortion", "m.csv", cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        data = json.loads(out.stdout)
        assert data["pairs_evaluated"] + data["pairs_skipped"] == 2005 * 2004 // 2

    @pytest.mark.parametrize("options", [
        ["--pairs", "0", "--seed", "9"], ["--seed", "9"], ["--strategy", "all", "--pairs", "5"],
    ], ids=["pairs-and-seed", "seed", "explicit-all"])
    def test_random_options_without_random_strategy_exit_2(self, tmp_path, capsys, options):
        # checked before the input is read: the file does not exist
        assert main(["distortion", str(tmp_path / "ghost.csv"), *options]) == 2
        captured = capsys.readouterr()
        option = next(o for o in options if o in ("--pairs", "--seed"))
        assert f"usage error: {option} applies only to --strategy random" in captured.err
        assert captured.out == ""


class TestCones:
    def test_ray_exchange_and_directions_file(self, tmp_path):
        assert run_cli(
            "generate", "spiral", "--n", "90", "--output", "sp.csv", cwd=tmp_path
        ).returncode == 0
        out = run_cli(
            "cones", "sp.csv", "--directions", "dirs.csv", cwd=tmp_path
        )
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data["exchange"]["infinity_to_origin"] <= 1e-10
        assert data["exchange"]["origin_to_infinity"] <= 1e-10
        assert data["shells_overlap"] is False
        assert data["shell_gap_log"] > 0.0
        dirs = load_cloud(tmp_path / "dirs.csv")
        assert np.allclose(np.linalg.norm(dirs.points, axis=1), 1.0, atol=1e-12)

    def test_two_point_cloud_reports_overlapping_shells(self, tmp_path):
        (tmp_path / "two.csv").write_text("x1,x2\n1.0,0.0\n0.0,2.0\n")
        out = run_cli("cones", "two.csv", cwd=tmp_path)
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data["exchange"] == {"infinity_to_origin": 0.0, "origin_to_infinity": 0.0}
        assert data["shells_overlap"] is True
        assert data["shell_gap_log"] == pytest.approx(-np.log(2.0), rel=1e-15)

    def test_empty_link_band_exits_4(self, tmp_path):
        assert run_cli(
            "generate", "ray", "--n", "30", "--output", "ray.csv", cwd=tmp_path
        ).returncode == 0
        out = run_cli("cones", "ray.csv", "--shell", "100000:1000000", cwd=tmp_path)
        assert out.returncode == 4
        assert "no points in the shell [100000.0, 1000000.0]" in out.stderr

    @pytest.mark.parametrize("shell", ["0.01:100", "0.5:2", "1.0000001:10.5"])
    def test_shell_alone_counts_the_closed_radius_range(self, tmp_path, shell):
        # 0.01:100 spans a factor 1e4, wider than the e^2 the log band could reach
        assert run_cli(
            "generate", "spiral", "--n", "150", "--shell", "0.001:1000", "--output", "sp.csv",
            cwd=tmp_path,
        ).returncode == 0
        out = run_cli("cones", "sp.csv", "--shell", shell, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        lo, hi = map(float, shell.split(":"))
        r = np.linalg.norm(load_cloud(tmp_path / "sp.csv").points, axis=1)
        want = int(np.count_nonzero((r >= lo) & (r <= hi)))
        assert json.loads(out.stdout)["link"] == {"r_min": lo, "r_max": hi, "count": want}
        assert 0 < want < len(r)

    def test_bad_fraction_exits_2_before_other_checks(self, tmp_path, capsys):
        # one nonzero point: with a valid fraction this cloud exits 4
        (tmp_path / "lone.csv").write_text("x1,x2\n0.0,0.0\n1.0,0.0\n")
        path = str(tmp_path / "lone.csv")
        assert main(["cones", path]) == 4
        capsys.readouterr()
        assert main(["cones", path, "--fraction", "0"]) == 2
        captured = capsys.readouterr()
        assert "shell fraction must lie in (0, 1]" in captured.err
        assert captured.out == ""

    def test_empty_shell_exits_4_before_the_cone_pass(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "ray.csv")
        assert main(["generate", "ray", "--n", "30", "--output", path]) == 0

        def cone_pass(*args):
            raise AssertionError("the cone pass ran")

        monkeypatch.setattr(bilip.cli, "verify_cone_exchange", cone_pass)
        capsys.readouterr()
        assert main(["cones", path, "--shell", "1e6:1e7"]) == 4
        assert "no points in the shell" in capsys.readouterr().err
        # a bad fraction still wins over the empty shell
        assert main(["cones", path, "--fraction", "0", "--shell", "1e6:1e7"]) == 2
        assert "shell fraction must lie in (0, 1]" in capsys.readouterr().err

    def test_band_without_shell_exits_2(self, tmp_path):
        # --band is gone: the link is the --shell range itself
        assert run_cli(
            "generate", "ray", "--n", "30", "--output", "ray.csv", cwd=tmp_path
        ).returncode == 0
        out = run_cli("cones", "ray.csv", "--band", "0.1", cwd=tmp_path)
        assert out.returncode == 2
        assert "unrecognized arguments: --band 0.1" in out.stderr

    @pytest.mark.parametrize("band", ["2", "1", "-0.1", "nan", "wide"])
    def test_band_outside_the_unit_interval_exits_2_at_parse_time(self, tmp_path, capsys, band):
        # no --band value is read any more, next to --shell or not
        with pytest.raises(SystemExit) as exit_:
            main(["cones", str(tmp_path / "ghost.csv"), "--shell", "1:2", "--band", band])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: --band {band}" in captured.err
        assert captured.out == ""


class TestVerifyCommand:
    def test_cone_exchange_suite_passes(self, tmp_path):
        out = run_cli("verify", "cone-exchange", cwd=tmp_path)
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data["passed"] is True
        assert data["suites"][0]["suite"] == "cone-exchange"

    def test_zero_identity_pairs_exits_2(self, tmp_path):
        out = run_cli("verify", "identities", "--pairs", "0", cwd=tmp_path)
        assert out.returncode == 2
        assert "identity sweeps need pairs >= 1, got 0" in out.stderr
        assert out.stdout == ""

    def test_identity_options_rejected_for_other_suites(self, tmp_path, capsys):
        out = run_cli("verify", "cube-bound", "--pairs", "0", cwd=tmp_path)
        assert out.returncode == 2
        assert "usage error: --pairs applies only to the identities suite, not to cube-bound" in out.stderr
        assert out.stdout == ""
        for suite in ("cube-bound", "compactify-iff", "cone-exchange"):
            assert main(["verify", suite, "--pairs", "100"]) == 2
            captured = capsys.readouterr()
            assert f"--pairs applies only to the identities suite, not to {suite}" in captured.err
            assert captured.out == ""

    def test_tolerance_option_is_gone(self, capsys):
        # every gate is a fixed value in bilip.verify
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "all", "--tolerance", "1"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --tolerance 1" in capsys.readouterr().err

    def test_renormalize_beta_option_is_gone(self, capsys):
        # the renormalized chart's residual is reported, never gated (criterion 8 holds it)
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "identities", "--renormalize-beta"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --renormalize-beta" in capsys.readouterr().err

    def test_default_identity_pairs_is_2000(self, capsys):
        assert main(["verify", "identities"]) == 0
        default = capsys.readouterr().out
        assert main(["verify", "identities", "--pairs", "2000"]) == 0
        assert capsys.readouterr().out == default


class TestDeterminism:
    def test_random_strategy_reports_are_byte_identical(self, tmp_path):
        path = make_scaling(tmp_path)
        args = ("distortion", str(path), "--strategy", "random", "--pairs", "3000", "--seed", "11")
        first = run_cli(*args, cwd=tmp_path)
        second = run_cli(*args, cwd=tmp_path)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_generated_files_are_byte_identical(self, tmp_path):
        args = ("generate", "shear", "--n", "60", "--seed", "5")
        assert run_cli(*args, "--output", "a.csv", cwd=tmp_path).returncode == 0
        assert run_cli(*args, "--output", "b.csv", cwd=tmp_path).returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        a_meta = (tmp_path / "a.csv.meta.json").read_bytes()
        b_meta = (tmp_path / "b.csv.meta.json").read_bytes()
        assert a_meta == b_meta

    def test_scaling_fixture_is_the_registry_member(self, tmp_path):
        # the map, not the command, decides the origin pair, probes and unboundedness
        seeded = ("--n", "60", "--seed", "5")
        assert run_cli("generate", "scaling", "--lambda", "2", *seeded, "--output", "a.csv", cwd=tmp_path).returncode == 0
        assert run_cli("generate", "scale-2", *seeded, "--output", "b.csv", cwd=tmp_path).returncode == 0
        for suffix in ("", ".meta.json"):
            assert (tmp_path / f"a.csv{suffix}").read_bytes() == (tmp_path / f"b.csv{suffix}").read_bytes()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["verify", "identities", "--pairs", "1000000000000000"],
        ["generate", "shear", "--n", "1000000000000000", "--output", "x.csv"],
        ["generate", "spiral", "--n", "99999999999999", "--output", "x.csv"],
    ], ids=["verify", "generate", "generate-cloud"])
    def test_count_too_large_to_allocate_exits_2(self, tmp_path, argv):
        # 10^14 and 10^15 rows of floats take hundreds of TiB, more than the address space holds
        out = run_cli(*argv, cwd=tmp_path)
        assert out.returncode == 2
        assert out.stderr.startswith("usage error: Unable to allocate")
        assert out.stderr.count("\n") == 1
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_fixture_exits_2(self, tmp_path):
        out = run_cli("generate", "klein-bottle", "--output", "x.csv", cwd=tmp_path)
        assert out.returncode == 2
        assert "unknown registry map" in out.stderr

    def test_malformed_shell_exits_2(self, tmp_path):
        path = make_scaling(tmp_path)
        out = run_cli("distortion", str(path), "--shell", "5", cwd=tmp_path)
        assert out.returncode == 2
        # The usage line names R_MIN:R_MAX on every argparse error; the reason adds "is not".
        assert "is not R_MIN:R_MAX" in out.stderr

    def test_missing_input_exits_2(self, tmp_path):
        out = run_cli("distortion", "ghost.csv", cwd=tmp_path)
        assert out.returncode == 2
        assert "cannot read input" in out.stderr

    def test_scaling_without_lambda_exits_2(self, tmp_path):
        out = run_cli("generate", "scaling", "--output", "s.csv", cwd=tmp_path)
        assert out.returncode == 2
        assert "needs --lambda" in out.stderr

    @pytest.mark.parametrize("fixture, option, value, readers", [
        ("spiral", "--dim", "3", "ray and scaling"),
        ("shear", "--lambda", "5", "scaling"),
        ("spiral", "--seed", "5", "ray and the sampled maps"),
        ("shifted-line", "--seed", "5", "ray and the sampled maps"),
    ], ids=["dim", "lambda", "seed", "seed-shifted-line"])
    def test_option_for_another_fixture_exits_2(self, tmp_path, capsys, fixture, option, value, readers):
        output = tmp_path / "x.csv"
        assert main(["generate", fixture, option, value, "--output", str(output)]) == 2
        captured = capsys.readouterr()
        assert f"usage error: {option} applies only to {readers}, not to {fixture}" in captured.err
        assert captured.out == ""
        assert not output.exists()

    @pytest.mark.parametrize("factor, reason", [
        ("inf", "scaling factor must be finite, got inf"),
        ("1e308", "evaluator of scale-1e+308 returned a malformed image"),  # the image overflows
    ])
    def test_unrepresentable_scaling_exits_2_with_one_line(self, tmp_path, factor, reason):
        out = run_cli("generate", "scaling", "--lambda", factor, "--output", "s.csv", cwd=tmp_path)
        assert out.returncode == 2
        assert out.stderr == f"usage error: {reason}\n"  # no numpy warning ahead of it
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_dimension_below_one_exits_2(self, tmp_path, dim):
        # --dim 0 once drew zero-length directions forever
        out = run_cli("generate", "scaling", "--lambda", "2", "--dim", dim, "--output", "z.csv",
                      cwd=tmp_path, timeout=30)
        assert out.returncode == 2
        assert f"usage error: directions need dim >= 1, got {dim}" in out.stderr
        assert not (tmp_path / "z.csv").exists()

    def test_shell_sets_the_shifted_line_range(self, tmp_path, capsys):
        line = tmp_path / "line.csv"
        assert main(["generate", "shifted-line", "--output", str(line)]) == 0
        t = load_cloud(line).points[:, 0]
        assert (t.min(), t.max()) == (1.0, 1000.0)
        assert main(["generate", "shifted-line", "--shell", "5:50", "--output", str(line)]) == 0
        capsys.readouterr()
        t = load_cloud(line).points[:, 0]
        assert t.min() == pytest.approx(5.0, rel=1e-15) and t.max() == 50.0

    @pytest.mark.parametrize("argv", [
        ["verify", "identities", "--seed", "-1"],
        ["generate", "ray", "--seed", "-1", "--output", "r.csv"],
        ["distortion", "ghost.csv", "--strategy", "random", "--seed", "-1"],
        ["verify", "cone-exchange", "--seed", "1.5"],
    ], ids=["verify", "generate", "distortion", "non-integer"])
    def test_bad_seed_exits_2_at_parse_time(self, capsys, argv):
        # exit 1 from verify would claim a gated check failed
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert f"seed {argv[argv.index('--seed') + 1]!r} is not a non-negative integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["generate", "scaling", "--lambda", "-1e3", "--output", "s.csv"],
        ["generate", "scaling", "--lambda", "-inf", "--output", "s.csv"],
        ["generate", "scaling", "--lambda=-1e3", "--output", "s.csv"],
        ["generate", "scaling", "--lambda", "-0.5", "--output", "s.csv"],
    ], ids=["exponent", "inf", "glued", "decimal"])
    def test_negative_scaling_factor_names_its_reason(self, tmp_path, monkeypatch, capsys, argv):
        # argparse took "-1e3" and "-inf" for options and said "expected one argument"
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "usage error: scaling factor must be positive\n"
        assert captured.out == ""
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command, option", VALUED_OPTIONS, ids=[f"{c} {o}" for c, o in VALUED_OPTIONS])
    def test_value_starting_with_dash_is_the_options_value(self, tmp_path, monkeypatch, capsys, command, option):
        # "OPTION -1e3" must read as "OPTION=-1e3": the value or the option's own reason,
        # never argparse's "expected one argument"
        monkeypatch.chdir(tmp_path)  # "--output -1e3" writes the report to ./-1e3
        read = []

        def record(args):  # stands in for every command: the parsed values, no work
            read.append({k: v for k, v in vars(args).items() if k != "func"})
            return {}, 0

        for name in ("invert", "compactify", "distortion", "cones", "verify", "generate"):
            monkeypatch.setattr(cli, f"cmd_{name}", record)
        outcomes = []
        for tail in ([option, "-1e3"], [f"{option}=-1e3"]):
            read.clear()
            try:
                code = main(parse_prefix(command, option) + tail)
            except SystemExit as exit_:
                code = exit_.code
            outcomes.append((code, capsys.readouterr().err, list(read)))
        (code, err, read_args), glued = outcomes
        assert (code, err, read_args) == glued
        assert "expected one argument" not in err
        if code:
            assert f"argument {option}: " in err
        else:
            assert err == "" and len(read_args) == 1

    @pytest.mark.parametrize("argv, reason", [
        (["generate", "ray", "--n", "-1e3", "--output", "r.csv"], "argument --n: invalid int value: '-1e3'"),
        (["generate", "ray", "--shell", "-1:2", "--output", "r.csv"],
         "argument --shell: shell '-1:2' needs 0 < R_MIN < R_MAX"),
        (["distortion", "m.csv", "--strategy", "random", "--pairs", "-1e3"],
         "argument --pairs: invalid int value: '-1e3'"),
    ], ids=["n", "shell", "pairs"])
    def test_negative_count_or_shell_names_its_reason(self, capsys, argv, reason):
        # argparse took "-1e3" and "-1:2" for options and said "expected one argument"
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"bilip {argv[0]}: error: {reason}"

    @pytest.mark.parametrize("argv, reason", [
        (["generate", "ray", "--output", "--n", "5"], "argument --output: expected one argument"),
        (["generate", "ray", "--output", "--se", "5"], "argument --output: expected one argument"),
        (["generate", "ray", "--n", "--", "5", "--output", "r.csv"], "argument --n: expected one argument"),
        (["generate", "ray", "--band", "-0.1", "--output", "r.csv"], "unrecognized arguments: --band -0.1"),
    ], ids=["option", "abbreviation", "double-dash", "unknown-option"])
    def test_token_naming_an_option_stays_an_option(self, capsys, argv, reason):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {reason}")

    @pytest.mark.parametrize("fraction", ["-1e-3", "-inf", "-0.5"])
    def test_negative_fraction_names_its_reason(self, tmp_path, capsys, fraction):
        # checked before the input is read: the file does not exist
        assert main(["cones", str(tmp_path / "ghost.csv"), "--fraction", fraction]) == 2
        assert capsys.readouterr().err == "usage error: shell fraction must lie in (0, 1]\n"

    @pytest.mark.parametrize("argv", [
        ["--help"], *([command, "--help"] for command in
                      ("invert", "compactify", "distortion", "cones", "verify", "generate")),
    ])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: bilip")

    @pytest.mark.parametrize("argv, target", [
        (["distortion", "m.csv", "--output", "nodir/r.json"], "nodir/r.json"),
        (["verify", "cone-exchange", "--output", "nodir/r.json"], "nodir/r.json"),
        (["verify", "cone-exchange", "--output", "adir"], "adir"),
        (["invert", "m.csv", "--output", "nodir/x.csv"], "nodir/x.csv"),
        (["cones", "c.csv", "--directions", "nodir/d.csv"], "nodir/d.csv"),
    ], ids=["distortion", "verify", "directory", "invert", "cones-directions"])
    def test_unwritable_output_exits_2_and_names_it(self, tmp_path, monkeypatch, capsys, argv, target):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        assert main(["generate", "shear", "--n", "20", "--output", "m.csv"]) == 0
        assert main(["generate", "ray", "--n", "40", "--output", "c.csv"]) == 0
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "cannot write output:" in captured.err
        assert repr(target) in captured.err
        assert captured.out == ""

    @pytest.mark.skipif(not pathlib.Path("/dev/full").exists(), reason="no /dev/full device")
    def test_full_device_ends_the_formatting_pool(self, tmp_path, capsys):
        # 1e5 pairs are formatted on a pool of workers, which must end with the failed write:
        # a worker left behind would hold the child's pipes open, and the run would time out
        assert main(["generate", "shear", "--n", "100000", "--output", str(tmp_path / "m.csv")]) == 0
        out = run_cli("compactify", "m.csv", "--output", "/dev/full", cwd=tmp_path, timeout=60)
        assert out.returncode == 2
        assert "cannot write output: [Errno 28]" in out.stderr
        assert out.stdout == ""
        assert not sidecar_path("/dev/full").exists()

    @pytest.mark.parametrize("command", ["distortion", "invert"])
    def test_missing_input_is_named_as_read(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        argv = [command, "./ghost.csv"] + (["--output", "x.csv"] if command == "invert" else [])
        assert main(argv) == 2
        assert "cannot read input: [Errno 2] No such file or directory: 'ghost.csv'" in capsys.readouterr().err

    def test_string_flag_in_sidecar_exits_2(self, tmp_path):
        path = make_scaling(tmp_path)
        side = tmp_path / "scale.csv.meta.json"
        meta = json.loads(side.read_text())
        meta["fixes_origin"] = "false"
        side.write_text(json.dumps(meta))
        out = run_cli("distortion", str(path), cwd=tmp_path)
        assert out.returncode == 2
        assert "field 'fixes_origin' must be a JSON boolean" in out.stderr

    @pytest.mark.parametrize("encode", [
        lambda text: text.replace("Affine", "Affin\xe9").encode("latin-1"),
        lambda text: text.encode("utf-16"),
    ], ids=["latin-1", "utf-16"])
    def test_sidecar_that_is_not_utf8_exits_2(self, tmp_path, encode):
        # JSON text is UTF-8 whatever the locale; other bytes are a parse error naming the sidecar
        path = make_scaling(tmp_path)
        side = tmp_path / "scale.csv.meta.json"
        side.write_bytes(encode(side.read_text()))
        out = run_cli("distortion", str(path), cwd=tmp_path)
        assert out.returncode == 2
        assert f"parse error: {side} is not valid JSON: 'utf-8' codec can't decode byte" in out.stderr
        assert "Traceback" not in out.stderr

    def test_data_byte_that_is_not_utf8_exits_2(self, tmp_path):
        # the table reader is ASCII; a rejection names the byte by its backslash escape
        (tmp_path / "c.csv").write_bytes(b"x1,x2\n1.0,2.0\n3.0,\xe9\n")
        out = run_cli("invert", "c.csv", "--output", "o.csv", cwd=tmp_path)
        assert out.returncode == 2
        assert out.stderr == "parse error: bad float '\\\\xe9' in c.csv:3\n"
        assert not (tmp_path / "o.csv").exists()


class TestErrorLines:
    """Each path of ``main`` that reports an error, pinned to its stderr line and code."""

    @pytest.mark.parametrize("argv, code, line", [
        (["invert", "bad.csv", "--output", "o.csv"], 2, "parse error: non-finite value 'nan' in bad.csv:2"),
        (["invert", "z.csv", "--output", "o.csv"], 3,
         "hypothesis violation: inversion is undefined at the origin (row 0)"),
        (["distortion", "m.csv", "--shell", "1e5:1e6"], 4,
         "degenerate data: shell [100000.0, 1000000.0) keeps 0 pairs"),
        (["cones", "r.csv", "--fraction", "0"], 2, "usage error: shell fraction must lie in (0, 1]"),
        (["distortion", "missing.csv"], 2,
         "cannot read input: [Errno 2] No such file or directory: 'missing.csv'"),
        (["verify", "identities", "--pairs", "10", "--output", "nodir/x.json"], 2,
         "cannot write output: [Errno 2] No such file or directory: 'nodir/x.json'"),
    ], ids=["parse", "origin", "empty-shell", "fraction", "unreadable", "unwritable"])
    def test_error_line_is_exact(self, tmp_path, monkeypatch, capsys, argv, code, line):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.csv").write_text("x1,x2\n1.0,nan\n")
        (tmp_path / "z.csv").write_text("x1,x2\n0.0,0.0\n1.0,2.0\n")
        assert main(["generate", "shear", "--n", "20", "--output", "m.csv"]) == 0
        assert main(["generate", "ray", "--n", "30", "--output", "r.csv"]) == 0
        capsys.readouterr()
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == line + "\n"
        assert captured.out == ""
        assert not (tmp_path / "o.csv").exists()
