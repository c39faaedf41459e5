"""CSV and JSON round trips.

The float format is repr, so a save/load cycle must reproduce every
coordinate bit for bit, not merely within a tolerance.
"""

import json
import math
import multiprocessing
import os
import pathlib
import re
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilip import serialize
from bilip.cli import main
from bilip.errors import ParseError
from bilip.geometry import PointCloud
from bilip.maps import Ambient, SampledMap, compactify_map
from bilip.serialize import (
    _CHUNK_ROWS,
    dumps_report,
    load_cloud,
    load_map,
    save_cloud,
    save_map,
    sidecar_path,
)


def sample_map(unbounded=True) -> SampledMap:
    rng = np.random.default_rng(4)
    dom = rng.normal(size=(8, 2)) * 3.0
    cod = 2.0 * dom
    dom = np.vstack([dom, np.zeros(2)])
    cod = np.vstack([cod, np.zeros(2)])
    return SampledMap(
        domain=PointCloud(dom, "doubling"),
        codomain=PointCloud(cod, "doubling image"),
        unbounded_domain=unbounded,
    )


# row radii at 0, well under the 1e-9 origin guard, or well over it
FLAG_SCALES = st.sampled_from([0.0, 1e-10, 1.0, 3e5])


def reference_flags(dom: list, cod: list) -> tuple[bool, bool]:
    """(fixes_origin, avoids_origin) from row lists, one radius per row by math.hypot."""
    dom_radii = [math.hypot(*row) for row in dom]
    cod_radii = [math.hypot(*row) for row in cod]
    zero = [i for i, r in enumerate(dom_radii) if r == 0.0]
    fixes = len(zero) == 1 and cod_radii[zero[0]] == 0.0
    return fixes, min(dom_radii + cod_radii) >= 1e-9


@st.composite
def float_token(draw) -> str:
    """A finite float as a file may hold it: repr, %.17e or %.40e, maybe '+'-signed or padded."""
    x = draw(st.floats(allow_nan=False, allow_infinity=False)
             | st.sampled_from([0.0, -0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308]))
    token = draw(st.sampled_from(["%r", "%.17e", "%.40e"])) % x
    if not token.startswith("-") and draw(st.booleans()):
        token = "+" + token
    return draw(st.sampled_from(["{}", " {}", "{} ", "  {}  "])).format(token)


TABLE_HEADERS = {"cloud": "x1,x2", "map": "x1,y1"}
MAP_META = {
    "q1": 1, "q2": 1, "fixes_origin": False, "avoids_origin": False,
    "unbounded_domain": False, "ambient": "Affine",
}


def table_file(tmp_path, kind, rows) -> pathlib.Path:
    """A two-column cloud or map file: its header, then ``rows``; no text at all when rows is None."""
    path = tmp_path / f"{kind}.csv"
    path.write_text("" if rows is None else f"{TABLE_HEADERS[kind]}\n{rows}")
    if kind == "map":
        sidecar_path(path).write_text(json.dumps(MAP_META))
    return path


def assert_rejected(path, reason, capsys):
    """Both the loader and the CLI reject the file with ``reason``; the CLI exits 2."""
    load = load_map if sidecar_path(path).exists() else load_cloud
    with pytest.raises(ParseError, match=re.escape(reason)):
        load(path)
    assert main(["invert", str(path), "--output", str(path.with_name("out.csv"))]) == 2
    assert reason in capsys.readouterr().err


def repr_table(header: str, table: np.ndarray) -> bytes:
    """The bytes a table file must hold: the header, then each row's float reprs, CRLF-ended."""
    lines = [header] + [",".join(map(repr, row)) for row in table.tolist()]
    return "".join(line + "\r\n" for line in lines).encode("ascii")


# every float, and the edges where repr switches notation (1e16, 1e-4) or leaves the normals
TABLE_FLOATS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(9.99e15, 1.001e16) | st.floats(-1.001e16, -9.99e15)
    | st.floats(9.99e-5, 1.001e-4) | st.floats(9.99e-6, 1.001e-5)
    | st.floats(-4e-308, 4e-308)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 1e-4])
)


class TestTableFormat:
    def test_short_decimals_stay_short(self, tmp_path):
        path = tmp_path / "c.csv"
        save_cloud(PointCloud(np.array([[0.1, 2.0]]), "c"), path)
        assert path.read_text().splitlines()[1] == "0.1,2.0"

    @given(st.integers(1, 4).flatmap(
        lambda q: st.lists(st.lists(TABLE_FLOATS, min_size=q, max_size=q), min_size=1, max_size=6)))
    @settings(max_examples=200, deadline=None)
    def test_lines_are_repr_and_read_back_bitwise(self, rows):
        table = np.array(rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "c.csv"
            save_cloud(PointCloud(table, "c"), path)
            header = ",".join(f"x{i}" for i in range(1, table.shape[1] + 1))
            assert path.read_bytes() == repr_table(header, table)
            assert load_cloud(path).points.tobytes() == table.tobytes()

    @staticmethod
    def chunked_table(n: int, q: int) -> np.ndarray:
        """n rows of wide exponents, with ±0, subnormals and 5e-324 on the rows around each chunk edge."""
        rng = np.random.default_rng(n)
        table = rng.normal(size=(n, q)) * 10.0 ** rng.uniform(-300, 300, size=(n, q))
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-5]
        for edge in range(0, n + 1, _CHUNK_ROWS):
            for row in (edge - 1, edge):
                if 0 <= row < n:
                    table[row] = rng.choice(special, size=q)
        table[-1] = rng.choice(special, size=q)
        return table

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pool"])
    @pytest.mark.parametrize("n", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 5 * _CHUNK_ROWS // 2])
    def test_chunked_tables_are_repr(self, tmp_path, monkeypatch, n, cpus):
        # the bytes may not depend on the chunking or on the number of CPUs that format them
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cloud = self.chunked_table(n, 3)
        save_cloud(PointCloud(cloud, "c"), tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_bytes() == repr_table("x1,x2,x3", cloud)
        table = self.chunked_table(n, 4)
        m = SampledMap(domain=PointCloud(table[:, :1]), codomain=PointCloud(table[:, 1:]))
        save_map(m, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == repr_table("x1,y1,y2,y3", table)
        assert multiprocessing.active_children() == []

    def test_slow_output_holds_the_pool_back(self, tmp_path, monkeypatch, traced_peak):
        # a sink that takes 30 ms a write, slower than two workers format a 1024-row chunk:
        # the writer may hold only the chunks in flight, not every one the workers finished
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(serialize, "_CHUNK_ROWS", 1024)
        real_open = open

        class SlowFile:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                time.sleep(0.03)
                return self.fh.write(text)

            def writelines(self, lines):
                for text in lines:
                    self.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(serialize, "open", lambda *a, **k: SlowFile(real_open(*a, **k)), raising=False)
        table = self.chunked_table(16 * 1024, 4)
        path = tmp_path / "c.csv"
        _, peak = traced_peak(lambda: save_cloud(PointCloud(table, "c"), path))
        text = path.read_bytes()
        assert text == repr_table("x1,x2,x3,x4", table)
        assert multiprocessing.active_children() == []
        # 2 chunks per worker in flight, each as rows, pickled rows, text and encoded text,
        # peak at 10-11 chunks of text; a writer fed by pool.imap reached 14-15 of the 16
        assert peak < 12 * len(text) / 16

    @pytest.mark.skipif(not pathlib.Path("/dev/full").exists(), reason="no /dev/full device")
    def test_failed_write_ends_the_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cloud = PointCloud(self.chunked_table(3 * _CHUNK_ROWS, 2), "c")
        with pytest.raises(OSError, match=r"\[Errno 28\]"):
            save_cloud(cloud, "/dev/full")
        assert multiprocessing.active_children() == []


class TestCloud:
    """Cloud files, and the table checks that cloud and map files share."""

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(20, 3)) * 10.0 ** rng.uniform(-8, 8), "blob")
        path = tmp_path / "blob.csv"
        save_cloud(cloud, path)
        back = load_cloud(path)
        assert np.array_equal(back.points, cloud.points)
        assert back.label == "blob"

    def test_header_shape(self, tmp_path):
        path = tmp_path / "c.csv"
        save_cloud(PointCloud(np.ones((2, 4)), "c"), path)
        assert path.read_text().splitlines()[0] == "x1,x2,x3,x4"

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ParseError):
            load_cloud(path)

    def test_rejects_ragged_row(self, tmp_path, capsys):
        # a blank line is a row of 0 fields, never skipped
        for kind in TABLE_HEADERS:
            for rows, count in (("1.0,2.0\n3.0\n", 1), ("1.0,2.0\n\n3.0,4.0\n", 0)):
                path = table_file(tmp_path, kind, rows)
                assert_rejected(path, f"{path}:3 has {count} fields, expected 2", capsys)

    def test_rejects_bad_float(self, tmp_path, capsys):
        for kind in TABLE_HEADERS:
            path = table_file(tmp_path, kind, "1.0,two\n")
            assert_rejected(path, f"bad float 'two' in {path}:2", capsys)

    @pytest.mark.parametrize("token", [
        "1_0", "\u0661", "\uff11.5", "\u00a02.0", "\t4.0", "4.0\x0c", "4.0\x1f", "4.0#5",
    ])
    def test_rejects_tokens_float_would_coerce(self, tmp_path, capsys, token):
        # float() reads digit separators, non-ASCII digits and non-ASCII spaces, and strips a
        # tab, \x0b or \x0c around a token; np.loadtxt also strips \x1c-\x1f and can read '#'
        # as the start of a comment
        for kind in TABLE_HEADERS:
            path = table_file(tmp_path, kind, f"1.0,2.0\n3.0,{token}\n")
            assert_rejected(path, f"bad float {token!r} in {path}:3", capsys)

    def test_rejects_quoted_field_at_its_own_line(self, tmp_path, capsys):
        # rows are plain comma-separated floats: a quote is a bad token, and a
        # quoted line break does not join two lines into one row
        for kind in TABLE_HEADERS:
            path = table_file(tmp_path, kind, '1.0,2.0\n"3.0",4.0\n')
            assert_rejected(path, f"bad float '\"3.0\"' in {path}:3", capsys)
            path = table_file(tmp_path, kind, '"1.0\n",2.0\n5.0,6.0\n')
            assert_rejected(path, f"{path}:2 has 1 fields, expected 2", capsys)

    def test_rejects_non_finite_tokens(self, tmp_path, capsys):
        # float() parses these; the reader must still refuse them, at their line
        for token in ("nan", "-inf", "Infinity", "1e400"):
            for kind in TABLE_HEADERS:
                path = table_file(tmp_path, kind, f"1.0,2.0\n3.0,4.0\n5.0,{token}\n{token},6.0\n")
                assert_rejected(path, f"non-finite value {token!r} in {path}:4", capsys)

    @given(st.lists(st.lists(float_token(), min_size=2, max_size=2), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_tokens_load_as_float_reads_them(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "c.csv"
            path.write_text("x1,x2\n" + "".join(",".join(row) + "\n" for row in rows))
            points = load_cloud(path).points
        assert points.tobytes() == np.array([[float(t) for t in row] for row in rows]).tobytes()

    def test_load_memory_is_bounded(self, tmp_path, traced_peak):
        # the result (1.6 MB) and numpy's chunk of parsed lines; a Python float
        # list per row took 18 MB
        path = tmp_path / "c.csv"
        save_cloud(PointCloud(np.random.default_rng(5).normal(size=(10**5, 2))), path)
        cloud, peak = traced_peak(lambda: load_cloud(path))
        assert cloud.points.shape == (10**5, 2)
        assert peak <= 4 * 2**20

    def test_rejects_empty_file(self, tmp_path, capsys):
        for kind in TABLE_HEADERS:
            path = table_file(tmp_path, kind, None)
            assert_rejected(path, f"{path} is empty", capsys)

    def test_rejects_header_only(self, tmp_path, capsys):
        for kind in TABLE_HEADERS:
            path = table_file(tmp_path, kind, "")
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the message alone, without a reader's warning
                assert_rejected(path, f"{path} holds no points", capsys)


class TestMap:
    def test_round_trip_bitwise_with_flags(self, tmp_path):
        m = sample_map()
        path = tmp_path / "m.csv"
        save_map(m, path)
        back = load_map(path)
        assert np.array_equal(back.domain.points, m.domain.points)
        assert np.array_equal(back.codomain.points, m.codomain.points)
        assert back.fixes_origin and back.unbounded_domain
        assert not back.avoids_origin
        assert back.ambient is Ambient.AFFINE

    def test_sphere_ambient_round_trip(self, tmp_path):
        compact = compactify_map(sample_map())
        path = tmp_path / "s.csv"
        save_map(compact, path)
        back = load_map(path)
        assert back.ambient is Ambient.SPHERE
        assert np.array_equal(back.domain.points, compact.domain.points)

    def test_sidecar_holds_exact_keys(self, tmp_path):
        path = tmp_path / "m.csv"
        save_map(sample_map(), path)
        meta = json.loads(sidecar_path(path).read_text())
        assert set(meta) == {
            "q1", "q2", "fixes_origin", "avoids_origin", "unbounded_domain", "ambient",
        }
        assert meta["q1"] == 2 and meta["ambient"] == "Affine"

    def test_save_memory_is_bounded(self, tmp_path, monkeypatch, traced_peak):
        # one stacked chunk of 8192 rows and its text, 2.9 MiB; a copy of the whole
        # 1e5 x 6 table alone takes 4.6 MiB.  In process: on the pool, the number of
        # chunks formatted ahead of the writer depends on scheduling
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        dom = np.random.default_rng(6).normal(size=(10**5, 3))
        m = SampledMap(domain=PointCloud(dom), codomain=PointCloud(2.0 * dom))
        _, peak = traced_peak(lambda: save_map(m, tmp_path / "m.csv"))
        assert peak < 4.5 * 2**20

    def test_load_memory_is_bounded(self, tmp_path, traced_peak):
        # the parsed table (4.6 MiB) and then the two contiguous blocks, 9.2 MiB: the
        # table goes before the samples are checked; checked beside it, 14.5 MiB
        dom = np.random.default_rng(6).normal(size=(10**5, 3))
        path = tmp_path / "m.csv"
        save_map(SampledMap(domain=PointCloud(dom), codomain=PointCloud(2.0 * dom)), path)
        m, peak = traced_peak(lambda: load_map(path))
        assert m.domain.points.tobytes() == dom.tobytes()
        assert m.domain.points.flags.c_contiguous and m.codomain.points.flags.c_contiguous
        assert peak <= 9.5 * 2**20

    def test_map_header_shape(self, tmp_path):
        path = tmp_path / "m.csv"
        save_map(sample_map(), path)
        assert path.read_text().splitlines()[0] == "x1,x2,y1,y2"

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x1,x2,y1,y2\n1.0,0.0,2.0,0.0\n3.0,0.0,6.0,0.0\n")
        with pytest.raises(ParseError):
            load_map(path)

    def test_extra_sidecar_key(self, tmp_path):
        path = tmp_path / "m.csv"
        save_map(sample_map(), path)
        meta = json.loads(sidecar_path(path).read_text())
        meta["surprise"] = 1
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(ParseError):
            load_map(path)

    def test_bad_ambient_value(self, tmp_path):
        path = tmp_path / "m.csv"
        save_map(sample_map(), path)
        meta = json.loads(sidecar_path(path).read_text())
        meta["ambient"] = "Hyperbolic"
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(ParseError):
            load_map(path)

    def test_header_must_match_sidecar_dims(self, tmp_path):
        path = tmp_path / "m.csv"
        save_map(sample_map(), path)
        meta = json.loads(sidecar_path(path).read_text())
        meta["q1"] = 3
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(ParseError):
            load_map(path)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_samples_decide_the_flags_through_a_round_trip(self, data):
        def stack(q):
            direction = st.lists(st.sampled_from([-1.0, 0.5, 1.0]), min_size=q, max_size=q)
            rows = data.draw(st.lists(st.tuples(FLAG_SCALES, direction), min_size=n, max_size=n))
            return np.array([[scale * c for c in row] for scale, row in rows])

        n = data.draw(st.integers(2, 4))
        dom, cod = stack(data.draw(st.integers(1, 3))), stack(data.draw(st.integers(1, 3)))
        m = SampledMap(PointCloud(dom), PointCloud(cod), unbounded_domain=data.draw(st.booleans()))
        assert (m.fixes_origin, m.avoids_origin) == reference_flags(dom.tolist(), cod.tolist())
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "m.csv"
            save_map(m, path)
            back = load_map(path)
        assert (back.fixes_origin, back.avoids_origin, back.unbounded_domain) == (
            m.fixes_origin, m.avoids_origin, m.unbounded_domain)

    @pytest.mark.parametrize("key, bad", [
        ("q1", 2.9),
        ("q1", "2"),
        ("q2", True),
        ("fixes_origin", "false"),
        ("avoids_origin", 0),
        ("unbounded_domain", None),
    ])
    def test_sidecar_values_are_not_coerced(self, tmp_path, key, bad):
        path = tmp_path / "m.csv"
        save_map(sample_map(), path)
        meta = json.loads(sidecar_path(path).read_text())
        meta[key] = bad
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(ParseError, match=f"field '{key}'"):
            load_map(path)


class TestReports:
    def test_schema_stamp_and_newline(self):
        text = dumps_report({"value": 1.5})
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["schema"] == 1
        assert data["value"] == 1.5

    def test_sorted_keys(self):
        text = dumps_report({"zeta": 1, "alpha": 2})
        assert text.index('"alpha"') < text.index('"zeta"')

    def test_infinity_token(self):
        text = dumps_report({"bound": math.inf})
        assert "Infinity" in text

    def test_numpy_scalars_coerce(self):
        text = dumps_report({"count": np.int64(3), "value": np.float64(0.5)})
        data = json.loads(text)
        assert data["count"] == 3 and data["value"] == 0.5
