"""CSV and JSON round-tripping for clouds, sampled maps, and reports.

Coordinates are written with repr, Python's shortest round-trip float
format, so save followed by load reproduces every value bit for bit.
Large tables are formatted on every usable CPU, with the same bytes.
Sampled maps carry a JSON sidecar next to the CSV with the metadata the
CSV cannot hold; it restates the origin flags, which the samples decide.
``load_map`` holds the parsed table and its two contiguous blocks, the
domain and the codomain, then only the blocks while the map checks its
samples: about twice the samples at its peak.
"""

from __future__ import annotations

import collections
import errno
import json
import os
import pathlib

import numpy as np

from .errors import HypothesisError, ParseError
from .geometry import PointCloud
from .maps import Ambient, SampledMap

SCHEMA_VERSION = 1
META_KEYS = frozenset(
    {"q1", "q2", "fixes_origin", "avoids_origin", "unbounded_domain", "ambient"}
)
_CHUNK_ROWS = 8192  # rows formatted by one % call; the written bytes do not depend on it
_IN_FLIGHT = 2  # chunks per pool worker sent and not yet written: one formatting, one waiting


def _cloud_header(q: int) -> list[str]:
    return [f"x{i}" for i in range(1, q + 1)]


def _map_header(q1: int, q2: int) -> list[str]:
    return [f"x{i}" for i in range(1, q1 + 1)] + [f"y{i}" for i in range(1, q2 + 1)]


def _fields(line: str) -> list[str]:
    """The fields of one file line: plain comma-separated text, no quoting; a blank line has none."""
    line = line.rstrip("\r\n")
    return line.split(",") if line else []


def _format_rows(line: str, rows: np.ndarray) -> str:
    """``rows`` as text, one ``line`` per row, from a single % call; ``line`` holds one %r per column."""
    # Python floats: %r of a np.float64 is 'np.float64(...)' under numpy 2
    return (line * len(rows)) % tuple(rows.ravel().tolist())


def _format_pool(chunks: int):
    """A fork pool with one worker per usable CPU, at most ``chunks``, and its number of workers;
    None when fewer than two workers would run or the platform cannot fork."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, chunks)
    if workers < 2:
        return None
    import multiprocessing  # here: at module level it would lengthen every command's import

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork").Pool(workers), workers


def _write_table(path, header: list[str], *blocks: np.ndarray) -> None:
    """Write ``header``, then one CRLF-ended line per row index: that row of every block.

    Every value goes through Python's float repr, in chunks of _CHUNK_ROWS
    rows, each stacked from the blocks when its turn comes, so the whole
    table is never copied.  A table of several chunks is formatted on a
    pool of forked processes, one per usable CPU, and written in row order;
    at most _IN_FLIGHT chunks per worker are sent and not yet written, so a
    slow output holds up the workers rather than filling the memory.  The
    pool ends before this returns, on success or on error.  The bytes do
    not depend on the number of CPUs.
    """
    line = ",".join(["%r"] * sum(b.shape[1] for b in blocks)) + "\r\n"
    starts = range(0, len(blocks[0]), _CHUNK_ROWS)
    chunks = (np.hstack([b[s:s + _CHUNK_ROWS] for b in blocks]) for s in starts)
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(",".join(header) + "\r\n")
        formatting = _format_pool(len(starts))
        if formatting is None:
            fh.writelines(_format_rows(line, c) for c in chunks)
            return
        pool, workers = formatting
        with pool:
            # not pool.imap: it sends every chunk at once and keeps each one formatted ahead of the writer
            pending = collections.deque()
            for chunk in chunks:
                if len(pending) == _IN_FLIGHT * workers:
                    fh.write(pending.popleft().get())
                pending.append(pool.apply_async(_format_rows, (line, chunk)))
            while pending:
                fh.write(pending.popleft().get())


def _rows(fh):
    """The lines of ``fh``; ValueError where np.loadtxt would skip a blank line, strip a
    control character around a field, or only warn that there is no data line."""
    line = None
    for line in fh:
        if line == "\n" or not line.rstrip("\n").isprintable():
            raise ValueError(f"blank or unprintable line {line!r}")
        yield line
    if line is None:
        raise ValueError("no data line")


def _read_table(path: pathlib.Path, header_error) -> np.ndarray:
    """The float rows of a headed CSV table, shape (n, number of header fields);
    ``header_error(header)`` says why the header is unacceptable, or returns None."""
    try:
        with open(path, encoding="ascii") as fh:
            header = _fields(fh.readline())
            if header_error(header) is None:
                table = np.loadtxt(_rows(fh), delimiter=",", comments=None, quotechar=None, ndmin=2)
                if table.shape[1] == len(header) and np.isfinite(table).all():
                    return table
    except ValueError:  # UnicodeDecodeError too
        pass
    raise _fault(path, header_error)


def _fault(path: pathlib.Path, header_error) -> ParseError:
    """Why ``_read_table`` rejects ``path``, from one pass that decodes UTF-8 with backslash escapes:
    an empty file, the header, a line's field count or first bad token, a non-finite value, no rows."""
    with open(path, encoding="utf-8", errors="backslashreplace") as fh:
        header = _fields(first := fh.readline())
        problem = header_error(header) if first else "is empty"
        if problem is not None:
            return ParseError(f"{path} {problem}")
        non_finite = None
        for lineno, line in enumerate(fh, start=2):
            row = _fields(line)
            if len(row) != len(header):
                return ParseError(f"{path}:{lineno} has {len(row)} fields, expected {len(header)}")
            for token in row:
                try:
                    # float() alone would also read '1_0', non-ASCII digits and a tab
                    if "_" in token or not (token.isascii() and token.isprintable()):
                        raise ValueError(token)
                    value = float(token)
                except ValueError:
                    return ParseError(f"bad float {token!r} in {path}:{lineno}")
                if non_finite is None and not np.isfinite(value):
                    non_finite = ParseError(f"non-finite value {token!r} in {path}:{lineno}")
    # np.loadtxt and float() read printable ASCII alike, so a file whose lines all pass has no rows
    return non_finite or ParseError(f"{path} holds no points")


def save_cloud(cloud: PointCloud, path) -> None:
    _write_table(path, _cloud_header(cloud.dim), cloud.points)


def load_cloud(path) -> PointCloud:
    path = pathlib.Path(path)

    def header_error(header: list[str]) -> str | None:
        if header and header == _cloud_header(len(header)):
            return None
        return f"header {header!r} is not x1..xq"

    return PointCloud(_read_table(path, header_error), path.stem)


def sidecar_path(path) -> pathlib.Path:
    return pathlib.Path(f"{path}.meta.json")


def save_map(m: SampledMap, path) -> None:
    meta = {
        "q1": m.dim_in,
        "q2": m.dim_out,
        "fixes_origin": m.fixes_origin,
        "avoids_origin": m.avoids_origin,
        "unbounded_domain": m.unbounded_domain,
        "ambient": m.ambient.value,
    }
    _write_table(path, _map_header(m.dim_in, m.dim_out), m.domain.points, m.codomain.points)
    sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_map(path) -> SampledMap:
    path = pathlib.Path(path)
    if not path.exists():
        raise FileNotFoundError(errno.ENOENT, "No such file or directory", str(path))
    side = sidecar_path(path)
    if not side.exists():
        raise ParseError(f"missing sidecar {side}")
    try:
        meta = json.loads(side.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{side} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict) or set(meta) != META_KEYS:
        raise ParseError(f"{side} must hold exactly the keys {sorted(META_KEYS)}")
    for key in ("q1", "q2"):
        if type(meta[key]) is not int:
            raise ParseError(f"{side} field {key!r} must be a JSON integer, got {meta[key]!r}")
    for key in ("fixes_origin", "avoids_origin", "unbounded_domain"):
        if type(meta[key]) is not bool:
            raise ParseError(f"{side} field {key!r} must be a JSON boolean, got {meta[key]!r}")
    q1, q2 = meta["q1"], meta["q2"]
    try:
        ambient = Ambient(meta["ambient"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{side} has malformed values: {exc}") from exc
    if q1 < 1 or q2 < 1:
        raise ParseError(f"{side} dimensions must be positive")

    def header_error(header: list[str]) -> str | None:
        return None if header == _map_header(q1, q2) else f"header does not match q1={q1}, q2={q2}"

    table = _read_table(path, header_error)
    # contiguous copies: a strided view would be copied again by every
    # geometry call on it, which wants C-ordered rows; the table goes
    # before the samples are checked
    domain, codomain = table[:, :q1].copy(), table[:, q1:].copy()
    del table
    try:
        return SampledMap(
            domain=PointCloud(domain, path.stem),
            codomain=PointCloud(codomain, f"{path.stem} image"),
            fixes_origin=meta["fixes_origin"],
            avoids_origin=meta["avoids_origin"],
            unbounded_domain=meta["unbounded_domain"],
            ambient=ambient,
        )
    except HypothesisError as exc:
        # the samples decide the origin flags; a sidecar only restates them
        raise HypothesisError(f"{side} field {exc}") from None


def dumps_report(payload: dict) -> str:
    """Serialize a report dict: schema-stamped, sorted keys, one per line.

    Non-finite floats use the json module's Infinity/NaN tokens, so a
    diverging contraction bound stays visible rather than turning into
    null.
    """
    body = {"schema": SCHEMA_VERSION, **payload}
    return json.dumps(body, indent=2, sort_keys=True, default=_coerce) + "\n"


def _coerce(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")
