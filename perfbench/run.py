"""Seeded end-to-end and per-layer benchmark of the ``bilip`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload map-pipeline --seed 0 --seconds 35 --trace 0

The workload's inputs are generated from ``--seed`` with ``bilip generate``.
Then, for ``--seconds``, passes over the workload's commands run the real
``python -m bilip.cli`` one child at a time and time each from spawn to
``os.wait4``.  Every output is gated (see ``gates.py``); a command that
fails any gate counts in ``failed``.

``--trace 0`` reports the end-to-end metrics: medians over passes of the
pass time (its commands' summed time) and of each command's summed time,
the median of the set-ups, of fresh ``import bilip.cli`` processes (run
between the commands, spread over the run) and of the largest child RSS.

``--trace 1`` spends half of ``--seconds`` on such passes, for each
command's CPU time, wait (wall minus CPU; negative when the child's
threads overlap) and peak RSS, and half on in-process replays of the same
commands, alternating spans off and on (``replay.py``).  Layer metrics are
medians over the traced replays; ``busy_s`` is the summed duration of a
layer's spans, child spans included.  ``trace.overhead_s`` (median replay
with spans minus without) reads below 0 when the spans cost less than the
replays vary.  Spans go to ``spans.jsonl`` in the
run's directory under ``.perfbench/``, with a per-name summary of calls,
total and self time in ``run.json``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The run exits non-zero without that line when ``src/bilip`` is
missing, when a child cannot import ``bilip.cli`` or imports it from
outside this checkout, or when the run exceeds its time limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import pathlib
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

import gates
import replay
import spans
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170
SETUP_REPEATS = 3
# A fresh-import probe follows the first command that completes this much
# command time since the previous probe, so the probes spread over the run.
PROBE_EVERY_S = 0.5
IMPORT_PROBE = "import bilip.cli, bilip; print(bilip.__file__)"


class Abort(Exception):
    """Ends the run without a result."""


@dataclasses.dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


class Tally:
    """Attempted and failed operations, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.reasons += [f"{what}: {f}" for f in failures]


def _drain(proc) -> tuple[bytes, bytes]:
    """Read the child's stdout and stderr pipes to their ends."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def run_child(argv, workdir: pathlib.Path, env: dict) -> Child:
    """Run one child to completion and read its rusage from ``os.wait4``.

    Output goes through pipes, not files: on this benchmark's ext4 work
    directories, truncating a file flushes it and freeing its blocks issues
    a discard, and both stall every process that writes to the disk.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=workdir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        stdout, stderr = _drain(proc)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, stdout, stderr)


def bilip_child(argv) -> list[str]:
    return [sys.executable, "-m", "bilip.cli", *argv]


def digest(workdir: pathlib.Path, names) -> str:
    """Hash of the named files and their sidecars, where present."""
    h = hashlib.sha256()
    for name in names:
        for path in (workdir / name, workdir / f"{name}.meta.json"):
            if path.exists():
                with open(path, "rb") as fh:
                    h.update(hashlib.file_digest(fh, "sha256").digest())
    return h.hexdigest()


def remove(workdir: pathlib.Path, names) -> None:
    """Delete the named files and their sidecars.

    Every pass, set-up and replay writes new files: on ext4, truncating and
    rewriting a file that was itself rewritten waits about 130 ms for a flush,
    which would make each repetition slower than the first.
    """
    for name in names:
        for path in (workdir / name, workdir / f"{name}.meta.json"):
            path.unlink(missing_ok=True)


def set_up(workload, workdir, env, tally, repeats: int) -> list[float]:
    """Generate the inputs ``repeats`` times; each set-up must write the same bytes."""
    times, first = [], None
    for _ in range(repeats):
        remove(workdir, workload.inputs)
        start = time.perf_counter()
        children = [run_child(bilip_child(argv), workdir, env) for argv in workload.setup]
        times.append(time.perf_counter() - start)
        for argv, child in zip(workload.setup, children):
            failures = [] if child.code == 0 else [f"exit {child.code}: {child.stderr[-400:]!r}"]
            tally.record(" ".join(argv), failures)
        inputs = digest(workdir, workload.inputs)
        first = first or inputs
        tally.record("set-up", [] if inputs == first else ["inputs differ between set-ups"])
    return times


def import_probe(workdir, env) -> tuple[float, str]:
    """Time a fresh ``import bilip.cli``; the child must import this checkout's package."""
    child = run_child([sys.executable, "-c", IMPORT_PROBE], workdir, env)
    where = child.stdout.decode().strip()
    if child.code != 0:
        raise Abort(f"import bilip.cli failed: {child.stderr[-400:]!r}")
    if not pathlib.Path(where).resolve().is_relative_to(SRC):
        raise Abort(f"children import bilip from {where}, outside {SRC}")
    return child.wall, where


def gate_pass(workload, children, first: list | None, workdir, tally) -> list[str]:
    """Gate one pass; returns each command's output digest (stdout and written map)."""
    digests = []
    for i, (command, child) in enumerate(zip(workload.commands, children)):
        h = hashlib.sha256(child.stdout)
        if command.output:
            h.update(digest(workdir, [command.output]).encode())
        digests.append(h.hexdigest())
        if child.code != 0:
            failures = [f"exit {child.code}: {child.stderr[-400:]!r}"]
        else:
            report, failures = gates.parse_report(child.stdout)
            if report is not None:
                failures += gates.check_report(command, report)
            if first is not None and digests[i] != first[i]:
                failures.append("output differs from the first pass")
        tally.record(" ".join(command.argv), failures)
    return digests


def check_map_outputs(workload, workdir, tally) -> None:
    """Reload the last pass's map files in process; the passes wrote identical bytes."""
    import_checkout()
    for command in workload.commands:
        if command.output:
            tally.record(f"reload {command.output}", gates.check_map_output(command, workdir))


def measure(workload, workdir, env, seconds: float, tally) -> dict:
    """Passes over the commands until the next one would overrun ``seconds``.

    Import probes run between the commands, every ``PROBE_EVERY_S`` of
    command time; a pass's wall time is the sum of its commands' times.
    """
    passes, imports, first = [], [], None
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        remove(workdir, workload.outputs)
        began = time.perf_counter()
        children, since_probe = [], 0.0
        for command in workload.commands:
            children.append(run_child(bilip_child(command.argv), workdir, env))
            since_probe += children[-1].wall
            if since_probe >= PROBE_EVERY_S:
                imports.append(import_probe(workdir, env)[0])
                since_probe = 0.0
        wall = sum(child.wall for child in children)
        digests = gate_pass(workload, children, first, workdir, tally)
        first = first or digests
        passes.append((wall, children))
        last = time.perf_counter() - began
    return {"passes": passes, "imports": imports}


def end_to_end(workload, runs: dict, setup_times: list[float]) -> dict[str, float]:
    passes = runs["passes"]
    med = statistics.median
    m = {
        "setup_s": med(setup_times),
        "wall_s": med(wall for wall, _ in passes),
        "import_s": med(runs["imports"]),
    }
    for name in workloads.TIMED_COMMANDS:
        m[f"{name}_s"] = med(command_totals(workload, passes, name, lambda ch: ch.wall))
    m["peak_rss_mb"] = med(max(ch.rss_mb for ch in children) for _, children in passes)
    return m


def command_totals(workload, passes, name, value, reduce=sum) -> list[float]:
    """Per pass, ``reduce`` of ``value(child)`` over that pass's ``name`` commands."""
    return [reduce(value(ch) for c, ch in zip(workload.commands, children) if c.name == name)
            for _, children in passes]


def cli_metrics(workload, passes) -> dict[str, float]:
    med = statistics.median
    m = {}
    for name in workloads.TIMED_COMMANDS:
        cpu = command_totals(workload, passes, name, lambda ch: ch.cpu)
        wall = command_totals(workload, passes, name, lambda ch: ch.wall)
        m[f"cli.{name}.cpu_s"] = med(cpu)
        m[f"cli.{name}.wait_s"] = med(w - c for w, c in zip(wall, cpu))
        m[f"cli.{name}.rss_mb"] = med(command_totals(workload, passes, name,
                                                     lambda ch: ch.rss_mb, max))
    return m


def traced_run(workload, workdir, env, seconds: float, tally, record: dict) -> dict[str, float]:
    argvs = [c.argv for c in workload.commands]
    runs = measure(workload, workdir, env, seconds / 2, tally)
    check_map_outputs(workload, workdir, tally)
    expected = [ch.stdout for ch in runs["passes"][0][1]]

    generated = digest(workdir, workload.inputs)
    remove(workdir, workload.inputs)
    rec = spans.Recorder()
    _, setup_out = replay.replay(workload.setup, workdir, rec, tag="setup.")
    setup_spans = list(rec.spans)
    for argv, (code, _) in zip(workload.setup, setup_out):
        tally.record("replay " + " ".join(argv), [] if code == 0 else [f"exit {code}"])
    if digest(workdir, workload.inputs) != generated:
        tally.record("replay set-up", ["in-process inputs differ from the CLI's"])
    off, on, layer = [], [], []
    start = time.perf_counter()
    while not on or time.perf_counter() - start + off[-1] + on[-1] <= seconds / 2:
        remove(workdir, workload.outputs)
        elapsed, outs_off = replay.replay(argvs, workdir)
        off.append(elapsed)
        remove(workdir, workload.outputs)
        mark = len(rec.spans)
        elapsed, outs_on = replay.replay(argvs, workdir, rec, tag=f"r{len(on)}.")
        on.append(elapsed)
        for outs in (outs_off, outs_on):
            for argv, (code, out), want in zip(argvs, outs, expected):
                failures = [] if code == 0 else [f"exit {code}"]
                if code == 0 and out != want:
                    failures.append("in-process report differs from the CLI's")
                tally.record("replay " + " ".join(argv), failures)
        layer.append(replay.layer_metrics(rec.spans[mark:], setup_spans, outs_on, argvs))

    med = statistics.median
    m = {k: med(row[k] for row in layer) for k in layer[0]}
    m["distortion.estimate_bilip.all.peak_mb"] = replay.allpairs_peak_mb(argvs, workdir)
    m.update(cli_metrics(workload, runs["passes"]))
    m["trace.overhead_s"] = med(on) - med(off)
    command_wall = med(sum(ch.wall for ch in children) for _, children in runs["passes"])
    m["trace.replay_gap_s"] = command_wall - len(argvs) * med(runs["imports"]) - med(off)

    spans.write_jsonl(rec.spans, workdir.parent / "spans.jsonl")
    record["replays"] = {"off_s": off, "on_s": on}
    record["span_summary"] = spans.summary(rec.spans)
    return m


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fs_type(path: pathlib.Path) -> str:
    """File-system type of the longest mount point containing ``path``."""
    best, kind = "", "unknown"
    try:
        lines = pathlib.Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return kind
    for line in lines:
        fields = line.split()
        mount = fields[4].replace("\\040", " ")
        inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[fields.index("-") + 1]
    return kind


def environment(seed: int, workdir: pathlib.Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
        "workdir": str(workdir),
        "fs_type": fs_type(workdir),
    }


def pinned_env() -> dict:
    """The children's environment: this checkout's ``src`` first on PYTHONPATH."""
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + rest if rest else ""))


def import_checkout() -> None:
    """Import this checkout's bilip into the benchmark's own process.

    Called only after the timed children have run: a child's peak RSS
    counts its parent's at spawn, so numpy stays out of this process until then.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bilip

    if not pathlib.Path(bilip.__file__).resolve().is_relative_to(SRC):
        raise Abort(f"imported bilip from {bilip.__file__}, outside {SRC}")


def run(args) -> dict:
    if not (SRC / "bilip" / "__init__.py").is_file():
        raise Abort(f"no bilip package under {SRC}")
    workload = workloads.build(args.workload, args.seed)
    base = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    workdir = base / "data"
    workdir.mkdir(parents=True)
    env = pinned_env()
    tally = Tally()
    try:
        record = {"workload": args.workload, "env": environment(args.seed, workdir)}
        record["env"]["bilip"] = import_probe(workdir, env)[1]
        print("env " + json.dumps(record["env"], sort_keys=True))
        if args.trace:
            set_up(workload, workdir, env, tally, repeats=1)
            metrics = traced_run(workload, workdir, env, args.seconds, tally, record)
        else:
            setup_times = set_up(workload, workdir, env, tally, SETUP_REPEATS)
            runs = measure(workload, workdir, env, args.seconds, tally)
            check_map_outputs(workload, workdir, tally)
            metrics = end_to_end(workload, runs, setup_times)
            record["pass_s"] = [wall for wall, _ in runs["passes"]]
            record["command_s"] = [[ch.wall for ch in children] for _, children in runs["passes"]]
            record["import_s"] = runs["imports"]
            record["setup_s"] = setup_times
            print(f"passes {len(runs['passes'])}, import probes {len(runs['imports'])}, "
                  f"set-ups {len(setup_times)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                  failures=tally.reasons)
    (base / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"failed_ratio {tally.failed / tally.attempted!r} ({tally.failed} of {tally.attempted})")
    units = unit_table()
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def unit_table() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _time_limit(signum, frame):
    raise Abort(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _time_limit)
    signal.alarm(RUN_LIMIT_S)
    try:
        result = run(args)
    except Abort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
