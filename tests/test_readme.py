"""The README's library example runs as written."""

import pathlib
import re

from bilip.fixtures import map_samples
from bilip.serialize import save_map
from cli_runner import run_python

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    save_map(map_samples("scale-2", count=200), tmp_path / "samples.csv")
    # a fresh interpreter, so the example must import everything it uses
    out = run_python("-c", block, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    constant_line, exchange_line = out.stdout.splitlines()
    assert float(constant_line.split()[0]) == 2.0
    assert max(map(float, exchange_line.split())) < 1e-10
