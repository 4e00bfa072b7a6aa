"""Every subcommand runs under the benchmark's layer tracer: mfbench/tracer.py
wraps each mfatlas layer from outside and fails a traced run when a layer
cannot be imported or an original function stays reachable after wrapping
(its `unwrapped` list), so a change that breaks either shows here first."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = {
    "build": ["build", "--n", "4", "--element", "s"],
    "verify": ["verify", "--n", "2", "--element", "s", "--samples", "2"],
    "count": ["count", "--n", "3", "--element", "n"],
    "atlas": ["atlas", "--n", "3", "--element", "s"],
    "check-examples": ["check-examples", "--self-test"],
}


@pytest.mark.parametrize("subcommand", sorted(COMMANDS))
def test_subcommand_runs_fully_wrapped(tmp_path, subcommand):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "mfbench" / "tracer.py"), str(out), "--", *COMMANDS[subcommand]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text())
    assert trace["unwrapped"] == []
    assert trace["calls"]["cli.main"] == 1
