"""Replay every benchmark reference digest in-process.

mfbench/references.json maps each benchmark command (its arguments, then
name=text for each matrix file it reads) to the sha256 of the report it
printed when the digest was recorded.  Every key is run here through
cli.main and must exit 0 and print the same bytes, so "reports are
byte-identical" is checked on every test run, not only by the benchmark.
A deliberate report change is re-recorded with `mfbench/run.py --record`.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

from mfatlas.cli import main

REFERENCES = Path(__file__).resolve().parent.parent / "mfbench" / "references.json"
# the first " name.json=" starts the matrix file that follows the arguments
_FILE = re.compile(r" ([\w.-]+\.json)=")


def _command(key: str) -> tuple[list[str], dict[str, str]]:
    m = _FILE.search(key)
    if m is None:
        return key.split(" "), {}
    return key[:m.start()].split(" "), {m.group(1): key[m.end():]}


def test_every_reference_digest_replays(tmp_path, monkeypatch):
    refs = json.loads(REFERENCES.read_text())
    assert len(refs) >= 295
    monkeypatch.chdir(tmp_path)
    failed = []
    for key, digest in sorted(refs.items()):
        argv, files = _command(key)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0 or hashlib.sha256(buf.getvalue().encode()).hexdigest() != digest:
            failed.append(key)
    assert not failed, f"{len(failed)} of {len(refs)} commands failed or changed: {failed[:5]}"
