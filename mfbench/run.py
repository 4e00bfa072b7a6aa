"""mfatlas benchmark: run one workload's ``mf`` commands and report metrics.

Usage, from the repository root::

    python3 mfbench/run.py --workload atlas-sl4 --seed 0 --seconds 20 --trace 0
    python3 mfbench/run.py --workload all --seed 0 --seconds 20 --trace 0
    python3 mfbench/run.py --workload build-sl4 --seed 0 --seconds 1 --tamper

Each command runs in a fresh ``python -m mfatlas.cli`` process, one at a time:
a closed loop with one client, where the next command starts when the previous
one has exited.  A pass is one run of the workload's whole command list; a run
makes one pass, and another one while it is expected to end within
``--seconds``.

``--trace 0`` reports the end-to-end metrics.  The headline, ``pass_cal``, is
the pass's CPU time in units of a reference kernel (``calibrate.py``) that runs
beside the timed part of the run on the same CPU at low priority, so that it
does not move when the machine's speed drifts; ``setup_s`` is calibrated the
same way and given in seconds at the reference machine's speed.  ``--trace 1`` runs one untraced pass and then one
pass in which each command runs under ``mfbench/tracer.py``, and reports the
per-layer metrics.  Every output is checked (reference digests
where recorded, independent invariants always); the last line of standard
output is one JSON object, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import workloads as wl
from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
WORK = BENCH_DIR / ".work"
SETUP_REPEATS = 5
MIN_CALIBRATION_RUNS = 20
COMMAND_TIMEOUT_S = 150
COVERAGE_TOLERANCE = 0.05
WRONG_DIGEST = "0" * 64
SUBCOMMANDS = ("build", "atlas", "count", "verify", "check-examples")
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__eq__")


class SetupError(Exception):
    """The program under test cannot be found or imported."""


@dataclass
class Outcome:
    cmd: wl.Command
    rc: int
    wall_s: float
    rss_kb: int
    cpu_s: float
    stdout: bytes
    stderr: bytes
    problems: list[str]
    trace: dict | None = None
    spawn_unix: float = 0.0
    exit_unix: float = 0.0


# -- child processes ---------------------------------------------------------------


def spawn(argv: list[str], cwd: Path, out_path: Path, err_path: Path,
          timeout_s: float = COMMAND_TIMEOUT_S) -> tuple[int, float, int, float, float, float]:
    """Run argv to completion; return (exit code, wall seconds, max RSS in KiB,
    spawn and exit wall-clock stamps, CPU seconds).  A child past ``timeout_s``
    is killed."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn_unix = time.time()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)},
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        exit_unix = time.time()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss, spawn_unix, exit_unix,
            usage.ru_utime + usage.ru_stime)


def measure_setup(workdir: Path) -> list[float]:
    """Start a fresh interpreter and import mfatlas.cli, SETUP_REPEATS times;
    return the CPU seconds of each.  The first call also compiles the package's
    bytecode before any command is timed."""
    probe = ("import mfatlas.cli, sys; "
             f"sys.exit(0 if mfatlas.cli.__file__.startswith({str(SRC)!r}) else 3)")
    times = []
    for _ in range(SETUP_REPEATS):
        rc, _, _, _, _, cpu = spawn([sys.executable, "-c", probe], workdir,
                                    workdir / "setup.out", workdir / "setup.err", 60)
        if rc != 0:
            err = (workdir / "setup.err").read_text(errors="replace").strip()
            raise SetupError(f"cannot import mfatlas.cli (exit {rc}): {err[-400:]}")
        times.append(cpu)
    return times


def run_command(cmd: wl.Command, workdir: Path, refs: dict, index: int,
                trace: bool) -> Outcome:
    for name, text in cmd.files.items():
        (workdir / name).write_text(text)
    out_path, err_path = workdir / f"cmd{index}.out", workdir / f"cmd{index}.err"
    trace_path = workdir / f"trace{index}.json"
    if trace:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), "--", *cmd.argv]
    else:
        argv = [sys.executable, "-m", "mfatlas.cli", *cmd.argv]
    rc, wall, rss, spawn_unix, exit_unix, cpu = spawn(argv, workdir, out_path, err_path)
    stdout = out_path.read_bytes()
    outcome = Outcome(cmd, rc, wall, rss, cpu, stdout, err_path.read_bytes(), [],
                      spawn_unix=spawn_unix, exit_unix=exit_unix)
    outcome.problems = check_outcome(cmd, rc, stdout, refs.get(cmd.key()))
    if trace:
        try:
            outcome.trace = json.loads(trace_path.read_text())
        except (OSError, ValueError) as exc:
            outcome.problems.append(f"no trace written: {exc}")
    return outcome


def check_outcome(cmd: wl.Command, rc: int, stdout: bytes, digest: str | None,
                  expect: dict | None = None) -> list[str]:
    problems = wl.check_report(cmd, rc, stdout, expect)
    if digest is not None and hashlib.sha256(stdout).hexdigest() != digest:
        problems.append("stdout differs from the reference digest")
    return problems


class Calibrator:
    """``calibrate.py`` running beside the timed part of a run, on the same CPU
    at low priority.  ``stop()`` ends it and returns the kernel's mean CPU
    seconds per run."""

    def __enter__(self) -> "Calibrator":
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "calibrate.py")],
                                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("the calibration kernel did not start")
        return self

    def stop(self) -> float:
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=60)
        res = json.loads(out.strip().splitlines()[-1])
        if self.proc.returncode != 0 or res["runs"] < MIN_CALIBRATION_RUNS:
            raise RuntimeError(f"the calibration kernel gave {res} (exit {self.proc.returncode})")
        return res["cpu_s"] / res["runs"]

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


@dataclass
class Pass:
    wall_s: float
    outcomes: list[Outcome]

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)


def run_pass(cmds: list[wl.Command], workdir: Path, refs: dict, trace: bool) -> Pass:
    start = time.perf_counter()
    outcomes = [run_command(c, workdir, refs, i, trace) for i, c in enumerate(cmds)]
    return Pass(time.perf_counter() - start, outcomes)


def harness_self_check(outcome: Outcome, refs: dict) -> list[str]:
    """The checks must reject a wrong digest and a wrong invariant for an output
    they just accepted; otherwise the correctness check is vacuous."""
    cmd = outcome.cmd
    bad = []
    if not check_outcome(cmd, outcome.rc, outcome.stdout, WRONG_DIGEST):
        bad.append("a wrong reference digest was accepted")
    if not check_outcome(cmd, outcome.rc, outcome.stdout, refs.get(cmd.key()),
                         wl.tampered_expectation(cmd.expect)):
        bad.append("a wrong invariant was accepted")
    return bad


def tamper(cmds: list[wl.Command], refs: dict) -> dict:
    """Give the first command a wrong reference digest and the last one a wrong
    invariant; a run over these commands must report them as failed."""
    refs = dict(refs)
    refs[cmds[0].key()] = WRONG_DIGEST
    cmds[-1].expect = wl.tampered_expectation(cmds[-1].expect)
    return refs


# -- metrics --------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup: list[float], passes: list[Pass], cal_s: float) -> tuple[dict, dict]:
    """BENCHMARK.json end-to-end metrics, and the extra per-subcommand detail.
    ``setup`` holds CPU seconds and ``cal_s`` is the calibration kernel's CPU
    seconds per run in the same run."""
    metrics = {
        "setup_s": metric(statistics.median(setup) * calibrate.REFERENCE_S / cal_s, "s"),
        "pass_cal": metric(statistics.median(p.cpu_s for p in passes) / cal_s, "cal"),
        "peak_rss_mb": metric(statistics.median(
            max(o.rss_kb for o in p.outcomes) / 1024 for p in passes), "MB"),
    }
    detail = {
        "pass_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "pass_cpu_s": metric(statistics.median(p.cpu_s for p in passes), "s"),
        "setup_cpu_s": metric(statistics.median(setup), "s"),
        "cal_ms": metric(cal_s * 1000, "ms"),
    }
    for sub in SUBCOMMANDS:
        if any(o.cmd.subcommand == sub for o in passes[0].outcomes):
            detail[f"{sub.replace('-', '_')}_s"] = metric(statistics.median(
                sum(o.wall_s for o in p.outcomes if o.cmd.subcommand == sub) for p in passes), "s")
    outs = [o for p in passes for o in p.outcomes]
    detail["ops_failed_frac"] = metric(sum(bool(o.problems) for o in outs) / len(outs), "ratio")
    return metrics, detail


def per_layer(untraced_s: float, traced_s: float, outcomes: list[Outcome]) -> tuple[dict, list[str]]:
    """Per-layer metrics summed over one traced pass, and coverage problems."""
    calls: dict[str, int] = {}
    timed: dict[str, float] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    busy_s = dict.fromkeys(LAYERS, 0.0)
    max_cells = max_terms = 0
    problems = []
    for i, o in enumerate(outcomes):
        t = o.trace
        if t is None:
            continue
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t["timed"].items():
            timed[k] = timed.get(k, 0.0) + v
        for layer, d in t["layers"].items():
            self_s[layer] += d["self_s"]
            busy_s[layer] += d["busy_s"]
        max_cells = max(max_cells, t["max_cells"])
        max_terms = max(max_terms, t["max_terms"])
        # Wall time minus start-up (spawn to entering cli.main) and shut-down
        # (leaving cli.main to exit), against the layers' summed self time.
        inside = o.wall_s - (t["main_start_unix"] - o.spawn_unix) - (o.exit_unix - t["main_end_unix"])
        covered = sum(d["self_s"] for d in t["layers"].values())
        if abs(covered - inside) > COVERAGE_TOLERANCE * inside:
            problems.append(f"command {i}: layer self times sum to {covered:.4f} s, "
                            f"wall minus start-up is {inside:.4f} s")
        if t["unwrapped"]:
            problems.append(f"command {i}: unwrapped references: {t['unwrapped'][:5]}")

    def count(*keys: str) -> int:
        return sum(calls.get(k, 0) for k in keys)

    span_tests = count("linalg.span_contains", "linalg.span_le")
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(self_s[layer], "s")
    m["scalar.ops"] = metric(count(*(f"scalar.Scalar.{op}" for op in SCALAR_OPS),
                                   "scalar.as_scalar"), "count")
    m["linalg.rank.calls"] = metric(count("linalg.mat_rank"), "count")
    m["linalg.rref.calls"] = metric(count("linalg.rref"), "count")
    m["linalg.kernel.calls"] = metric(count("linalg.mat_kernel"), "count")
    m["linalg.span_contains.calls"] = metric(count("linalg.span_contains"), "count")
    m["linalg.matmul.calls"] = metric(count("linalg.ExactMatrix.__mul__"), "count")
    m["linalg.max_cells"] = metric(max_cells, "count")
    m["linalg.ranks_per_span_test"] = metric(
        count("linalg.mat_rank") / span_tests if span_tests else 0.0, "ratio")
    m["lie.is_regular.calls"] = metric(count("lie.is_regular"), "count")
    m["lie.is_regular.busy_s"] = metric(timed.get("lie.is_regular", 0.0), "s")
    m["mpoly.mul.calls"] = metric(count("mpoly.MPoly.__mul__"), "count")
    m["mpoly.subs.calls"] = metric(count("mpoly.MPoly.subs"), "count")
    m["mpoly.eval.calls"] = metric(count("mpoly.MPoly.eval"), "count")
    m["mpoly.diff.calls"] = metric(count("mpoly.MPoly.diff"), "count")
    m["mpoly.max_terms"] = metric(max_terms, "count")
    m["unipoly.calls"] = metric(sum(v for k, v in calls.items() if k.startswith("unipoly.")),
                                "count")
    m["mfsystem.mf_values.calls"] = metric(count("mfsystem.mf_values"), "count")
    m["mfsystem.build_system.calls"] = metric(count("mfsystem.build_system"), "count")
    m["mfsystem.build_system.busy_s"] = metric(timed.get("mfsystem.build_system", 0.0), "s")
    m["flags.enumerate_atlas.calls"] = metric(count("flags.enumerate_atlas"), "count")
    m["flags.enumerate_atlas.busy_s"] = metric(timed.get("flags.enumerate_atlas", 0.0), "s")
    m["flags.parabolics_built"] = metric(count("flags.FlagParabolic.__init__"), "count")
    m["sampling.draws"] = metric(sum(v for k, v in calls.items()
                                     if k.startswith("sampling.random_")), "count")
    m["components.busy_s"] = metric(busy_s["components"], "s")
    for name in wl.VERIFY_CHECKS:
        m[f"verify.{name}.busy_s"] = metric(timed.get(f"verify.{name}", 0.0), "s")
    for name in wl.CORPUS_CHECKS:
        m[f"corpus.{name}.busy_s"] = metric(timed.get(f"corpus.{name}", 0.0), "s")
    m["trace_overhead_frac"] = metric(traced_s / untraced_s - 1.0, "ratio")
    return m, problems


# -- one workload -------------------------------------------------------------------------


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tamper_checks: bool = False) -> dict:
    if not (SRC / "mfatlas" / "cli.py").is_file():
        raise SetupError(f"no mfatlas sources under {SRC}")
    cmds = wl.WORKLOADS[name](seed)
    refs = load_references()
    if tamper_checks:
        refs = tamper(cmds, refs)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _measure(name, seed, seconds, trace, cmds, refs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record_references(name: str, seed: int) -> int:
    """Run each command of the workload once and store the sha256 of its
    stdout in references.json; only outputs that pass the invariants are
    stored.  Returns the number of commands that failed."""
    refs = load_references()
    workdir = WORK / f"record-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    failed = 0
    try:
        for i, cmd in enumerate(wl.WORKLOADS[name](seed)):
            o = run_command(cmd, workdir, {}, i, trace=False)
            if o.problems:
                failed += 1
                print(f"not recorded {' '.join(cmd.argv)}: {o.problems}", file=sys.stderr)
            else:
                refs[cmd.key()] = hashlib.sha256(o.stdout).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return failed


def _measure(name, seed, seconds, trace, cmds, refs, workdir) -> dict:
    problems: list[str] = []
    if trace:
        setup = measure_setup(workdir)
        plain = run_pass(cmds, workdir, refs, trace=False)
        traced = run_pass(cmds, workdir, refs, trace=True)
        passes = [plain, traced]
        metrics, coverage = per_layer(plain.wall_s, traced.wall_s, traced.outcomes)
        problems += coverage
        dump = {"workload": name, "seed": seed, "untraced_pass_s": plain.wall_s,
                "traced_pass_s": traced.wall_s,
                "commands": [{"argv": o.cmd.argv, "wall_s": o.wall_s, "trace": o.trace}
                             for o in traced.outcomes]}
        (WORK / f"trace-{name}-{seed}.json").write_text(json.dumps(dump))
        detail = {}
    else:
        with Calibrator() as cal:
            setup = measure_setup(workdir)
            passes = []
            start = time.perf_counter()
            # Start another pass only while it is expected to end within the run.
            while not passes or (time.perf_counter() - start
                                 + statistics.median(p.wall_s for p in passes) <= seconds):
                passes.append(run_pass(cmds, workdir, refs, trace=False))
            setup += measure_setup(workdir)
            cal_s = cal.stop()
        metrics, detail = end_to_end(setup, passes, cal_s)
    outcomes = [o for p in passes for o in p.outcomes]
    problems += harness_self_check(passes[0].outcomes[0], refs)
    failed = [o for o in outcomes if o.problems]
    for o in failed:
        err = o.stderr.decode(errors="replace").strip().splitlines()[-1:]
        print(f"FAILED {' '.join(o.cmd.argv)}: {'; '.join(o.problems)} {err}", file=sys.stderr)
    for p in problems:
        print(f"FAILED harness: {p}", file=sys.stderr)
    return {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "setup_samples": len(setup),
        "commands_per_pass": len(cmds),
        "correct": not failed and not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
        "detail": detail,
    }


def describe(res: dict) -> list[str]:
    lines = [f"workload {res['workload']} seed {res['seed']}: {res['passes']} pass(es) of "
             f"{res['commands_per_pass']} command(s), {res['failed']} of "
             f"{res['attempted']} commands failed"]
    for key, m in {**res["metrics"], **res["detail"]}.items():
        note = ""
        if key in ("setup_s", "setup_cpu_s"):
            note = f"median of {res['setup_samples']}"
        elif res["detail"] and key not in ("ops_failed_frac", "cal_ms"):
            note = f"median of {res['passes']}"
        lines.append(f"  {key:40s} {m['value']:14.6g} {m['unit']:6s} {note}")
    return lines


def pin_to_one_cpu() -> None:
    """Keep the harness and every command it starts on one CPU, so the
    calibration kernel runs on the processor the commands run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tamper", action="store_true",
                    help="inject a wrong reference digest and a wrong invariant; "
                         "the run must then fail")
    ap.add_argument("--record", action="store_true",
                    help="store reference digests of this seed's outputs and exit")
    args = ap.parse_args(argv)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        return 1 if sum(record_references(n, args.seed) for n in names) else 0
    # A run stopped by SIGTERM still stops and waits for every process it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_to_one_cpu()
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tamper)
            print("\n".join(describe(res)), flush=True)
            results.append(res)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        res = results[0]
        line = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results
                        for k, v in {**r["metrics"], **r["detail"]}.items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
