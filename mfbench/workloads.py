"""Seeded command lists for the benchmark workloads, and the output checks.

A workload is a fixed list of ``mf`` commands built from the benchmark seed.
``mf`` sees only the generated ``--param``, ``--matrix`` and ``--seed`` values.
Every command carries invariants that are derived here, independently of
mfatlas, and checked against its JSON report:

* ``atlas``/``count``: the number of Borels and proper parabolics containing a
  regular element whose eigenvalues have multiplicities ``k`` is a count of
  contingency tables (below).  For ``sl_n`` with distinct eigenvalues that is
  ``n!`` Borels and ``ordered set partitions - n! - 1`` parabolics;
* ``build``: ``b = (n^2 + n - 2) / 2`` components, generator degrees 2..n;
* ``verify``/``check-examples``: exit 0, every check passed.

Negative values are passed as ``--param=-5/3`` because argparse would read
``--param -5/3`` as a flag.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

VERIFY_CHECKS = (
    "poisson-commutativity", "jacobian-rank-certificate", "shift-reconstruction",
    "homogeneity", "equivariance", "borel-invariance", "vandermonde-generators",
    "finite-lambda-membership", "tangent-triple", "strong-regularity",
    "centralizer-containment", "image-bba", "critical-values", "singular-family",
    "tarasov-section", "near-section",
)
CORPUS_CHECKS = (
    "sl2-printed-system", "sl2-zero-fibre", "sl2-semisimple-fibre-split",
    "sl2-singular-images", "sl2-nilpotent-fibres", "sl3-printed-system",
    "sl3-atlas-tables", "sl3-bba-restrictions", "sl3-weyl-degree",
    "sl3-exotic-semisimple", "sl3-exotic-mixed", "sl3-exotic-nilpotent",
    "sl3-orbit-invariance", "sl3-count-formulas", "singular-families",
    "tamper-self-test",
)


@dataclass
class Command:
    """One ``mf`` invocation: its arguments, any matrix file it reads (name and
    JSON text, written to the working directory first) and what its report
    must show."""

    argv: list[str]
    expect: dict
    files: dict[str, str] = field(default_factory=dict)

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def key(self) -> str:
        """Reference-digest key: the arguments plus the matrix file contents."""
        extra = [f"{name}={text}" for name, text in sorted(self.files.items())]
        return " ".join(self.argv + extra)


# -- independent counts ---------------------------------------------------------------


def compositions(n: int) -> list[tuple[int, ...]]:
    out = []
    for cuts in itertools.product((0, 1), repeat=n - 1):
        parts, size = [], 1
        for c in cuts:
            if c:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        out.append(tuple(parts))
    return out


@lru_cache(maxsize=None)
def contingency_tables(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Non-negative integer matrices with the given row and column sums.

    An invariant flag of a regular element is a chain of invariant subspaces;
    inside one generalised eigenspace of dimension k (a single Jordan block)
    the invariant subspaces form a chain of length k + 1.  A flag with step
    sizes ``cols`` is therefore a table saying how much of each eigenspace
    (``rows``) each step takes."""
    if not cols:
        return 1 if not any(rows) else 0
    first, rest = cols[0], cols[1:]
    total = 0
    for take in itertools.product(*(range(min(r, first) + 1) for r in rows)):
        if sum(take) == first:
            total += contingency_tables(tuple(r - t for r, t in zip(rows, take)), rest)
    return total


def atlas_counts(mults: tuple[int, ...]) -> tuple[int, int]:
    """(Borels, proper non-Borel parabolics) containing a regular element
    whose eigenvalue multiplicities are ``mults``."""
    n = sum(mults)
    borels = contingency_tables(mults, (1,) * n)
    parabolics = sum(contingency_tables(mults, c) for c in compositions(n)
                     if len(c) not in (1, n))
    return borels, parabolics


# -- input generation -------------------------------------------------------------------


def _frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _param(text: str) -> str:
    return f"--param={text}"


# Fixed traceless spectra.  The seed picks a signed permutation of one, and a
# permutation similarity of a fixed unimodular matrix for the dense shifts, so
# every seed gives different inputs that cost the same work up to symmetry:
# three permutations of (1, 2, 3, -6) took 18.2-19.2 s for the sl_4 atlas.
SL2_SPECTRUM = ("2", "-2")
SL3_SPECTRA = [("1", "2", "-3"), ("3", "-1", "-2")]
SL4_SPECTRA = [("1", "2", "3", "-6"), ("1", "-2", "4", "-3"), ("2", "3", "-1", "-4"),
               ("1", "3", "-9/2", "1/2")]
# Gaussian-rational sl_4 spectra as (re, im) pairs.
GAUSSIAN_SL4 = [((1, 1), (2, -1), (-1, 2), (-2, -2)), ((1, 0), (0, 1), (-1, 1), (0, -2))]


def unimodular(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """U0[i][j] = min(i, j) + 1 (determinant 1, dense) and its inverse, the
    tridiagonal matrix with 2, ..., 2, 1 on the diagonal and -1 beside it."""
    u = [[min(i, j) + 1 for j in range(n)] for i in range(n)]
    inv = [[(2 if i < n - 1 else 1) if i == j else -1 if abs(i - j) == 1 else 0
            for j in range(n)] for i in range(n)]
    return u, inv


def signed_permutation(rng: random.Random, values, neg=lambda v: -v) -> list:
    vals = list(values)
    rng.shuffle(vals)
    return vals if rng.random() < 0.5 else [neg(v) for v in vals]


def spectrum(rng: random.Random, base) -> list[Fraction]:
    return signed_permutation(rng, [Fraction(v) for v in base])


def gaussian_spectrum(rng: random.Random, base) -> list[str]:
    vals = signed_permutation(rng, base, neg=lambda z: (-z[0], -z[1]))
    return [f"{a}{'+' if b >= 0 else '-'}{abs(b)}*i" for a, b in vals]


def dense_conjugate(rng: random.Random, diag: list[Fraction]) -> str:
    """JSON for U diag(d) U^-1, U = P U0 P^-1 for a seeded permutation P."""
    n = len(diag)
    perm = rng.sample(range(n), n)
    u0, u0_inv = unimodular(n)
    u = [[u0[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    ui = [[u0_inv[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    m = [[sum(u[i][k] * diag[k] * ui[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    return json.dumps({"n": n, "entries": [[_frac(v) for v in row] for row in m]})


# -- expectations ------------------------------------------------------------------------


def expect_atlas(mults: tuple[int, ...]) -> dict:
    borels, parabolics = atlas_counts(mults)
    return {"borel_count": borels, "parabolic_count": parabolics}


def expect_count(mults: tuple[int, ...]) -> dict:
    borels, parabolics = atlas_counts(mults)
    return {"borel_count": borels, "parabolic_terms": parabolics,
            "eigenvalue_partition": sorted(mults, reverse=True)}


def expect_build(n: int) -> dict:
    return {"b": (n * n + n - 2) // 2, "components": (n * n + n - 2) // 2,
            "degrees": list(range(2, n + 1))}


def expect_checks(names: tuple[str, ...]) -> dict:
    return {"checks": len(names), "passed": True, "check_names": list(names)}


# -- workloads ----------------------------------------------------------------------------


def _diag_params(values: list[Fraction]) -> list[str]:
    return [_param(_frac(v)) for v in values[:-1]]


def atlas_sl4(seed: int) -> list[Command]:
    rng = random.Random(f"atlas-sl4:{seed}")
    d4 = spectrum(rng, SL4_SPECTRA[0])
    dense = dense_conjugate(rng, spectrum(rng, SL3_SPECTRA[0]))
    c3 = spectrum(rng, SL3_SPECTRA[1])
    return [
        Command(["atlas", "--n", "4", "--element", "s", *_diag_params(d4)],
                expect_atlas((1, 1, 1, 1))),
        Command(["count", "--n", "4", "--element", "n"], expect_count((4,))),
        Command(["atlas", "--matrix", "sl3-dense.json"], expect_atlas((1, 1, 1)),
                {"sl3-dense.json": dense}),
        Command(["count", "--n", "3", "--element", "s", *_diag_params(c3)],
                expect_count((1, 1, 1))),
    ]


def verify_sl3(seed: int) -> list[Command]:
    rng = random.Random(f"verify-sl3:{seed}")
    s = str(seed)
    d2 = spectrum(rng, SL2_SPECTRUM)
    d3 = spectrum(rng, SL3_SPECTRA[0])
    checks = expect_checks(VERIFY_CHECKS)
    return [
        Command(["verify", "--n", "2", "--element", "s", *_diag_params(d2), "--seed", s], checks),
        Command(["verify", "--n", "2", "--element", "n", "--seed", s], checks),
        Command(["verify", "--n", "3", "--element", "s", *_diag_params(d3), "--seed", s], checks),
        Command(["verify", "--n", "3", "--element", "n", "--seed", s], checks),
    ]


def corpus(seed: int) -> list[Command]:
    return [Command(["check-examples", "--self-test", "--seed", str(seed)],
                    expect_checks(CORPUS_CHECKS))]


def build_sl4(seed: int) -> list[Command]:
    """The nilpotent, then for each fixed spectrum a rational diagonal, a
    Gaussian-rational diagonal and a dense conjugate: 25 builds."""
    rng = random.Random(f"build-sl4:{seed}")
    out = [Command(["build", "--n", "4", "--element", "n"], expect_build(4))]
    for r in range(2):
        for k, base in enumerate(SL4_SPECTRA):
            out.append(Command(["build", "--n", "4", "--element", "s",
                                *_diag_params(spectrum(rng, base))], expect_build(4)))
            gauss = gaussian_spectrum(rng, GAUSSIAN_SL4[k % len(GAUSSIAN_SL4)])
            out.append(Command(["build", "--n", "4", "--element", "s",
                                *map(_param, gauss[:-1])], expect_build(4)))
            name = f"sl4-dense-{r}-{k}.json"
            out.append(Command(["build", "--matrix", name], expect_build(4),
                               {name: dense_conjugate(rng, spectrum(rng, base))}))
    return out


WORKLOADS = {
    "atlas-sl4": atlas_sl4,
    "verify-sl3": verify_sl3,
    "corpus": corpus,
    "build-sl4": build_sl4,
}


# -- checking ------------------------------------------------------------------------------


def check_report(cmd: Command, rc: int, stdout: bytes, expect: dict | None = None) -> list[str]:
    """Problems with one command's exit code and report; empty when it passes."""
    expect = cmd.expect if expect is None else expect
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        rep = json.loads(stdout)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if rep.get("schema") != "mf-atlas/1":
        problems.append(f"schema {rep.get('schema')!r}")
    if rep.get("config", {}).get("command") != cmd.subcommand:
        problems.append("config.command does not match")
    for key, want in expect.items():
        if key == "checks":
            got = len(rep.get("checks", []))
        elif key == "check_names":
            got = [c.get("name") for c in rep.get("checks", [])]
        elif key == "passed":
            got = rep.get("passed")
            failed = [c.get("name") for c in rep.get("checks", []) if not c.get("passed")]
            if failed:
                problems.append(f"checks failed: {failed}")
        elif key in ("components", "parabolic_terms"):
            got = len(rep.get(key, []))
        else:
            got = rep.get(key)
        if got != want:
            problems.append(f"{key}: got {got!r}, expected {want!r}")
    if "borel_count" in expect and "borels" in rep and len(rep["borels"]) != rep["borel_count"]:
        problems.append("borels list disagrees with borel_count")
    return problems


def tampered_expectation(expect: dict) -> dict:
    """A copy of ``expect`` with its first whole-number invariant off by one."""
    out = dict(expect)
    key = next(k for k, v in out.items() if isinstance(v, int) and not isinstance(v, bool))
    out[key] += 1
    return out
