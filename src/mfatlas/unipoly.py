"""Univariate polynomials over Q(i), as coefficient tuples (low degree first).

The zero polynomial is the empty tuple.  Two callers use them: the root
search behind flags.eigen_chains (all roots of a characteristic polynomial
lying in Q(i)) and the Euclidean row reduction behind the line certificate
that components.is_strongly_regular reads.

The root search lifts roots modulo a prime power and enumerates no divisors
(Loos, Computing rational zeros of integral polynomials by p-adic expansion,
SIAM J. Comput. 12, 1983):

1. s = q / gcd(q, q') is the square-free part of q, with its denominators
   cleared to Z[i]; c is its leading coefficient and e its degree.  S(y) =
   c^(e-1) s(y/c) is monic over Z[i], so each root of s in Q(i) is y/c with
   y in Z[i], and |y| < B = |c| + max |s_k| (Cauchy's bound on s).
2. For odd p and z^2 = -1 (mod p), i -> z is a ring map Z[i] -> Z/p.  p runs
   through 5, 9, 13, ... and stops at the first one with such a z at which
   every root of S modulo p, found by trying all p residues, is simple (S' a
   unit there).  Every prime p = 1 (mod 4) that does not divide the norm of
   S's discriminant stops it, so p stays small.  Nothing below needs p prime.
3. Newton's iteration lifts z, and each root, to modulo m = p^k > 4 B^2; the
   lift of a simple root is unique, so each y maps to one lifted root r.
4. The kernel of Z[i] -> Z/m, i -> z_k, is generated by g = gcd(m, z_k - i)
   = gcd(p, z - i)^k, with |g|^2 = m.  As |y| < B < |g|/2, y is the
   representative of r modulo g in the square g [-1/2, 1/2)^2: the balanced
   remainder, each part of r/g rounded by floor(x + 1/2).
5. A lifted root that comes from no y still gives a candidate; exact
   division of q confirms each candidate, so a wrong one is discarded and
   never returned.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from typing import Iterable

from .scalar import Scalar

Poly = tuple[Scalar, ...]


def uni(coeffs: Iterable[Scalar]) -> Poly:
    """Build a normalized polynomial from low-first coefficients."""
    cs = list(coeffs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def uni_deg(p: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def uni_is_constant(p: Poly) -> bool:
    return len(p) <= 1


def uni_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Scalar(0)] * max(0, len(p) - len(q) + 1)
    dq = len(q) - 1
    lead_inv = Scalar(1) / q[-1]
    for k in range(len(rem) - 1, dq - 1, -1):
        c = rem[k]
        if c.is_zero():
            continue
        f = c * lead_inv
        quot[k - dq] = f
        for j in range(dq + 1):
            rem[k - dq + j] = rem[k - dq + j] - f * q[j]
    return uni(quot), uni(rem)


def _sub_mul(p: Poly, q: Poly, r: Poly) -> Poly:
    """p - q r."""
    out = list(p) + [Scalar(0)] * (len(q) + len(r) - 1 - len(p))
    for i, c in enumerate(q):
        for j, d in enumerate(r):
            out[i + j] = out[i + j] - c * d
    return uni(out)


def uni_echelon_pivots(rows: list[list[Poly]]) -> list[Poly]:
    """The pivots, one per column, of a polynomial matrix brought to echelon
    form by Euclidean row operations: in each column the remaining row of
    least degree there is subtracted, times the quotient, from the others
    until it is the only nonzero entry left, and is then set aside.  Each
    pivot is the gcd of its column's remaining entries up to a unit; a column
    with none left gives the zero polynomial.  Row operations keep the gcd of
    the maximal minors, which is therefore the product of the pivots."""
    live = [list(row) for row in rows]
    pivots: list[Poly] = []
    for c in range(len(live[0])):
        while True:
            nonzero = [row for row in live if row[c]]
            if not nonzero:
                pivots.append(())
                break
            piv = min(nonzero, key=lambda row: len(row[c]))
            if len(nonzero) == 1:
                live = [row for row in live if row is not piv]
                pivots.append(piv[c])
                break
            for row in nonzero:
                if row is not piv:
                    q = uni_divmod(row[c], piv[c])[0]
                    row[c:] = [_sub_mul(e, q, f) for e, f in zip(row[c:], piv[c:])]
    return pivots


def uni_eval(p: Poly, x: Scalar) -> Scalar:
    acc = Scalar(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


# -- roots in Q(i), lifted modulo a prime power ----------------------------------


def _derivative(cs: list) -> list:
    return [c * j for j, c in enumerate(cs)][1:]


def _mod_eval(cs: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def _lift(cs: list[int], x: int, p: int, k: int) -> int:
    """Newton's iteration from x, a root modulo p of the integer polynomial cs
    at which its derivative is a unit, to the one root modulo p^k that lifts
    it.  Each step doubles the power of p, and lifts the inverse u of the
    derivative along by Newton's iteration for 1/t, so only the first
    inverse is a modular inversion."""
    ds = _derivative(cs)
    u = pow(_mod_eval(ds, x, p), -1, p)
    j = 1
    while j < k:
        j = min(2 * j, k)
        m = p**j
        x = (x - _mod_eval(cs, x, m) * u) % m
        u = u * (2 - _mod_eval(ds, x, m) * u) % m
    return x


def _gi_rem(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a - q b in Z[i], each part of q = a/b rounded by floor(x + 1/2): the
    representative of a modulo b in the square b [-1/2, 1/2)^2."""
    (ax, ay), (bx, by) = a, b
    n = bx * bx + by * by
    qx = (2 * (ax * bx + ay * by) + n) // (2 * n)
    qy = (2 * (ay * bx - ax * by) + n) // (2 * n)
    return (ax - qx * bx + qy * by, ay - qx * by - qy * bx)


def _candidates(q: Poly) -> list[Scalar]:
    """Every root in Q(i) of the nonconstant q, possibly with a few numbers
    that are not roots; at most one per root of q's square-free part.  The
    steps are those of the module docstring."""
    # 1. the square-free part over Z[i], the monic S and the bound B
    f, h = q, uni(_derivative(q))
    while h:
        f, h = h, uni_divmod(f, h)[1]
    s = uni_divmod(q, f)[0]
    den = lcm(*(c.d for c in s))
    s = [c * den for c in s]
    c, e = s[-1], len(s) - 1
    S = [s[j] * c ** (e - 1 - j) for j in range(e)]
    norms = [a.x * a.x + a.y * a.y for a in s]
    bound = 2 + isqrt(norms[-1]) + isqrt(max(norms[:-1]))
    # 2. the first modulus p at which every root of S is simple
    p = 1
    while True:
        p += 4
        z = next((r for r in range(p) if (r * r + 1) % p == 0), None)
        if z is None:
            continue
        Sp = [(a.x + a.y * z) % p for a in S] + [1]
        rho = [r for r in range(p) if not _mod_eval(Sp, r, p)]
        if all(gcd(_mod_eval(_derivative(Sp), r, p), p) == 1 for r in rho):
            break
    # 3. lift to m = p^k > 4 B^2
    k = (4 * bound * bound).bit_length() // (p.bit_length() - 1) + 1
    zk = _lift([1, 0, 1], z, p, k)
    m = p**k
    Sm = [(a.x + a.y * zk) % m for a in S] + [1]
    # 4. the kernel generator g and the balanced remainders
    g, h = (p, 0), (z, -1)
    while h != (0, 0):
        g, h = h, _gi_rem(g, h)
    g = Scalar(*g) ** k
    return [Scalar(*_gi_rem((_lift(Sm, r, p, k), 0), (g.x, g.y))) / c for r in rho]


def uni_roots_gaussian(p: Poly) -> tuple[list[tuple[Scalar, int]], int]:
    """All roots of p lying in Q(i), with multiplicities, plus the degree of
    the rootless remainder.

    Each candidate of the lifting search (module docstring) is confirmed by
    exact division, and the repeated divisions give its multiplicity.
    Returned roots are sorted by (real part, imaginary part); the remainder
    degree is nonzero exactly when p has an irreducible factor of degree >= 2
    over Q(i).
    """
    if not p:
        raise ValueError("zero polynomial has every root")
    roots: list[tuple[Scalar, int]] = []
    work = list(p)
    # strip powers of t (roots at 0)
    k0 = 0
    while work and work[0].is_zero():
        work.pop(0)
        k0 += 1
    if k0:
        roots.append((Scalar(0), k0))
    cur = uni(work)
    for cand in [] if uni_is_constant(cur) else _candidates(cur):
        mult = 0
        while not uni_is_constant(cur) and uni_eval(cur, cand).is_zero():
            cur, rem = uni_divmod(cur, (-cand, Scalar(1)))
            assert not rem
            mult += 1
        if mult:
            roots.append((cand, mult))
    roots.sort(key=lambda rc: rc[0].sort_key())
    return roots, uni_deg(cur) if not uni_is_constant(cur) else 0
