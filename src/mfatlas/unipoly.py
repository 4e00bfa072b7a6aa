"""Univariate polynomials over Q(i), as coefficient tuples (low degree first).

The zero polynomial is the empty tuple.  Two callers use them: the root
search behind flags.eigen_chains (all roots of a characteristic polynomial
lying in Q(i), via Gaussian-integer divisor search) and the Euclidean row
reduction behind the line certificate, components.krylov_line_regular.
"""

from __future__ import annotations

from math import gcd as _int_gcd, isqrt, prod
from typing import Iterable

from .errors import UnsupportedElementError
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


def uni_scale(p: Poly, c: Scalar) -> Poly:
    if c.is_zero():
        return ()
    return tuple(c * a for a in p)


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


# -- Gaussian-integer machinery for exact root extraction ----------------------


# Trial division stops at this divisor.  A number whose unfactored part is
# still above its square has a prime factor above it, and is refused.
_TRIAL_DIVISION_LIMIT = 10**6
# The root search tries every (divisor of the trailing coefficient, divisor
# of the leading coefficient) pair; above this many pairs it is refused.
_CANDIDATE_PAIR_LIMIT = 10**5


def _factor_int(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > _TRIAL_DIVISION_LIMIT:
            raise UnsupportedElementError(
                "eigenvalue search: a coefficient norm has a prime factor above "
                f"{_TRIAL_DIVISION_LIMIT}, past the trial-division bound")
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _gaussian_prime_over(p: int) -> tuple[int, int]:
    """A Gaussian prime a+bi with a^2 + b^2 = p, for p = 2 or p = 1 mod 4."""
    if p == 2:
        return (1, 1)
    for a in range(1, isqrt(p) + 1):
        b2 = p - a * a
        b = isqrt(b2)
        if b * b == b2:
            return (a, b)
    raise ArithmeticError(f"no two-square split of {p}")


def _gi_mul(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def _gi_divides(d: tuple[int, int], z: tuple[int, int]) -> tuple[int, int] | None:
    """z / d if exact, else None."""
    nd = d[0] * d[0] + d[1] * d[1]
    if nd == 0:
        return None
    re_num = z[0] * d[0] + z[1] * d[1]
    im_num = z[1] * d[0] - z[0] * d[1]
    if re_num % nd or im_num % nd:
        return None
    return (re_num // nd, im_num // nd)


def gaussian_factors(z: tuple[int, int]) -> list[tuple[tuple[int, int], int]]:
    """The pairwise non-associate Gaussian primes pi dividing the nonzero
    Gaussian integer z, with their exponents e: z = unit * prod pi^e."""
    if z == (0, 0):
        raise ValueError("zero has no factorization")
    norm = z[0] * z[0] + z[1] * z[1]
    factors: list[tuple[tuple[int, int], int]] = []
    rest = z
    for p in sorted(_factor_int(norm)):
        if p == 2:
            over = [(1, 1)]
        elif p % 4 == 3:
            over = [(p, 0)]  # inert: divides with even norm-exponent
        else:
            a, b = _gaussian_prime_over(p)
            over = [(a, b), (a, -b)]
        for pi in over:
            e = 0
            while (q := _gi_divides(pi, rest)) is not None:
                rest = q
                e += 1
            if e:
                factors.append((pi, e))
    return factors


def gaussian_divisors(factors: list[tuple[tuple[int, int], int]]) -> list[tuple[int, int]]:
    """All divisors, up to units (one per associate class), of the Gaussian
    integer with these gaussian_factors: the products over exponent vectors,
    prod (e + 1) of them, each given by its largest associate."""
    divisors = [(1, 0)]
    for pi, e in factors:
        powers = [(1, 0)]
        for _ in range(e):
            powers.append(_gi_mul(powers[-1], pi))
        divisors = [_gi_mul(d, w) for d in divisors for w in powers]
    return [max(d, (-d[0], -d[1]), (-d[1], d[0]), (d[1], -d[0])) for d in divisors]


def _scalar_to_gi(s: Scalar) -> tuple[int, int] | None:
    if s.d != 1:
        return None
    return (s.x, s.y)


def uni_roots_gaussian(p: Poly) -> tuple[list[tuple[Scalar, int]], int]:
    """All roots of p lying in Q(i), with multiplicities, plus the degree of
    the rootless remainder.

    Roots are found by rational-root search over Z[i]: clear denominators,
    then candidates are unit multiples of (divisor of trailing coefficient) /
    (divisor of leading coefficient).  Returned roots are sorted by
    (real part, imaginary part); the remainder degree is nonzero exactly when
    p has an irreducible factor of degree >= 2 over Q(i).
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
    q = uni(work)
    if uni_is_constant(q):
        roots.sort(key=lambda rc: rc[0].sort_key())
        return roots, 0
    # clear denominators to Z[i]
    lcm = 1
    for c in q:
        lcm = lcm * c.d // _int_gcd(lcm, c.d)
    qz = uni_scale(q, Scalar(lcm))
    a0 = _scalar_to_gi(qz[0])
    ad = _scalar_to_gi(qz[-1])
    assert a0 is not None and ad is not None and a0 != (0, 0)
    num_factors, den_factors = gaussian_factors(a0), gaussian_factors(ad)
    pairs = prod(e + 1 for _, e in num_factors + den_factors)
    if pairs > _CANDIDATE_PAIR_LIMIT:
        raise UnsupportedElementError(
            f"eigenvalue search: {pairs} divisor pairs of the characteristic "
            f"polynomial's end coefficients, past the bound {_CANDIDATE_PAIR_LIMIT}")
    dens = [Scalar(den[0], den[1]) for den in gaussian_divisors(den_factors)]
    units = (Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(0, -1))
    candidates: list[Scalar] = []
    seen: set[Scalar] = set()
    for num in gaussian_divisors(num_factors):
        num_s = Scalar(num[0], num[1])
        for den_s in dens:
            base = num_s / den_s
            for u in units:
                cand = u * base
                if cand not in seen:
                    seen.add(cand)
                    candidates.append(cand)
    candidates.sort(key=lambda s: (s.norm(), s.sort_key()))
    cur = q
    for cand in candidates:
        mult = 0
        while not uni_is_constant(cur) and uni_eval(cur, cand).is_zero():
            cur, rem = uni_divmod(cur, uni([-cand, Scalar(1)]))
            assert not rem
            mult += 1
        if mult:
            roots.append((cand, mult))
        if uni_is_constant(cur):
            break
    roots.sort(key=lambda rc: rc[0].sort_key())
    return roots, uni_deg(cur) if not uni_is_constant(cur) else 0
