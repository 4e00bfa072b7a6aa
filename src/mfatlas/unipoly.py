"""Univariate polynomials over Q(i), as coefficient tuples (low degree first).

The zero polynomial is the empty tuple.  These back the Jordan-Chevalley
iteration (gcd, extended Euclid, composition mod p) and exact eigenvalue
extraction (all roots lying in Q(i), via Gaussian-integer divisor search).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, isqrt

from .scalar import Scalar, as_scalar

Poly = tuple[Scalar, ...]


def uni(coeffs) -> Poly:
    """Build a normalized polynomial from low-first coefficients."""
    cs = [as_scalar(c) for c in coeffs]
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def uni_zero() -> Poly:
    return ()


def uni_x() -> Poly:
    return (Scalar(0), Scalar(1))


def uni_const(c) -> Poly:
    return uni([c])


def uni_deg(p: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def uni_is_zero(p: Poly) -> bool:
    return len(p) == 0


def uni_is_constant(p: Poly) -> bool:
    return len(p) <= 1


def uni_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    out = []
    for k in range(n):
        a = p[k] if k < len(p) else Scalar(0)
        b = q[k] if k < len(q) else Scalar(0)
        out.append(a + b)
    return uni(out)


def uni_neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def uni_sub(p: Poly, q: Poly) -> Poly:
    return uni_add(p, uni_neg(q))


def uni_scale(p: Poly, c) -> Poly:
    c = as_scalar(c)
    if c.is_zero():
        return ()
    return tuple(c * a for a in p)


def uni_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Scalar(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return uni(out)


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


def uni_mod(p: Poly, m: Poly) -> Poly:
    return uni_divmod(p, m)[1]


def uni_monic(p: Poly) -> Poly:
    if not p:
        return ()
    return uni_scale(p, Scalar(1) / p[-1])


def uni_gcd(p: Poly, q: Poly) -> Poly:
    a, b = p, q
    while b:
        a, b = b, uni_mod(a, b)
    return uni_monic(a)


def uni_ext_gcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (g, u, v) with u*p + v*q = g = monic gcd."""
    r0, r1 = p, q
    s0, s1 = uni_const(1), uni_zero()
    t0, t1 = uni_zero(), uni_const(1)
    while r1:
        qt, rm = uni_divmod(r0, r1)
        r0, r1 = r1, rm
        s0, s1 = s1, uni_sub(s0, uni_mul(qt, s1))
        t0, t1 = t1, uni_sub(t0, uni_mul(qt, t1))
    if not r0:
        return (), s0, t0
    lead_inv = Scalar(1) / r0[-1]
    return uni_scale(r0, lead_inv), uni_scale(s0, lead_inv), uni_scale(t0, lead_inv)


def uni_deriv(p: Poly) -> Poly:
    return uni([Scalar(k) * p[k] for k in range(1, len(p))])


def uni_eval(p: Poly, x) -> Scalar:
    x = as_scalar(x)
    acc = Scalar(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def uni_compose_mod(p: Poly, q: Poly, m: Poly) -> Poly:
    """p(q) reduced mod m (Horner with modular reduction)."""
    acc: Poly = ()
    for c in reversed(p):
        acc = uni_mod(uni_add(uni_mul(acc, q), uni_const(c)), m)
    return acc


def uni_squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), monic."""
    if uni_is_constant(p):
        return uni_monic(p)
    g = uni_gcd(p, uni_deriv(p))
    q, r = uni_divmod(p, g)
    if r:
        raise ArithmeticError("gcd failed to divide in squarefree part")
    return uni_monic(q)


# -- Gaussian-integer machinery for exact root extraction ----------------------


def _factor_int(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
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


def gaussian_divisors(z: tuple[int, int]) -> list[tuple[int, int]]:
    """All divisors of the Gaussian integer z, up to units (one per associate
    class), nonzero z required."""
    if z == (0, 0):
        raise ValueError("zero has no divisor list")
    norm = z[0] * z[0] + z[1] * z[1]
    primes: list[tuple[int, int]] = []
    rest = z
    for p, e in sorted(_factor_int(norm).items()):
        if p == 2:
            pi = (1, 1)
            while True:
                q = _gi_divides(pi, rest)
                if q is None:
                    break
                primes.append(pi)
                rest = q
        elif p % 4 == 3:
            # inert prime: divides with even norm-exponent
            while True:
                q = _gi_divides((p, 0), rest)
                if q is None:
                    break
                primes.append((p, 0))
                rest = q
        else:
            a, b = _gaussian_prime_over(p)
            for pi in ((a, b), (a, -b)):
                while True:
                    q = _gi_divides(pi, rest)
                    if q is None:
                        break
                    primes.append(pi)
                    rest = q
    divisors = [(1, 0)]
    for pi in primes:
        divisors.extend([_gi_mul(d, pi) for d in divisors])
    seen = set()
    out = []
    for d in divisors:
        canon = max(
            [d, (-d[0], -d[1]), (-d[1], d[0]), (d[1], -d[0])]
        )
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def _scalar_to_gi(s: Scalar) -> tuple[int, int] | None:
    if s.re.denominator != 1 or s.im.denominator != 1:
        return None
    return (s.re.numerator, s.im.numerator)


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
        lcm = lcm * c.re.denominator // _int_gcd(lcm, c.re.denominator)
        lcm = lcm * c.im.denominator // _int_gcd(lcm, c.im.denominator)
    qz = uni_scale(q, Scalar(lcm))
    a0 = _scalar_to_gi(qz[0])
    ad = _scalar_to_gi(qz[-1])
    assert a0 is not None and ad is not None and a0 != (0, 0)
    units = (Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(0, -1))
    candidates: list[Scalar] = []
    seen: set[tuple[Fraction, Fraction]] = set()
    for num in gaussian_divisors(a0):
        num_s = Scalar(num[0], num[1])
        for den in gaussian_divisors(ad):
            den_s = Scalar(den[0], den[1])
            base = num_s / den_s
            for u in units:
                cand = u * base
                key = (cand.re, cand.im)
                if key not in seen:
                    seen.add(key)
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
