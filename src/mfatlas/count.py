"""The recursive component count of F_a^{-1}(0), from the atlas alone.

count_zero_fibre assembles |I_a| = |I'_a| + sum over parabolics of products
of Levi |I'| + |B_a| and returns it as the body of the mf count report.  The
|I'| values come from the IPRIME_DEFAULTS dict, overlaid with a user table
from load_iprime; unknown terms stay symbolic (with proven lower bounds)
instead of inventing numbers.  Nothing here builds F_a or a polynomial.
"""

from __future__ import annotations

import json

from .errors import PreconditionError
from .flags import BorelAtlas, EigenChain, enumerate_atlas, member_label
from .lie import GElement
from .scalar import bounded_int


def eigen_partition(chains: list[EigenChain]) -> tuple[int, ...]:
    """Multiplicities of the eigenvalues, sorted descending: the Jordan type
    of a regular element with these Jordan chains."""
    return tuple(sorted((ch.mult for ch in chains), reverse=True))


# |I'| of exotic components of zero fibres, keyed by (n, eigenvalue-multiplicity
# partition), as (value, lower).  Unknown entries carry value None and a proven
# lower bound, and keep totals symbolic.
IPRIME_DEFAULTS: dict[tuple[int, tuple[int, ...]], tuple[int | None, int]] = {
    (2, (1, 1)): (0, 0),
    (2, (2,)): (0, 0),
    # every regular shift on sl_3 admits an exotic component, but the
    # exact count is open: value None, lower bound 1
    (3, (1, 1, 1)): (None, 1),
    (3, (2, 1)): (None, 1),
    (3, (3,)): (None, 1),
}


def iprime_symbol(n: int, partition: tuple[int, ...]) -> str:
    return f"I'({n},[{','.join(str(k) for k in partition)}])"


def load_iprime(path: str) -> dict[tuple[int, tuple[int, ...]], tuple[int | None, int]]:
    """Read an mf-iprime/1 table: rows {n, partition, value, lower} of JSON
    integers, where a missing value is unknown and a missing lower is 0."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=bounded_int)
    except (OSError, ValueError) as exc:
        raise PreconditionError(f"cannot read I' table: {exc}") from exc
    rows = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(
            isinstance(row, dict) and "n" in row and isinstance(row.get("partition"), list)
            for row in rows):
        raise PreconditionError('malformed I\' table: expected an object whose "entries" list '
                                'holds rows {"n": <integer>, "partition": [<integers>]}, '
                                'each with an optional integer "value" and "lower"')
    try:
        entries = {}
        for row in rows:
            key = (_integer(row["n"]), tuple(_integer(k) for k in row["partition"]))
            value = None if row.get("value") is None else _integer(row["value"])
            lower = _integer(row.get("lower", 0))
            if lower < 0 or (value is not None and value < lower):
                raise ValueError(f"entry {row} needs 0 <= lower <= value")
            entries[key] = (value, lower)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed I' table: {exc}") from exc
    return entries


def _integer(v) -> int:
    """v itself if it is an int, which a bool or a float is not."""
    if type(v) is not int:
        raise TypeError(f"{v!r} is not an integer")
    return v


def count_zero_fibre(a: GElement, overrides: dict | None = None,
                     atlas: BorelAtlas | None = None) -> dict:
    """The body of the mf count report: the recursive component count of
    F_a^{-1}(0), |I_a| = |I'_a| + sum over atlas parabolics of the product of
    factor |I'| values + number of atlas Borels.  overrides (as load_iprime
    returns them) replace entries of IPRIME_DEFAULTS."""
    table = {**IPRIME_DEFAULTS, **(overrides or {})}
    if atlas is None:
        atlas = enumerate_atlas(a)

    def term(n: int, partition: tuple[int, ...]) -> dict:
        value, lower = table.get((n, partition), (None, 0))
        return {"symbol": iprime_symbol(n, partition), "value": value, "lower": lower}

    terms = []
    for p in atlas.parabolics:
        # block t of U^-1 a U is one Jordan block per chain, of the chain's
        # level increment, with distinct chain values
        factors = []
        product, product_lower = 1, 1
        prev = (0,) * len(atlas.chains)
        for k, level in zip(p.blocks, p.flag.levels):
            if k >= 2:
                bpart = tuple(sorted((l - q for l, q in zip(level, prev) if l > q), reverse=True))
                f = term(k, bpart)
                factors.append(f)
                product = None if product is None or f["value"] is None else product * f["value"]
                product_lower *= f["lower"] if f["value"] is None else f["value"]
            prev = level
        terms.append({"label": member_label(p), "composition": list(p.blocks), "factors": factors,
                      "product": product, "product_lower": product_lower})
    partition = eigen_partition(atlas.chains)
    self_term = term(a.algebra.n, partition)
    borels = len(atlas.borels)
    products = [t["product"] for t in terms]
    para_total = None if None in products else sum(products)
    total = None
    if self_term["value"] is not None and para_total is not None:
        total = self_term["value"] + para_total + borels
    para_str = (
        str(para_total)
        if para_total is not None
        else "+".join("*".join(f["symbol"] for f in t["factors"]) or "1" for t in terms)
    )
    self_str = self_term["symbol"] if self_term["value"] is None else self_term["value"]
    return {
        "n": a.algebra.n,
        "eigenvalue_partition": list(partition),
        "borel_count": borels,
        "self_term": self_term,
        "parabolic_terms": terms,
        "formula": f"{self_str} + {para_str} + {borels}",
        "total": total,
        "total_lower": self_term["lower"] + sum(t["product_lower"] for t in terms) + borels,
    }
