"""Test-only oracle helpers that the package itself does not need.

The engine-independent permutation arithmetic (pmul, peval, mulclose,
subgroup_of, double_coset_partition, classifier_values, ...),
two_bridge_skg, the Schubert presentations of 2-bridge knots, and
coxeter_skg, the Coxeter presentations of S_n, live in
handlecoset.selftest, which the `selftest` command needs at run time;
tests import them from there.  What stays here: orbit_partition, a plain
orbit search over a finished table through its public trace alone,
TWO_BRIDGE_13, the Schubert pairs with p <= 13, and twist_spun_skg,
Zeeman's twist-spun 2-knots.
"""

from __future__ import annotations

from math import gcd

from handlecoset.selftest import two_bridge_skg


def orbit_partition(table, acting):
    """Orbits of the cosets 1..index under right multiplication by the
    acting words, by a plain search with one table.trace per move; sorted
    tuples in increasing order of their least coset.  Each word acts as a
    permutation of a finite set, so forward moves alone close an orbit."""
    orbits, seen = [], set()
    for start in range(1, table.index + 1):
        if start in seen:
            continue
        orbit, stack = {start}, [start]
        while stack:
            c = stack.pop()
            for w in acting:
                d = table.trace(c, w)
                if d not in orbit:
                    orbit.add(d)
                    stack.append(d)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


# every Schubert pair (p, q) with p <= 13: p and q odd, 0 < |q| < p, coprime
TWO_BRIDGE_13 = [(p, q) for p in range(3, 14, 2) for q in range(-p + 1, p)
                 if q % 2 and gcd(p, abs(q)) == 1]


def twist_spun_skg(p: int, q: int, k: int) -> str:
    """.skg text of Zeeman's k-twist-spin of b(p, q): the Schubert
    presentation of two_bridge_skg plus the relator a^k b a^-k b^-1,
    which makes a^k central; P = <a>, a meridian."""
    head, tail = two_bridge_skg(p, q).split("P: ")
    return f"{head}rel: a^{k} b a^-{k} b^-1\nP: {tail}"
