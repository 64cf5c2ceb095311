"""Test-only oracle helpers that the package itself does not need.

The engine-independent permutation arithmetic (pmul, peval, mulclose,
subgroup_of, double_coset_partition, classifier_values, ...) and
two_bridge_skg, the Schubert presentations of 2-bridge knots, live in
handlecoset.selftest, which the `selftest` command needs at run time;
tests import them from there.  What stays here: orbit_partition, a plain
orbit search over a finished table through its public trace alone,
coxeter_skg, the .skg text of the Coxeter presentations of S_n, and
TWO_BRIDGE_13, the Schubert pairs with p <= 13.
"""

from __future__ import annotations

from math import gcd


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


def coxeter_skg(n, p, p_plus=None, n_gen=None):
    """.skg text of the Coxeter presentation of S_n on s1..s(n-1): every
    s_i^2, then (s_i s_j)^m for i < j (m = 3 if adjacent, else 2), with
    P generated by the listed s_i.  Given p_plus and n_gen, the surface
    is non-orientable with P+ = <s_i : i in p_plus> and n = s_(n_gen)."""
    lines = ["group: " + " ".join(f"s{i}" for i in range(1, n))]
    lines += [f"rel: s{i}^2" for i in range(1, n)]
    lines += ["rel: " + " ".join([f"s{i} s{j}"] * (3 if j == i + 1 else 2))
              for i in range(1, n) for j in range(i + 1, n)]
    lines.append("P: " + " , ".join(f"s{i}" for i in p))
    if p_plus is None:
        lines.append("orientable: true")
    else:
        lines += ["P+: " + " , ".join(f"s{i}" for i in p_plus),
                  f"n: s{n_gen}", "orientable: false"]
    return "\n".join(lines) + "\n"


# every Schubert pair (p, q) with p <= 13: p and q odd, 0 < |q| < p, coprime
TWO_BRIDGE_13 = [(p, q) for p in range(3, 14, 2) for q in range(-p + 1, p)
                 if q % 2 and gcd(p, abs(q)) == 1]
