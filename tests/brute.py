"""Independent brute-force oracles for the test suite.

Everything here works on explicit permutation tuples and never touches
the coset-table machinery, so it can serve as a second route for the
values the package computes.  The one exception, orbit_partition, reads
a finished table through its public trace alone.
"""

from __future__ import annotations


def pmul(p, q):
    """Apply p, then q."""
    return tuple(q[x] for x in p)


def pinv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def peval(word, gens):
    """Evaluate a Word against permutation images of the generators."""
    acc = tuple(range(len(gens[0])))
    for i, s in word:
        acc = pmul(acc, gens[i] if s > 0 else pinv(gens[i]))
    return acc


def mulclose(gens):
    gens = list(gens)
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = pmul(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def subgroup_of(words, model):
    identity = tuple(range(len(model[0])))
    return mulclose([peval(w, model) for w in words] + [identity])


def double_coset(h_set, g, k_set=None):
    k_set = h_set if k_set is None else k_set
    return frozenset(pmul(pmul(h, g), k) for h in h_set for k in k_set)


def double_coset_partition(elements, h_set):
    """Partition of the right H-cosets into double cosets, as a set of
    frozensets of cosets."""
    coset_of = {g: frozenset(pmul(h, g) for h in h_set) for g in elements}
    return ({frozenset(coset_of[x] for x in double_coset(h_set, g))
             for g in elements}, coset_of)


def classifier_values(elements, h_set, case3, core_oriented, n_img=None):
    """All invariant values over the group elements, as comparable objects."""
    values = set()
    for g in elements:
        if not case3:
            dc = double_coset(h_set, g)
            value = dc if core_oriented else frozenset({dc, double_coset(h_set, pinv(g))})
        else:
            def pair(x):
                return frozenset({double_coset(h_set, x),
                                  double_coset(h_set, pmul(pmul(n_img, x), n_img))})
            value = pair(g) if core_oriented else frozenset({pair(g), pair(pinv(g))})
        values.add(value)
    return values


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
