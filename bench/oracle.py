"""Correctness oracles built on explicit permutations.

Nothing here calls the package: words are parsed from their text and
evaluated in a permutation model of the group, so every check is a
second, independent route to the answer.  Products read left to right,
matching word order: compose(p, q) applies p, then q.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial, prod

Perm = tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    return tuple(q[x] for x in p)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def parse_tokens(text: str) -> list[tuple[str, int]]:
    """`.skg` word syntax: tokens `name` or `name^k`; `1` is the identity."""
    out = []
    for token in text.split():
        if token == "1":
            continue
        name, _, exp = token.partition("^")
        out.append((name, int(exp) if exp else 1))
    return out


def evaluate(word: str | list[tuple[str, int]], images: dict[str, Perm]) -> Perm:
    """Image of a word (text or parsed tokens) under generator images."""
    tokens = parse_tokens(word) if isinstance(word, str) else word
    acc = tuple(range(len(next(iter(images.values())))))
    for name, k in tokens:
        g = images[name] if k > 0 else inverse(images[name])
        for _ in range(abs(k)):
            acc = compose(acc, g)
    return acc


def cycle_type(p: Perm) -> tuple[int, ...]:
    seen, lengths = set(), []
    for start in range(len(p)):
        if start in seen:
            continue
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = p[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def closure(gens: list[Perm], degree: int) -> set[Perm]:
    identity = tuple(range(degree))
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# symmetric groups with parabolic (Young) peripheral subgroups
# ---------------------------------------------------------------------------

def coxeter_images(n: int) -> dict[str, Perm]:
    """s_i -> the transposition (i-1 i) of S_n, points numbered from 0."""
    images = {}
    for i in range(1, n):
        p = list(range(n))
        p[i - 1], p[i] = p[i], p[i - 1]
        images[f"s{i}"] = tuple(p)
    return images


class YoungSubgroup:
    """The subgroup of S_n generated by some of the s_i.

    It is the Young subgroup of a set partition of the points, and g, h
    lie in one double coset PgP = PhP exactly when, for every pair of
    blocks (B, C), as many points of B go to C under g as under h.  So
    that contingency matrix is a complete double-coset invariant.
    """

    def __init__(self, n: int, gens: list[int]):
        block = list(range(n))
        for i in gens:
            old, new = block[i], block[i - 1]
            block = [new if b == old else b for b in block]
        labels = {b: k for k, b in enumerate(sorted(set(block)))}
        self.n = n
        self.block_of = [labels[b] for b in block]
        self.nblocks = len(labels)
        self.sizes = Counter(self.block_of)
        self.order = prod(factorial(s) for s in self.sizes.values())
        self.generator_images = [coxeter_images(n)[f"s{i}"] for i in gens]

    def key(self, g: Perm) -> tuple[int, ...]:
        k, block_of = self.nblocks, self.block_of
        counts = [0] * (k * k)
        for x in range(self.n):
            counts[block_of[x] * k + block_of[g[x]]] += 1
        return tuple(counts)

    def orbit_size(self, g: Perm) -> int:
        """|PgP| / |P|, the number of P-cosets in the double coset."""
        return self.order // prod(factorial(c) for c in self.key(g))


def pair(x, y):
    return (x, y) if x <= y else (y, x)


def invariant_key(kind: str, g: Perm, model: YoungSubgroup,
                  n_perm: Perm | None = None):
    """Oracle value of the handle invariant of kind `kind` for cord g."""
    if kind == "oriented-core":
        return model.key(g)
    if kind == "unordered-core":
        return pair(model.key(g), model.key(inverse(g)))

    def twisted(x: Perm):
        return pair(model.key(x), model.key(compose(compose(n_perm, x), n_perm)))

    if kind == "case3-oriented-core":
        return twisted(g)
    return pair(twisted(g), twisted(inverse(g)))


def class_count(kind: str, model: YoungSubgroup, n_perm: Perm | None = None) -> int:
    """Number of distinct invariant values, by brute force over S_n."""
    return len({invariant_key(kind, g, model, n_perm)
                for g in itertools.permutations(range(model.n))})


def burnside_count(model: YoungSubgroup) -> int:
    """|P\\S_n/P| from cycle types alone.

    (p, q) in P x P acting by g -> p g q^-1 fixes exactly the g with
    g^-1 p g = q, so it fixes |C(p)| = z(type) elements when p and q have
    one cycle type and none otherwise; Burnside's lemma then gives
    sum over types of c_P(t)^2 z(t) / |P|^2.
    """
    elements = closure(model.generator_images, model.n)
    by_type = Counter(cycle_type(p) for p in elements)
    total = 0
    for t, c in by_type.items():
        mult = Counter(t)
        z = prod(length ** m * factorial(m) for length, m in mult.items())
        total += c * c * z
    if total % (len(elements) ** 2):
        raise ArithmeticError("Burnside sum is not divisible by |P|^2")
    return total // len(elements) ** 2


# ---------------------------------------------------------------------------
# finite quotients of two-generator knot groups
# ---------------------------------------------------------------------------

def _perms_by_type(degree: int) -> dict[tuple[int, ...], list[Perm]]:
    groups: dict[tuple[int, ...], list[Perm]] = {}
    for p in itertools.permutations(range(degree)):
        groups.setdefault(cycle_type(p), []).append(p)
    return groups


_BY_TYPE = {d: _perms_by_type(d) for d in range(1, 7)}


def separating_quotient(relator: str, g1: str, g2: str, max_degree: int) -> int:
    """Smallest degree d <= max_degree at which some homomorphism of
    <a, b | relator> into S_d gives g1 and g2 different double cosets
    <a>x<a>; 0 when there is none.

    The meridians a and b are conjugate, so their images share a cycle
    type.  Conjugating a homomorphism preserves equality of double
    cosets, so it suffices to fix a's image to one permutation per cycle
    type and try every b of that type: this covers every homomorphism up
    to conjugacy, with no cap on how many.
    """
    if max_degree > 6:
        raise ValueError("the oracle covers degrees up to 6")
    relator_tokens = parse_tokens(relator)
    for degree in range(1, max_degree + 1):
        identity = tuple(range(degree))
        for members in _BY_TYPE[degree].values():
            a = members[0]
            for b in members:
                images = {"a": a, "b": b}
                if evaluate(relator_tokens, images) != identity:
                    continue
                powers = closure([a], degree)
                x, y = evaluate(g1, images), evaluate(g2, images)
                dx = {compose(compose(u, x), v) for u in powers for v in powers}
                if y not in dx:
                    return degree
    return 0
