"""Seeded input generators for the benchmark.

Everything here produces text: `.skg` presentations and cord words in
`.skg` word syntax.  The package under test only ever sees these
strings, and parses them itself.
"""

from __future__ import annotations

import random
from math import gcd


def coxeter_skg(n: int, p: list[int], p_plus: list[int] | None = None,
                n_gen: int | None = None) -> str:
    """Coxeter presentation of S_n on s1..s(n-1) with a pinned relator order.

    Relators come as every s_i^2 first, then (s_i s_j)^m for i < j in
    lexicographic order, with m = 3 for adjacent and m = 2 otherwise;
    relator order changes the enumeration work, so it is fixed here.
    P, P+ and n are given as generator numbers (s_i is number i).
    """
    lines = ["group: " + " ".join(f"s{i}" for i in range(1, n))]
    lines += [f"rel: s{i}^2" for i in range(1, n)]
    for i in range(1, n):
        for j in range(i + 1, n):
            m = 3 if j == i + 1 else 2
            lines.append("rel: " + " ".join([f"s{i} s{j}"] * m))
    lines.append("P: " + " , ".join(f"s{i}" for i in p))
    if p_plus is None:
        lines.append("orientable: true")
    else:
        lines.append("P+: " + " , ".join(f"s{i}" for i in p_plus))
        lines.append(f"n: s{n_gen}")
        lines.append("orientable: false")
    return "\n".join(lines) + "\n"


def two_bridge_word(p: int, q: int) -> list[tuple[str, int]]:
    """The word w of the 2-bridge knot b(p, q): b^e1 a^e2 b^e3 ... a^e(p-1),
    with e_i = (-1)^floor(i q / p)."""
    return [("b" if i % 2 else "a", -1 if (i * q) // p % 2 else 1)
            for i in range(1, p)]


def two_bridge_skg(p: int, q: int) -> str:
    """Schubert presentation <a, b | a w = w b> with P = <a> (a meridian)."""
    w = two_bridge_word(p, q)
    w_inv = [(g, -e) for g, e in reversed(w)]
    relator = [("a", 1)] + w + [("b", -1)] + w_inv
    return (f"# 2-bridge knot b({p},{q})\ngroup: a b\n"
            f"rel: {format_letters(relator)}\nP: a\norientable: true\n")


def knot_table(p_max: int) -> list[tuple[int, int]]:
    """Every Schubert pair (p, q): p odd in 3..p_max, q odd, 0 < |q| < p,
    gcd(p, q) = 1.  Each pair gives a distinct presentation."""
    return [(p, q) for p in range(3, p_max + 1, 2)
            for q in range(-p + 1, p) if q % 2 and gcd(p, abs(q)) == 1]


def format_letters(letters: list[tuple[str, int]]) -> str:
    if not letters:
        return "1"
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in letters)


def random_letters(rng: random.Random, names: list[str],
                   length: int) -> list[tuple[str, int]]:
    """A freely reduced word of exactly the given length."""
    out: list[tuple[str, int]] = []
    while len(out) < length:
        letter = (rng.choice(names), rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return out


def random_word(rng: random.Random, names: list[str], length: int) -> str:
    return format_letters(random_letters(rng, names, length))


def conjugate_in(rng: random.Random, word: str, p_names: list[str],
                 max_len: int) -> str:
    """u g v for random words u, v in the peripheral generators: a word
    equivalent to g by construction (the program reduces it)."""
    u = random_letters(rng, p_names, rng.randint(1, max_len))
    v = random_letters(rng, p_names, rng.randint(0, max_len))
    return " ".join(part for part in (format_letters(u), word,
                                      format_letters(v) if v else "")
                    if part)
