"""Finite quotients: sound but incomplete separation, and proofs of
infinite index.

When coset enumeration is out of reach, map the group onto permutation
groups of small degree and compare the handle invariants inside the
finite image.  Double-coset equality is preserved by any homomorphism,
so a difference in some image certifies inequivalence; agreement proves
nothing.  S_d is searched up to conjugacy, and a generator conjugate to
an earlier one, as every meridian of a Schubert or Wirtinger
presentation is, draws only from that one's cycle type
(find_homomorphisms).  Every level draws from one lexicographic walk
of S_d, which groups it by cycle type: one walk of a permutation's
cycles (perm_inverse_and_type) gives its inverse and its cycle type,
and serves its inverse too; generator 0 takes the first of each group,
and S_d is kept flat as well only if some generator after the first
has no earlier partner.  Each input keeps one listing of its finite
images (_listing), made of slices that are listed as they are first
read, each cut from an unbounded stream at one cap in that one place:
the images in S_d, less those that only add a fixed point to one of
degree d - 1, and those in AGL(1, m) (below).
The certificate walk and quotient_separate read slices of it, and
nothing else lists an image for them.  An image names no double
coset: it lists H, the image of the acting subgroup, once, and two
cords with images x1 and x2 have equal values there iff some slot y
of x2 (x2, its inverse, the twists n y n, as the case has them) lies
in H x1 H, that is iff x1^-1 h y lies in H for some h in H
(_separates; Holt-Eick-O'Brien, Handbook of CGT, ch. 4).  Inside a
finite image everything is brute force over permutations, independent
of the enumeration engine, with four things shared: the action columns
of words (Word.columns), in whose order an image keeps each
generator's permutation and its inverse (PermutationAssignment.action);
word_algebra's permutation steps, which coset tables use too; the case
dispatch (knot_input.case_words), which picks the acting words and the
twist word; and the value's shape (double_cosets.nest_slots), whose
slot calls give the slots y.

The same images can prove that a subgroup K has infinite index, which
no enumeration budget can (index_certificate): in a transitive image
the stabilizer H of point 0 has finite index, and H^ab over Q is the
cycle space of the image's d-fold cover modulo the cycles its relators
trace; if H_K, the intersection of K with H, spans a smaller rank
there, |H : H_K| is infinite, and so is |G : K|.  The certificate walk
(infinite_index_certificate) reads the slices of S_d for small d, then
those of AGL(1, m) for a few primes m, whose images send each
generator to x -> s x + c_i, one s for all: they are not searched but
solved for, as the kernel mod m of the relators' Fox derivatives (Fox,
"Free differential calculus I", 1953; "Metacyclic invariants of knots
and links", 1970).  s = -1 gives the dihedral images that reach the torus
knots T(2, p).
"""

from __future__ import annotations

import itertools
from enum import Enum
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .double_cosets import nest_slots
from .errors import PreconditionUnverified
from .knot_input import CaseLabel, SurfaceKnotInput, case_words
from .word_algebra import (GroupPresentation, Perm, Word, _Frozen, act,
                           perm_compose, perm_inverse, perm_inverse_and_type, root,
                           squared_generator)

Columns = tuple[int, ...]  # a word's action columns, Word.columns

# the largest degree of S_d searched; a generator with no earlier conjugate
# partner still runs over all d! permutations
MAX_SEPARATE_DEGREE = 8
# images kept per slice of an input's listing (_listing), in S_d and in
# AGL(1, m) alike; binds at d = 6 on knots with p <= 13, and in AGL(1, m)
# only where the Fox rows leave several columns free, as in a free group
HOM_LIMIT = 64
# the slices (kind, degree) that the certificate walk reads, in order: S_d
# for small d, then AGL(1, m) for a few primes m.  It runs on every build
# before it enumerates, finite index included, so each slice adds to every build
CERTIFICATE_WALK = (("S", 2), ("S", 3), ("S", 4), ("S", 5),
                    ("AGL", 7), ("AGL", 11), ("AGL", 13))


class PermutationAssignment(_Frozen):
    """Images of the generators in S_degree, made only by _search and
    _affine_images, so that every relator evaluates to the identity.
    action lists generator i's image at 2i and its inverse at 2i + 1, in
    Word.columns order; as there, repr, ==, hash and pickle leave it out."""

    _fields = ("degree", "images")
    __slots__ = _fields + ("action",)

    def __init__(self, degree: int, images: tuple[Perm, ...]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "action", tuple(
            q for p in images for q in (p, perm_inverse(p))))

    @classmethod
    def _of(cls, degree: int, action: tuple[Perm, ...]) -> "PermutationAssignment":
        """The assignment of an action whose inverses are known, unchecked;
        its images are the action's even entries."""
        hom = object.__new__(cls)
        object.__setattr__(hom, "degree", degree)
        object.__setattr__(hom, "images", action[0::2])
        object.__setattr__(hom, "action", action)
        return hom


class SeparationVerdict(Enum):
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


def _holds(action: list[Perm], relators: list[Columns], points: range) -> bool:
    """True iff every relator, read through its columns (Word.columns),
    fixes every point, where action[2i] is the image of generator i and
    action[2i + 1] its inverse; stops at the first point that moves."""
    for columns in relators:
        for x in points:
            y = x
            for c in columns:
                y = action[c][y]
            if y != x:
                return False
    return True


def _check_degree(degree: int) -> None:
    # a float or a bool passes the bounds but is no degree for range()
    # or a PermutationAssignment
    if type(degree) is not int or not 1 <= degree <= MAX_SEPARATE_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_SEPARATE_DEGREE}, got {degree}")


def _partners(pres: GroupPresentation) -> tuple[int, ...]:
    """For each generator, the least generator a relator chain proves it
    conjugate to, itself if none.

    A relator read cyclically as x^e u y^f u^-1, with x and y generators,
    says y^f = u^-1 x^-e u, so y is conjugate to x or x^-1, and every
    homomorphism gives x and y images of one cycle type, whatever the
    signs; a union-find whose root is the least index joins them.  A
    generator with an x^2 or x^-2 relator (squared_generator) is its own
    inverse, so its two columns read as one: on the Coxeter presentation
    of S_n, (s_i s_j)^3 reads as s_i (s_j s_i) s_j (s_j s_i)^-1.

    Each rotation is read from its middle y outwards, letter against
    inverse letter, up to the first mismatch, and a rotation whose x
    and y are joined already is skipped, so a relator whose rotations
    fail early costs time linear in its length."""
    squares = {squared_generator(r) for r in pres.relators}
    same = [col | 1 if col >> 1 in squares else col
            for col in range(2 * len(pres.generators))]
    parent = list(range(len(pres.generators)))
    for rel in pres.relators:
        half, odd = divmod(len(rel), 2)
        if odd:
            continue
        w = [same[col] for col in rel.columns] * 2
        inv = [same[col ^ 1] for col in w]
        for r in range(len(rel)):  # rotation r is w[r:r + len(rel)]
            m = r + half  # y; u is w[r + 1:m], and u^-1 must follow y
            a, b = root(parent, w[r] >> 1), root(parent, w[m] >> 1)
            if a == b:
                continue
            k = 1
            while k < half and w[m + k] == inv[m - k]:
                k += 1
            if k == half:
                parent[max(a, b)] = min(a, b)
    return tuple(root(parent, i) for i in range(len(parent)))


def _search(pres: GroupPresentation, degree: int) -> Iterator[PermutationAssignment]:
    """find_homomorphisms' listing as one unbounded stream, depth first,
    from one lexicographic walk of S_degree: generator 0 runs over the
    least permutation of each cycle type, generator k over all of
    S_degree, or, if _partners gives it an earlier generator j, over the
    cycle type of j's image only.  Its readers cut it at HOM_LIMIT, each
    in one place: _listing and find_homomorphisms.

    The walk makes each permutation p an entry (p, p^-1, t), t the index
    of p's cycle type in groups, which lists each type's entries in
    order.  p's inverse and type come from one walk of its cycles
    (perm_inverse_and_type), which serves p^-1 too, as p is p^-1's
    inverse and has its type; the flat list of entries is kept only if
    some generator after the first has no earlier partner.  A listed
    image keeps the inverses the search holds (PermutationAssignment._of)."""
    ngens = len(pres.generators)
    points = range(degree)
    partners = _partners(pres)
    listed = any(partners[k] == k for k in range(1, ngens))
    flat: list[tuple[Perm, Perm, int]] = []
    groups: list[list[tuple[Perm, Perm, int]]] = []
    index: dict[tuple[int, ...], int] = {}  # cycle type -> its t
    # p^-1 -> (p, p's t): a walk of p serves p^-1, which comes later
    ahead: dict[Perm, tuple[Perm, int]] = {}
    for p in itertools.permutations(points):  # lexicographic
        known = ahead.pop(p, None)
        if known is None:
            p_inv, kind = perm_inverse_and_type(p)
            t = index.setdefault(kind, len(groups))
            if t == len(groups):
                groups.append([])
            ahead[p_inv] = (p, t)
        else:
            p_inv, t = known
        entry = (p, p_inv, t)
        groups[t].append(entry)
        if listed:
            flat.append(entry)
    # a conjugation takes generator 0's image to the least of its type
    leaders = sorted(group[0] for group in groups)
    # a relator becomes checkable once its highest generator is assigned
    ready: list[list[Columns]] = [[] for _ in range(ngens)]
    for rel in pres.relators:
        ready[rel.max_generator_index()].append(rel.columns)

    action: list[Perm] = [tuple(points)] * (2 * ngens)
    types = [0] * ngens  # generator k -> the t of its image

    def extend(k: int) -> Iterator[PermutationAssignment]:
        if k == ngens:
            yield PermutationAssignment._of(degree, tuple(action))
            return
        checks, col, j = ready[k], 2 * k, partners[k]
        for p, p_inv, t in (leaders if k == 0 else flat if j == k else groups[types[j]]):
            action[col] = p
            action[col + 1] = p_inv
            if _holds(action, checks, points):
                types[k] = t
                yield from extend(k + 1)

    yield from extend(0)


def find_homomorphisms(pres: GroupPresentation, degree: int) -> list[PermutationAssignment]:
    """Backtracking search for homomorphisms into S_degree.

    Images are tried in lexicographic order, so the output order is
    deterministic; generator 0 tries only the least permutation of each
    cycle type, so below HOM_LIMIT every homomorphism is conjugate to a
    listed one.  A generator that a relator x^e u y^f u^-1 proves
    conjugate to an earlier one or its inverse (see _partners) tries
    only the permutations of its partner's cycle type; no other can
    satisfy that relator, so this lists the same assignments in the same
    order.  Every level draws from one walk of S_degree, grouped by cycle
    type, and each permutation's inverse and cycle type are read off one
    walk of its cycles (_search).
    At most HOM_LIMIT assignments are returned, the first HOM_LIMIT of
    _search's stream, and each one satisfies every relator.  An empty
    list is a valid result.  Each call searches afresh.  The degree must
    lie in 1..MAX_SEPARATE_DEGREE.
    """
    _check_degree(degree)
    return list(itertools.islice(_search(pres, degree), HOM_LIMIT))


def _listing(input: SurfaceKnotInput, kind: str, degree: int
             ) -> tuple[tuple[PermutationAssignment, ...], bool]:
    """One slice of the input's listing of finite images, and whether the
    slice holds every image of its kind: kind "S" for the images in S_d,
    d = degree, and "AGL" for those in AGL(1, m), m = degree prime.  This
    is the one place that lists images for the certificate walk and the
    separations, and the one place that cuts a slice: its lister
    (_search or _affine_images) is an unbounded stream, of which the
    slice keeps the first HOM_LIMIT images; the free group on 8
    generators has about 13^6 of them per s at m = 13.  Each slice is
    listed once per input, when it is first read, and kept on it
    (SurfaceKnotInput._listings), so the certificate walks for P and P+
    and the separations on one input share it, and it is freed with the
    input.

    An S_d slice is cut first and filtered after: when the slice
    of degree d - 1 is complete (at d <= 2, always, since S_1 lists only
    the trivial image), it drops the images whose generators all fix one
    point.  On the other points such an image is isomorphic to one of
    degree d - 1, so conjugate to a kept image of a lower degree; it is
    intransitive, so it certifies nothing either."""
    listing = input._listings.get((kind, degree))
    if listing is None:
        pres = input.presentation
        lister = _affine_images if kind == "AGL" else _search
        homs = kept = tuple(itertools.islice(lister(pres, degree), HOM_LIMIT))
        if kind == "S" and (degree <= 2 or _listing(input, "S", degree - 1)[1]):
            kept = tuple(hom for hom in homs if not _fixes_a_point(hom))
        listing = input._listings[kind, degree] = (kept, len(homs) < HOM_LIMIT)
    return listing


def _fixes_a_point(hom: PermutationAssignment) -> bool:
    """True iff some point is fixed by every generator image of hom."""
    return any(all(p[x] == x for p in hom.images) for x in range(hom.degree))


def _subgroup(identity: Perm, subgens: list[Perm]) -> set[Perm]:
    """The elements of the permutation group the subgens generate: the
    closure of the identity under y -> y*s.  In a finite group the
    inverse moves are products of these, so it needs none of them."""
    found, stack = {identity}, [identity]
    while stack:
        y = stack.pop()
        for s in subgens:
            z = perm_compose(y, s)
            if z not in found:
                found.add(z)
                stack.append(z)
    return found


def _separates(hom: PermutationAssignment, acting: list[Columns],
               n: Optional[Columns], core_oriented: bool,
               c1: Columns, c2: Columns) -> bool:
    """True iff the cords whose columns (Word.columns) are c1 and c2 get
    different invariants in hom's image, traced through hom.action: iff
    no slot y of c2 (nest_slots) lies in H x1 H, with H the image of the
    acting words (_subgroup) and x1 that of c1.  n's image must pass
    validate's twist checks, read as membership in H, else
    PreconditionUnverified names the first that fails; they make n
    normalize H with n^2 in H, so that any one slot fixes a value."""
    action, identity = hom.action, tuple(range(hom.degree))

    def image(columns: Columns) -> Perm:
        return act(action, columns, identity)

    subgens = [image(w) for w in acting]
    h_set = _subgroup(identity, subgens)
    n_image = None if n is None else image(n)
    if n is not None:  # validate's twist checks, read in the image
        n_inv = perm_inverse(n_image)
        checks = {"twist_normalizes_p_plus": [
                      perm_compose(perm_compose(a, s), b)
                      for s in subgens for a, b in ((n_image, n_inv), (n_inv, n_image))],
                  "n_squared_in_p_plus": [perm_compose(n_image, n_image)]}
        for name, elements in checks.items():
            if not h_set.issuperset(elements):
                raise PreconditionUnverified(
                    f"{name} fails in a permutation image of degree {hom.degree}")

    x2 = image(c2)
    slots: list[Perm] = []

    def slot(inverted: bool, of: Optional[Perm]) -> Perm:
        if of is not None:
            y = perm_compose(perm_compose(n_image, of), n_image)
        else:
            y = perm_inverse(x2) if inverted else x2
        slots.append(y)
        return y

    nest_slots(slot, n is not None, core_oriented)
    x1_inv = perm_inverse(image(c1))
    for h in h_set:
        left = perm_compose(x1_inv, h)
        for y in slots:
            if perm_compose(left, y) in h_set:
                return False
    return True


def quotient_separate(input: SurfaceKnotInput, case: CaseLabel,
                      core_oriented: bool, g1: Word, g2: Word,
                      max_degree: int = 6) -> SeparationVerdict:
    """Try to certify that g1 and g2 carry inequivalent 1-handles.

    DISTINCT only when some homomorphism onto a permutation group of
    degree <= max_degree gives the two words different invariants there;
    UNKNOWN otherwise.  Never claims equivalence.  In each image the
    invariants are compared by one subgroup-membership test, with no
    double coset named (_separates).  The images are the S_d slices of
    the input's listing for d = 2..max_degree (_listing), by increasing
    degree, and no AGL(1, m) slice: those _search lists, less the images
    of degree d whose generators all fix one common point when the slice
    of degree d - 1 is complete.  Restricted to the other points, such
    an image is isomorphic to one in S_(d-1), so conjugate to a kept one
    of a lower degree, which compared the two words equal or the loop
    would have returned; the images of degree 1 are trivial.  The
    verdict is the same as if every listed image were compared.  Raises
    CaseMismatch for a case outside input.cases (case_words),
    PreconditionUnverified if a compared image shows that n fails one of
    validate's twist checks (so it fails in the group too), and
    ValueError for a max_degree outside 1..MAX_SEPARATE_DEGREE or a cord
    letter outside the presentation.
    """
    acting, n = case_words(input, case)
    _check_degree(max_degree)
    ngens = len(input.presentation.generators)
    if max(g1.max_generator_index(), g2.max_generator_index()) >= ngens:
        raise ValueError("cord word uses a generator outside the presentation")
    acting_columns = [w.columns for w in acting]
    n_columns = None if n is None else n.columns
    c1, c2 = g1.columns, g2.columns
    for degree in range(2, max_degree + 1):
        for hom in _listing(input, "S", degree)[0]:
            if _separates(hom, acting_columns, n_columns, core_oriented, c1, c2):
                return SeparationVerdict.DISTINCT
    return SeparationVerdict.UNKNOWN


class IndexCertificate(NamedTuple):
    """A proof that a subgroup K has infinite index in the group.

    hom is transitive; H, the stabilizer of point 0 in its image, has
    H^ab over Q of rank h_rank, and H_K = K intersect H spans only
    p_rank < h_rank of it.  So H_K has infinite index in H, and since
    |G : H| = degree is finite, K has infinite index in G.
    """

    hom: PermutationAssignment
    h_rank: int
    p_rank: int

    @property
    def degree(self) -> int:
        return self.hom.degree


def _extend_basis(basis: list[tuple[int, dict]], rows: Iterable[list[int]],
                  dim: int) -> None:
    """Add the integer rows to an echelon basis, by fraction-free
    elimination, until its rank reaches dim, the dimension of a space
    that holds every row.  A basis row is its pivot column and its
    nonzero entries, 0 at every earlier pivot and with content (the gcd
    of its entries) 1, so len(basis) is the rank over Q."""
    for dense in rows:
        if len(basis) == dim:
            return
        row = {c: x for c, x in enumerate(dense) if x}
        for col, b in basis:
            f = row.get(col)
            if f:
                # row * pivot - b * f, both factors divided by their gcd
                pivot = b[col]
                g = gcd(f, pivot)
                f, pivot = f // g, pivot // g
                if pivot != 1:
                    row = {c: x * pivot for c, x in row.items()}
                for c, y in b.items():
                    x = row.get(c, 0) - f * y
                    if x:
                        row[c] = x
                    else:
                        del row[c]
        if row:
            content = gcd(*row.values())
            basis.append((min(row), {c: x // content for c, x in row.items()}))


def index_certificate(hom: PermutationAssignment, pres: GroupPresentation,
                      subgroup: Sequence[Word]) -> Optional[IndexCertificate]:
    """A certificate that the subgroup has infinite index, read off one
    homomorphism, or None (the image is not transitive, or its ranks do
    not differ).

    The image's cover has d points and an edge x --g_i--> x g_i for each
    generator i and point x, row column i d + x; a word traced from a
    point becomes the vector of edges it crosses (+1 forwards, -1
    against a generator), a cycle if it ends where it began.  In a
    transitive image the cover is connected, so its cycle space has
    dimension n d - d + 1 for n generators, and H^ab over Q is that
    space modulo the relators traced from every point (their Fox
    Jacobian in the permutation representation).  H_K = K intersect H
    is generated by u_o w u_o'^-1, for o in the K-orbit of 0, w a
    subgroup generator and o' = o w, where u_o is a product of subgroup
    generators carrying 0 to o; its row is U[o] + (w traced from o) -
    U[o'], with U[o] the row of u_o traced from 0.
    """
    degree, action = hom.degree, hom.action
    reached = [0]
    for x in reached:  # grows while it is walked
        reached += {p[x] for p in hom.images}.difference(reached)
    if len(reached) < degree:
        return None
    width = len(pres.generators) * degree
    dim = width - degree + 1

    def rewrite(columns: Columns, x: int) -> tuple[list[int], int]:
        row = [0] * width
        for c in columns:
            if c & 1:
                x = action[c][x]
                row[(c >> 1) * degree + x] -= 1
            else:
                row[(c >> 1) * degree + x] += 1
                x = action[c][x]
        return row, x

    basis: list[tuple[int, dict]] = []
    _extend_basis(basis, (rewrite(rel.columns, x)[0]
                          for rel in pres.relators for x in range(degree)), dim)
    relator_rank = len(basis)
    if relator_rank == dim:
        return None  # H^ab is finite
    words = [w.columns for w in subgroup]
    path = {0: [0] * width}  # o -> U[o]
    orbit = [0]
    rows = []
    for o in orbit:  # grows while it is walked
        for w in words:
            traced, end = rewrite(w, o)
            row = [a + b for a, b in zip(path[o], traced)]
            if end in path:
                rows.append([a - b for a, b in zip(row, path[end])])
            else:
                path[end] = row
                orbit.append(end)
    _extend_basis(basis, rows, dim)
    if len(basis) == dim:
        return None
    return IndexCertificate(hom, dim - relator_rank, len(basis) - relator_rank)


def _affine_row(columns: Columns, s: int, m: int, ngens: int) -> Optional[list[int]]:
    """A relator's row mod m, or None if s^e != 1 (e its exponent sum): read
    left to right with generator i as x -> s x + c_i, it maps x to s^e x +
    s^(e - 1) (row . c), row[i] its Fox derivative along generator i at 1/s."""
    row, power = [0] * ngens, 1  # power is 1/s^(the exponent sum read so far)
    inverse = pow(s, -1, m)
    for c in columns:
        if c & 1:
            power = power * s % m
            row[c >> 1] -= power
        else:
            row[c >> 1] += power
            power = power * inverse % m
    return [x % m for x in row] if power == 1 else None


def _affine_images(pres: GroupPresentation, m: int) -> Iterator[PermutationAssignment]:
    """The homomorphisms into AGL(1, m), m prime, that send generator i
    to x -> s x + c_i, one s != 1 for all, as an unbounded stream, which
    its one reader, _listing, cuts, since a free group on n generators
    has about m^(n - 2) of them per s: for each s that every relator's
    multiplier allows, c runs over the kernel of the relators' rows up to
    x -> u x + t, which takes c to u c + (1 - s) t, so c_0 = 0 and the
    first nonzero entry is 1 (c = 0 fixes 0).  Rows are eliminated from
    the last column, so free columns after the first nonzero one run over
    Z/m and each pivot follows from those before."""
    ngens = len(pres.generators)
    relators = [rel.columns for rel in pres.relators]
    for s in range(2, m):
        pivots: dict[int, list[int]] = {}  # column -> its pivot row
        for columns in relators:
            row = _affine_row(columns, s, m, ngens)
            if row is None:
                break
            for col in range(ngens - 1, 0, -1):  # column 0 is c_0 = 0
                f = row[col]
                if f and col in pivots:
                    row = [(x - f * y) % m for x, y in zip(row, pivots[col])]
                elif f:
                    pivots[col] = [x * pow(f, -1, m) % m for x in row]
                    break
        else:
            free = [col for col in range(1, ngens) if col not in pivots]
            for j in range(len(free)):
                for rest in itertools.product(range(m), repeat=len(free) - j - 1):
                    c = [0] * ngens
                    for col, x in zip(free[j:], (1,) + rest):
                        c[col] = x
                    for col in sorted(pivots):
                        c[col] = -sum(x * y for x, y in zip(pivots[col], c)) % m
                    yield PermutationAssignment(m, tuple(
                        tuple((s * x + ci) % m for x in range(m)) for ci in c))


def infinite_index_certificate(input: SurfaceKnotInput, subgroup: Sequence[Word]
                               ) -> Optional[IndexCertificate]:
    """The first certificate of infinite index for the subgroup, or None.

    The walk reads the slices of the input's listing (_listing) that
    CERTIFICATE_WALK names, in its order, each image at point 0 only,
    and stops at the first certificate.
    handle_classifier.subgroup_table runs it before it enumerates.  The
    slices are kept on the input, so the walks for P and P+ and a later
    separation on the same input list each slice once.  An image that
    the S_d slice leaves out fixes a point, so it is intransitive and
    certifies nothing: the walk finds the certificate it would find in
    the full listing."""
    pres = input.presentation
    for kind, degree in CERTIFICATE_WALK:
        for hom in _listing(input, kind, degree)[0]:
            cert = index_certificate(hom, pres, subgroup)
            if cert is not None:
                return cert
    return None
