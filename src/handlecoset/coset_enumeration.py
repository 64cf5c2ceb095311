"""Todd-Coxeter coset enumeration over a finite presentation.

The enumerator computes the action of the group generators on the right
cosets of a finitely generated subgroup, when that index is finite and
within budget.  Strategy: HLT relator scanning with filling, coincidences
handled through a union-find queue with path compression.  A completed
table is renumbered into breadth-first standard form (columns ordered
g1, g1^-1, g2, g2^-1, ...), which makes the result independent of the
internal deduction order.  The BFS tree carries a witness word to every
coset.  It is stored as one column per coset, that of the edge
parent --col--> c that found c, so the parent is c under the inverse
column, one subscript.  Since a parent is numbered before its children
and a parent's children are numbered together, one walk in coset order
spells every witness, each from its parent's text and one letter
(CosetTable.witness_texts).

During the run the table is one flat list whose stride ncols is the
number of distinct columns.  A generator is involutory when the
presentation has a relator that is that letter twice (x^2 or x^-2).
Its two letters share one flat column, which is its own inverse; every
other generator has a column per letter.  A column map sends each
letter to its flat column, and an inverse map sends each flat column to
its inverse (k ^ 1 for a pair, k itself for a shared column).  A word is
stored as its standard columns (Word.columns: 2i for generator i, 2i + 1
for its inverse); relators and subgroup words are mapped through the
column map, and every edge is installed together with its reverse
through the inverse map, so the x^2 relators hold at every coset and are
not scanned.  On the Coxeter presentation of S_n every generator is an
involution: the stride halves and about half as many cosets are defined.

A coset is named by its base offset (coset number times ncols), and a
defined slot holds the target's base offset, so one scan step is the
single subscript table[f + col]; None marks an undefined slot.  Gaps are
filled inside the scan loop.  Every coset, in a scan or in the fill
after it, is made by one method (_Enumeration.define), the one place
that checks the live/defined budget.  Dead cosets are the keys of a
union-find dict, so live cosets = defined cosets - merged cosets.

Standardization walks the distinct columns and writes the finished
table straight into one 1-based list per column; the result has a
column for every letter, and an involutory generator's two columns are
one list.  The standardized table does not depend on the sharing, and
its columns are numbered as Word.columns numbers a word's letters, so
tracing a word is one subscript per letter.  The post-checks, which
_verify states, prove each invariant once.

Cosets are numbered 1..index and coset 1 is the subgroup itself.  A
table (CosetTable) owns its double cosets, keeps their labels and twists,
and climbs once per inverse; only this module reads the columns and tree.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import CosetRangeError, ResourceExhausted
from .knot_input import run_token
from .word_algebra import (GroupPresentation, Word, _Frozen, act, letter_of,
                           perm_compose, perm_power, root, squared_generator)


class EnumerationLimits(_Frozen):
    """Hard resource budget for one enumeration run."""

    __slots__ = _fields = ("max_live_cosets", "max_total_defined")

    def __init__(self, max_live_cosets: int = 1_000_000,
                 max_total_defined: int = 10_000_000):
        for value in (max_live_cosets, max_total_defined):
            # a float or a bool passes the bounds but is no count of cosets
            if type(value) is not int:
                raise ValueError(f"limits must be integers, got {value}")
        if max_live_cosets <= 0 or max_total_defined <= 0:
            raise ValueError("limits must be positive")
        if max_total_defined < max_live_cosets:
            raise ValueError("max_total_defined must be >= max_live_cosets")
        object.__setattr__(self, "max_live_cosets", max_live_cosets)
        object.__setattr__(self, "max_total_defined", max_total_defined)


class CosetTable:
    """Complete standardized right-coset table.

    The action maps (coset, signed generator) to a coset and restricts to
    a permutation of 1..index on each signed generator.  Every relator
    traces each coset to itself and every subgroup generator fixes
    coset 1.  witness(c) is a word carrying coset 1 to c along the BFS
    discovery tree (witness(1) is the empty word), climbing from c to
    coset 1 through each tree edge's inverse column.  witness_texts(cosets)
    spells witnesses and translates(x) traces x by every witness, each in
    one walk down the tree instead; unwitness(c) traces coset 1 by the
    inverse of witness(c).

    Storage is one list per column: _action[col][c] is the image of
    coset c, with a 0 placeholder at position 0.  Column 2i is generator
    i and column 2i+1 its inverse; for an involutory generator (a
    relator x^2 or x^-2) the two are the same list object, so the table
    must not be edited in place.  _tree[c] is the standard column col of
    the BFS tree edge parent --col--> c that discovered coset c, in an
    array('i') at 4 bytes per coset (0 for c = 1 and at the placeholder);
    the parent is _action[col ^ 1][c], and it is less than c.  The table
    owns its double cosets under its own subgroup generators and the two
    maps on them (Holt-Eick-O'Brien, Handbook of CGT, ch. 5): labels,
    orbit_sizes and twist, kept once built, and inverse, one climb per
    call that its callers keep.
    """

    def __init__(self, subgroup_generators: Sequence[Word], n_generators: int,
                 action: list[list[int]], tree: array, total_defined: int):
        self.subgroup_generators = tuple(subgroup_generators)
        self.n_generators = n_generators
        self._action = action
        self._tree = tree
        self.total_defined = total_defined
        # compared by n's equality: a word hashes its decoded letters on
        # every call, and a table meets one n in practice
        self._twists: list[tuple[Word, list[int]]] = []

    @property
    def index(self) -> int:
        return len(self._action[0]) - 1

    def trace(self, start: int, word: Word) -> int:
        """Apply the word left to right starting from the given coset:
        one subscript per letter, through the columns the word compiled
        when it was built."""
        if not 1 <= start <= self.index:
            raise CosetRangeError(start, self.index)
        c = start
        action = self._action
        try:
            for col in word.columns:
                c = action[col][c]
        except IndexError:  # a column past the last generator's
            raise ValueError("word uses a generator outside this table's alphabet") from None
        return c

    def permutation(self, word: Word) -> list[int]:
        """The word's action on all cosets at once, as a 1-based list
        (0 at position 0): the composition of its letters' columns."""
        if word.max_generator_index() >= self.n_generators:
            raise ValueError("word uses a generator outside this table's alphabet")
        return list(act(self._action, word.columns, range(self.index + 1)))

    def membership(self, word: Word) -> bool:
        """True iff the word lies in the subgroup (traces coset 1 to itself)."""
        return self.trace(1, word) == 1

    def witness(self, coset: int) -> Word:
        """A word with trace(1, word) == coset, read off the BFS tree:
        its columns are the tree's edges from coset 1, a path that never
        turns back, so the word is freely reduced."""
        if not 1 <= coset <= self.index:
            raise CosetRangeError(coset, self.index)
        tree, action = self._tree, self._action
        path = []
        c = coset
        while c != 1:
            col = tree[c]
            path.append(col)
            c = action[col ^ 1][c]
        return Word._of(tuple(reversed(path)))

    def witness_texts(self, cosets: Iterable[int],
                      names: Sequence[str]) -> dict[int, str]:
        """format_word(witness(c), names) for each coset c given, in one
        walk of the BFS tree in coset order; no word is built.  A coset's
        parent, read through the inverse of its tree column, is numbered
        before it, and each parent's children are numbered together, so
        each text is its parent's plus one letter, decoded from the tree
        edge's column (letter_of): the letter lengthens the parent's last
        run or starts a new one.
        A text is kept only until its coset's last child is built, unless
        it is asked for."""
        wanted = set(cosets)
        for c in wanted:
            if not 1 <= c <= self.index:
                raise CosetRangeError(c, self.index)
        single = [run_token(names[i], s)
                  for i, s in map(letter_of, range(len(self._action)))]
        tree, action = self._tree, self._action
        out = {1: "1"} if 1 in wanted else {}
        # (text, the text before its last run, last column, run length)
        # of cosets lo, lo + 1, ...; coset 1's text is the empty string
        live = deque([("", "", -1, 0)])
        lo = 1
        for c in range(2, max(wanted, default=1) + 1):
            col = tree[c]
            p = action[col ^ 1][c]
            while lo < p:  # every child of coset lo is built
                live.popleft()
                lo += 1
            text, head, last, k = live[0]
            if col == last:
                k += 1
                i, s = letter_of(col)
                text = head + run_token(names[i], s * k)
            else:
                head, k = (text + " " if text else ""), 1
                text = head + single[col]
            live.append((text, head, col, k))
            if c in wanted:
                out[c] = text
        return out

    def translates(self, start: int) -> list[int]:
        """start * witness(c) for every coset c, as a 1-based list (0 at
        position 0), in one walk down the BFS tree in coset order: each
        entry is its parent's under one column; no word is built."""
        if not 1 <= start <= self.index:
            raise CosetRangeError(start, self.index)
        tree, action = self._tree, self._action
        out = [0, start]
        for c in range(2, len(tree)):
            col = tree[c]
            out.append(action[col][out[action[col ^ 1][c]]])
        return out

    def unwitness(self, coset: int) -> int:
        """The coset 1 * witness(coset)^-1 in one climb: each BFS tree
        edge's inverse column takes c to its parent and x along the
        inverse word; no word is built."""
        if not 1 <= coset <= self.index:
            raise CosetRangeError(coset, self.index)
        tree, action = self._tree, self._action
        c, x = coset, 1
        while c != 1:
            back = tree[c] ^ 1
            c, x = action[back][c], action[back][x]
        return x

    @cached_property
    def labels(self) -> list[int]:
        """labels[c] is the canonical coset of c's double coset, the
        minimum of its orbit (labels[0] = 0): a union-find over the
        subgroup generators' permutations whose root is that minimum."""
        parent = list(range(self.index + 1))
        for w in self.subgroup_generators:
            if not w:
                continue
            for c, d in enumerate(self.permutation(w)):
                if c != d:
                    a, b = root(parent, c), root(parent, d)
                    if a > b:
                        a, b = b, a
                    parent[b] = a  # the root stays the orbit's minimum
        return [root(parent, c) for c in range(self.index + 1)]

    @cached_property
    def orbit_sizes(self) -> Counter:
        """Canonical coset -> orbit size; a canonical coset is the first
        of its orbit met in 1..index, so the keys run in increasing order."""
        return Counter(self.labels[1:])

    def inverse(self, canonical: int) -> int:
        """The canonical coset of the inverse double coset: one climb,
        which refuses a coset outside 1..index as unwitness does."""
        return self.labels[self.unwitness(canonical)]

    def twist(self, n: Word) -> list[int]:
        """twist(n)[c], for every coset c, is the canonical coset of
        n w(c) n, w(c) the witness of c: one list per n, found again
        without hashing n.  Only when n normalizes the subgroup does
        n w n lie there for every w in c's double coset."""
        for m, images in self._twists:
            if m == n:
                return images
        after = self.permutation(n)
        labels = self.labels
        images = [labels[after[x]] for x in self.translates(after[1])]
        self._twists.append((n, images))
        return images

    def __repr__(self):
        return f"<CosetTable index={self.index} on {self.n_generators} generators>"


class _Enumeration:
    """One HLT run over a flat table; a coset is named by its base offset.

    column[2i + (s < 0)] is the flat column of the letter (i, s) and
    inv[k] the inverse of flat column k; an involutory generator's two
    letters share one self-inverse column (inv[k] == k).  std[k] is the
    standard column (2i or 2i + 1) of flat column k.  define makes every
    coset and is the one place that checks the budget; bound is the
    offset the budget allows up to, as define last read it."""

    def __init__(self, pres: GroupPresentation, subgroup: Sequence[Word],
                 limits: EnumerationLimits):
        squared = [squared_generator(r) for r in pres.relators]
        involutory = set(squared)
        column: list[int] = []
        inv: list[int] = []
        std: list[int] = []
        for i in range(len(pres.generators)):
            k = len(inv)
            if i in involutory:
                column += [k, k]
                inv.append(k)
                std.append(2 * i)
            else:
                column += [k, k + 1]
                inv += [k + 1, k]
                std += [2 * i, 2 * i + 1]
        self.column, self.inv, self.std = column, inv, std
        self.ncols = len(inv)
        # an edge of a self-inverse column is installed with its reverse,
        # so the x^2 relators hold at every coset without a scan
        self.relators = [tuple(column[c] for c in r.columns)
                         for r, x in zip(pres.relators, squared) if x is None]
        self.subgroup = [tuple(column[c] for c in w.columns) for w in subgroup]
        self.limits = limits
        self.blank: list[Optional[int]] = [None] * self.ncols
        self.table = list(self.blank)
        self.merged: dict[int, int] = {}  # dead coset -> coset it merged into
        self.bound = 0  # read on the first definition (define)

    def rep(self, k: int) -> int:
        merged = self.merged
        root = k
        while root in merged:
            root = merged[root]
        while k != root:
            merged[k], k = root, merged[k]
        return root

    def merge(self, a: int, b: int, queue: deque) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.merged[b] = a
        queue.append(b)

    def coincidence(self, a: int, b: int) -> None:
        table, inv = self.table, self.inv
        queue: deque[int] = deque()
        self.merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            for col in range(self.ncols):
                delta = table[gamma + col]
                if delta is None:
                    continue
                # dismantle the dead row, re-install the edge at representatives
                back = inv[col]
                table[delta + back] = None
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if table[mu + col] is not None:
                    self.merge(nu, table[mu + col], queue)
                elif table[nu + back] is not None:
                    self.merge(mu, table[nu + back], queue)
                else:
                    table[mu + col] = nu
                    table[nu + back] = mu

    def define(self, alpha: int, col: int) -> int:
        """Make the coset alpha^col and return it.  Live cosets are the
        defined ones less the merged ones, and merges only add, so the
        offset at which a definition breaks the budget never falls: it
        is read again only when a definition reaches the last one read."""
        table = self.table
        beta = len(table)
        if beta >= self.bound:
            limits, merged = self.limits, len(self.merged)
            self.bound = self.ncols * min(limits.max_live_cosets + merged,
                                          limits.max_total_defined)
            if beta >= self.bound:
                defined = beta // self.ncols
                raise ResourceExhausted(limits, defined - merged, defined)
        table += self.blank
        table[alpha + col] = beta
        table[beta + self.inv[col]] = alpha
        return beta

    def scan_and_fill(self, alpha: int, words: list[tuple[int, ...]]) -> None:
        """Scan coset alpha under each word in turn, filling every gap by
        definitions (define) and closing it by a deduction or a
        coincidence; stop early if alpha itself dies in a coincidence.

        Each word is first traced forward alone: most scans meet no gap,
        and such a scan ends at once, with a coincidence unless it ends
        on alpha.  Only a scan that meets a gap restarts as the
        two-ended scan, whose forward half stops at the same gap, so
        every definition is made as before."""
        table, inv = self.table, self.inv
        for word in words:
            f = alpha
            for col in word:
                nxt = table[f + col]
                if nxt is None:
                    break
                f = nxt
            else:
                if f != alpha:
                    self.coincidence(f, alpha)
                    if alpha in self.merged:
                        return
                continue
            f, i = alpha, 0
            b, j = alpha, len(word) - 1
            while True:
                while i <= j:
                    nxt = table[f + word[i]]
                    if nxt is None:
                        break
                    f = nxt
                    i += 1
                while j >= i:
                    nxt = table[b + inv[word[j]]]
                    if nxt is None:
                        break
                    b = nxt
                    j -= 1
                if j < i:
                    if f != b:
                        self.coincidence(f, b)
                        if alpha in self.merged:
                            return
                    break
                col = word[i]
                if j == i:
                    table[f + col] = b
                    table[b + inv[col]] = f
                    break
                # a gap of two or more letters: define f^col and step onto it
                f = self.define(f, col)
                i += 1

    def run(self) -> tuple[list[list[int]], array, int]:
        self.scan_and_fill(0, self.subgroup)
        table, ncols, merged = self.table, self.ncols, self.merged
        alpha = 0
        while alpha < len(table):
            if alpha not in merged:
                self.scan_and_fill(alpha, self.relators)
                if alpha not in merged:
                    for col in range(ncols):
                        if table[alpha + col] is None:
                            self.define(alpha, col)
            alpha += ncols
        return self._standardize()

    def _standardize(self):
        """Renumber live cosets 1.. in BFS order by (coset, column) from
        coset 0, writing each flat column straight into a 1-based list
        and the standard column of the edge that reaches each coset first
        into the tree.  The flat columns run in the standard order g1,
        g1^-1, g2, ... without the inverse of an involutory generator,
        which is the same column and so never reaches a coset first.  No
        live row points at a dead coset: for each coset coincidence kills,
        it clears every entry that points back at it."""
        table, ncols, merged, std = self.table, self.ncols, self.merged, self.std
        number = [0] * (len(table) // ncols)  # 0 = not reached yet
        number[0] = 1  # coset 0 survives every merge (min offset wins)
        order = [0]
        tree = array("i", [0, 0])
        flat: list[list[int]] = [[0] for _ in range(ncols)]
        for c in order:  # grows while it is walked
            for col in range(ncols):
                d = table[c + col]
                if d is None:
                    raise AssertionError("incomplete row after enumeration")
                k = d // ncols
                if not number[k]:
                    order.append(d)
                    number[k] = len(order)
                    tree.append(std[col])
                flat[col].append(number[k])
        defined = len(table) // ncols
        if len(order) != defined - len(merged):
            raise AssertionError("coset table is not connected")
        # a self-inverse column stands for both letters: one list, twice
        return [flat[k] for k in self.column], tree, defined


def _root(columns: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(u, m) with columns = u repeated m times and m as large as possible."""
    n = len(columns)
    for d in range(1, n // 2 + 1):
        if n % d == 0 and columns[:d] * (n // d) == columns:
            return columns[:d], n // d
    return columns, 1


def _column_fault(a: list[int], b: list[int], identity: tuple[int, ...]) -> str:
    """The message for a generator column a and its inverse column b that
    fail _verify's check: the first of "a is a permutation", "b inverts
    a" and "b is a permutation" that fails.  Once the first two hold, b
    agrees with a's inverse on 0..index, so only extra entries are left."""
    try:
        if tuple(sorted(a)) == identity and perm_compose(a, b) != identity:
            return "action is not inverse-consistent"
    except TypeError:  # an entry that is not an int
        pass
    except IndexError:  # an entry of a past the end of b
        return "action is not inverse-consistent"
    return "column is not a permutation"


def _verify(table: CosetTable, pres: GroupPresentation,
            subgroup: Sequence[Word]) -> None:
    """Linear post-checks of the table invariants, each proved once.

    Columns: for each generator, with a its column and b its inverse
    column, one check that both have index + 1 entries, that no entry
    of a is negative, and that b[a[c]] == c for every c, where an entry
    past the end or of the wrong type fails.  Then a maps 0..index into
    0..index and has a left inverse, so it is a permutation; it is onto,
    so b is its inverse on every point, and both columns are
    permutations that invert each other.

    Relators: a relator u^m (m as large as possible) composes u's
    columns once and raises that to the m-th power by repeated squaring
    (perm_power), in O(log m) compositions.  The x^2 relator of an
    involution whose two letters are one list is not composed: b is a
    there, so the column check above is x^2 = 1.

    Then every subgroup generator fixes coset 1, and every coset c >= 2
    has a parent in 1..c-1 through its tree column's inverse, so every
    climb ends at coset 1.  A tree edge is a table edge by construction:
    the parent is c under the inverse of the edge's column."""
    action = table._action
    identity = tuple(range(table.index + 1))
    for col in range(0, len(action), 2):
        a, b = action[col], action[col + 1]
        try:
            ok = (len(a) == len(b) == len(identity) and min(a) >= 0
                  and perm_compose(a, b) == identity)
        except (IndexError, TypeError):
            ok = False
        if not ok:
            raise AssertionError(_column_fault(a, b, identity))
    for rel in pres.relators:
        u, m = _root(rel.columns)
        if m == 2 and len(u) == 1 and action[u[0]] is action[u[0] ^ 1]:
            continue
        if perm_power(act(action, u[1:], action[u[0]]), m) != identity:
            raise AssertionError("relator does not close")
    for w in subgroup:
        if not table.membership(w):
            raise AssertionError("subgroup generator moved coset 1")
    tree = table._tree
    try:
        ok = (len(tree) == len(identity) and min(tree) >= 0
              and all(0 < action[tree[c] ^ 1][c] < c for c in range(2, len(tree))))
    except IndexError:  # a column past the last generator's
        ok = False
    if not ok:
        raise AssertionError("witness tree is inconsistent")


def enumerate_cosets(pres: GroupPresentation, subgroup: Sequence[Word],
                     limits: Optional[EnumerationLimits] = None) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by the given words.

    Returns a complete standardized table, or raises ResourceExhausted if
    the limits are hit first (which is inconclusive about the index).
    """
    if limits is None:
        limits = EnumerationLimits()
    ngens = len(pres.generators)
    for w in subgroup:
        if w.max_generator_index() >= ngens:
            raise ValueError("subgroup word uses a generator outside the presentation")
    action, tree, defined = _Enumeration(pres, subgroup, limits).run()
    table = CosetTable(subgroup, ngens, action, tree, defined)
    _verify(table, pres, subgroup)
    return table
