"""Brute-force construction of the finite-dimensional algebra.

The algebra is the path algebra of the quiver modulo the relation ideal.
Paths longer than the nilpotency bound L vanish, so the path space is
truncated at length L+1 and the ideal becomes a finite-dimensional
subspace spanned by all translates u*r*v of relations.  Normal forms are
extracted by exact row reduction.

Two reduction strategies give the same quotient:

* ``build_algebra`` quotients by the monomial relations first - a word
  containing a monomial relation as a subword is dropped outright - and
  then row reduces the translates of the remaining two-term relations
  inside the small surviving word space;
* ``build_algebra_naive`` enumerates every path and every translate of
  every relation and reduces densely.  It exists as an independent check
  and is only usable on tiny inputs.

``WordSpace`` holds the surviving words and the translate rows; the
algebra and the ideal-membership test ``is_redundant_relation`` both
reduce its rows and differ only in how a product word maps to a column.
"""
from __future__ import annotations

from typing import Optional

from ..graph import BrauerGraph
from ..presentation import Path, Presentation, Relation
from . import linalg
from .fields import QQ


class OracleSizeError(RuntimeError):
    """The truncated path space has more than ``WORD_CAP`` words."""


Word = tuple[str, tuple[int, ...]]  # (source edge, arrow indices)

WORD_CAP = 200_000  # read at each word enumeration


class WordSpace:
    """Paths of length at most ``maxlen`` with no monomial relation as a
    subword, and the translates u*r*v of the two-term relations among them."""

    def __init__(self, quiver, maxlen: int, relations: list[Relation]):
        self.quiver = quiver
        self.maxlen = maxlen
        self._monomials: list[tuple[int, ...]] = []
        self._two_term: list[Relation] = []
        for r in relations:
            if len(r.terms) == 1:
                self._monomials.append(self._path_key(r.terms[0][1]))
            else:
                self._two_term.append(r)
        self._mono_by_len: dict[int, set[tuple[int, ...]]] = {}
        for m in self._monomials:
            self._mono_by_len.setdefault(len(m), set()).add(m)
        self._enumerate_words()

    def _path_key(self, p: Path) -> tuple[int, ...]:
        idx = self.quiver.arrow_index
        return tuple(idx[a] for a in p.arrows)

    def word_target(self, w: Word) -> str:
        src, arrows = w
        return src if not arrows else self.quiver.arrows[arrows[-1]].target

    def word_is_allowed(self, arrows: tuple[int, ...]) -> bool:
        """No subword is a monomial relation."""
        n = len(arrows)
        for length, monos in self._mono_by_len.items():
            if length > n:
                continue
            for i in range(n - length + 1):
                if arrows[i:i + length] in monos:
                    return False
        return True

    def _suffix_ok(self, arrows: tuple[int, ...]) -> bool:
        n = len(arrows)
        for length, monos in self._mono_by_len.items():
            if length <= n and arrows[n - length:] in monos:
                return False
        return True

    def _enumerate_words(self):
        self.allowed: list[Word] = []
        by_source: dict[str, list[Word]] = {v: [] for v in self.quiver.vertices}
        by_target: dict[str, list[Word]] = {v: [] for v in self.quiver.vertices}
        frontier: list[Word] = []
        for v in self.quiver.vertices:
            w: Word = (v, ())
            frontier.append(w)
        while frontier:
            nxt: list[Word] = []
            for w in frontier:
                self.allowed.append(w)
                by_source[w[0]].append(w)
                by_target[self.word_target(w)].append(w)
                if len(self.allowed) > WORD_CAP:
                    raise OracleSizeError(f"more than {WORD_CAP} words in the path space")
                if len(w[1]) >= self.maxlen:
                    continue
                for a in self.quiver.arrows_from.get(self.word_target(w), ()):
                    arrows = w[1] + (self.quiver.arrow_index[a],)
                    if self._suffix_ok(arrows):
                        nxt.append((w[0], arrows))
            frontier = nxt
        self.words_by_source = by_source
        self.words_by_target = by_target

    def translate_rows(self, field, column):
        """One sparse row per translate u*r*v of a two-term relation; a
        product word goes to ``column(source, arrows)`` and is dropped when
        that is None."""
        for r in self._two_term:
            terms = [(field.from_fraction(c), self._path_key(p)) for c, p in r.terms]
            min_len = min(len(t[1]) for t in terms)
            for u in self.words_by_target[r.source]:
                lu = len(u[1])
                if lu + min_len > self.maxlen:
                    continue
                for v in self.words_by_source[r.target]:
                    if lu + min_len + len(v[1]) > self.maxlen:
                        continue
                    row: dict = {}
                    for coeff, mid in terms:
                        arrows = u[1] + mid + v[1]
                        if len(arrows) > self.maxlen:
                            continue
                        key = column(u[0], arrows)
                        if key is not None:
                            row[key] = field.add(row.get(key, field.zero), coeff)
                    if row:
                        yield row


class FiniteDimAlgebra(WordSpace):
    """Path normal forms with exact structure constants."""

    def __init__(self, pres: Presentation, field=QQ,
                 relations: Optional[list[Relation]] = None):
        self.presentation = pres
        self.graph: BrauerGraph = pres.graph
        self.field = field
        self.relations = list(pres.all_relations if relations is None else relations)
        self.graded = all(r.is_length_homogeneous() for r in self.relations)
        super().__init__(pres.quiver, self.graph.nilpotency_bound() + 1, self.relations)
        self._reduce()
        self._mult_cache: dict[tuple[int, int], dict[int, object]] = {}

    @staticmethod
    def _column_key(w: Word):
        return (len(w[1]), w[0], w[1])

    def _reduce(self):
        reducer = linalg.SparseReducer(self.field)

        def column(source, arrows):
            return (len(arrows), source, arrows) if self.word_is_allowed(arrows) else None

        for row in self.translate_rows(self.field, column):
            reducer.add(row)
        self._reducer = reducer
        pivots = set(reducer.pivot_rows)
        self.basis: list[Word] = sorted(
            (w for w in self.allowed if self._column_key(w) not in pivots),
            key=self._column_key,
        )
        self.basis_index: dict[Word, int] = {w: i for i, w in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.basis_by_source: dict[str, list[int]] = {v: [] for v in self.quiver.vertices}
        # the basis of the projective at e, block by block: projective_words[e][v]
        # lists the words from e to v, and word_position[i] is word i's place there
        self.projective_words: dict[str, dict[str, list[int]]] = {
            e: {v: [] for v in self.quiver.vertices} for e in self.quiver.vertices
        }
        self.word_position: list[int] = []
        for i, w in enumerate(self.basis):
            self.basis_by_source[w[0]].append(i)
            block = self.projective_words[w[0]][self.word_target(w)]
            self.word_position.append(len(block))
            block.append(i)

    # -- public API -----------------------------------------------------

    def degree(self, i: int) -> int:
        return len(self.basis[i][1])

    def word_to_vec(self, source: str, arrows: tuple[int, ...]) -> dict[int, object]:
        """Express a path in normal forms; the empty dict is zero."""
        f = self.field
        if len(arrows) > self.maxlen or not self.word_is_allowed(arrows):
            return {}
        key = (len(arrows), source, arrows)
        w: Word = (source, arrows)
        if key in self._reducer.pivot_rows:
            prow = self._reducer.pivot_rows[key]
            out = {}
            for col, coeff in prow.items():
                if col == key:
                    continue
                idx = self.basis_index[(col[1], col[2])]
                out[idx] = f.neg(coeff)
            return out
        residual = self._reducer.reduce({key: f.one})
        out = {}
        for col, coeff in residual.items():
            out[self.basis_index[(col[1], col[2])]] = coeff
        return out

    def path_to_vec(self, p: Path) -> dict[int, object]:
        return self.word_to_vec(p.source, self._path_key(p))

    def mult(self, i: int, j: int) -> dict[int, object]:
        """Product of basis elements i and j, as a sparse vector."""
        key = (i, j)
        if key in self._mult_cache:
            return self._mult_cache[key]
        wi, wj = self.basis[i], self.basis[j]
        if self.word_target(wi) != wj[0]:
            out: dict[int, object] = {}
        else:
            out = self.word_to_vec(wi[0], wi[1] + wj[1])
        self._mult_cache[key] = out
        return out

    def check_associativity(self, cap: int = 40) -> bool:
        """(b_i b_j) b_k == b_i (b_j b_k) over every composable triple of
        basis words; a triple that is not composable is zero on both sides.
        An algebra above ``cap`` dimensions is not checked.

        Each composable product is first read through ``mult`` into a table:
        the index t when it is one basis word b_t with coefficient one, -1
        when it is zero, and None otherwise.  A triple whose four products
        are all in the table compares the two sides by index; every other
        triple is multiplied out in the field."""
        if self.dim > cap:
            return True
        ZERO = -1  # a table entry: the product is zero
        f = self.field
        after = [self.basis_by_source[self.word_target(w)] for w in self.basis]
        unit: list[list] = [[None] * self.dim for _ in range(self.dim)]
        for i, row in enumerate(unit):
            for j in after[i]:
                p = self.mult(i, j)
                if not p:
                    row[j] = ZERO
                elif len(p) == 1:
                    (t, c), = p.items()
                    if c == f.one:
                        row[j] = t
        for i in range(self.dim):
            row_i = unit[i]
            for j in after[i]:
                ij, row_j = row_i[j], unit[j]
                for k in after[j]:
                    jk = row_j[k]
                    if ij is not None and jk is not None:
                        left = ij if ij == ZERO else unit[ij][k]
                        right = jk if jk == ZERO else row_i[jk]
                        if left is not None and right is not None:
                            if left != right:
                                return False
                            continue
                    if not self._triple_associative(i, j, k):
                        return False
        return True

    def _triple_associative(self, i: int, j: int, k: int) -> bool:
        f = self.field
        left: dict[int, object] = {}
        for t, c in self.mult(i, j).items():
            for u, d in self.mult(t, k).items():
                left[u] = f.add(left.get(u, f.zero), f.mul(c, d))
        right: dict[int, object] = {}
        for t, c in self.mult(j, k).items():
            for u, d in self.mult(i, t).items():
                right[u] = f.add(right.get(u, f.zero), f.mul(c, d))
        return all(f.is_zero(f.sub(left.get(u, f.zero), right.get(u, f.zero)))
                   for u in set(left) | set(right))


def build_algebra(pres: Presentation, field=QQ,
                  relations: Optional[list[Relation]] = None) -> FiniteDimAlgebra:
    return FiniteDimAlgebra(pres, field, relations)


def expected_projective_dims(g: BrauerGraph) -> dict[str, int]:
    """Dimensions forced by the composition-series description of projectives."""
    if g.is_a2_trivial():
        return {g.edge_ids[0]: 2}
    out = {}
    for e in g.edge_ids:
        trunc = g.truncated_ends(e)
        if trunc:
            beta = g.other_end(e, trunc[0])
            out[e] = g.valency(beta) * g.multiplicity(beta) + 1
        else:
            h0, h1 = g.half_edges_of(e)
            a, b = g.vertex_of(h0), g.vertex_of(h1)
            out[e] = (g.valency(a) * g.multiplicity(a)
                      + g.valency(b) * g.multiplicity(b))
    return out


def is_redundant_relation(pres: Presentation, index: int, field=QQ) -> bool:
    """Ideal-membership test: can relation ``index`` be omitted from the
    generating set?

    A generator is redundant exactly when it lies in the span of the other
    generators plus all translates u*r*v with at least one of u, v a real
    path, inside the length-truncated path space.
    """
    target = pres.all_relations[index]
    if len(target.terms) != 1:
        raise ValueError("membership test is for monomial relations")
    space = WordSpace(pres.quiver, pres.graph.nilpotency_bound() + 1, pres.all_relations)
    target_word = space._path_key(target.terms[0][1])

    def column(source: str, arrows: tuple[int, ...]):
        """The target relation's own column, or the word's; None when it dies."""
        if source == target.source and arrows == target_word:
            return ("R",)
        if not space.word_is_allowed(arrows):
            return None
        return (len(arrows), source, arrows)

    reducer = linalg.SparseReducer(field)
    for row in space.translate_rows(field, column):
        reducer.add(row)
    return reducer.contains({("R",): field.one})


def build_algebra_naive(pres: Presentation, field=QQ, path_cap: int = 4000) -> dict:
    """Fully naive quotient for cross-checking on tiny graphs.

    Enumerates every path up to the truncation length and reduces every
    translate of every relation densely.  Returns dimensions only.
    """
    quiver = pres.quiver
    maxlen = pres.graph.nilpotency_bound() + 1
    paths: list[Word] = [(v, ()) for v in quiver.vertices]
    frontier = list(paths)
    while frontier:
        nxt = []
        for w in frontier:
            if len(w[1]) >= maxlen:
                continue
            tgt = w[0] if not w[1] else quiver.arrows[w[1][-1]].target
            for a in quiver.arrows_from.get(tgt, ()):
                nw = (w[0], w[1] + (quiver.arrow_index[a],))
                nxt.append(nw)
        paths.extend(nxt)
        frontier = nxt
        if len(paths) > path_cap:
            raise OracleSizeError("naive enumeration too large")
    index = {w: i for i, w in enumerate(paths)}
    by_target: dict[str, list[Word]] = {}
    by_source: dict[str, list[Word]] = {}
    for w in paths:
        tgt = w[0] if not w[1] else quiver.arrows[w[1][-1]].target
        by_target.setdefault(tgt, []).append(w)
        by_source.setdefault(w[0], []).append(w)

    f = field
    rows = []
    for r in pres.all_relations:
        terms = [(f.from_fraction(c), tuple(quiver.arrow_index[a] for a in p.arrows))
                 for c, p in r.terms]
        for u in by_target.get(r.source, ()):
            for v in by_source.get(r.target, ()):
                row = [f.zero] * len(paths)
                hit = False
                for coeff, mid in terms:
                    arrows = u[1] + mid + v[1]
                    if len(arrows) <= maxlen:
                        j = index[(u[0], arrows)]
                        row[j] = f.add(row[j], coeff)
                        hit = True
                if hit:
                    rows.append(row)
    # every translate is supported in a single source block, so the rank
    # splits across blocks
    dims_by_edge: dict[str, int] = {}
    for v in quiver.vertices:
        cols = [index[w] for w in paths if w[0] == v]
        block = []
        for row in rows:
            if any(not f.is_zero(row[c]) for c in cols):
                block.append([row[c] for c in cols])
        dims_by_edge[v] = len(cols) - linalg.rank(block, f)
    return {"dim": sum(dims_by_edge.values()), "dims_by_edge": dims_by_edge}
