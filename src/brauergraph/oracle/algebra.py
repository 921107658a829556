"""Brute-force construction of the finite-dimensional algebra.

The algebra is the path algebra of the quiver modulo the relation ideal.
Paths longer than the nilpotency bound L vanish, so the path space is
truncated at length L+1 and the ideal becomes a finite-dimensional
subspace spanned by all translates u*r*v of relations.  Normal forms are
read off one reduced row echelon form, ``linalg.rref``: the words are its
columns, numbered from the largest ``_column_key`` (the longest) down, so
every pivot is the longest word of its row and the basis is the words
that are no pivot.

Two reduction strategies give the same quotient:

* ``build_algebra`` quotients by the monomial relations first - the words
  are the paths with no monomial relation as a subword - and then row
  reduces the translates of the remaining two-term relations over those
  words;
* ``build_algebra_naive`` enumerates every path and every translate of
  every relation and reduces them all.  It exists as an independent check
  and is only usable on tiny inputs.

``build_algebra`` holds its words, the tagged words below included, as one
trie keyed by arrow index: node k is the k-th word enumerated, shortest
first, and its children are the one-arrow extensions that are words too.  A word is enumerated only as an
extension of its prefix, so the words are prefix-closed, and three readers
rest on that.  The enumeration builds the trie once, reading each vertex's
out-arrows as (index, target) pairs.  The reduction drops a term m of a
relation r from every translate u*r*v as soon as u*m is no word, since no
u*m*v is one then, and builds no translate whose terms are all dropped.
The arrow rows of each projective are the normal forms of the children of
the basis words, with no word built or looked up.  Two tables, built on
first use, are shared by every sum of projectives over the algebra:
``shifted_rows``, keyed by (edge, arrow, offset), and
``projective_degrees``, keyed by (edge, generation degree).  A relation
path is read as arrow indices through ``Quiver.index_at``, with no
``Arrow`` hashed.

A kind-two relation is a monomial whose omission the paper's minimal
generating set decides, so ``build_algebra`` answers for each one whether
it holds in the algebra of the others (``FiniteDimAlgebra.redundant``).
Its monomial is *tagged*, not forbidden: the words that contain it and no
other monomial are enumerated too, and they are the extra words of the
algebra without it.  Every such algebra shares the forward elimination of
the translates that touch no tagged word, so each verdict costs a copy of
one pivot dict and the insertion of its own rows.

``FiniteDimAlgebra.relation_holds`` asks whether a relation's normal form
is zero; the drop fault of ``verify_graph`` asks it of the dropped relation
in the faulted algebra.  ``is_redundant_relation`` builds the algebra of
the other relations and asks it there: it is the independent reference
that the tests compare ``redundant`` with.
"""
from __future__ import annotations

from typing import Optional

from ..graph import BrauerGraph, HypothesisError
from ..presentation import Path, Presentation, Relation
from . import linalg
from .fields import QQ


class OracleSizeError(RuntimeError):
    """The truncated path space is too large: its words times their
    length bound exceed ``SIZE_CAP``."""


Word = tuple[str, tuple[int, ...]]  # (source edge, arrow indices)

# The reduction's work grows with the allowed words times the length bound
# (nilpotency bound + 1), not with the words alone, so that product is
# capped; it is read at each word enumeration.  The triangle with
# multiplicity m at one vertex reaches 243,009 at m = 100 (build 0.4 s) and
# 966,009 at m = 200 (2.5 s; 2 cores, Python 3.11.7); census(4,2), the desk
# graphs and the benchmark's deep set stay at or below 2,380.
SIZE_CAP = 250_000

FORBIDDEN = -1  # the tag of a monomial that no word may contain


class FiniteDimAlgebra:
    """Path normal forms with exact structure constants.

    ``allowed`` lists the words: the paths of length at most ``maxlen``
    with no monomial relation as a subword, shortest first.  The basis is
    the words that are not the pivot of a reduced translate u*r*v of a
    two-term relation.  ``redundant`` maps the index in ``relations`` of
    each kind-two relation to whether it holds in the algebra of the
    others."""

    def __init__(self, pres: Presentation, field=QQ,
                 relations: Optional[list[Relation]] = None):
        self.presentation = pres
        self.graph: BrauerGraph = pres.graph
        self.quiver = pres.quiver
        self.field = field
        self._check_quantizer()
        self.relations = list(pres.all_relations if relations is None else relations)
        self.graded = all(r.is_length_homogeneous() for r in self.relations)
        self.maxlen = self.graph.nilpotency_bound() + 1
        # per length, each monomial relation's arrows -> the index of its
        # kind-two relation, or FORBIDDEN; a monomial given twice is forbidden
        monomials: dict[int, dict[tuple[int, ...], int]] = {}
        for i, r in enumerate(self.relations):
            if len(r.terms) == 1:
                m = self._path_key(r.terms[0][1])
                monos = monomials.setdefault(len(m), {})
                monos[m] = i if r.kind == "two" and m not in monos else FORBIDDEN
        self._reduce(*self._enumerate_words(monomials),
                     [r for r in self.relations if len(r.terms) > 1])
        self._projective_action: dict[str, dict[str, list[dict]]] = {}
        self._shifted_rows: dict[tuple[str, str, int], list[dict]] = {}
        self._projective_degrees: dict[tuple[str, Optional[int]],
                                       dict[str, list[Optional[int]]]] = {}

    def _check_quantizer(self):
        """A quantizer value that is zero or has no inverse over the field
        changes the algebra: refuse it."""
        f = self.field
        for (e, v), q in sorted(self.graph.quantizer.items()):
            try:
                vanishes = f.is_zero(f.from_fraction(q))
            except ZeroDivisionError:
                vanishes = True
            if vanishes:
                raise HypothesisError(f"quantizer value {q} at ({e}, {v}) is zero "
                                      f"or undefined over {f.name}")

    def _path_key(self, p: Path) -> tuple[int, ...]:
        idx = self.quiver.index_at
        return tuple(idx[a.vertex, a.pos] for a in p.arrows)

    def word_target(self, w: Word) -> str:
        src, arrows = w
        return src if not arrows else self.quiver.arrows[arrows[-1]].target

    def _enumerate_words(self, monomials: dict[int, dict[tuple[int, ...], int]]
                         ) -> tuple[list[Word], list[Optional[int]], list[str]]:
        """The word trie: every word, shortest first, and its tag, the index
        of the one kind-two monomial it contains or None for an allowed
        word, and its target.  Word k is node k of the trie, the vertex words
        first in ``quiver.vertices`` order, and ``_children[k]`` maps an arrow index a to the node of the word
        followed by a, when that word is enumerated.

        A word is extended by one arrow while no suffix of the extension is
        a forbidden monomial and the kind-two monomials among its suffixes
        are its own tag's, so no subword of an allowed word is a monomial
        relation and no word contains two distinct kind-two monomials.  A
        word is enumerated only as a child of its prefix, so the words are
        prefix-closed."""
        q = self.quiver
        # each vertex's out-arrows as (arrow index, target), in
        # ``arrows_from`` order
        out: dict[str, list[tuple[int, str]]] = {v: [] for v in q.vertices}
        for ai, a in enumerate(q.arrows):
            out[a.source].append((ai, a.target))
        words: list[Word] = [(v, ()) for v in q.vertices]
        tags: list[Optional[int]] = [None] * len(words)
        targets: list[str] = list(q.vertices)
        children: list[dict[int, int]] = [{} for _ in words]
        n_allowed, word_cap = len(words), SIZE_CAP // self.maxlen
        start, length = 0, 0
        while length < self.maxlen and start < len(words):
            end, length = len(words), length + 1
            for k in range(start, end):
                src, arrows = words[k]
                tag, kids = tags[k], children[k]
                for ai, target in out[targets[k]]:
                    ext = arrows + (ai,)
                    t = tag
                    for n, monos in monomials.items():
                        if n <= length:
                            hit = monos.get(ext[length - n:])
                            if hit is not None:
                                if hit == FORBIDDEN or t not in (None, hit):
                                    break
                                t = hit
                    else:
                        kids[ai] = len(words)
                        words.append((src, ext))
                        tags.append(t)
                        targets.append(target)
                        children.append({})
                        if t is None:
                            n_allowed += 1
                            if n_allowed > word_cap:
                                raise OracleSizeError(
                                    f"more than {word_cap} words of length at most "
                                    f"{self.maxlen} in the path space: words x length "
                                    f"above the oracle's cap of {SIZE_CAP}")
            start = end
        self._children = children
        self.allowed: list[Word] = [w for w, t in zip(words, tags) if t is None]
        return words, tags, targets

    @staticmethod
    def _column_key(w: Word):
        return (len(w[1]), w[0], w[1])

    def _reduce(self, words: list[Word], tags: list[Optional[int]], targets: list[str],
                two_term: list[Relation]):
        """Row reduce one sparse row per nonzero translate u*r*v of a
        two-term relation.  The allowed words are numbered from the largest
        ``_column_key`` down, so each reduced row pivots on its longest
        word, and a pivot word is minus the rest of its row; the tagged
        words are numbered after them.

        The column words, allowed and tagged, are prefix-closed
        (``_enumerate_words``), so when u*m is not a column word for a term
        m of r, no u*m*v is one, and that term is zero in every translate
        u*r*v.  Each u keeps its live terms, those with
        u*m a column word, and is skipped when it has none; v runs over
        the words from r's target, shortest first, until u*m*v is too long
        for the shortest live m.  A translate with no entry left is not
        built.

        Without kind-two relation k, the words are the allowed ones and
        those tagged k, and each translate's row keeps its entries there.
        The rows with no tagged entry are common to every such algebra and
        to this one: one forward step puts them into one pivot dict.  Each
        verdict of ``redundant`` inserts the other rows, kept to the
        allowed words and those tagged k, into a copy of that dict
        (``_forward`` changes no pivot row, so a shallow copy will do) and
        asks whether the unit row of k's monomial enlarges the span.  The
        restriction matters when one translate touches words of two tags,
        as the commutation relation does when both its monomials are
        kind-two relations.  This algebra keeps only the allowed entries of
        the other rows, and its back-substitution in ``rref`` runs last,
        since it rewrites the shared pivot rows in place."""
        f = self.field
        maxlen = self.maxlen
        # the words into each vertex, and the arrows of the words out of it,
        # shortest first
        heads: dict[str, list[Word]] = {v: [] for v in self.quiver.vertices}
        tails: dict[str, list[tuple[int, ...]]] = {v: [] for v in self.quiver.vertices}
        for w, target in zip(words, targets):
            heads[target].append(w)
            tails[w[0]].append(w[1])
        # the node of each allowed column, and the column of each node's
        # word, None at a tagged word
        order = sorted((k for k, tag in enumerate(tags) if tag is None),
                       key=lambda k: self._column_key(words[k]), reverse=True)
        n_allowed = len(order)
        self._column = {words[k]: j for j, k in enumerate(order)}
        self._node_column: list[Optional[int]] = [None] * len(words)
        for j, k in enumerate(order):
            self._node_column[k] = j
        columns = dict(self._column)
        tag_at: list[int] = []  # the tag of column n_allowed + i
        for w, tag in zip(words, tags):
            if tag is not None:
                columns[w] = n_allowed + len(tag_at)
                tag_at.append(tag)
        common: list[dict] = []
        tagged: list[dict] = []  # the rows with an entry on a tagged word
        for r in two_term:
            # the terms by path, so that the translates of distinct terms are
            # distinct words and a row needs no addition
            coeffs: dict[tuple[int, ...], object] = {}
            for c, p in r.terms:
                m = self._path_key(p)
                coeffs[m] = f.add(coeffs.get(m, f.zero), f.from_fraction(c))
            terms = [(c, m) for m, c in coeffs.items() if not f.is_zero(c)]
            if not terms:
                continue
            min_len = min(len(m) for _, m in terms)
            for src, u in heads[r.source]:
                if len(u) + min_len > maxlen:
                    break
                live = [(c, u + m) for c, m in terms if (src, u + m) in columns]
                if not live:
                    continue
                room = maxlen - min(len(head) for _, head in live)
                for v in tails[r.target]:
                    if len(v) > room:
                        break
                    row = {}
                    for c, head in live:
                        j = columns.get((src, head + v))
                        if j is not None:
                            row[j] = c
                    if row:
                        (tagged if max(row) >= n_allowed else common).append(row)

        def keep(row: dict, tag: Optional[int]) -> dict:
            """The row's entries on the allowed words and those tagged ``tag``."""
            return {j: x for j, x in row.items()
                    if j < n_allowed or tag_at[j - n_allowed] == tag}

        pivots: dict = {}
        linalg._forward(pivots, common, f)
        self.redundant: dict[int, bool] = {}
        for k, r in enumerate(self.relations):
            if r.kind != "two":
                continue
            p = r.terms[0][1]
            j = columns.get((p.source, self._path_key(p)))
            if j is None:  # the monomial is zero there without relation k
                self.redundant[k] = True
                continue
            span = dict(pivots)
            linalg._forward(span, [keep(row, k) for row in tagged], f)
            size = len(span)
            linalg._forward(span, [{j: f.one}], f)
            self.redundant[k] = len(span) == size
        red, pivot_cols = linalg.rref([keep(row, None) for row in tagged], f, pivots)
        self._pivot_rows: dict[int, dict] = dict(zip(pivot_cols, red))
        # the basis words, shortest first, and each column's basis index
        # (None at a pivot)
        self.basis: list[Word] = []
        self._basis_node: list[int] = []
        self._basis_at: list[Optional[int]] = [None] * n_allowed
        for j in reversed(range(n_allowed)):
            if j not in self._pivot_rows:
                self._basis_at[j] = len(self.basis)
                self.basis.append(words[order[j]])
                self._basis_node.append(order[j])
        self.basis_index: dict[Word, int] = {w: i for i, w in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.basis_by_source: dict[str, list[int]] = {v: [] for v in self.quiver.vertices}
        # the basis of the projective at e, block by block: projective_words[e][v]
        # lists the words from e to v, and word_position[i] is word i's place there
        self.projective_words: dict[str, dict[str, list[int]]] = {
            e: {v: [] for v in self.quiver.vertices} for e in self.quiver.vertices
        }
        self.word_position: list[int] = []
        for i, k in enumerate(self._basis_node):
            src = words[k][0]
            self.basis_by_source[src].append(i)
            block = self.projective_words[src][targets[k]]
            self.word_position.append(len(block))
            block.append(i)

    # -- public API -----------------------------------------------------

    def degree(self, i: int) -> int:
        return len(self.basis[i][1])

    def word_to_vec(self, source: str, arrows: tuple[int, ...]) -> dict[int, object]:
        """Express a path in normal forms; the empty dict is zero.  The pivot
        rows are fully reduced, so a pivot word is minus the rest of its row
        and every other word is a basis word."""
        j = self._column.get((source, arrows))
        return {} if j is None else self._column_vec(j)

    def _column_vec(self, j: int) -> dict[int, object]:
        """The normal form of the allowed word of column j."""
        prow = self._pivot_rows.get(j)
        if prow is None:
            return {self._basis_at[j]: self.field.one}
        at, neg = self._basis_at, self.field.neg
        return {at[k]: neg(c) for k, c in prow.items() if k != j}

    def _times_arrow(self, i: int, ai: int) -> dict[int, object]:
        """Basis word i times arrow ``ai`` in normal forms: the normal form of
        the child by ``ai`` of the word's node.  It is zero when the node has
        no such child or the child is a tagged word, as the product is then
        no allowed word."""
        child = self._children[self._basis_node[i]].get(ai)
        j = None if child is None else self._node_column[child]
        return {} if j is None else self._column_vec(j)

    def projective_action(self, e: str) -> dict[str, list[dict]]:
        """The arrow action on the projective at ``e``, computed on first use:
        per arrow name, one row per basis word from e to the arrow's source
        (in ``projective_words`` order), each row the nonzeros (position ->
        coefficient) of that word times the arrow in the block of its
        target, read off the word's child in the trie (``_times_arrow``)."""
        action = self._projective_action.get(e)
        if action is None:
            words, pos = self.projective_words[e], self.word_position
            action = {
                a.name: [{pos[j]: c for j, c in self._times_arrow(i, ai).items()}
                         for i in words[a.source]]
                for ai, a in enumerate(self.quiver.arrows)
            }
            self._projective_action[e] = action
        return action

    def shifted_rows(self, e: str, a: str, offset: int) -> list[dict]:
        """The rows of arrow ``a`` in the projective at ``e``
        (``projective_action``), every column shifted by ``offset``: those
        of a summand at e that starts at ``offset`` in the block of a's
        target.  Never rewritten; at offset 0 they are the
        ``projective_action`` rows themselves."""
        key = (e, a, offset)
        rows = self._shifted_rows.get(key)
        if rows is None:
            rows = self.projective_action(e)[a]
            if offset:
                rows = [{offset + j: x for j, x in row.items()} for row in rows]
            self._shifted_rows[key] = rows
        return rows

    def projective_degrees(self, e: str, d: Optional[int]) -> dict[str, list[Optional[int]]]:
        """Per vertex, the degree of each basis word of the projective at
        ``e`` generated in degree ``d`` (``projective_words`` order): d plus
        the word's length, or None everywhere when the algebra is not
        graded."""
        key = (e, d)
        degrees = self._projective_degrees.get(key)
        if degrees is None:
            degrees = {v: [((d or 0) + self.degree(i)) if self.graded else None
                           for i in words]
                       for v, words in self.projective_words[e].items()}
            self._projective_degrees[key] = degrees
        return degrees

    def path_to_vec(self, p: Path) -> dict[int, object]:
        return self.word_to_vec(p.source, self._path_key(p))

    def relation_holds(self, r: Relation) -> bool:
        """Is the relation's normal form zero in the algebra?"""
        f = self.field
        total: dict = {}
        for c, path in r.terms:
            for j, x in self.path_to_vec(path).items():
                total[j] = f.add(total.get(j, f.zero), f.mul(f.from_fraction(c), x))
        return all(f.is_zero(x) for x in total.values())

    def mult(self, i: int, j: int) -> dict[int, object]:
        """Product of basis elements i and j, as a sparse vector."""
        wi, wj = self.basis[i], self.basis[j]
        if self.word_target(wi) != wj[0]:
            return {}
        return self.word_to_vec(wi[0], wi[1] + wj[1])

    def check_associativity(self, cap: int = 40) -> bool:
        """(b_i b_j) b_k == b_i (b_j b_k) over every composable triple of
        basis words whose third factor b_k is in K; a triple that is not
        composable is zero on both sides.  An algebra above ``cap``
        dimensions is not checked.

        Each composable product is first read through ``mult`` into a table:
        the index t when it is one basis word b_t with coefficient one, -1
        when it is zero, and None otherwise.  A triple whose four products
        are all in the table compares the two sides by index; every other
        triple is multiplied out in the field.

        K holds the idempotents, the arrows and every basis word that the
        table does not reach.  The reached words are found shortest first:
        an idempotent is reached, and a word c = c'x, x an arrow, is reached
        when its prefix c' is a reached basis word, the arrow word x is a
        basis word and the table says b_c' b_x = b_c.  That suffices, by
        induction on the length of c: for every a, b, (ab)c' = a(bc') holds
        as c' is shorter, and every triple with third factor x is checked,
        so by bilinearity

            (ab)c = (ab)(c'x) = ((ab)c')x = (a(bc'))x = a((bc')x) = a(b(c'x)) = a(bc).

        A corrupted table leaves words unreached, and those are checked in
        full, so the verdict is that of the full triple loop."""
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
        third = self._third_factors(unit)
        third_after = [third[self.word_target(w)] for w in self.basis]
        for i in range(self.dim):
            row_i = unit[i]
            for j in after[i]:
                ij, row_j = row_i[j], unit[j]
                for k in third_after[j]:
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

    def _third_factors(self, unit: list[list]) -> dict[str, list[int]]:
        """The third factors K of ``check_associativity``, per source vertex:
        the idempotents, the arrows and every basis word that the table
        ``unit`` does not reach, read shortest first."""
        index, arrows = self.basis_index, self.quiver.arrows
        reached = [False] * self.dim
        third: dict[str, list[int]] = {v: [] for v in self.quiver.vertices}
        for c, (src, word) in enumerate(self.basis):
            if not word:
                reached[c] = True
            else:
                prefix = index.get((src, word[:-1]))
                x = index.get((arrows[word[-1]].source, word[-1:]))
                reached[c] = (prefix is not None and reached[prefix]
                              and x is not None and unit[prefix][x] == c)
            if len(word) <= 1 or not reached[c]:
                third[src].append(c)
        return third

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
    generating set?  Exactly when it holds in the algebra of the others,
    which is built here; the reference for ``FiniteDimAlgebra.redundant``."""
    others = [r for i, r in enumerate(pres.all_relations) if i != index]
    return FiniteDimAlgebra(pres, field, others).relation_holds(pres.all_relations[index])


def build_algebra_naive(pres: Presentation, field=QQ, path_cap: int = 4000) -> dict:
    """Fully naive quotient for cross-checking on tiny graphs.

    Enumerates every path up to the truncation length and row reduces every
    translate of every relation.  Returns dimensions only.
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
                nw = (w[0], w[1] + (quiver.index_at[a.vertex, a.pos],))
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
    # every translate is supported in a single source block, so the rank
    # splits across blocks
    rows: dict[str, list[dict]] = {v: [] for v in quiver.vertices}
    for r in pres.all_relations:
        terms = [(f.from_fraction(c), tuple(quiver.index_at[a.vertex, a.pos] for a in p.arrows))
                 for c, p in r.terms]
        for u in by_target.get(r.source, ()):
            for v in by_source.get(r.target, ()):
                row: dict = {}
                for coeff, mid in terms:
                    arrows = u[1] + mid + v[1]
                    if len(arrows) <= maxlen:
                        j = index[(u[0], arrows)]
                        row[j] = f.add(row.get(j, f.zero), coeff)
                rows[u[0]].append({j: x for j, x in row.items() if not f.is_zero(x)})
    dims_by_edge = {v: len(by_source.get(v, ())) - linalg.rank(rows[v], f)
                    for v in quiver.vertices}
    return {"dim": sum(dims_by_edge.values()), "dims_by_edge": dims_by_edge}
