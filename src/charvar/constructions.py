"""Catalog of groups and spaces: surface groups, free groups, direct
products, right-angled Artin groups with their one-vertex-per-circle cube
complexes, flag complexes, and the branched-cover numerology for products
of curves over an elliptic base.

Constructors set a ``Presentation``'s catalog facts (name, asphericity,
product factors, graph).  Parsed presentations have none: asphericity is
undecidable in general, so only the catalog asserts it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce, wraps
from itertools import combinations, product as iproduct
from math import prod

from .complexes import (BettiProfile, KernelDegreeEntry, KernelHomologyReport,
                        TwistedComplex, kernel_homology_univariate,
                        presentation_complex, tensor_complex, twisted_betti)
from .errors import GenusTooSmall, PresentationSyntaxError
from .intlinalg import reduce_row, smith_normal_form
from .laurent import GENERIC, Character, LaurentPolynomial, pullback_character
from .lmatrix import LaurentMatrix, _invariant_factors, univariate_gcd
from .presentations import (AbelianData, EpimorphismToZm, Presentation, abelianize,
                            induced_on_free_part, validate_epimorphism)
from .words import Word, commutator


# -- graphs ------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    nverts: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.nverts < 0:
            raise ValueError("vertex count must be >= 0")
        for u, v in self.edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < self.nverts and 0 <= v < self.nverts):
                raise ValueError("edge endpoint out of range")
            if u > v:
                raise ValueError("edges must be stored as sorted pairs")

    @classmethod
    def from_edges(cls, nverts: int, edges) -> "Graph":
        return cls(nverts, frozenset(tuple(sorted(e)) for e in edges))

    def adjacent(self, u: int, v: int) -> bool:
        return tuple(sorted((u, v))) in self.edges

    def is_connected(self) -> bool:
        if self.nverts == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in range(self.nverts):
                if v not in seen and self.adjacent(u, v):
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.nverts

    def cliques(self) -> list[list[tuple[int, ...]]]:
        """All cliques grouped by size, starting with the empty clique."""
        by_size: list[list[tuple[int, ...]]] = [[()]]
        current = [(v,) for v in range(self.nverts)]
        while current:
            by_size.append(current)
            bigger = []
            for clique in current:
                for v in range(clique[-1] + 1, self.nverts):
                    if all(self.adjacent(u, v) for u in clique):
                        bigger.append(clique + (v,))
            current = bigger
        return by_size


def parse_graph_text(text: str) -> Graph:
    """Edge-list format: one ``v N`` line then ``e I J`` lines; # comments.
    N is a count >= 0 and an edge joins two distinct vertices below N;
    any other line or value is a syntax error at its line."""
    nverts = None
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = re.fullmatch(r"v\s+([0-9]+)|e\s+([0-9]+)\s+([0-9]+)", line)
        if match is None:
            raise PresentationSyntaxError(f"bad graph line {line!r}", line_no, 1)
        count, u, v = (int(x) if x else None for x in match.groups())
        if count is not None:
            if nverts is not None:
                raise PresentationSyntaxError("duplicate v line", line_no, 1)
            nverts = count
        elif nverts is None:
            raise PresentationSyntaxError("e before v", line_no, 1)
        elif u == v or max(u, v) >= nverts:
            raise PresentationSyntaxError(
                f"an edge needs two distinct vertices below {nverts}", line_no, 1)
        else:
            edges.append((u, v))
    if nverts is None:
        raise PresentationSyntaxError("missing v line", 1, 1)
    return Graph.from_edges(nverts, edges)


def cycle_graph(n: int) -> Graph:
    if 0 <= n < 3:  # Graph refuses a negative count
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def edgeless_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def octahedron_graph() -> Graph:
    """Complete tripartite on parts {0,1}, {2,3}, {4,5}: the join of three
    2-point sets, whose right-angled Artin group is F_2 x F_2 x F_2."""
    parts = [(0, 1), (2, 3), (4, 5)]
    edges = [(u, v) for a, b in combinations(parts, 2) for u in a for v in b]
    return Graph.from_edges(6, edges)


# -- simplicial complexes ------------------------------------------------------


@dataclass(frozen=True)
class SimplicialComplex:
    """A simplicial complex stored as all its simplices, grouped by
    dimension (0-simplices first), each group in lexicographic order and
    every group nonempty; the empty complex has no groups."""

    groups: tuple[tuple[tuple[int, ...], ...], ...]

    def simplices(self) -> list[list[tuple[int, ...]]]:
        """All simplices grouped by dimension (0-simplices first)."""
        return [list(group) for group in self.groups]

    @cached_property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        """The maximal simplices, sorted: those that are no face of a
        simplex one dimension up."""
        faces = {s[:i] + s[i + 1:] for group in self.groups[1:]
                 for s in group for i in range(len(s))}
        return tuple(sorted(s for group in self.groups for s in group
                            if s not in faces))


def flag_complex(graph: Graph) -> SimplicialComplex:
    """Simplices are the nonempty cliques of the graph (``Graph.cliques``)."""
    return SimplicialComplex(tuple(map(tuple, graph.cliques()[1:])))


def reduced_homology(complex_: SimplicialComplex) -> tuple[int, ...]:
    """Reduced rational Betti numbers by boundary ranks, with the empty
    simplex providing the augmentation; each simplex's boundary is one
    sparse row reduced by ``intlinalg.reduce_row``."""
    by_dim = complex_.simplices()
    if not by_dim:
        return ()
    index = [{s: i for i, s in enumerate(group)} for group in by_dim]
    ranks = [0] * (len(by_dim) + 1)
    # augmentation: every vertex maps to the empty simplex
    ranks[0] = 1 if by_dim[0] else 0
    for d in range(1, len(by_dim)):
        pivots: dict[int, dict[int, int]] = {}
        ranks[d] = sum(reduce_row(pivots, {
            index[d - 1][simplex[:i] + simplex[i + 1:]]: -1 if i % 2 else 1
            for i in range(len(simplex))}) for simplex in by_dim[d])
    return tuple(len(by_dim[d]) - ranks[d] - ranks[d + 1]
                 for d in range(len(by_dim)))


# -- catalog groups ------------------------------------------------------------


def surface_group(genus: int) -> Presentation:
    """<a_1,b_1,...,a_g,b_g | [a_1,b_1]...[a_g,b_g]>, the fundamental group
    of the closed orientable surface; aspherical, chi = 2 - 2g."""
    if genus < 1:
        raise GenusTooSmall("surface groups need genus >= 1")
    names = []
    for i in range(1, genus + 1):
        names += [f"a{i}", f"b{i}"]
    # [a_i, b_i] = a_i b_i a_i^-1 b_i^-1, written out in one word
    relator = Word(s for i in range(0, 2 * genus, 2)
                   for s in ((i, 1), (i + 1, 1), (i, -1), (i + 1, -1)))
    return Presentation(tuple(names), (relator,),
                        name=f"surface_genus_{genus}", aspherical=True)


def free_group(rank: int) -> Presentation:
    """F_rank on p1..p_rank with no relators: the fundamental group of the
    sphere with rank + 1 punctures, as its name says; aspherical,
    chi = 1 - rank."""
    if rank < 0:
        raise ValueError("free rank must be >= 0")
    return Presentation(tuple(f"p{i}" for i in range(1, rank + 1)), (),
                        name=f"punctured_surface_0_{rank + 1}", aspherical=True)


def direct_product(factors) -> Presentation:
    """The union of the factor presentations.  It stores the factors'
    relators, shifted and in order (``validate_epimorphism`` reads only
    these); the commutators between generators of distinct factors are
    derived by ``Presentation.relators`` on its first read.  Only the
    oracle's independent side (``covers.finite_cover_oracle``) and the
    Alexander minors of ``jumploci.v1_ideal`` read them; homology
    computations never do: ``build_model`` keeps the factor models, the
    product's H_1, shape, twisted Betti numbers and kernel homology over
    Q[t, t^-1] come from theirs, and its complex is their chain models
    pushed into one ring and tensored (``GroupModel.pushed``)."""
    factors = tuple(factors)
    if len(factors) < 2:
        raise ValueError("a direct product needs at least two factors")
    names = []
    relators = []
    for j, f in enumerate(factors, start=1):
        off = len(names)
        names += [f"{g}_f{j}" for g in f.generators]
        relators += [Word((g + off, e) for g, e in r.syllables) for r in f.relators]
    return Presentation(tuple(names), tuple(relators),
                        name=" x ".join(f.name or "?" for f in factors),
                        aspherical=all(f.aspherical for f in factors),
                        factors=factors)


def raag(graph: Graph) -> Presentation:
    """One generator per vertex, one commuting relation per edge."""
    names = tuple(f"v{i}" for i in range(graph.nverts))
    relators = tuple(commutator(Word.generator(u), Word.generator(v))
                     for u, v in sorted(graph.edges))
    return Presentation(names, relators,
                        name=f"raag_{graph.nverts}v_{len(graph.edges)}e",
                        aspherical=True, graph=graph)


@dataclass(frozen=True)
class BestvinaBradyData:
    """The Artin group of a graph with the map sending every generator to
    1 in Z.  A disconnected graph is flagged: the kernel is then not even
    finitely generated for trivial reasons."""
    presentation: Presentation

    @property
    def nu(self) -> EpimorphismToZm:
        return EpimorphismToZm(1, ((1,),) * self.presentation.ngens)

    @property
    def connected(self) -> bool:
        return self.presentation.graph.is_connected()


def bestvina_brady(graph: Graph) -> BestvinaBradyData:
    return BestvinaBradyData(raag(graph))


def raag_chain_model(graph: Graph) -> TwistedComplex:
    """Cellular chain complex of the clique cube complex over the full
    character torus (one variable per vertex): the degree-k summand is free
    on the k-cliques, and the boundary of a cube cell weights each deleted
    vertex by t_v - 1 with simplicial signs."""
    cliques = graph.cliques()
    m = graph.nverts
    ranks = tuple(len(group) for group in cliques)
    diffs = []
    one = LaurentPolynomial.one(m)
    weights = [LaurentPolynomial.variable(v, m) - one for v in range(m)]
    # each face of a clique is one deleted vertex, so no cell gets two weights
    signed = (weights, [-w for w in weights])
    for k in range(1, len(cliques)):
        index = {c: i for i, c in enumerate(cliques[k - 1])}
        rows: list[dict] = [{} for _ in range(ranks[k - 1])]
        for col, clique in enumerate(cliques[k]):
            for i, v in enumerate(clique):
                rows[index[clique[:i] + clique[i + 1:]]][col] = signed[i % 2][v]
        diffs.append(LaurentMatrix._from_rows(m, ranks[k - 1], ranks[k], rows))
    return TwistedComplex(m, ranks, tuple(diffs))


# -- chain models ---------------------------------------------------------------


def _remembered(method):
    """A ``GroupModel`` question, answered once per model from its memo,
    keyed by the method and the question: a character or nu-bar rows."""
    @wraps(method)
    def answer(self, question):
        key = (method.__name__, question if isinstance(question, Character)
               else tuple(map(tuple, question)))
        return self._recall(key, method, self, question)
    return answer


@dataclass(frozen=True, eq=False)
class GroupModel:
    """A presentation with the chain complex used for its homology.

    ``factors`` holds the factor models of a catalog direct product, in
    order, and is empty otherwise; equal factors share one model
    (``build_model``), and models compare by identity.  A product's
    character coordinates are blockwise, one block per factor in the
    factor's own coordinates, so a character restricts to a factor by
    slicing and pulls back to it through its column block of nu-bar.

    ``built`` is the complex a model without factors is built with, and
    None on a product.  A product's shape (``nvars``, ``ranks``, ``top``),
    its twisted Betti numbers (``betti``) and its kernel homology over
    Q[t, t^-1] (``kernel_homology``) come from its factors.  Its complex
    is assembled only by ``pushed``, from the factors pushed into one ring:
    a window pushes to Z^m, and ``complex``, which only the spot checks of
    ``jumploci.is_full_vr_product`` read, pushes through the identity.
    Every model keeps one memo for its lifetime (one query in the CLI),
    keyed by the question (``_remembered``): ``betti`` by the character,
    ``pushed``, ``kernel_homology`` and ``_distinct_blocks`` by nu-bar rows,
    ``_fold``'s powers by (convolution, factor invariant, multiplicity) and
    ``_runs_convolve``'s gcds by their orders.  A product asks each distinct
    (factor, slice or block) once per question, and folds the answers in
    ``_fold``: over a field, or over Q[t, t^-1] for ``kernel_homology``.
    """

    presentation: Presentation
    abelian: AbelianData
    built: TwistedComplex | None
    factors: tuple["GroupModel", ...] = ()
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def _recall(self, key, compute, *args):
        """The memo's answer under ``key``, computed once."""
        if key not in self._memo:
            self._memo[key] = compute(*args)
        return self._memo[key]

    @property
    def aspherical(self) -> bool:
        """Whether the catalog asserts that every degree of the complex is
        group homology; otherwise only degrees <= 1 are, and degree 2 is
        homology of the presentation 2-complex.  ``jumploci.check_degree``
        owns the rule this sets: a degree r >= 2 query needs it."""
        return self.presentation.aspherical

    @cached_property
    def complex(self) -> TwistedComplex:
        """The chain complex: the one the model was built with, or on a
        product its factors' complexes pushed through the identity and
        tensored (``pushed``), built on first read."""
        if not self.factors:
            return self.built
        n = self.nvars
        return self.pushed([[int(i == j) for j in range(n)] for i in range(n)])

    @cached_property
    def nvars(self) -> int:
        """Character coordinates; a product concatenates its factors'."""
        if not self.factors:
            return self.built.nvars
        return sum(f.nvars for f in self.factors)

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Chain ranks; on a product the convolution of the factors' powers,
        with trailing zeros trimmed as ``tensor_complex`` trims them (F_0 has
        (1, 0, 0))."""
        if not self.factors:
            return self.built.ranks
        ranks = list(self._fold(_convolve, Counter(f.ranks for f in self.factors).items()))
        while ranks[-1] == 0:
            ranks.pop()
        return tuple(ranks)

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    @_remembered
    def pushed(self, nubar) -> TwistedComplex:
        """The complex pushed through the ring map t^e -> s^(nubar e) of an
        m x n integer matrix; the only code that assembles a product's
        complex.  On a product, each factor is pushed through its own
        column block and the results are tensored over the shared
        m-variable ring, folded left to right; pushing is a ring map, so
        this is the product's complex pushed through ``nubar``, and every
        complex built on the way checks d o d = 0 (``TwistedComplex``)."""
        if not self.factors:
            return self.built.specialize(nubar)
        return reduce(tensor_complex, (f.pushed(b) for f, b in self._blocks(nubar)))

    def _blocks(self, nubar):
        """Each factor with its own column block of ``nubar``."""
        start = 0
        for factor in self.factors:
            width = factor.nvars
            yield factor, [row[start:start + width] for row in nubar]
            start += width

    @_remembered
    def betti(self, character: Character) -> BettiProfile:
        """Twisted Betti numbers at a rational character or at the generic
        point; the only code that computes them for a product.

        Over a field K the tensor model at a character is the tensor
        product over K of the factor complexes, each at its own block of
        coordinates.  K is Q at a rational character; at the generic point
        it is the field of rational functions in all the variables, over
        which each factor has its generic Betti numbers, so the generic
        point passes to every factor whole.  By Kunneth over K the profile
        is the convolution of the factors' profiles (``_fold``), exactly.
        Each is computed once per model, so every verdict of a query reads
        the same ranks; a product's generic route is {"name": "kunneth",
        "factors": [each factor's route]}."""
        if not self.factors:
            return twisted_betti(self.complex, character)
        if not character.is_generic and len(character.coords) != self.nvars:
            raise ValueError(f"character needs {self.nvars} coordinates, "
                             f"got {len(character.coords)}")
        asked = Counter((f, GENERIC if character.is_generic else Character(c))
                        for f, (c,) in self._blocks([character.coords or ()]))
        profile = tuple(self._fold(_convolve, ((f.betti(ch).betti, k) for (f, ch), k
                                               in asked.items()))[:self.top + 1])
        if not character.is_generic:
            return BettiProfile(profile)
        return BettiProfile(profile, {"name": "kunneth", "factors": [
            f.betti(GENERIC).route for f in self.factors]})

    def pullback_betti(self, nubar, rho: Character) -> tuple[int, ...]:
        """Betti numbers at rho pulled back through nubar, each distinct
        (factor, column block) pulling rho back through its own block."""
        if not self.factors:
            return self.betti(pullback_character(nubar, rho)).betti
        return tuple(self._fold(_convolve, ((f.pullback_betti(b, rho), k) for (f, b), k
                                            in self._distinct_blocks(nubar)))[:self.top + 1])

    @_remembered
    def _distinct_blocks(self, nubar) -> tuple:
        return tuple(Counter((f, tuple(map(tuple, b)))
                             for f, b in self._blocks(nubar)).items())

    def _fold(self, convolve, parts):
        """Kunneth from (factor invariant, multiplicity) pairs over the ring
        whose tensor product ``convolve`` computes: each power once per
        model, by squaring, and the powers convolved.  The fold is uncut;
        each caller cuts it to the degrees the model keeps."""
        return reduce(convolve, [
            self._recall((convolve.__name__, x, k), _convolution_power, convolve, x, k)
            for x, k in parts])

    @_remembered
    def kernel_homology(self, nubar) -> KernelHomologyReport:
        """The homology of the complex pushed through ``nubar`` (a map onto
        Z) as a module over the PID Lambda = Q[t, t^-1]; on a product, from
        the factors' complexes alone, each distinct (factor, column block)
        pushed and reduced once (``_distinct_blocks``).  Each factor's
        homology enters as graded runs, its free rank as order 0, and is
        raised to its multiplicity and folded by ``_runs_convolve``; the
        counted summands of each degree become its invariant factors by
        ``_invariant_factors``."""
        if not self.factors:
            return kernel_homology_univariate(self.pushed(nubar))
        zero = LaurentPolynomial.zero(1)
        parts = ((tuple(((zero, e.free_rank),) * bool(e.free_rank) + e.torsion
                        for e in f.kernel_homology(b).entries), k)
                 for (f, b), k in self._distinct_blocks(nubar))
        entries = []
        for n, runs in enumerate(self._fold(self._runs_convolve, parts)[:self.top + 1]):
            cyclic = dict(runs)
            free_rank = cyclic.pop(zero, 0)
            entries.append(KernelDegreeEntry(n, free_rank, _invariant_factors(cyclic.items())))
        return KernelHomologyReport(tuple(entries))

    def _runs_convolve(self, a, b) -> tuple:
        """Kunneth over the PID Lambda on graded runs, per degree the
        (order x, count) pairs of the summands Lambda/(x), Lambda as x = 0:
        H_p (x) H_q and Tor(H_p, H_q), in degrees p + q and p + q + 1, are
        Lambda/gcd(x, y) for each pair, with no Tor when x or y is 0.  A top
        homology is a submodule of a free module, so no Tor passes the top."""
        out = [Counter() for _ in range(len(a) + len(b) - 1)]
        for (p, xs), (q, ys) in iproduct(enumerate(a), enumerate(b)):
            for (x, kx), (y, ky) in iproduct(xs, ys):
                g = self._recall(("gcd", x, y), univariate_gcd, x, y)
                out[p + q][g] += kx * ky
                if x and y:
                    out[p + q + 1][g] += kx * ky
        return tuple(tuple(c.items()) for c in out)


def _convolve(a, b) -> list[int]:
    """The product of two coefficient lists: chain ranks of a tensor
    product, and by Kunneth over a field its Betti numbers."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _convolution_power(convolve, a, k: int):
    """a convolved with itself k >= 1 times by ``convolve``, by squaring."""
    if k == 1:
        return a
    half = _convolution_power(convolve, convolve(a, a), k // 2)
    return convolve(half, a) if k % 2 else half


def build_model(presentation: Presentation) -> GroupModel:
    """The chain model: the factor models for a catalog direct product, the
    clique cube complex for a right-angled Artin group, and the
    presentation 2-complex otherwise.

    This is the only code that abelianizes a presentation or builds its
    2-complex, and the only code that assembles a product model: every
    command reads a group's H_1 and its twisted Betti numbers from the
    model this returns.  Each distinct factor model is built once and kept
    in ``factors``; factors are equal when their presentations are, words
    and catalog facts alike, since ``aspherical`` or ``graph`` changes the
    model.  The product's shape comes from theirs; no complex of the
    product is built here (``GroupModel.pushed`` assembles one on demand);
    its H_1 is the direct sum of the factors' (``_blockwise``), so the
    product is never abelianized.
    """
    if presentation.factors:
        shared = {f: build_model(f) for f in dict.fromkeys(presentation.factors)}
        factors = tuple(shared[f] for f in presentation.factors)
        return GroupModel(presentation, _blockwise(factors), None, factors)
    abelian = abelianize(presentation)
    cx = (raag_chain_model(presentation.graph) if presentation.graph is not None
          else presentation_complex(presentation, abelian))
    return GroupModel(presentation, abelian, cx)


def model_along(presentation: Presentation, images):
    """(nu, model, nu-bar): ``images`` validated as a map onto Z^m, the
    model, and the map nu induces on the free part of the model's H_1."""
    nu = validate_epimorphism(presentation, images)
    model = build_model(presentation)
    return nu, model, induced_on_free_part(nu, model.abelian)


def _blockwise(factors) -> AbelianData:
    """H_1(G x H) = H_1(G) + H_1(H): free ranks add, the torsion is the
    Smith form of the factors' torsion invariants on one diagonal (Z/2 x Z/3
    gives (6,)), and the projection and section are laid out block by block,
    in the factors' variables, in order: the product's Smith coordinates up
    to a unimodular change."""
    free_ranks = [f.abelian.torsion_free_rank for f in factors]
    torsion = [x for f in factors for x in f.abelian.torsion_invariants]
    d, _, _ = smith_normal_form([[x if i == j else 0 for j in range(len(torsion))]
                                 for i, x in enumerate(torsion)])
    return AbelianData(
        sum(free_ranks), tuple(d[i][i] for i in range(len(d)) if d[i][i] > 1),
        _block_diagonal([f.abelian.projection for f in factors],
                        [f.presentation.ngens for f in factors]),
        _block_diagonal([f.abelian.section for f in factors], free_ranks))


def _block_diagonal(blocks, widths) -> tuple[tuple[int, ...], ...]:
    """Rows of the block-diagonal matrix whose i-th block has the rows of
    ``blocks[i]`` and ``widths[i]`` columns."""
    total = sum(widths)
    rows = []
    left = 0
    for block, width in zip(blocks, widths):
        rows += [(0,) * left + tuple(row) + (0,) * (total - left - width)
                 for row in block]
        left += width
    return tuple(rows)


# -- pencil numerology ----------------------------------------------------------


@dataclass(frozen=True)
class PencilData:
    """The branched-cover pencil construction of a genus list, with every
    integer it determines derived from the list.

    r double covers of an elliptic curve with genus list g_1..g_r give a
    product X with an isolated-singularity pencil to the base curve; the
    critical points are the tuples of ramification points and the fiber
    has dimension r - 1.
    """

    genus: tuple[int, ...]

    @property
    def branch_sizes(self) -> tuple[int, ...]:
        """A genus-g double cover of an elliptic curve branches at 2g - 2
        points, each also its one ramification point."""
        return tuple(2 * g - 2 for g in self.genus)

    @property
    def critical_points(self) -> int:
        return prod(self.branch_sizes)

    @property
    def euler_x(self) -> int:
        return prod(2 - 2 * g for g in self.genus)

    def riemann_hurwitz_audit(self) -> list[dict]:
        """chi(C) = 2*chi(E) - sum over ramification points of (e_p - 1)
        with chi(E) = 0 and e_p = 2 throughout: 2 - 2g = -(2g - 2)."""
        audit = []
        for g, b in zip(self.genus, self.branch_sizes):
            left = 2 - 2 * g
            right = 2 * 0 - b * (2 - 1)
            audit.append({"genus": g, "chi_curve": left, "branch_points": b,
                          "rh_left": left, "rh_right": right,
                          "ok": left == right})
        return audit

    def homotopy_module_note(self) -> dict | None:
        """For r >= 3: the first nonvanishing higher homotopy group of the
        fiber is a free module over the fiber group ring, with one
        generator per critical point and per deck translate (a Z^2 of
        them); the fiber group has cohomological dimension >= r."""
        if len(self.genus) < 3:
            return None
        return {
            "module": f"free over the group ring, rank index set = "
                      f"{self.critical_points} x Z^2",
            "critical_points": self.critical_points,
            "deck_group": "Z^2",
            "cohomological_dimension_lower_bound": len(self.genus),
        }

    def to_json_dict(self) -> dict:
        r = len(self.genus)
        out = {
            "factors": r,
            "genus": list(self.genus),
            "branch_sizes": list(self.branch_sizes),
            "ramification_sizes": list(self.branch_sizes),
            "critical_points": self.critical_points,
            "euler_x": self.euler_x,
            "fiber_dimension": r - 1,
            "finiteness_verdict": f"F_{r - 1} but not FP_{r}" if r >= 3 else None,
            "flags": [] if r >= 3 else [
                "fiber dimension 1: the fiber-group identification needs "
                "total dimension >= 3, so no finiteness verdict"],
            "riemann_hurwitz_audit": self.riemann_hurwitz_audit(),
        }
        note = self.homotopy_module_note()
        if note is not None:
            out["homotopy_module_note"] = note
        return out


def pencil_numerology(genus_list) -> PencilData:
    genus = tuple(int(g) for g in genus_list)
    if len(genus) < 2:
        raise ValueError("need at least two factors")
    if any(g < 2 for g in genus):
        raise GenusTooSmall("every factor needs genus >= 2 "
                            "(a smaller genus leaves no branch points)")
    return PencilData(genus)
