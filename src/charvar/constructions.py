"""Catalog of groups and spaces: surface groups, free groups, direct
products, right-angled Artin groups with their one-vertex-per-circle cube
complexes, flag complexes, and the branched-cover numerology for products
of curves over an elliptic base.

Constructors attach catalog tags (name, asphericity, product factor data,
defining graph).  Parsed user presentations never get
tags: asphericity is undecidable in general, so only the catalog asserts it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product as iproduct

from .complexes import (BettiProfile, KernelDegreeEntry, KernelHomologyReport,
                        TwistedComplex, kernel_homology_univariate,
                        presentation_complex, tensor_complex, twisted_betti)
from .errors import GenusTooSmall, InternalInconsistency, PresentationSyntaxError
from .intlinalg import integer_rank
from .laurent import GENERIC, Character, LaurentPolynomial
from .lmatrix import LaurentMatrix, univariate_divmod, univariate_gcd
from .presentations import AbelianData, EpimorphismToZm, Presentation, abelianize
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
    """Edge-list format: a ``v N`` line then ``e I J`` lines; # comments."""
    nverts = None
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) == 2:
            nverts = int(parts[1])
        elif parts[0] == "e" and len(parts) == 3:
            if nverts is None:
                raise PresentationSyntaxError("e before v", line_no, 1)
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise PresentationSyntaxError(f"bad graph line {line!r}", line_no, 1)
    if nverts is None:
        raise PresentationSyntaxError("missing v line", 1, 1)
    return Graph.from_edges(nverts, edges)


def cycle_graph(n: int) -> Graph:
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
    facets: tuple[tuple[int, ...], ...]

    def simplices(self) -> list[list[tuple[int, ...]]]:
        """All simplices grouped by dimension (0-simplices first)."""
        seen: set[tuple[int, ...]] = set()
        for facet in self.facets:
            for size in range(1, len(facet) + 1):
                seen.update(combinations(facet, size))
        if not seen:
            return []
        top = max(len(s) for s in seen)
        return [sorted(s for s in seen if len(s) == d + 1) for d in range(top)]


def flag_complex(graph: Graph) -> SimplicialComplex:
    """Simplices are the cliques of the graph; facets the maximal ones."""
    cliques = [c for group in graph.cliques()[1:] for c in group]
    clique_set = set(cliques)
    facets = [c for c in cliques
              if not any(set(c) < set(d) for d in clique_set if len(d) > len(c))]
    return SimplicialComplex(tuple(sorted(facets)))


def reduced_homology(complex_: SimplicialComplex) -> tuple[int, ...]:
    """Reduced rational Betti numbers by boundary-matrix ranks, with the
    empty simplex providing the augmentation."""
    by_dim = complex_.simplices()
    if not by_dim:
        return ()
    index = [{s: i for i, s in enumerate(group)} for group in by_dim]
    ranks = [0] * (len(by_dim) + 1)
    # augmentation: every vertex maps to the empty simplex
    ranks[0] = 1 if by_dim[0] else 0
    for d in range(1, len(by_dim)):
        rows, cols = len(by_dim[d - 1]), len(by_dim[d])
        grid = [[0] * cols for _ in range(rows)]
        for j, simplex in enumerate(by_dim[d]):
            for i in range(len(simplex)):
                face = simplex[:i] + simplex[i + 1:]
                grid[index[d - 1][face]][j] = -1 if i % 2 else 1
        ranks[d] = integer_rank(grid)
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
    relator = Word.identity()
    for i in range(genus):
        relator = relator * commutator(Word.generator(2 * i), Word.generator(2 * i + 1))
    return Presentation(tuple(names), (relator,), tags={
        "name": f"surface_genus_{genus}",
        "aspherical": True,
    })


def punctured_surface_group(genus: int, punctures: int) -> Presentation:
    """Free group of rank 2g + n - 1: the fundamental group of the genus-g
    surface with n >= 1 punctures; chi = 2 - 2g - n."""
    if punctures < 1:
        raise ValueError("need at least one puncture")
    names = []
    for i in range(1, genus + 1):
        names += [f"a{i}", f"b{i}"]
    names += [f"p{i}" for i in range(1, punctures)]
    return Presentation(tuple(names), (), tags={
        "name": f"punctured_surface_{genus}_{punctures}",
        "aspherical": True,
    })


def free_group(rank: int) -> Presentation:
    """F_rank as a thrice-punctured-sphere-style curve group."""
    if rank < 0:
        raise ValueError("free rank must be >= 0")
    return punctured_surface_group(0, rank + 1)


def direct_product(factors) -> Presentation:
    """Union of the factor presentations plus commutators between
    generators of distinct factors.  Homology computations never use this
    presentation's 2-complex: ``build_model`` keeps the factor models,
    twisted Betti numbers (generic ones included) and the kernel homology
    over Q[t, t^-1] come from theirs by Kunneth, and the tensor product of
    their chain models serves only windows."""
    factors = tuple(factors)
    if len(factors) < 2:
        raise ValueError("a direct product needs at least two factors")
    names = []
    offsets = []
    for j, f in enumerate(factors, start=1):
        offsets.append(len(names))
        names += [f"{g}_f{j}" for g in f.generators]
    relators = []
    for off, f in zip(offsets, factors):
        for r in f.relators:
            relators.append(Word((g + off, e) for g, e in r.syllables))
    for (off_a, fa), (off_b, fb) in combinations(zip(offsets, factors), 2):
        for i in range(fa.ngens):
            for j in range(fb.ngens):
                relators.append(commutator(Word.generator(off_a + i),
                                           Word.generator(off_b + j)))
    return Presentation(tuple(names), tuple(relators), tags={
        "name": " x ".join(f.tags.get("name", "?") for f in factors),
        "factors": factors,
        "aspherical": all(f.tags.get("aspherical", False) for f in factors),
    })


def raag(graph: Graph) -> Presentation:
    """One generator per vertex, one commuting relation per edge."""
    names = tuple(f"v{i}" for i in range(graph.nverts))
    relators = tuple(commutator(Word.generator(u), Word.generator(v))
                     for u, v in sorted(graph.edges))
    return Presentation(names, relators, tags={
        "name": f"raag_{graph.nverts}v_{len(graph.edges)}e",
        "aspherical": True,
        "graph": graph,
    })


@dataclass(frozen=True)
class BestvinaBradyData:
    presentation: Presentation
    nu: EpimorphismToZm
    connected: bool


def bestvina_brady(graph: Graph) -> BestvinaBradyData:
    """The Artin group of the graph with the map sending every generator
    to 1 in Z.  A disconnected graph is flagged: the kernel is then not
    even finitely generated for trivial reasons."""
    presentation = raag(graph)
    nu = EpimorphismToZm(1, tuple((1,) for _ in range(graph.nverts)))
    return BestvinaBradyData(presentation, nu, graph.is_connected())


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


def raag_complex(graph: Graph) -> TwistedComplex:
    """The chain model pushed through the all-ones map to Z: rank in
    degree k equals the number of k-cliques, entries live in one variable."""
    ones = [[1] * graph.nverts]
    return raag_chain_model(graph).specialize(ones)


# -- chain models ---------------------------------------------------------------


@dataclass(frozen=True)
class GroupModel:
    """A presentation with the chain complex used for its homology.

    ``aspherical`` records whether every degree of the complex computes
    group homology; otherwise only degrees <= 1 do, and degree-2 values are
    homology of the presentation 2-complex.  ``factors`` holds the factor
    models of a catalog direct product, in order, and is empty otherwise.
    A product's character coordinates are blockwise, one block per factor
    in the factor's own coordinates, so a character of the product
    restricts to each factor by slicing.

    A product's twisted Betti numbers (``betti``), generic ones included,
    and its kernel homology over Q[t, t^-1] (``kernel_homology``) come from
    its factors; its tensor complex serves only windows, and building it
    checks d o d = 0 on the whole product (``TwistedComplex``).
    """

    presentation: Presentation
    abelian: AbelianData
    complex: TwistedComplex
    aspherical: bool
    factors: tuple["GroupModel", ...] = ()

    def betti(self, character: Character) -> BettiProfile:
        """Twisted Betti numbers at a rational character or at the generic
        point; the only code that computes them for a product.

        Over a field K the tensor model at a character is the tensor
        product over K of the factor complexes, each at its own block of
        coordinates.  K is Q at a rational character; at the generic point
        it is the field of rational functions in all the variables, over
        which each factor has its generic Betti numbers, so the generic
        point passes to every factor whole.  By Kunneth over K the profile
        is the convolution of the factors' profiles, exactly, cut to the
        degrees the tensor model keeps (it trims trailing zero ranks).
        """
        if character.is_generic:
            return self.generic_betti
        return self._convolved(character)

    @cached_property
    def generic_betti(self) -> BettiProfile:
        """The profile at the generic point, computed once per model, so
        every verdict of a query reads the same factor ranks.  On a product
        its route is {"name": "kunneth", "factors": [each factor's route]}."""
        return self._convolved(GENERIC)

    def _convolved(self, character: Character) -> BettiProfile:
        if not self.factors:
            return twisted_betti(self.complex, character)
        if not character.is_generic and len(character.coords) != self.complex.nvars:
            raise ValueError(f"character needs {self.complex.nvars} coordinates, "
                             f"got {len(character.coords)}")
        profile = [1]
        routes = []
        start = 0
        for factor in self.factors:
            width = factor.complex.nvars
            part = character if character.is_generic else Character(
                character.coords[start:start + width])
            start += width
            factor_profile = factor.betti(part)
            routes.append(factor_profile.route)
            convolved = [0] * (len(profile) + len(factor_profile.betti) - 1)
            for i, x in enumerate(profile):
                for j, y in enumerate(factor_profile.betti):
                    convolved[i + j] += x * y
            profile = convolved
        route = {"name": "kunneth", "factors": routes} if character.is_generic else None
        return BettiProfile(tuple(profile[:self.complex.top + 1]), character, route)

    def kernel_homology(self, nubar) -> KernelHomologyReport:
        """The homology of the complex pushed through ``nubar`` (a map onto
        Z) as a module over the PID Lambda = Q[t, t^-1]; on a product, from
        the factors' complexes alone, each pushed through its own column
        block and free over Lambda.  By Kunneth over a PID, H_n is the sum of
        H_p (x) H_q over p + q = n and of Tor(H_p, H_q) over p + q = n - 1;
        for Lambda/(a) and Lambda/(b) both are Lambda/gcd(a, b), where
        Lambda = Lambda/(0) has no Tor."""
        if not self.factors:
            return kernel_homology_univariate(self.complex.specialize(nubar))
        zero = LaurentPolynomial.zero(1)
        # per degree, how many summands Lambda/(x) of each order x, with
        # x = 0 for Lambda itself
        summands = [Counter({zero: 1})]
        start = 0
        for factor in self.factors:
            width = factor.complex.nvars
            part = factor.kernel_homology([row[start:start + width] for row in nubar])
            start += width
            folded = [Counter() for _ in range(len(summands) + len(part.entries))]
            for (p, a), e in iproduct(enumerate(summands), part.entries):
                b = Counter(e.torsion_factors) + Counter({zero: e.free_rank})
                for (x, kx), (y, ky) in iproduct(a.items(), b.items()):
                    g = univariate_gcd(x, y)
                    folded[p + e.degree][g] += kx * ky
                    if x and y:
                        folded[p + e.degree + 1][g] += kx * ky
            summands = folded
        entries = []
        for n, cyclic in enumerate(summands[:self.complex.top + 1]):
            free_rank = cyclic.pop(zero, 0)
            chain = _invariant_factors(cyclic.elements())
            entries.append(KernelDegreeEntry(
                n, free_rank, chain, sum(f.degree_span(0) for f in chain)))
        return KernelHomologyReport(tuple(entries))


def _invariant_factors(orders) -> tuple[LaurentPolynomial, ...]:
    """The invariant factors of the sum of the Lambda/(x), x in ``orders``
    monic with nonzero constant term: an ascending divisibility chain
    without units.  Each x enters from the top by the swaps Lambda/(d) (+)
    Lambda/(x) = Lambda/(lcm) (+) Lambda/(gcd), carrying the gcd down until
    it is a unit or equals the entry it meets."""
    chain = []
    for x in orders:
        j = len(chain)
        while j and not x.is_unit():
            d = chain[j - 1]
            if x == d:
                break
            g = univariate_gcd(d, x)
            if g == x:  # every copy of d stays
                while j and chain[j - 1] == d:
                    j -= 1
                continue
            chain[j - 1] = univariate_divmod(d * x, g)[0]
            x, j = g, j - 1
        if not x.is_unit():
            chain.insert(j, x)
    return tuple(chain)


def build_model(presentation: Presentation) -> GroupModel:
    """The chain model: the tensor product of the factor models for a
    catalog direct product, the clique cube complex for a right-angled Artin
    group, and the presentation 2-complex otherwise.

    This is the only code that assembles a product.  Each factor model is
    built once and kept in ``factors``.  The product's projection and
    section are laid out block by block from the factors', which lines the
    coordinates up with the variables of the tensor complex and agrees
    with the Smith form of the product presentation up to a unimodular
    change of coordinates.  Torsion invariants and free rank come from that
    Smith form, and the factors' free ranks must add up to it.
    """
    tags = presentation.tags
    abelian = abelianize(presentation)
    factors = ()
    if "factors" in tags:
        factors = tuple(build_model(f) for f in tags["factors"])
        abelian = _blockwise(abelian, factors)
        cx = factors[0].complex
        for part in factors[1:]:
            cx = tensor_complex(cx, part.complex)
    elif "graph" in tags:
        cx = raag_chain_model(tags["graph"])
    else:
        cx = presentation_complex(presentation, abelian)
    return GroupModel(presentation, abelian, cx,
                      bool(tags.get("aspherical", False)), factors)


def _blockwise(smith: AbelianData, factors) -> AbelianData:
    free_ranks = [f.abelian.torsion_free_rank for f in factors]
    if sum(free_ranks) != smith.torsion_free_rank:
        raise InternalInconsistency(
            f"factor free ranks {free_ranks} do not add up to the free rank "
            f"{smith.torsion_free_rank} of the product")
    return AbelianData(
        smith.torsion_free_rank, smith.torsion_invariants,
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
    """Every integer the branched-cover pencil construction determines.

    r double covers of an elliptic curve with genus list g_1..g_r give a
    product X with an isolated-singularity pencil to the base curve; the
    critical points are the tuples of ramification points and the fiber
    has dimension r - 1.
    """

    factors: int
    genus: tuple[int, ...]
    branch_sizes: tuple[int, ...]
    ramification_sizes: tuple[int, ...]
    critical_points: int
    euler_x: int
    fiber_dimension: int
    finiteness_verdict: str | None
    flags: tuple[str, ...]

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
        if self.factors < 3:
            return None
        return {
            "module": f"free over the group ring, rank index set = "
                      f"{self.critical_points} x Z^2",
            "critical_points": self.critical_points,
            "deck_group": "Z^2",
            "cohomological_dimension_lower_bound": self.factors,
        }

    def to_json_dict(self) -> dict:
        out = {
            "factors": self.factors,
            "genus": list(self.genus),
            "branch_sizes": list(self.branch_sizes),
            "ramification_sizes": list(self.ramification_sizes),
            "critical_points": self.critical_points,
            "euler_x": self.euler_x,
            "fiber_dimension": self.fiber_dimension,
            "finiteness_verdict": self.finiteness_verdict,
            "flags": list(self.flags),
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
    branch = tuple(2 * g - 2 for g in genus)
    critical = 1
    euler = 1
    for g in genus:
        critical *= 2 * g - 2
        euler *= 2 - 2 * g
    r = len(genus)
    if r >= 3:
        verdict = f"F_{r - 1} but not FP_{r}"
        flags = ()
    else:
        verdict = None
        flags = ("fiber dimension 1: the fiber-group identification "
                 "needs total dimension >= 3, so no finiteness verdict",)
    return PencilData(
        factors=r, genus=genus, branch_sizes=branch,
        ramification_sizes=branch, critical_points=critical, euler_x=euler,
        fiber_dimension=r - 1, finiteness_verdict=verdict, flags=flags)

