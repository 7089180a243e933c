import contextlib
import io
import json
import random
from collections import Counter

import pytest

from charvar.cli import main
from charvar.complexes import TwistedComplex, kernel_homology_univariate, window_homology
from charvar.constructions import build_model, direct_product, free_group, surface_group
from charvar.errors import WindowTooLarge
from charvar.parser import parse_presentation
from charvar.presentations import induced_on_free_part, validate_epimorphism

import window_oracle
from conftest import record_calls


def univariate_model(p, images):
    model = build_model(p)
    nu = validate_epimorphism(p, images)
    return model.complex.specialize(induced_on_free_part(nu, model.abelian))


def bb_f2xf2():
    p = direct_product([free_group(2), free_group(2)])
    return univariate_model(p, [(1,)] * 4)


def test_window_growth_matches_free_rank():
    cx = bb_f2xf2()
    report = window_homology(cx, 6)
    seq = report.dimensions[2]
    assert all(x < y for x, y in zip(seq, seq[1:]))
    diffs = [y - x for x, y in zip(seq, seq[1:])]
    free_rank = kernel_homology_univariate(cx).entries[2].free_rank
    assert free_rank == 1
    assert diffs[-1] == free_rank
    assert diffs[-2] == free_rank


def test_window_stabilizes_for_finite_homology():
    p = surface_group(1)
    cx = univariate_model(p, [(1,), (0,)])
    report = window_homology(cx, 8)
    seq = report.dimensions[1]
    assert seq[-1] == seq[-2] == 1  # H_1(kernel) = Q, dimension one


def test_window_degree_zero_is_one():
    for cx in (bb_f2xf2(), univariate_model(surface_group(1), [(1,), (0,)])):
        report = window_homology(cx, 5)
        assert set(report.dimensions[0]) == {1}


def test_window_monotone_nondecreasing():
    suite = [bb_f2xf2(),
             univariate_model(surface_group(1), [(1,), (0,)]),
             univariate_model(surface_group(2), [(1,), (0,), (0,), (0,)]),
             univariate_model(free_group(2), [(1,), (1,)])]
    for cx in suite:
        report = window_homology(cx, 6)
        for j in range(cx.top + 1):
            seq = report.dimensions[j]
            assert all(x <= y for x, y in zip(seq, seq[1:]))


def test_window_unbounded_iff_positive_free_rank():
    suite = [bb_f2xf2(),
             univariate_model(surface_group(1), [(1,), (0,)]),
             univariate_model(surface_group(2), [(1,), (0,), (0,), (0,)]),
             univariate_model(free_group(2), [(1,), (1,)])]
    for cx in suite:
        kernel = kernel_homology_univariate(cx)
        report = window_homology(cx, 7)
        for j in range(cx.top + 1):
            seq = report.dimensions[j]
            growing = seq[-1] > seq[-3]
            assert growing == (kernel.entries[j].free_rank > 0)


def test_window_two_variables():
    # Z^2 cover of the genus-2 surface: windows over {0..k}^2
    p = surface_group(2)
    cx = univariate_model(p, [(1, 0), (0, 1), (0, 0), (0, 0)])
    assert cx.nvars == 2
    report = window_homology(cx, 4)
    assert set(report.dimensions[0]) == {1}
    seq = report.dimensions[1]
    assert all(x <= y for x, y in zip(seq, seq[1:]))
    assert seq[-1] > seq[0]  # H_1 of the Z^2-kernel is infinite-dimensional


TORSION = parse_presentation("gens a,b,c; rel a^3 b^-3 c^6; rel [b,c];")
TREFOIL = parse_presentation("gens a,b; rel a b a b^-1 a^-1 b^-1;")

# surfaces, free groups, the torus and a group whose H_1 has torsion
ORACLE_FACTORS = [surface_group(2), free_group(1), free_group(2), surface_group(1), TORSION]


@pytest.mark.parametrize("seed", range(40))
def test_window_matches_the_literal_oracle(seed):
    # a seeded product under a seeded nubar with one or two rows: the closure
    # bounds must keep exactly the cells whose whole boundary is kept, at
    # every radius up to 4 (up to 3 in two variables), and every rank must be
    # sympy's on the literal subcomplex
    rng = random.Random(seed)
    nvars = 1 + seed % 2
    factors = rng.choices(ORACLE_FACTORS, k=3 if nvars == 1 and seed % 4 == 0 else 2)
    model = build_model(direct_product(factors))
    nubar = [[rng.randint(-2, 2) for _ in range(model.nvars)] for _ in range(nvars)]
    cx = model.pushed(nubar)
    radius = 4 if nvars == 1 else rng.randint(1, 3)
    assert window_homology(cx, radius) == window_oracle.window_homology(cx, radius)


# windows where a key that orders cells by translate before entry radius
# lets a lead enter before another cell of its reduced row, so clearing the
# lead's own row one degree down gives wrong dimensions
CLEARING_CASES = {
    "S2xTORSIONxS2": ([surface_group(2), TORSION, surface_group(2)],
                      [[-1, -1, 3, 3, 3, 3, 1, 0, 0, 3]], 4),
    "S2xTORSIONxTORSION": ([surface_group(2), TORSION, TORSION],
                           [[3, 0, 2, 2, 0, 0, -2, 2]], 5),
    "F2xtrefoilxtrefoil": ([free_group(2), TREFOIL, TREFOIL], [[-3, 3, 1, -1]], 6),
    "trefoilxS2-onto-Z2": ([TREFOIL, surface_group(2)],
                           [[0, 3, 1, -1, 3], [0, 3, -3, 1, -3]], 3),
}


@pytest.mark.parametrize("name", CLEARING_CASES)
def test_clearing_by_entry_radius_matches_the_oracle(name):
    factors, nubar, radius = CLEARING_CASES[name]
    cx = build_model(direct_product(factors)).pushed(nubar)
    assert window_homology(cx, radius) == window_oracle.window_homology(cx, radius)


def test_clearing_reduces_only_rows_that_lead_no_pivot_above(monkeypatch):
    # S_2^3 under the map of the benchmark's kernel workload: in degree j,
    # top down, the rows that reach the echelon are those of the kept cells
    # that lead no pivot of d_(j+1), kept_j - rank d_(j+1) of them, in the
    # window of each radius k (one of a larger radius may reduce fewer by
    # k, as a later pivot may lead at a cell kept earlier); the oracle
    # counts the kept cells and ranks each d_j
    nu = [1, 1, 0, 1, 1, -1, 0, -1, 0, 1, 1, 1]
    cx = build_model(direct_product([surface_group(2)] * 3)).pushed([nu])
    for k, (kept, ranks) in enumerate(window_oracle.window_counts(cx, 5), start=1):
        calls = record_calls(monkeypatch, [("intlinalg", "reduce_row")])
        window_homology(cx, k)
        monkeypatch.undo()
        # one echelon per degree, so the calls group by their pivots
        per_echelon = Counter(id(pivots) for pivots, _row in calls["intlinalg.reduce_row"])
        expected = [kept[j] - ranks[j + 1] for j in reversed(range(cx.top + 1))]
        assert list(per_echelon.values()) == [n for n in expected if n]
    assert sum(expected) == 448 and sum(kept) == 756


def test_window_memory_ceiling():
    with pytest.raises(WindowTooLarge):
        window_homology(bb_f2xf2(), 6, ceiling=10)


def built_variable_counts(monkeypatch, argv):
    """Run the CLI and return its exit code, its JSON result and the
    variable count of every TwistedComplex it constructed, in order."""
    counts = []
    check = TwistedComplex.__post_init__

    def recording(cx, factors):
        counts.append(cx.nvars)
        check(cx, factors)

    monkeypatch.setattr(TwistedComplex, "__post_init__", recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    return code, json.loads(out.getvalue())["result"], counts


def test_a_product_window_never_builds_the_tensor_model(monkeypatch):
    code, _, counts = built_variable_counts(monkeypatch, [
        "window", "--preset", "product-surface", "--genus", "2,2,2",
        "--nu", "ones", "--radius", "3"])
    assert code == 0
    # the one model the three equal factors share, pushed to the window's
    # ring once, as the three blocks of ones are equal, and tensored twice
    assert counts == [4, 1, 1, 1]


def test_a_product_window_is_refused_before_any_push(monkeypatch):
    # 6^6 cells of S_2^6 at each of the 2 translates
    code, result, counts = built_variable_counts(monkeypatch, [
        "window", "--preset", "product-surface", "--genus", "2,2,2,2,2,2",
        "--nu", "ones", "--radius", "1", "--window-ceiling", "1000"])
    assert code == 1 and result["error"]["code"] == "window-too-large"
    assert result["error"]["message"] == "window needs 93312 cells, ceiling is 1000"
    # the one model the six equal factors share
    assert counts == [4]
