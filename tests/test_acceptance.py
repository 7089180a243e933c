"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every expected value is exact; the only tolerances are
the stated wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager

from charvar.certify import certify_non_fp, generic_vanishing_probe
from charvar.complexes import (kernel_homology_univariate, twisted_betti,
                               window_homology)
from charvar.constructions import (build_model, complete_graph, cycle_graph,
                                   direct_product, flag_complex, free_group,
                                   pencil_numerology, raag_complex,
                                   reduced_homology, surface_group)
from charvar.covers import finite_cover_oracle
from charvar.fox import alexander_matrix
from charvar.jumploci import is_full_vr_product, v1_ideal
from charvar.laurent import Character
from charvar.presentations import (EpimorphismToZm, Presentation, abelianize,
                                   induced_on_free_part, validate_epimorphism)
from charvar.sampling import sample_character
from conftest import random_word
from fox_oracle import fundamental_identity_check, pushed_alexander_rows


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"[FAIL] criterion {number}: {description} "
              f"(took {elapsed:.1f}s, budget {budget_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded its time budget")
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s)")


def test_criterion_01_fox_soundness():
    with criterion(1, "Fox fundamental identity and shipped Alexander rows "
                      "on 1000 random words",
                   budget_seconds=5):
        rng = random.Random(20260810)
        for _ in range(1000):
            ngens = rng.randint(1, 4)
            w = random_word(rng, ngens, 20)
            assert fundamental_identity_check(w, ngens)
            p = Presentation(tuple(f"x{i}" for i in range(ngens)), (w,))
            q = abelianize(p)
            shipped = alexander_matrix(p, q).entries
            assert [list(row) for row in shipped] == pushed_alexander_rows(p, q)


def test_criterion_02_euler_invariance():
    with criterion(2, "twisted Euler characteristic of curve groups",
                   budget_seconds=10):
        rng = random.Random(2)
        for g in (2, 3):
            cx = build_model(surface_group(g)).complex
            for _ in range(50):
                rho = sample_character(rng, 2 * g, box=9)
                profile = twisted_betti(cx, rho)
                assert profile.alternating_sum() == 2 - 2 * g
                assert profile.betti[1] == 2 * g - 2


def test_criterion_03_torus_jump_locus():
    with criterion(3, "torus-group depth-1 locus is the trivial character"):
        torus = surface_group(1)
        model = build_model(torus)
        ideal = v1_ideal(model, 1)
        assert sorted(p.to_text() for p in ideal.generators) == \
            ["t1 - 1", "t2 - 1"]
        cx = model.complex
        rng = random.Random(3)
        for _ in range(100):
            rho = sample_character(rng, 2, box=12)
            assert twisted_betti(cx, rho).betti[1] == 0
        assert twisted_betti(cx, Character.trivial(2)).betti[1] == 2


def test_criterion_04_product_fullness():
    with criterion(4, "degree-r fullness for products of curves"):
        def product_model(factors):
            return build_model(direct_product(factors))
        assert is_full_vr_product(product_model([surface_group(2)] * 3), 3).is_full
        assert is_full_vr_product(product_model([free_group(2)] * 3), 3).is_full
        # the torus factor has generic profile zero, so by Kunneth the
        # product's generic b_2 is 0: a definite negative
        mixed = is_full_vr_product(
            product_model([surface_group(2), surface_group(1)]), 2)
        assert not mixed.is_full
        assert mixed.status == "not_full"
        assert mixed.witness["generic_b2"] == 0


def test_criterion_05_certificate_end_to_end():
    with criterion(5, "non-FP_3 certificate and 100-trial vanishing probe",
                   budget_seconds=120):
        group = direct_product([surface_group(2)] * 3)
        nu = EpimorphismToZm(2, tuple([(1, 0), (0, 1), (0, 0), (0, 0)] * 3))
        cert = certify_non_fp(group, nu, 3, seed=0)
        assert cert.status == "certified"
        assert cert.conclusions == ("H_leq_r_infinite", "not_FP_r",
                                    "not_commensurable_FP_r")
        probe = generic_vanishing_probe(group, nu, 3, trials=100, seed=0)
        assert probe.vanishing_count == 0


def test_criterion_06_univariate_shapiro():
    with criterion(6, "exact kernel homology over the one-variable ring"):
        product = direct_product([free_group(2)] * 2)
        model = build_model(product)
        nu = validate_epimorphism(product, [(1,)] * 4)
        uni = model.complex.specialize(induced_on_free_part(nu, model.abelian))
        report = kernel_homology_univariate(uni)
        assert report.degree(2).free_rank == 1
        assert report.degree(2).infinite_dimensional

        k3 = kernel_homology_univariate(raag_complex(complete_graph(3)))
        assert [e.degree for e in k3.entries if e.infinite_dimensional] == []
        assert [None if e.free_rank else e.torsion_dimension
                for e in k3.entries] == [1, 2, 1, 0]


def test_criterion_07_window_growth():
    with criterion(7, "window growth: slope one for the diagonal kernel, "
                      "stabilization for the torus", budget_seconds=60):
        product = direct_product([free_group(2)] * 2)
        model = build_model(product)
        nu = validate_epimorphism(product, [(1,)] * 4)
        uni = model.complex.specialize(induced_on_free_part(nu, model.abelian))
        seq = window_homology(uni, 6).dimensions[2]
        assert all(x < y for x, y in zip(seq, seq[1:]))
        diffs = [y - x for x, y in zip(seq, seq[1:])]
        assert diffs[-1] == 1 and diffs[-2] == 1

        torus = surface_group(1)
        tmodel = build_model(torus)
        tnu = validate_epimorphism(torus, [(1,), (0,)])
        tuni = tmodel.complex.specialize(
            induced_on_free_part(tnu, tmodel.abelian))
        tseq = window_homology(tuni, 6).dimensions[1]
        assert tseq[-1] == tseq[-2]


def test_criterion_08_finite_cover_oracle():
    with criterion(8, "index-2 cover Betti number matches twisted sums"):
        cases = [
            (free_group(2), [(1,), (1,)], 3),
            (surface_group(1), [(1,), (0,)], 2),
            (surface_group(2), [(1,), (0,), (0,), (0,)], 6),
        ]
        for presentation, images, expected_b1 in cases:
            nu = validate_epimorphism(presentation, images)
            report = finite_cover_oracle(presentation, nu)
            assert report.consistent
            assert report.b1_cover == expected_b1
            assert report.b1_cover == (report.b1_trivial_character +
                                       report.b1_order2_character)


def test_criterion_09_pencil_numerology():
    with criterion(9, "branched-cover counts and Riemann-Hurwitz audit"):
        data = pencil_numerology([2, 2, 2])
        assert data.branch_sizes == (2, 2, 2)
        assert data.critical_points == 8
        assert data.euler_x == -8
        for g in range(2, 11):
            audit = pencil_numerology([g, 2]).riemann_hurwitz_audit()
            assert all(entry["ok"] for entry in audit)


def test_criterion_10_model_agreement():
    with criterion(10, "cube-complex route equals tensor route for the "
                       "4-cycle"):
        cube = kernel_homology_univariate(raag_complex(cycle_graph(4)))
        product = direct_product([free_group(2)] * 2)
        model = build_model(product)
        nu = validate_epimorphism(product, [(1,)] * 4)
        tensor = kernel_homology_univariate(
            model.complex.specialize(induced_on_free_part(nu, model.abelian)))
        assert len(cube.entries) == len(tensor.entries)
        for left, right in zip(cube.entries, tensor.entries):
            assert left.free_rank == right.free_rank
            assert sorted(f.to_text() for f in left.torsion_factors) == \
                sorted(f.to_text() for f in right.torsion_factors)


def test_criterion_11_flag_diagnostics():
    with criterion(11, "flag-complex reduced Betti numbers"):
        assert reduced_homology(flag_complex(cycle_graph(4))) == (0, 1)
        assert reduced_homology(flag_complex(complete_graph(3))) == (0, 0, 0)
