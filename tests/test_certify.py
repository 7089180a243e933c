import json
import random

import pytest

from charvar.certify import (certify_non_fp, generic_vanishing_probe,
                             kernel_report_univariate)
from charvar.constructions import (bestvina_brady, build_model,
                                   complete_graph, direct_product, free_group,
                                   octahedron_graph, surface_group)
from charvar.errors import TrivialNu, UnsupportedDegree
from charvar.presentations import EpimorphismToZm, validate_epimorphism
from charvar.sampling import sample_character


def pencil_nu(factors=3):
    return EpimorphismToZm(2, tuple([(1, 0), (0, 1), (0, 0), (0, 0)] * factors))


def genus2_cubed():
    return direct_product([surface_group(2)] * 3)


def stallings():
    return direct_product([free_group(2)] * 3)


def test_certify_product_of_curves():
    cert = certify_non_fp(genus2_cubed(), pencil_nu(), 3, seed=7)
    assert cert.status == "certified"
    assert cert.conclusions == ("H_leq_r_infinite", "not_FP_r",
                                "not_commensurable_FP_r")
    assert cert.evidence["fullness"]["method"] == "generic-rank"
    assert cert.evidence["fullness"]["witness"]["route"]["name"] == "kunneth"
    assert cert.degree == 3


def test_certify_stallings_configuration():
    nu = EpimorphismToZm(1, ((1,),) * 6)
    cert = certify_non_fp(stallings(), nu, 3, seed=3)
    assert cert.status == "certified"
    assert len(cert.conclusions) == 3


def test_certify_torus_fails_hypothesis():
    p = surface_group(1)
    nu = EpimorphismToZm(1, ((1,), (0,)))
    cert = certify_non_fp(p, nu, 1, seed=1)
    assert cert.status == "not-established"
    assert cert.conclusions == ()
    assert "V^1_1" in cert.failed_hypothesis
    assert cert.evidence["fullness"]["status"] == "not_full"


def test_certify_rejects_trivial_nu():
    with pytest.raises(TrivialNu):
        certify_non_fp(surface_group(2),
                       EpimorphismToZm(1, ((0,),) * 4), 1)


def test_certify_generic_rank_on_octahedron_raag():
    data = bestvina_brady(octahedron_graph())
    cert = certify_non_fp(data.presentation, data.nu, 3, seed=5)
    assert cert.status == "certified"
    assert cert.evidence["fullness"]["method"] == "generic-rank"


def test_certify_complete_graph_raag_not_established():
    data = bestvina_brady(complete_graph(3))
    for r in (1, 2, 3):
        cert = certify_non_fp(data.presentation, data.nu, r, seed=5)
        assert cert.status == "not-established"


def test_certify_degree_guard_on_user_presentation():
    from charvar.parser import parse_presentation
    p = parse_presentation("gens a,b; rel [a,b];")
    nu = EpimorphismToZm(1, ((1,), (0,)))
    with pytest.raises(UnsupportedDegree):
        certify_non_fp(p, nu, 2)


def certificate_text(seed):
    certificate = certify_non_fp(genus2_cubed(), pencil_nu(), 3, seed=seed)
    return json.dumps(certificate.to_json_dict(), sort_keys=True, indent=2)


def test_certificates_are_deterministic():
    a = certificate_text(seed=9)
    b = certificate_text(seed=9)
    assert a == b
    c = certificate_text(seed=10)
    assert a != c  # the seed is part of the certificate


def test_probe_product_never_vanishes():
    p = genus2_cubed()
    report = generic_vanishing_probe(p, pencil_nu(), 3, trials=40, seed=7)
    assert report.vanishing_count == 0
    assert all(s["betti"][3] >= 8 for s in report.samples)


def test_probe_torus_always_vanishes():
    p = surface_group(1)
    nu = EpimorphismToZm(1, ((1,), (0,)))
    report = generic_vanishing_probe(p, nu, 1, trials=100, seed=2)
    assert report.vanishing_count == report.trials


def test_probe_deterministic_and_nontrivial_sampler():
    p = surface_group(1)
    nu = EpimorphismToZm(1, ((1,), (0,)))
    a = generic_vanishing_probe(p, nu, 1, trials=30, seed=11)
    b = generic_vanishing_probe(p, nu, 1, trials=30, seed=11)
    assert a.to_json_dict() == b.to_json_dict()
    for sample in a.samples:
        assert sample["rho"] != ["1"]


def test_sampler_refuses_a_torus_without_coordinates():
    # the only character of a 0-dimensional torus is trivial, so the
    # nontrivial sampler must refuse rather than loop forever
    with pytest.raises(ValueError):
        sample_character(random.Random(0), 0, box=2)


def test_soundness_coupling():
    # a certified group never shows a vanishing sample
    cases = [
        (genus2_cubed(), pencil_nu(), 3),
        (stallings(), EpimorphismToZm(1, ((1,),) * 6), 3),
    ]
    for p, nu, r in cases:
        cert = certify_non_fp(p, nu, r, seed=21)
        assert cert.status == "certified"
        probe = generic_vanishing_probe(p, nu, r, trials=25, seed=21)
        assert probe.vanishing_count == 0


def test_kernel_report_f2xf2():
    p = direct_product([free_group(2)] * 2)
    nu = EpimorphismToZm(1, ((1,),) * 4)
    report = kernel_report_univariate(p, nu, top_degree=2)
    entries = report.homology.entries
    assert entries[2].free_rank == 1
    assert entries[0].free_rank == 0 and entries[1].free_rank == 0


def test_kernel_report_free_group():
    p = free_group(2)
    nu = EpimorphismToZm(1, ((1,), (1,)))
    report = kernel_report_univariate(p, nu, top_degree=1)
    assert report.homology.degree(1).free_rank == 1


def test_kernel_report_genus2():
    p = surface_group(2)
    nu = EpimorphismToZm(1, ((1,), (0,), (0,), (0,)))
    report = kernel_report_univariate(p, nu, top_degree=2)
    assert report.homology.degree(1).free_rank >= 1


def test_univariate_agreement_with_certificates():
    p = stallings()
    nu = EpimorphismToZm(1, ((1,),) * 6)
    cert = certify_non_fp(p, nu, 3, seed=13)
    assert cert.status == "certified"
    report = kernel_report_univariate(p, nu, top_degree=3)
    # a certified degree-r locus forces infinite homology in some degree <= r
    infinite = [e.degree for e in report.homology.entries
                if e.degree <= cert.degree and e.infinite_dimensional]
    assert infinite == [3]
