"""charvar: exact characteristic varieties of finitely presented groups.

Alexander matrices of pushed-forward Fox derivatives over exact
multivariate Laurent polynomials, twisted Betti numbers, jump-locus
fullness decisions, and non-FP_r certificates for kernels of maps onto
Z^m.
"""

__version__ = "0.1.0"

from .words import Word, commutator
from .presentations import (AbelianData, EpimorphismToZm, Presentation,
                            abelianize, induced_on_free_part,
                            validate_epimorphism)
from .parser import parse_presentation
from .laurent import GENERIC, Character, LaurentPolynomial, pullback_character
from .lmatrix import (LaurentMatrix, SmithFormUnivariate, generic_rank,
                      minors, rank_at, smith_univariate)
from .fox import alexander_matrix
from .complexes import (BettiProfile, KernelHomologyReport, TwistedComplex,
                        WindowReport, generic_ranks,
                        kernel_homology_univariate, presentation_complex,
                        tensor_complex, twisted_betti, window_homology)
from .covers import CoverReport, finite_cover_oracle, index_two_subgroup
from .constructions import (BestvinaBradyData, Graph, GroupModel, PencilData,
                            SimplicialComplex, bestvina_brady, build_model,
                            cycle_graph, complete_graph, direct_product,
                            edgeless_graph,
                            flag_complex, free_group, octahedron_graph,
                            parse_graph_text, pencil_numerology, raag,
                            raag_chain_model, reduced_homology, surface_group)
from .jumploci import (FullnessVerdict, V1Ideal, generic_rank_verdict,
                       is_full_v1, is_full_vr_product, v1_ideal)
from .certify import (Certificate, KernelReport, ProbeReport, certify_non_fp,
                      generic_vanishing_probe, kernel_report_univariate)

__all__ = [name for name in dir() if not name.startswith("_")]
