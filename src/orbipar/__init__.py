"""orbipar: exact local models for finite-group actions on Higgs bundles.

Cocycle cohomology of finite abelian groups, pseudorepresentation
classification, parabolic/Levi entry masks, and the exact power-series
correspondence between invariant local fields on a cyclic cover and
parabolic local fields on the quotient.
"""

from .cocycles import (Cochain2, CoefficientGroup, ExtensionGroup,
                       FiniteAbelianGroup, are_cohomologous, central_extension,
                       coboundary, h2_classes, is_cocycle, restrict, zeta)
from .errors import DomainError, MalformedInput
from .liemodel import (GroupModel, ParabolicData, WeightVector,
                       alcove_normalize, isotropy_eigenspaces, parabolic_from_s)
from .localseries import (GradedSeries, InvarianceReport, ResidueReport,
                          ascend, check_invariance, decompose_by_beta, descend,
                          residue_report)
from .matrices import CycMatrix
from .moduli import (CoveringData, FlagDegreeData, StratumIndex,
                     degree_pairing, degree_scaling_check, enumerate_strata,
                     riemann_hurwitz, stability_verdict)
from .pseudoreps import (PseudoRep, PseudoRepClass, QuotientClass, classify,
                         deck_transport, enumerate_classes, induced_cocycle,
                         project_mod_center, verify_pseudorep)
from .scalars import Cyclotomic, root_of_unity

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
