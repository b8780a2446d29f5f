"""orbipar: exact local models for finite-group actions on Higgs bundles.

Cocycle cohomology of finite abelian groups, pseudorepresentation
classification, parabolic/Levi entry masks, and the exact power-series
correspondence between invariant local fields on a cyclic cover and
parabolic local fields on the quotient.
"""

__version__ = "0.1.0"
