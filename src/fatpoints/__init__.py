"""Exact computation of Hilbert functions and graded Betti numbers for fat
point ideals supported at up to six points of the plane, plus the
maximal-rank verification machinery for the multiplication maps."""

from .config import (ConfigError, DistinctSpec, NegSet, PointConfiguration,
                     anticanonical_nef, dynkin_catalog, dynkin_classify,
                     neg_from_distinct, neg_from_nodal)
from .cones import (GeneratorSet, Reduction, gamma, h0, is_nef,
                    nef_generators, reduce)
from .lattice import E0, K, MINUS_K, ZERO, DivisorClass, E, chi
from .murank import (Certificate, MuBounds, Rule, SChain, StabilizationReport,
                     Status, certify, e0_classes, exceptional_configuration,
                     ql_bounds, s_chain, verify_configuration,
                     verify_stabilization)
from .resolution import (BettiTable, FatPointScheme, HilbertProfile, betti,
                         hilbert, mu_cokernel, proximity_normalize)
from .weyl import OrbitSet, all_roots, exceptional_classes, orbit, reflect

__version__ = "1.0.0"

__all__ = [
    "BettiTable", "Certificate", "ConfigError", "DistinctSpec", "DivisorClass",
    "E", "E0", "FatPointScheme", "GeneratorSet", "HilbertProfile", "K",
    "MINUS_K", "MuBounds", "NegSet", "OrbitSet", "PointConfiguration",
    "Reduction", "Rule", "SChain", "StabilizationReport", "Status", "ZERO",
    "all_roots", "anticanonical_nef", "betti", "certify",
    "chi", "dynkin_catalog", "dynkin_classify", "e0_classes",
    "exceptional_classes", "exceptional_configuration", "gamma", "h0",
    "hilbert", "is_nef", "mu_cokernel", "nef_generators", "neg_from_distinct",
    "neg_from_nodal", "orbit", "proximity_normalize", "ql_bounds", "reduce",
    "reflect", "s_chain", "verify_configuration", "verify_stabilization",
]
