"""dworklab: exact verification of p-adic valuation bounds for
exponentials of power series, subgroup/homomorphism counting for finite
groups and their free products, and related congruence checks.
"""

from .exactcore import INFINITY, legendre_valuation, vp

__all__ = ["INFINITY", "vp", "legendre_valuation"]
__version__ = "0.1.0"
