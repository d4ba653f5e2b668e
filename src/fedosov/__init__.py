"""Exact symbolic engine for Fedosov quantization on polynomial symplectic
charts, the fiberwise Hochschild cochain calculus over the Weyl bundle, and
the bar/Koszul homotopy machinery of the formal Weyl algebra.

All coefficients are exact rationals; every construction is computed modulo
the filtration 2*[hbar] + [y] > order and is exact in that quotient.
"""

from .poly import XPoly
from .weyl import (ChartValidationError, FormWeyl, SymplecticChart,
                   WeylElement, curvature_R, delta, delta_inv, fedosov_D,
                   filtration_degree, graded_commutator, is_central,
                   moyal_product, nabla, sigma_project, weyl_curvature_class)
from .quantize import (FedosovData, GaugeOperator, StarProduct, apply_gauge,
                       curvature_residual, fedosov_class, solve_r, star, tau)
from .cochains import (FiberwiseCochain, LocalCochainEvaluator, cochain_eval,
                       cup, delta_cochain, delta_inv_cochain, embed_forms,
                       fedosov_d_cochain, gerstenhaber, hochschild_d,
                       horizontal_lift_cochain, insert, nabla_cochain,
                       product_cochain, sigma_cochain, to_local_operator,
                       transfer_exactness)
from .weylhh import (BarChain, KoszulChain, PsiElement, WeylCochain,
                     WeylContext, bar_aug, bar_d, bar_h,
                     bar_homotopy, bar_to_koszul, cochain_homotopy,
                     gl_transport, hh_hochschild_d, hh_reduce, koszul_aug,
                     koszul_d, koszul_h, koszul_to_bar, psi_d, psi_h)

__all__ = [
    "XPoly",
    "ChartValidationError", "FormWeyl", "SymplecticChart", "WeylElement",
    "curvature_R", "delta", "delta_inv", "fedosov_D", "filtration_degree",
    "graded_commutator", "is_central", "moyal_product", "nabla",
    "sigma_project", "weyl_curvature_class",
    "FedosovData", "GaugeOperator", "StarProduct", "apply_gauge",
    "curvature_residual", "fedosov_class", "solve_r", "star", "tau",
    "FiberwiseCochain", "LocalCochainEvaluator", "cochain_eval", "cup",
    "delta_cochain", "delta_inv_cochain", "embed_forms", "fedosov_d_cochain",
    "gerstenhaber", "hochschild_d", "horizontal_lift_cochain", "insert",
    "nabla_cochain", "product_cochain", "sigma_cochain", "to_local_operator",
    "transfer_exactness",
    "BarChain", "KoszulChain", "PsiElement", "WeylCochain", "WeylContext",
    "bar_aug", "bar_d", "bar_h", "bar_homotopy", "bar_to_koszul",
    "cochain_homotopy", "gl_transport", "hh_hochschild_d", "hh_reduce",
    "koszul_aug", "koszul_d", "koszul_h", "koszul_to_bar", "psi_d", "psi_h",
]
