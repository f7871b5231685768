"""Exact and spectral enumeration of smooth words, smooth cyclic words,
and smooth necklaces over the alphabet {1, ..., k}.

Four mutually cross-checking count pipelines: brute-force enumeration
(`words`), exact transfer-matrix arithmetic (`transfer`), rational
generating functions (`genfunc`), and trigonometric closed forms with
validated rounding (`spectral`).
"""

from .chebyshev import (Poly, eval_poly, t_poly, theta_parts, theta_poly,
                        u_poly, u_zeros)
from .genfunc import (RationalSeries, scw_gf, scw_gf_count,
                      series_coefficient, series_coeffs, series_equal, sw_gf,
                      sw_gf_count, sw_prefix_gf, usmani_inverse_entry)
from .spectral import (PrecisionExhausted, Spectrum, cyclic_proportion_limit,
                       exact_count, in_validated_window, residues,
                       round_validated, scw_asymptotic, scw_trig, sn_trig,
                       spectrum, sw_asymptotic, sw_trig)
from .transfer import (divisors, matrix_power, matrix_power_apply,
                       necklace_exact, necklace_row, scw_exact,
                       scw_pair_exact, scw_row, sw_exact, sw_prefix_exact,
                       sw_row, totient, transfer_matrix)
from .words import (admits, is_smooth, is_smooth_cyclic, necklace_rows_bf,
                    scw_rows_bf, sw_rows_bf)

__version__ = "0.1.0"

__all__ = [
    "Poly", "RationalSeries", "Spectrum", "PrecisionExhausted",
    "u_poly", "t_poly", "theta_poly", "theta_parts",
    "eval_poly", "u_zeros",
    "is_smooth", "is_smooth_cyclic",
    "admits", "sw_rows_bf", "scw_rows_bf", "necklace_rows_bf",
    "transfer_matrix", "matrix_power", "matrix_power_apply",
    "sw_exact", "scw_exact", "sw_prefix_exact", "scw_pair_exact",
    "necklace_exact", "sw_row", "scw_row", "necklace_row",
    "totient", "divisors", "usmani_inverse_entry",
    "sw_gf", "scw_gf", "sw_gf_count", "scw_gf_count", "sw_prefix_gf",
    "series_coeffs", "series_coefficient",
    "series_equal",
    "spectrum", "sw_trig", "scw_trig", "sn_trig", "residues",
    "round_validated", "in_validated_window", "exact_count",
    "sw_asymptotic", "scw_asymptotic", "cyclic_proportion_limit",
]
