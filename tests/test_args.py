"""The integer-argument rule, table-driven over every public function.

Lengths, alphabet sizes, letters and indices must be ints (not bools)
inside their range; anything else is a ValueError, never a float answer,
a TypeError or a RecursionError from deep inside a pipeline.
"""
import pytest

import smoothwords as sw

NOT_INTS = (1.5, 2.0, 2.5, True, False, "4")

GF3 = sw.sw_gf(3)
POLY = sw.Poly(1, 1)

# name -> (function, valid arguments, {argument position: out-of-range values})
TABLE = {
    "transfer_matrix": (sw.transfer_matrix, (3,), {0: (0, -1)}),
    "matrix_power": (sw.matrix_power, (3, 2), {0: (0,), 1: (-1,)}),
    "matrix_power_apply": (sw.matrix_power_apply, (3, 2, [1, 1, 1]),
                           {0: (), 1: (-1,)}),
    "sw_exact": (sw.sw_exact, (0, 3), {0: (-1,), 1: (0, -4)}),
    "scw_exact": (sw.scw_exact, (0, 3), {0: (-1,), 1: (0, -4)}),
    "necklace_exact": (sw.necklace_exact, (0, 3), {0: (-1,), 1: (0, -3)}),
    "sw_exact n=4": (sw.sw_exact, (4, 3), {1: (0,)}),
    "scw_exact n=4": (sw.scw_exact, (4, 3), {1: (0,)}),
    "necklace_exact n=4": (sw.necklace_exact, (4, 3), {1: (0,)}),
    "sw_row": (sw.sw_row, (3, 4), {0: (0, -2), 1: (-1,)}),
    "scw_row": (sw.scw_row, (3, 4), {0: (0, -2), 1: (-1,)}),
    "necklace_row": (sw.necklace_row, (3, 4), {0: (0, -2), 1: (-1,)}),
    "sw_prefix_exact": (sw.sw_prefix_exact, (2, 4, 3),
                        {0: (0, 4), 1: (0,), 2: (0, 1)}),
    "scw_pair_exact": (sw.scw_pair_exact, (2, 3, 4, 3),
                       {0: (0, 4), 1: (0, 4), 2: (1,), 3: (0, 2)}),
    "divisors": (sw.divisors, (6,), {0: (0, -6)}),
    "totient": (sw.totient, (6,), {0: (0, -6)}),
    # A bad alphabet size among good ones, then a bad length with none.
    "sw_rows_bf": (lambda k, n_max: sw.sw_rows_bf((1, k), n_max), (3, 4),
                   {0: (0, -2), 1: (-1,)}),
    "scw_rows_bf": (lambda k, n_max: sw.scw_rows_bf((1, k), n_max), (3, 4),
                    {0: (0, -2), 1: (-1,)}),
    "necklace_rows_bf": (lambda k, n_max: sw.necklace_rows_bf((1, k), n_max),
                         (3, 4), {0: (0, -2), 1: (-1,)}),
    "sw_rows_bf no alphabet": (lambda n_max: sw.sw_rows_bf((), n_max), (4,),
                               {0: (-1,)}),
    "scw_rows_bf no alphabet": (lambda n_max: sw.scw_rows_bf((), n_max),
                                (4,), {0: (-1,)}),
    "necklace_rows_bf no alphabet": (
        lambda n_max: sw.necklace_rows_bf((), n_max), (4,), {0: (-1,)}),
    # One alphabet alone, read as a single row; the ids are those of the
    # former single-row readers, whose cases these rows keep.
    "sw_row_bf": (lambda k, n_max: sw.sw_rows_bf((k,), n_max)[0], (3, 4),
                  {0: (0, -2), 1: (-1,)}),
    "scw_row_bf": (lambda k, n_max: sw.scw_rows_bf((k,), n_max)[0], (3, 4),
                   {0: (0, -2), 1: (-1,)}),
    "necklace_row_bf": (
        lambda k, n_max: sw.necklace_rows_bf((k,), n_max)[0], (3, 4),
        {0: (0, -2), 1: (-1,)}),
    "admits": (sw.admits, (3, 3), {0: (-1,), 1: (0,)}),
    "is_smooth": (sw.is_smooth, ((1, 2), 3), {1: (0, 1)}),
    "is_smooth letter": (lambda letter, k: sw.is_smooth((1, letter), k),
                         (2, 3), {0: (0, 4)}),
    "is_smooth_cyclic": (sw.is_smooth_cyclic, ((1, 2), 3), {1: (0, 1)}),
    "is_smooth_cyclic letter": (
        lambda letter, k: sw.is_smooth_cyclic((1, letter), k), (2, 3),
        {0: (0, 4)}),
    "sw_trig": (sw.sw_trig, (3, 3), {0: (0,), 1: (0,)}),
    "scw_trig": (sw.scw_trig, (3, 3), {0: (0,), 1: (0,)}),
    "sn_trig": (sw.sn_trig, (3, 3), {0: (0,), 1: (0,)}),
    "sw_asymptotic": (sw.sw_asymptotic, (3, 3), {0: (0,), 1: (0,)}),
    "scw_asymptotic": (sw.scw_asymptotic, (3, 3), {0: (0,), 1: (0,)}),
    "in_validated_window": (sw.in_validated_window, (3, 3),
                            {0: (-1,), 1: (0, -1)}),
    # n = 0 and n = 26 lie outside the window: refusals, not argument errors.
    "exact_count": (lambda n, k: sw.exact_count(sw.sw_trig, n, k), (3, 3),
                    {0: (-1,), 1: (0, -1)}),
    "spectrum": (sw.spectrum, (3,), {0: (0,)}),
    "residues": (sw.residues, (3,), {0: (0,)}),
    "cyclic_proportion_limit": (sw.cyclic_proportion_limit, (3,), {0: (0,)}),
    "sw_gf": (sw.sw_gf, (3,), {0: (0, -1)}),
    "scw_gf": (sw.scw_gf, (3,), {0: (0, -1)}),
    "sw_gf_count": (sw.sw_gf_count, (3, 3), {0: (-1,), 1: (0, -1)}),
    "scw_gf_count": (sw.scw_gf_count, (3, 3), {0: (-1,), 1: (0, -1)}),
    "sw_prefix_gf": (sw.sw_prefix_gf, (2, 3), {0: (0, 4), 1: (0, 1)}),
    "usmani_inverse_entry": (sw.usmani_inverse_entry, (1, 2, 3),
                             {0: (0, 4), 1: (0, 4), 2: (0, 1)}),
    "series_coeffs": (sw.series_coeffs, (GF3, 4), {1: (-1,)}),
    "series_coefficient": (sw.series_coefficient, (GF3, 4), {1: (-1,)}),
    "u_poly": (sw.u_poly, (2,), {0: (-3,)}),
    "t_poly": (sw.t_poly, (2,), {0: (-1,)}),
    "theta_poly": (sw.theta_poly, (2,), {0: (-1,)}),
    "theta_parts": (sw.theta_parts, (2,), {0: (0, -1)}),
    "u_zeros": (sw.u_zeros, (2,), {0: (0,)}),
    "Poly.shift": (POLY.shift, (2,), {0: (-1,)}),
}


@pytest.mark.parametrize("name", TABLE)
def test_integer_arguments_follow_one_rule(name):
    fn, args, out_of_range = TABLE[name]
    fn(*args)  # the base call is valid, so each rejection below is earned
    escaped = []
    for pos, values in out_of_range.items():
        for bad in NOT_INTS + values:
            call = args[:pos] + (bad,) + args[pos + 1:]
            try:
                result = fn(*call)
            except ValueError:
                continue
            except Exception as exc:
                escaped.append(f"{call!r} raised {exc!r}")
            else:
                escaped.append(f"{call!r} returned {result!r}")
    assert not escaped, f"{name}: " + "; ".join(escaped)


def test_every_export_resolves():
    # A name left in `__all__` after its function is gone fails here, not
    # at a user's `from smoothwords import *`.
    assert [name for name in sw.__all__ if not hasattr(sw, name)] == []
