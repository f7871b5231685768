"""The value contract of `Poly`, `RationalSeries` and `Spectrum`, and the
import footprint of the command line.

The three classes are immutable values, all built on the one base
`_args.Value`: equal values compare and hash equal, no attribute can be
set or deleted, pickle (at every protocol) and copy give equal values, and
each prints as its constructor call.  A `RationalSeries` keeps its
denominator ``factors`` out of equality, hashing and printing.
"""
import copy
import pickle
import subprocess
import sys

import pytest

from smoothwords import Poly, RationalSeries, Spectrum, _args, spectrum, sw_gf


def rebuilt_spectrum(k):
    sp = spectrum(k)
    return Spectrum(sp.k, sp.angles, sp.eigenvalues, sp.cot2_weights)


def unfactored(k):
    gf = sw_gf(k)
    return RationalSeries(gf.num, gf.den)


# name -> (value, an equal value built another way, an unequal value)
VALUES = {
    "Poly": (Poly(1, 1), Poly(1, 1, 0), Poly(1, -1)),
    "RationalSeries": (sw_gf(4), unfactored(4), sw_gf(3)),
    "Spectrum": (spectrum(3), rebuilt_spectrum(3), spectrum(4)),
}
FIELDS = {
    "Poly": ("coeffs",),
    "RationalSeries": ("num", "den", "factors"),
    "Spectrum": ("k", "angles", "eigenvalues", "cot2_weights"),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_compare_and_hash_equal(name):
    value, same, other = VALUES[name]
    assert value is not same
    assert value == same and hash(value) == hash(same)
    assert value != other
    # Another type is never equal, not even the tuple of the fields.
    assert value != tuple(getattr(value, field) for field in FIELDS[name])
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("name", VALUES)
def test_pickle_and_copy_give_equal_values(name, protocol):
    value = VALUES[name][0]
    for twin in (pickle.loads(pickle.dumps(value, protocol)), copy.copy(value),
                 copy.deepcopy(value)):
        assert twin == value and repr(twin) == repr(value)


@pytest.mark.parametrize("name", VALUES)
def test_values_share_one_base(name):
    # The contract is written once, in `_args.Value`: a value class names
    # the slots it compares and inherits the rest.
    cls = type(VALUES[name][0])
    assert issubclass(cls, _args.Value)
    assert set(cls._compared) <= set(cls.__slots__) == set(FIELDS[name])
    for method in ("__eq__", "__hash__", "__setattr__", "__delattr__"):
        assert getattr(cls, method) is getattr(_args.Value, method)


def test_rational_series_ignores_factors():
    factored, plain, _ = VALUES["RationalSeries"]
    assert factored.factors != plain.factors == (plain.den,)
    assert repr(factored) == repr(plain)
    assert pickle.loads(pickle.dumps(factored)).factors == factored.factors


@pytest.mark.parametrize("name", VALUES)
def test_attributes_cannot_be_set_or_deleted(name):
    value = VALUES[name][0]
    for field in FIELDS[name] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == VALUES[name][1]


def test_reprs_keep_their_spelling():
    assert repr(Poly(1, 1)) == "Poly(1, 1)"
    assert repr(Poly()) == "Poly()"
    assert repr(RationalSeries(Poly(1, 1), Poly(-1, 2, 1))) == \
        "RationalSeries(num=Poly(-1, -1), den=Poly(1, -2, -1))"
    sp = spectrum(1)
    assert repr(sp) == (f"Spectrum(k=1, angles={sp.angles!r}, "
                        f"eigenvalues={sp.eigenvalues!r}, "
                        f"cot2_weights={sp.cot2_weights!r})")


def test_spectrum_is_cached():
    assert spectrum(3) is spectrum(3)


def test_cli_import_loads_no_introspection_modules():
    # `dataclasses` would pull in `inspect`, `ast` and `dis`: about 0.9 MiB
    # and 10 ms in every process that answers one request.  `argparse`
    # and the `gettext` and `locale` it brings cost about 2 ms to import
    # and 2 ms to build a parser.  A fresh interpreter, so that what
    # pytest has imported does not count.
    code = ("import sys; before = set(sys.modules); import smoothwords.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', "
            "'argparse', 'gettext', 'locale'} "
            "& (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"
