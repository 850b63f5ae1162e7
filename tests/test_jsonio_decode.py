"""The decoders' int path against the Fraction path it replaced.

``dec_gauss``, ``dec_series`` and ``dec_cmat`` read ASCII "p" and "p/q"
strings with ``int`` and build kernel triples directly; every other
spelling goes through ``Fraction`` as before.  The references below are
the former decoders, which built every scalar as
``GaussRat(Fraction(re), Fraction(im))``.  Both must give the same
triples, or raise the same exception with the same message.
"""

from hypothesis import given, settings, strategies as st

from meroconn import jsonio
from meroconn.field import CMat, GaussRat
from meroconn.jsonio import FormatError, dec_fraction
from meroconn.series import INF, LaurentSeries


def reference_dec_gauss(obj):
    if isinstance(obj, str):
        return GaussRat(dec_fraction(obj))
    if isinstance(obj, dict):
        return GaussRat(dec_fraction(obj.get("re", 0)), dec_fraction(obj.get("im", 0)))
    raise FormatError(f"bad Gaussian rational {obj!r}")


def reference_dec_series(obj):
    if not isinstance(obj, dict):
        raise FormatError(f"bad series object {obj!r}")
    try:
        trunc = obj.get("trunc", "inf")
        trunc = INF if trunc == "inf" else int(trunc)
        return LaurentSeries(
            int(obj["order_min"]), [reference_dec_gauss(c) for c in obj["coeffs"]], trunc
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad series object: {exc}") from exc


def reference_dec_cmat(obj):
    try:
        return CMat([[reference_dec_gauss(x) for x in row] for row in obj])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad constant matrix: {exc}") from exc


def outcome(fn, obj):
    """The decoded value as plain data, or the exception's type and text."""
    try:
        value = fn(obj)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, str(exc)
    if isinstance(value, GaussRat):
        return value.t
    if isinstance(value, LaurentSeries):
        return value.order_min, value.coeffs, value.trunc
    return [[x.t for x in row] for row in value.rows]


# every spelling Fraction treats specially, and the int path's edges
_SPELLINGS = ["0", "-0", "7", "-7", "6/8", "-6/8", "0/5", "007/010", "+3", " 3", "3 ", "3/ 4",
              "3 /4", "3/-4", "-3/-4", "--3", "-", "", "/", "/3", "3/", "1/0", "1/00", "0/0",
              "3.5", "-.5", "1e3", "1E-3", "1_000", "1_000/3", "٣", "٣/٤", "３", "²", "1/2/3",
              "nan", "inf", "0x10", "1" * 5000, "1/" + "2" * 5000]
_ascii = st.from_regex(r"-?[0-9]{1,45}(/[0-9]{1,45})?", fullmatch=True)
_rationals = st.one_of(
    _ascii, st.sampled_from(_SPELLINGS), st.text(max_size=12),
    st.text(alphabet="-+/0123456789 ._e٣", max_size=10),
    st.integers(-10**30, 10**30), st.floats(), st.booleans(), st.none(),
    st.lists(st.integers(), max_size=2))
_keys = st.sampled_from(["re", "im", "other"])
_gaussians = st.one_of(
    _rationals,
    st.dictionaries(_keys, _rationals, max_size=3),
    st.fixed_dictionaries({"re": _ascii, "im": _ascii}))

DECODE = settings(max_examples=250, deadline=None, derandomize=True, database=None)


@DECODE
@given(_gaussians)
def test_dec_gauss_matches_the_fraction_path(obj):
    assert outcome(jsonio.dec_gauss, obj) == outcome(reference_dec_gauss, obj)


@DECODE
@given(st.one_of(
    st.fixed_dictionaries({"order_min": st.integers(-5, 5),
                           "coeffs": st.lists(_gaussians, max_size=4)},
                          optional={"trunc": st.one_of(st.integers(-5, 9), st.just("inf"),
                                                       _rationals)}),
    st.dictionaries(st.sampled_from(["order_min", "coeffs", "trunc"]),
                    st.one_of(_rationals, st.lists(_gaussians, max_size=3)), max_size=3),
    _rationals))
def test_dec_series_matches_the_fraction_path(obj):
    assert outcome(jsonio.dec_series, obj) == outcome(reference_dec_series, obj)


@DECODE
@given(st.one_of(
    st.integers(1, 3).flatmap(lambda n: st.lists(st.lists(_gaussians, min_size=n, max_size=n),
                                                  min_size=n, max_size=n)),
    st.lists(st.lists(_gaussians, max_size=3), max_size=3),
    _rationals))
def test_dec_cmat_matches_the_fraction_path(obj):
    assert outcome(jsonio.dec_cmat, obj) == outcome(reference_dec_cmat, obj)


def test_int_path_examples():
    assert jsonio.dec_gauss({"re": "6/8", "im": "-2"}).t == (3, -8, 4)
    assert jsonio.dec_gauss("-0").t == (0, 0, 1)
    assert outcome(jsonio.dec_gauss, "1/00") == ("FormatError",
                                                 "bad rational '1/00': zero denominator")
    assert outcome(jsonio.dec_cmat, [["1", "2"]]) == ("FormatError",
                                                      "bad constant matrix: CMat must be square")
