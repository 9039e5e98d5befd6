"""Quantity parsing/formatting and preferred-value snapping."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from touchalarm.units import (
    E6,
    E12,
    E24,
    E96,
    QUOTE_LIMIT,
    UNITS,
    ESeries,
    Quantity,
    QuantityError,
    format_number,
    format_quantity,
    lines,
    parse_number,
    parse_quantity,
    quoted,
    snap_preferred,
)


def scan_nearest(x: float, mantissas) -> float:
    """Independent oracle: exhaustive scan over candidates in every decade."""
    candidates = [float(f"{m:g}e{k}") for k in range(-18, 19) for m in mantissas]
    best = None
    best_err = None
    for c in candidates:
        err = abs(c - x) / x
        if best is None or err < best_err or (err == best_err and c < best):
            best, best_err = c, err
    return best


class TestParseQuantity:
    def test_kilo_ohm(self):
        assert parse_quantity("220k", "ohm") == Quantity(220000.0, "ohm")

    def test_micro_farad(self):
        assert parse_quantity("47u", "farad").magnitude == pytest.approx(4.7e-5, rel=1e-15)

    def test_zero(self):
        assert parse_quantity("0", "ohm") == Quantity(0.0, "ohm")

    @pytest.mark.parametrize(
        "text,unit,expected",
        [
            ("220kΩ", "ohm", 220000.0),
            ("220kohm", "ohm", 220000.0),
            ("47µF", "farad", 4.7e-5),
            ("47μF", "farad", 4.7e-5),
            ("2200u", "farad", 2.2e-3),
            ("12V", "volt", 12.0),
            ("35m", "ampere", 0.035),
            ("50Hz", "hertz", 50.0),
            ("10.8M", "ohm", 10.8e6),
            ("5W", "watt", 5.0),
            ("0.05", "dimensionless", 0.05),
            ("1.5ms", "second", 1.5e-3),
            ("0.01u", "farad", 1e-8),
            ("3n", "farad", 3e-9),
            ("2p", "farad", 2e-12),
            ("1G", "ohm", 1e9),
        ],
    )
    def test_grammar(self, text, unit, expected):
        assert parse_quantity(text, unit).magnitude == pytest.approx(expected, rel=1e-12)

    def test_malformed_number(self):
        with pytest.raises(QuantityError):
            parse_quantity("abc", "ohm")

    def test_unknown_prefix(self):
        with pytest.raises(QuantityError, match="prefix"):
            parse_quantity("47q", "ohm")

    def test_conflicting_unit_suffix(self):
        with pytest.raises(QuantityError, match="conflict"):
            parse_quantity("47uF", "ohm")

    def test_trailing_garbage(self):
        with pytest.raises(QuantityError):
            parse_quantity("47k9", "ohm")

    def test_negative_resistance_rejected(self):
        with pytest.raises(QuantityError):
            parse_quantity("-5", "ohm")

    def test_negative_voltage_ok(self):
        assert parse_quantity("-5", "volt").magnitude == -5.0

    # Every accepted suffix spelling, by unit: the table UNIT_SYMBOLS must reproduce.
    SPELLINGS = {"ohm": ("Ω", "ohm"), "farad": ("F",), "volt": ("V",), "ampere": ("A",),
                 "second": ("s",), "hertz": ("Hz",), "watt": ("W",), "dimensionless": ()}

    @pytest.mark.parametrize("unit", sorted(SPELLINGS))
    def test_every_spelling_parses_as_its_unit_only(self, unit):
        assert set(UNITS) == set(self.SPELLINGS)
        assert parse_quantity("2k", unit) == Quantity(2000.0, unit)
        for other, spellings in self.SPELLINGS.items():
            for spelling in spellings:
                if other == unit:
                    assert parse_quantity("2k" + spelling, unit) == Quantity(2000.0, unit)
                else:
                    with pytest.raises(QuantityError, match="conflicts with"):
                        parse_quantity("2k" + spelling, unit)


class TestQuoted:
    @pytest.mark.parametrize("text", ["", "4.7k", "it's", "\x00\u2028", "x" * QUOTE_LIMIT])
    def test_text_up_to_the_limit_is_its_repr(self, text):
        assert quoted(text) == repr(text)

    def test_longer_text_is_cut_and_marked(self):
        text = "ab" * QUOTE_LIMIT
        assert quoted(text) == f"{text[:QUOTE_LIMIT]!r}... ({2 * QUOTE_LIMIT} characters)"


# Every separator ``str.splitlines`` knows, "\r\n" as one, plus line text.
SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLines:
    @given(parts=st.lists(st.sampled_from([*SEPARATORS, "", "a", "key = 1k", "#"]), max_size=60),
           piece=st.integers(min_value=1, max_value=12))
    @settings(max_examples=300, deadline=None)
    def test_same_lines_as_splitlines(self, parts, piece):
        text = "".join(parts)
        assert list(lines(text, piece)) == text.splitlines()  # many cuts in a short text

    @pytest.mark.parametrize("text", ["", "\n", "no break", "a\r\nb", "x" * 200_000, "#a\n" * 100_000,
                                      "#a\r" * 100_000, "x" * (2**16 - 1) + "\r\nb", "#a\u2028" * 100_000])
    def test_default_piece(self, text):
        assert list(lines(text)) == text.splitlines()


class TestFormatQuantity:
    def test_kilo(self):
        assert format_quantity(Quantity(220000.0, "ohm")) == "220kΩ"

    def test_milli(self):
        assert format_quantity(Quantity(2.2e-3, "farad")) == "2.2mF"

    def test_zero(self):
        assert format_quantity(Quantity(0.0, "watt")) == "0W"

    def test_plain_seconds(self):
        assert format_quantity(Quantity(11.374, "second")) == "11.374s"

    def test_micro(self):
        assert format_quantity(Quantity(4.7e-5, "farad")) == "47µF"

    def test_dimensionless_no_prefix(self):
        assert format_quantity(Quantity(0.05, "dimensionless")) == "0.05"

    def test_fixed_digits(self):
        assert format_quantity(Quantity(451.4285714285714, "ohm"), digits=6) == "451.429Ω"

    def test_decade_edge_dust(self):
        # One ulp below 1000 must still come out as "1k...", not "1e+03...".
        assert format_quantity(Quantity(999.9999999999999, "ohm")) == "1kΩ"

    def test_fixed_digits_round_into_the_next_prefix(self):
        # log10 puts 999.9996 in the ohm decade; four digits round it to "1000" there.
        assert format_quantity(Quantity(999.9996, "ohm"), digits=4) == "1kΩ"

    def test_format_number(self):
        assert format_number(470.0) == "470"
        assert format_number(451.43) == "451.43"
        assert format_number(0.0022) == "0.0022"


@given(
    magnitude=st.floats(min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False),
    unit=st.sampled_from(["ohm", "farad", "volt", "ampere", "second", "hertz", "watt", "dimensionless"]),
)
@settings(max_examples=400)
def test_roundtrip_across_24_decades(magnitude, unit):
    q = Quantity(magnitude, unit)
    back = parse_quantity(format_quantity(q), unit)
    assert back.magnitude == pytest.approx(magnitude, rel=1e-12)


@given(st.floats(min_value=-1e12, max_value=-1e-12, allow_nan=False, allow_infinity=False))
@settings(max_examples=100)
def test_roundtrip_negative_voltages(magnitude):
    q = Quantity(magnitude, "volt")
    assert parse_quantity(format_quantity(q), "volt").magnitude == pytest.approx(magnitude, rel=1e-12)


class TestSnapPreferred:
    def test_led1_resistor(self):
        assert snap_preferred(451.43, E12, "nearest") == 470.0

    def test_led2_resistor(self):
        assert snap_preferred(980.0, E12, "nearest") == 1000.0

    def test_filter_capacitor(self):
        assert snap_preferred(2.4056e-3, E6, "nearest") == 2.2e-3

    def test_base_resistor(self):
        # Oracle: exhaustive scan across decades 10^3..10^4 (and beyond).
        assert scan_nearest(4750.0, E12.mantissas) == 4700.0
        assert snap_preferred(4750.0, E12, "nearest") == 4700.0

    def test_down_mode(self):
        assert snap_preferred(451.43, E12, "down") == 390.0

    def test_up_mode(self):
        assert snap_preferred(451.43, E12, "up") == 470.0
        assert snap_preferred(470.0, E12, "up") == 470.0

    def test_fixed_point(self):
        assert snap_preferred(470.0, E12, "nearest") == 470.0

    def test_series_by_name(self):
        assert snap_preferred(451.43, "E12") == 470.0

    def test_tie_breaks_downward(self):
        # 2.0 sits exactly between the two members in relative error.
        two = ESeries("E2", (1.0, 3.0))
        assert snap_preferred(2.0, two, "nearest") == 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(QuantityError):
            snap_preferred(bad, E12)

    def test_unknown_series_or_mode(self):
        with pytest.raises(QuantityError):
            snap_preferred(100.0, "E13")
        with pytest.raises(QuantityError):
            snap_preferred(100.0, E12, "sideways")


def _is_member(value: float, series: ESeries) -> bool:
    return any(
        value == float(f"{m:g}e{k}") for k in range(-18, 19) for m in series.mantissas
    )


def _worst_half_gap(series: ESeries) -> float:
    pairs = list(zip(series.mantissas, series.mantissas[1:]))
    pairs.append((series.mantissas[-1], 10.0 * series.mantissas[0]))
    return max((hi - lo) / (hi + lo) for lo, hi in pairs)


@given(
    x=st.floats(min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False),
    series=st.sampled_from([E6, E12, E24, E96]),
)
@settings(max_examples=400)
def test_snap_nearest_properties(x, series):
    snapped = snap_preferred(x, series, "nearest")
    assert _is_member(snapped, series)
    assert abs(snapped - x) / x <= _worst_half_gap(series) + 1e-9
    if series is E6:
        assert abs(snapped - x) / x <= 0.226
    assert snap_preferred(x, series, "nearest") == scan_nearest(x, series.mantissas)


@given(
    x=st.floats(min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False),
    series=st.sampled_from([E6, E12, E24, E96]),
)
@settings(max_examples=200)
def test_snap_up_down_bounds(x, series):
    assert snap_preferred(x, series, "up") >= x
    assert snap_preferred(x, series, "down") <= x


@given(
    mantissa_index=st.integers(min_value=0, max_value=11),
    decade=st.integers(min_value=-10, max_value=10),
)
def test_snap_member_is_fixed_point(mantissa_index, decade):
    member = float(f"{E12.mantissas[mantissa_index]:g}e{decade}")
    for mode in ("nearest", "up", "down"):
        assert snap_preferred(member, E12, mode) == member


class TestGoldenSeriesTables:
    """The series must match the published IEC 60063 decade tables."""

    def test_e6(self):
        assert E6.mantissas == (1.0, 1.5, 2.2, 3.3, 4.7, 6.8)

    def test_e12(self):
        assert E12.mantissas == (1.0, 1.2, 1.5, 1.8, 2.2, 2.7, 3.3, 3.9, 4.7, 5.6, 6.8, 8.2)

    def test_e24(self):
        assert E24.mantissas == (
            1.0, 1.1, 1.2, 1.3, 1.5, 1.6, 1.8, 2.0, 2.2, 2.4, 2.7, 3.0,
            3.3, 3.6, 3.9, 4.3, 4.7, 5.1, 5.6, 6.2, 6.8, 7.5, 8.2, 9.1,
        )

    def test_e96(self):
        assert E96.mantissas == (
            1.00, 1.02, 1.05, 1.07, 1.10, 1.13, 1.15, 1.18, 1.21, 1.24, 1.27, 1.30,
            1.33, 1.37, 1.40, 1.43, 1.47, 1.50, 1.54, 1.58, 1.62, 1.65, 1.69, 1.74,
            1.78, 1.82, 1.87, 1.91, 1.96, 2.00, 2.05, 2.10, 2.15, 2.21, 2.26, 2.32,
            2.37, 2.43, 2.49, 2.55, 2.61, 2.67, 2.74, 2.80, 2.87, 2.94, 3.01, 3.09,
            3.16, 3.24, 3.32, 3.40, 3.48, 3.57, 3.65, 3.74, 3.83, 3.92, 4.02, 4.12,
            4.22, 4.32, 4.42, 4.53, 4.64, 4.75, 4.87, 4.99, 5.11, 5.23, 5.36, 5.49,
            5.62, 5.76, 5.90, 6.04, 6.19, 6.34, 6.49, 6.65, 6.81, 6.98, 7.15, 7.32,
            7.50, 7.68, 7.87, 8.06, 8.25, 8.45, 8.66, 8.87, 9.09, 9.31, 9.53, 9.76,
        )

    def test_lengths_match_series_number(self):
        for series, n in [(E6, 6), (E12, 12), (E24, 24), (E96, 96)]:
            assert len(series.mantissas) == n

    def test_invalid_series_rejected(self):
        with pytest.raises(QuantityError):
            ESeries("E6", (1.0, 1.5, 2.2))
        with pytest.raises(QuantityError):
            ESeries("E2", (1.5, 1.0))
        with pytest.raises(QuantityError):
            ESeries("E2", (1.0, 10.0))


class TestQuantityInvariants:
    def test_rejects_nan(self):
        with pytest.raises(QuantityError):
            Quantity(math.nan, "volt")

    def test_rejects_unknown_unit(self):
        with pytest.raises(QuantityError):
            Quantity(1.0, "furlong")
        with pytest.raises(QuantityError, match="^unknown unit tag 'bogus'$"):
            parse_quantity("1", "bogus")

    def test_rejects_negative_frequency(self):
        with pytest.raises(QuantityError):
            Quantity(-50.0, "hertz")

    @pytest.mark.parametrize("build", [
        lambda: Quantity._make((math.inf, "volt")),
        lambda: Quantity(1.0, "ohm")._replace(magnitude=-5.0),
        lambda: Quantity(1.0, "ohm")._replace(unit="furlong"),
        lambda: ESeries._make(("E2", (1.5, 1.0))),
        lambda: E12._replace(mantissas=E12.mantissas[:-1]),
    ], ids=["quantity-make", "quantity-replace-magnitude", "quantity-replace-unit",
            "series-make", "series-replace"])
    def test_make_and_replace_check_too(self, build):
        with pytest.raises(QuantityError):
            build()

    def test_valid_replace_keeps_the_type(self):
        q = Quantity(1.0, "ohm")._replace(magnitude=4.7e3)
        assert type(q) is Quantity and q == Quantity(4.7e3, "ohm") and str(q) == "4.7kΩ"
        assert E12._replace(name="E12") == E12

    def test_parse_number_prefix(self):
        assert parse_number("2.4056m") == pytest.approx(2.4056e-3, rel=1e-15)
        assert parse_number(" -1.5k ") == -1500.0
        for bad in ("x", "470Ω", "2.2mF", "1kk"):
            with pytest.raises(QuantityError):
                parse_number(bad)
