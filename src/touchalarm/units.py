"""Unit-tagged scalar quantities with SI-prefix text parsing/formatting,
plus the IEC 60063 preferred-value (E-series) tables and snapping.

The error classes of ``design``, ``simulator`` and ``export`` live here too,
beside ``QuantityError``, so the command line maps every error to an exit
code without importing those modules.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterator

UNIT_SYMBOLS = {
    "ohm": "Ω",
    "farad": "F",
    "volt": "V",
    "ampere": "A",
    "second": "s",
    "hertz": "Hz",
    "watt": "W",
    "dimensionless": "",
}

UNITS = tuple(UNIT_SYMBOLS)

# Accepted unit suffix spellings ("ohm" for plain-ASCII config files).
_UNIT_SPELLINGS = {**{symbol: unit for unit, symbol in UNIT_SYMBOLS.items() if symbol}, "ohm": "ohm"}

_OUTPUT_PREFIXES = {-12: "p", -9: "n", -6: "µ", -3: "m", 0: "", 3: "k", 6: "M", 9: "G"}

# Each output prefix; on input "u" and "μ" (Greek mu) also mean micro, as "µ" (micro sign) does.
PREFIX_FACTORS = {**{prefix: float(f"1e{e}") for e, prefix in _OUTPUT_PREFIXES.items() if prefix},
                  "u": 1e-6, "μ": 1e-6}

# These units never take a negative magnitude.
_NONNEGATIVE_UNITS = frozenset({"ohm", "farad", "hertz"})

ROUNDTRIP_RTOL = 1e-12

_NUMBER_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")

_UNIT_SPELLINGS_BY_LENGTH = sorted(_UNIT_SPELLINGS, key=len, reverse=True)


# Longest input text that an error message quotes whole.
QUOTE_LIMIT = 80
_LINE_END = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")  # where str.splitlines cuts


def quoted(text: str) -> str:
    """``repr(text)`` for an error message; text over QUOTE_LIMIT characters is cut and marked."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return f"{text[:QUOTE_LIMIT]!r}... ({len(text)} characters)"


def lines(text: str, piece: int = 2**16) -> Iterator[str]:
    """``text.splitlines()``, in pieces that each run to the first line end after ``piece`` characters."""
    start = 0
    while start < len(text):
        end = found.end() if (found := _LINE_END.search(text, start + piece)) else len(text)
        yield from text[start:end].splitlines()
        start = end


class QuantityError(ValueError):
    """Malformed quantity text, or a magnitude outside the unit's domain."""


class DesignError(ValueError):
    """An equation was fed values outside its physical domain."""


class CircuitFileError(ValueError):
    """A circuit description file could not be parsed or validated."""


class ScenarioError(ValueError):
    """Scenario text or event sequence violates the format invariants."""


class SimulationError(ValueError):
    """Simulation configuration is unusable (e.g. sample rate too low)."""


class ExportError(ValueError):
    """Export parameters do not fit the data being written."""


class Checked(tuple):
    """Base of a record that runs ``validate()`` whenever one is built; it goes before the namedtuple base."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.validate()
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # _replace builds through it


class Quantity(Checked, namedtuple("Quantity", "magnitude unit")):
    """A finite scalar tagged with one of the supported units."""

    __slots__ = ()

    def validate(self) -> None:
        if self.unit not in UNITS:
            raise QuantityError(f"unknown unit tag {self.unit!r}")
        if not isinstance(self.magnitude, (int, float)) or not math.isfinite(self.magnitude):
            raise QuantityError(f"magnitude must be finite, got {self.magnitude!r}")
        if self.unit in _NONNEGATIVE_UNITS and self.magnitude < 0:
            raise QuantityError(f"{self.unit} magnitude must be >= 0, got {self.magnitude!r}")

    def __str__(self) -> str:
        return format_quantity(self)


def parse_quantity(text: str, expected_unit: str) -> Quantity:
    """Parse ``<decimal><SI prefix?><unit suffix?>`` into a Quantity.

    The unit suffix is optional but, when present, must agree with
    ``expected_unit`` ("220kΩ" parses as ohm, "220kF" does not).
    """
    if expected_unit not in UNITS:
        raise QuantityError(f"unknown unit tag {expected_unit!r}")
    return Quantity(_parse_prefixed(text, expected_unit), expected_unit)


def parse_number(text: str) -> float:
    """Parse a bare number with an optional SI prefix (no unit suffix)."""
    return _parse_prefixed(text, None)


def _parse_prefixed(text: str, expected_unit: str | None) -> float:
    """``<decimal><SI prefix?>``, plus an optional unit suffix when a unit is expected."""
    s = text.strip()
    m = _NUMBER_RE.match(s)
    if m is None:
        raise QuantityError(f"malformed number in {quoted(text)}")
    value = float(m.group(0))
    rest = s[m.end():]

    if rest and expected_unit is not None:
        for spelling in _UNIT_SPELLINGS_BY_LENGTH:
            if rest.endswith(spelling):
                found = _UNIT_SPELLINGS[spelling]
                if found != expected_unit:
                    raise QuantityError(
                        f"unit suffix {spelling!r} in {quoted(text)} conflicts with "
                        f"expected unit {expected_unit!r}"
                    )
                rest = rest[: -len(spelling)]
                break
    if rest:
        try:
            value *= PREFIX_FACTORS[rest]
        except KeyError:
            raise QuantityError(f"unknown SI prefix {quoted(rest)} in {quoted(text)}") from None
    return value


def format_number(x: float, digits: int | None = None) -> str:
    """Plain decimal without prefix or unit; shortest round-trip by default."""
    return "0" if x == 0 else _mantissa_for(x, 0, digits)


def format_quantity(q: Quantity, digits: int | None = None) -> str:
    """Shortest ``<decimal><prefix><unit>`` that re-parses to q within 1e-12.

    With ``digits`` set, the mantissa is fixed to that many significant
    digits instead (display use; not guaranteed to round-trip).
    Dimensionless values are printed as plain decimals, no prefix.
    """
    symbol = UNIT_SYMBOLS[q.unit]
    x = q.magnitude
    if x == 0:
        return "0" + symbol
    if q.unit == "dimensionless":
        return format_number(x, digits)

    exponent = int(math.floor(math.log10(abs(x)) / 3.0)) * 3
    exponent = min(9, max(-12, exponent))
    mantissa_str = _mantissa_for(x, exponent, digits)
    # Rounding can push the mantissa into the next prefix step (999.96 -> "1000").
    if abs(float(mantissa_str)) >= 1000.0 and exponent < 9:
        exponent += 3
        mantissa_str = _mantissa_for(x, exponent, digits)
    return mantissa_str + _OUTPUT_PREFIXES[exponent] + symbol


def _mantissa_for(x: float, exponent: int, digits: int | None) -> str:
    factor = PREFIX_FACTORS[_OUTPUT_PREFIXES[exponent]] if exponent else 1.0
    mantissa = x / factor
    if digits is not None:
        return f"{mantissa:.{digits}g}"
    return _shortest_digits(mantissa, factor, x)


def _shortest_digits(mantissa: float, factor: float, target: float) -> str:
    # Fewer digits than the integer part can only produce a longer
    # exponent-notation string, so start there.
    start = max(1, int(math.floor(math.log10(abs(mantissa)))) + 1) if mantissa else 1
    for precision in range(start, 18):
        s = f"{mantissa:.{precision}g}"
        if abs(float(s) * factor - target) <= ROUNDTRIP_RTOL * abs(target):
            return s
    return repr(mantissa)


# --- IEC 60063 preferred value series -----------------------------------------


class ESeries(Checked, namedtuple("ESeries", "name mantissas")):
    """One decade of preferred values, e.g. E12 = 1.0, 1.2, ... 8.2."""

    __slots__ = ()

    def validate(self) -> None:
        n = int(self.name[1:])
        if len(self.mantissas) != n:
            raise QuantityError(f"{self.name} must list {n} mantissas")
        if not all(lo < hi for lo, hi in zip(self.mantissas, self.mantissas[1:])):
            raise QuantityError(f"{self.name} mantissas must be strictly increasing")
        if self.mantissas[0] < 1.0 or self.mantissas[-1] >= 10.0:
            raise QuantityError(f"{self.name} mantissas must lie in [1.0, 10.0)")


E24 = ESeries("E24", (
    1.0, 1.1, 1.2, 1.3, 1.5, 1.6, 1.8, 2.0, 2.2, 2.4, 2.7, 3.0,
    3.3, 3.6, 3.9, 4.3, 4.7, 5.1, 5.6, 6.2, 6.8, 7.5, 8.2, 9.1,
))

# Every other member of the next series up; E96 is IEC 60063's rule, 10^(i/96) to three digits.
E12 = ESeries("E12", E24.mantissas[::2])
E6 = ESeries("E6", E12.mantissas[::2])
E96 = ESeries("E96", tuple(round(10 ** (i / 96), 2) for i in range(96)))

SERIES = {s.name: s for s in (E6, E12, E24, E96)}

SNAP_MODES = ("nearest", "up", "down")


def snap_preferred(x: float, series: ESeries | str = E12, mode: str = "nearest") -> float:
    """Snap x to a preferred value m × 10^k from the given series.

    nearest minimizes the relative error |candidate − x| / x with ties
    broken downward; up/down pick the closest member ≥ x / ≤ x.
    """
    if isinstance(series, str):
        try:
            series = SERIES[series]
        except KeyError:
            raise QuantityError(f"unknown series {series!r}") from None
    if mode not in SNAP_MODES:
        raise QuantityError(f"unknown snap mode {mode!r}")
    if not isinstance(x, (int, float)) or not math.isfinite(x) or x <= 0:
        raise QuantityError(f"snap needs a positive finite value, got {x!r}")

    # Building candidates from decimal strings keeps e.g. 4.7 × 10² exactly 470.0.
    decade = math.floor(math.log10(x))
    candidates = [
        float(f"{m:g}e{d}")
        for d in (decade - 1, decade, decade + 1)
        for m in series.mantissas
    ]
    candidates = [c for c in candidates if math.isfinite(c) and c > 0]
    if mode == "nearest":
        return min(candidates, key=lambda c: (abs(c - x) / x, c))
    if mode == "up":
        above = [c for c in candidates if c >= x]
        if not above:
            raise QuantityError(f"{x!r} is above the representable range")
        return min(above)
    return max(c for c in candidates if c <= x)
