"""Sizing equations for the touch-alarm circuit and the full design report.

Covers the 555 monostable/astable timing, LED current limiting, supply
rectification (PIV and filter capacitor), the relay driver base resistor,
the speaker amplifier power chain, and the control-pin coupling that turns
the carrier oscillator into a two-tone siren.  ``verify_reference_values``
audits the computed results against the worked figures quoted in the
original design write-up and flags the arithmetic slips it contains, and
``write_report`` renders either report as text or ``name=value`` lines.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .units import (E6, E12, Checked, CircuitFileError, DesignError, ExportError, Quantity, QuantityError,
                    format_quantity, lines, parse_quantity, quoted, snap_preferred)

LN2 = math.log(2.0)

# The 555 control pin sits on an internal 5k/5k/5k ladder: seen from the pin
# that is a 2/3·Vcc source behind 5k ∥ 10k.
CONTROL_PIN_THEVENIN_OHMS = 5e3 * 10e3 / 15e3

# Ideal base resistances beyond this are reported as an error (the drive
# current has effectively vanished).
BASE_RESISTOR_CAP_OHMS = 10e6


# circuit-file key -> (unit tag, the reference design's stock value), in field order
FIELDS = {
    "mains_voltage": ("volt", 240.0),
    "transformer_secondary": ("volt", 18.0),
    "fuse_rating": ("ampere", 1.0),
    "regulator_voltage": ("volt", 12.0),
    "regulator_current": ("ampere", 0.5),
    "ripple_frequency": ("hertz", 50.0),
    "ripple_factor": ("dimensionless", 0.05),
    "diode_piv_rating": ("volt", 50.0),
    "r1": ("ohm", 470.0),
    "r2": ("ohm", 980.0),
    "r3": ("ohm", 220e3),
    "r4": ("ohm", 10.8e6),  # sensor sensitivity; carried but drives no equation
    "r5": ("ohm", 4.7e3),
    "r6": ("ohm", 1e3),
    "r7": ("ohm", 100e3),
    "r8": ("ohm", 100e3),
    "r9": ("ohm", 300e3),
    "r10": ("ohm", 2.2e3),
    "r11": ("ohm", 1e3),
    "r12": ("ohm", 22e3),
    "c1": ("farad", 2200e-6),
    "c2": ("farad", 47e-6),
    "c3": ("farad", 0.01e-6),  # decoupling; no governing equation
    "c4": ("farad", 0.01e-6),
    "c5": ("farad", 47e-6),  # control-pin bypass; no governing equation
    "c6": ("farad", 47e-6),
    "vcc": ("volt", 12.0),
    "v_led": ("volt", 2.2),
    "i_led_max": ("ampere", 0.035),
    "i_led_run": ("ampere", 0.01),
    "v_be": ("volt", 0.6),
    "tr1_hfe": ("dimensionless", 25.0),
    "tr1_saturation_factor": ("dimensionless", 2.0),
    "tr2_hfe": ("dimensionless", 10.0),  # audited value; the write-up's "gain = 100" contradicts its own power figure
    "amp_base_resistance": ("ohm", 300.0),
    "relay_coil_resistance": ("ohm", 400.0),
    "speaker_impedance": ("ohm", 8.0),
    "speaker_power_rating": ("watt", 5.0),
}
FIELD_UNITS = {key: unit for key, (unit, _) in FIELDS.items()}


class CircuitSpec(Checked, namedtuple("CircuitSpec", FIELDS, defaults=[s for _, s in FIELDS.values()])):
    """Component roster and electrical assumptions of the alarm circuit; defaults are stock."""

    __slots__ = ()

    def validate(self) -> None:
        """Raise DesignError naming the first field that violates an invariant."""
        fields = self._asdict()
        _require("a finite number", **fields)
        _require("> 0", **{name: value for name, value in fields.items()
                           if FIELD_UNITS[name] in ("ohm", "farad", "ampere", "hertz", "watt")})
        _require(">= 0", **{name: value for name, value in fields.items() if FIELD_UNITS[name] == "volt"})
        _require("in (0, 1)", ripple_factor=self.ripple_factor)
        _require(">= 1", tr1_hfe=self.tr1_hfe, tr2_hfe=self.tr2_hfe,
                 tr1_saturation_factor=self.tr1_saturation_factor)
        if self.vcc <= self.v_be:
            raise DesignError("vcc: must exceed v_be")
        if self.transformer_secondary < self.regulator_voltage:
            raise DesignError("transformer_secondary: must be >= regulator_voltage")


def parse_circuit(text: str) -> CircuitSpec:
    """Parse ``key = value`` circuit-file text into a CircuitSpec.

    Unknown keys are errors; omitted keys keep the stock defaults.  A spec that
    breaks a rule of ``CircuitSpec.validate`` raises CircuitFileError with its text.
    """
    overrides: dict[str, float] = {}
    for lineno, raw in enumerate(lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CircuitFileError(f"line {lineno}: expected 'key = value', got {quoted(raw)}")
        key, _, value_text = line.partition("=")
        key = key.strip().lower()
        if key not in FIELD_UNITS:
            raise CircuitFileError(f"line {lineno}: unknown key {quoted(key)}")
        if key in overrides:
            raise CircuitFileError(f"line {lineno}: duplicate key {quoted(key)}")
        try:
            overrides[key] = parse_quantity(value_text.strip(), FIELD_UNITS[key]).magnitude
        except QuantityError as exc:
            raise CircuitFileError(f"line {lineno}: {exc}") from exc
    try:
        return CircuitSpec(**overrides)
    except DesignError as exc:
        raise CircuitFileError(str(exc)) from exc


# --- individual design equations -----------------------------------------------


# The domain rules of ``_require``, keyed by how its message states them.  Every
# equation checks "a finite number" first, so the others compare numbers only.
_RULES = {"a finite number": lambda x: isinstance(x, (int, float)) and math.isfinite(x),
          "> 0": lambda x: x > 0, ">= 0": lambda x: x >= 0, ">= 1": lambda x: x >= 1,
          "in (0, 1)": lambda x: 0.0 < x < 1.0}


def _require(rule: str, **values: float) -> None:
    """Raise DesignError naming the first of the values that breaks ``rule``."""
    for name, value in values.items():
        if not _RULES[rule](value):
            raise DesignError(f"{name}: must be {rule}, got {value!r}")


def stage(quantity: str, fn, *args, **figures: str):
    """``fn(*args)``, with any domain error prefixed by the figure that failed: ``figures[name]``
    when the error names ``fn``'s result field ``name``, else ``quantity``."""
    try:
        return fn(*args)
    except (DesignError, QuantityError) as exc:
        raise DesignError(f"{figures.get(str(exc).partition(':')[0], quantity)}: {exc}") from exc


def monostable_period(r: float, c: float) -> float:
    """One-shot pulse width: 1.1·R·C."""
    _require("a finite number", r=r, c=c)
    _require("> 0", r=r)
    _require(">= 0", c=c)
    period = 1.1 * r * c
    _require("a finite number", **{"1.1*r*c": period})
    return period


class AstableTimes(namedtuple("AstableTimes", "t1 t2 period frequency duty")):
    __slots__ = ()


def _astable(ra: float, rb: float, c: float, times) -> AstableTimes:
    """``AstableTimes`` of the (t1, t2) that ``times()`` gives once ra, rb and c pass the checks."""
    _require("a finite number", ra=ra, rb=rb, c=c)
    _require(">= 0", ra=ra)
    _require("> 0", rb=rb, c=c)
    t1, t2 = times()
    period = t1 + t2
    frequency = 1.0 / period if period else math.inf
    if not all(math.isfinite(x) for x in (t1, t2, period, frequency)):
        raise DesignError(f"astable times are not finite: t1={t1:g} s, t2={t2:g} s, "
                          f"period={period:g} s, frequency={frequency:g} Hz")
    return AstableTimes(t1, t2, period, frequency, t1 / period)


def astable_times(ra: float, rb: float, c: float) -> AstableTimes:
    """Free-running charge/discharge times: t1 = ln2·(Ra+Rb)·C, t2 = ln2·Rb·C."""
    return _astable(ra, rb, c, lambda: (LN2 * (ra + rb) * c, LN2 * rb * c))


def astable_times_cv(ra: float, rb: float, c: float, vcc: float, v_ctl: float) -> AstableTimes:
    """Astable times with the upper threshold moved to v_ctl.

    The capacitor charges from v_ctl/2 up to v_ctl and discharges back to
    v_ctl/2, so t1 = (Ra+Rb)·C·ln((Vcc − v_ctl/2)/(Vcc − v_ctl)) and
    t2 = Rb·C·ln 2.  At v_ctl = 2/3·Vcc this reduces to astable_times.
    """
    _require("a finite number", vcc=vcc, v_ctl=v_ctl)
    if not 0.0 < v_ctl < vcc:
        raise DesignError(f"v_ctl: must be inside (0, vcc), got {v_ctl!r} with vcc={vcc!r}")
    ratio = math.log((vcc - v_ctl / 2.0) / (vcc - v_ctl))
    return _astable(ra, rb, c, lambda: ((ra + rb) * c * ratio, rb * c * LN2))


class ModulationVoltages(namedtuple("ModulationVoltages", "v_ctl_low v_ctl_high")):
    __slots__ = ()


def modulation_voltages(vcc: float, r9: float) -> ModulationVoltages:
    """Control-pin voltages with the modulator output coupled through r9.

    Two-source node: internal 2/3·Vcc behind the 5k ∥ 10k ladder, external
    modulator output (0 V or Vcc) behind r9.
    """
    _require("a finite number", vcc=vcc, r9=r9)
    _require("> 0", vcc=vcc, r9=r9)
    _require("a finite number", **{"1/r9": 1.0 / r9, "vcc/r9": vcc / r9})
    r_th = CONTROL_PIN_THEVENIN_OHMS
    internal = (2.0 / 3.0) * vcc / r_th
    conductance = 1.0 / r_th + 1.0 / r9

    def node(v_mod: float) -> float:
        return (internal + v_mod / r9) / conductance

    volts = ModulationVoltages(v_ctl_low=node(0.0), v_ctl_high=node(vcc))
    _require("a finite number", v_ctl_high=volts.v_ctl_high)
    return volts


class LedResistor(namedtuple("LedResistor", "r_ideal r_snapped i_actual")):
    __slots__ = ()


def led_resistor(v_supply: float, v_led: float, i_led: float) -> LedResistor:
    """Current-limiting resistor: (V_supply − V_led)/I_led, snapped to E12."""
    _require("a finite number", v_supply=v_supply, v_led=v_led, i_led=i_led)
    if v_supply <= v_led:
        raise DesignError(f"v_supply: must exceed v_led ({v_supply!r} <= {v_led!r})")
    _require("> 0", i_led=i_led)
    r_ideal = (v_supply - v_led) / i_led
    r_snapped = stage("r_ideal", snap_preferred, r_ideal, E12)
    i_actual = (v_supply - v_led) / r_snapped
    _require("a finite number", i_actual=i_actual)
    return LedResistor(r_ideal, r_snapped, i_actual)


class FilterCapacitor(namedtuple("FilterCapacitor", "r_load c_ideal c_snapped")):
    __slots__ = ()


def filter_capacitor(f: float, ripple_factor: float, v_reg: float, i_reg: float) -> FilterCapacitor:
    """Full-wave reservoir capacitor: C = 1/(4·√3·f·y·R_load), snapped to E6."""
    _require("a finite number", f=f, ripple_factor=ripple_factor, v_reg=v_reg, i_reg=i_reg)
    _require("> 0", f=f)
    _require("in (0, 1)", ripple_factor=ripple_factor)
    _require("> 0", v_reg=v_reg, i_reg=i_reg)
    r_load = v_reg / i_reg
    product = 4.0 * math.sqrt(3.0) * f * ripple_factor * r_load
    _require("> 0", **{"4*sqrt(3)*f*y*r_load": product})
    c_ideal = 1.0 / product
    return FilterCapacitor(r_load, c_ideal, stage("c_ideal", snap_preferred, c_ideal, E6))


class PivCheck(namedtuple("PivCheck", "piv within_rating")):
    __slots__ = ()


def peak_inverse_voltage(v_secondary: float, diode_rating: float) -> PivCheck:
    """Bridge rectifier PIV = 2 × secondary voltage, checked strictly."""
    _require("a finite number", v_secondary=v_secondary, diode_rating=diode_rating)
    _require(">= 0", v_secondary=v_secondary)
    piv = 2.0 * v_secondary
    _require("a finite number", **{"2*v_secondary": piv})
    return PivCheck(piv, piv < diode_rating)


class BaseResistor(namedtuple("BaseResistor", "i_c i_b r_ideal r_snapped")):
    __slots__ = ()


def base_resistor(vcc: float, v_be: float, coil_resistance: float, hfe: float,
                  saturation_factor: float) -> BaseResistor:
    """Relay-driver base resistor with overdrive into saturation, snapped to E12."""
    _require("a finite number", vcc=vcc, v_be=v_be, coil_resistance=coil_resistance,
             hfe=hfe, saturation_factor=saturation_factor)
    if vcc <= v_be:
        raise DesignError(f"vcc: must exceed v_be ({vcc!r} <= {v_be!r})")
    _require("> 0", coil_resistance=coil_resistance)
    _require(">= 1", hfe=hfe, saturation_factor=saturation_factor)
    i_c = vcc / coil_resistance
    i_b = saturation_factor * i_c / hfe
    _require("> 0", i_b=i_b)  # vcc / coil_resistance can underflow to 0
    r_ideal = (vcc - v_be) / i_b
    if r_ideal > BASE_RESISTOR_CAP_OHMS:
        raise DesignError(
            f"base resistance {r_ideal:.3g}Ω exceeds the {BASE_RESISTOR_CAP_OHMS:.0e}Ω cap; "
            "the requested drive current is impractically small"
        )
    return BaseResistor(i_c, i_b, r_ideal, stage("r_ideal", snap_preferred, r_ideal, E12))


class AmplifierPower(namedtuple("AmplifierPower", "i_b i_e p_out")):
    __slots__ = ()


def amplifier_power(vcc: float, v_be: float, r_base: float, hfe: float) -> AmplifierPower:
    """Emitter-follower output power: I_E = (1+hfe)·I_B, P = I_E·Vcc."""
    _require("a finite number", vcc=vcc, v_be=v_be, r_base=r_base, hfe=hfe)
    if vcc < v_be:
        raise DesignError(f"vcc: must be >= v_be ({vcc!r} < {v_be!r})")
    _require("> 0", r_base=r_base)
    _require(">= 1", hfe=hfe)
    i_b = (vcc - v_be) / r_base
    i_e = (1.0 + hfe) * i_b
    power = AmplifierPower(i_b, i_e, i_e * vcc)
    _require("a finite number", **power._asdict())
    return power


def trigger_threshold(vcc: float) -> float:
    """Touch-trigger threshold: one third of the supply voltage."""
    _require("a finite number", vcc=vcc)
    _require(">= 0", vcc=vcc)
    return vcc / 3.0


# --- aggregate report -----------------------------------------------------------


class DesignRecord(namedtuple("DesignRecord", "name ideal unit formula snapped", defaults=[None])):
    __slots__ = ()


class _Named(tuple):
    """A tuple of records, each with a ``name`` field."""

    __slots__ = ()

    def get(self, name: str):
        """The first record called ``name``; KeyError if there is none."""
        for record in self:
            if record.name == name:
                return record
        raise KeyError(name)


class DesignReport(_Named):
    """Every computed sizing/timing quantity, in a fixed order."""

    __slots__ = ()

    def value(self, name: str) -> float:
        return self.get(name).ideal


def compute_report(spec: CircuitSpec) -> DesignReport:
    """Run every design equation against the spec and collect the results."""
    records: list[DesignRecord] = []

    led1 = stage("r1_ideal", led_resistor, spec.transformer_secondary, spec.v_led, spec.i_led_max,
                 i_actual="led1_current")
    records.append(DesignRecord("r1_ideal", led1.r_ideal, "ohm",
                                "(v_secondary-v_led)/i_led_max", led1.r_snapped))
    records.append(DesignRecord("led1_current", led1.i_actual, "ampere",
                                "(v_secondary-v_led)/r1_snapped"))

    led2 = stage("r2_ideal", led_resistor, spec.vcc, spec.v_led, spec.i_led_run, i_actual="led2_current")
    records.append(DesignRecord("r2_ideal", led2.r_ideal, "ohm",
                                "(vcc-v_led)/i_led_run", led2.r_snapped))
    records.append(DesignRecord("led2_current", led2.i_actual, "ampere",
                                "(vcc-v_led)/r2_snapped"))

    piv = stage("piv", peak_inverse_voltage, spec.transformer_secondary, spec.diode_piv_rating)
    records.append(DesignRecord("piv", piv.piv, "volt", "2*v_secondary"))

    filt = stage("filter_c_ideal", filter_capacitor, spec.ripple_frequency,
                 spec.ripple_factor, spec.regulator_voltage, spec.regulator_current)
    records.append(DesignRecord("filter_c_ideal", filt.c_ideal, "farad",
                                "1/(4*sqrt(3)*f*y*r_load)", filt.c_snapped))

    timeout = stage("trigger_timeout", monostable_period, spec.r3, spec.c2)
    records.append(DesignRecord("trigger_timeout", timeout, "second", "1.1*r3*c2"))
    if not timeout or math.isinf(1.0 / timeout):
        raise DesignError(f"trigger_frequency: 1/{timeout!r} s is not finite")
    records.append(DesignRecord("trigger_frequency", 1.0 / timeout, "hertz", "1/trigger_timeout"))
    records.append(DesignRecord("trigger_threshold",
                                stage("trigger_threshold", trigger_threshold, spec.vcc),
                                "volt", "vcc/3"))

    base = stage("r5_ideal", base_resistor, spec.vcc, spec.v_be, spec.relay_coil_resistance,
                 spec.tr1_hfe, spec.tr1_saturation_factor, i_b="trigger_i_b")
    records.append(DesignRecord("r5_ideal", base.r_ideal, "ohm",
                                "(vcc-v_be)/i_b", base.r_snapped))
    records.append(DesignRecord("trigger_i_c", base.i_c, "ampere", "vcc/relay_coil"))
    records.append(DesignRecord("trigger_i_b", base.i_b, "ampere", "sat_factor*i_c/hfe"))

    for prefix, ra, rb, c in (("high", "r7", "r8", "c4"), ("low", "r11", "r12", "c6")):
        times = stage(f"{prefix}_t1", astable_times, getattr(spec, ra), getattr(spec, rb), getattr(spec, c))
        records += [
            DesignRecord(f"{prefix}_t1", times.t1, "second", f"ln2*({ra}+{rb})*{c}"),
            DesignRecord(f"{prefix}_t2", times.t2, "second", f"ln2*{rb}*{c}"),
            DesignRecord(f"{prefix}_period", times.period, "second", "t1+t2"),
            DesignRecord(f"{prefix}_freq", times.frequency, "hertz", "1/period"),
            DesignRecord(f"{prefix}_duty", times.duty, "dimensionless", "t1/period"),
        ]

    amp = stage("amp_i_b", amplifier_power, spec.vcc, spec.v_be,
                spec.amp_base_resistance, spec.tr2_hfe, i_e="amp_i_e", p_out="amp_p_out")
    records.append(DesignRecord("amp_i_b", amp.i_b, "ampere", "(vcc-v_be)/amp_base_r"))
    records.append(DesignRecord("amp_i_e", amp.i_e, "ampere", "(1+hfe)*i_b"))
    records.append(DesignRecord("amp_p_out", amp.p_out, "watt", "i_e*vcc"))

    volts = stage("f_lo_tone", modulation_voltages, spec.vcc, spec.r9)
    for name, v_ctl in (("f_lo_tone", "v_ctl_high"), ("f_hi_tone", "v_ctl_low")):
        times = stage(name, astable_times_cv, spec.r7, spec.r8, spec.c4, spec.vcc, getattr(volts, v_ctl))
        records.append(DesignRecord(name, times.frequency, "hertz", f"cv({v_ctl})"))
    return DesignReport(records)


# --- audit against the reference write-up's worked figures ----------------------


class ErrataEntry(namedtuple("ErrataEntry", "name computed claimed unit verdict tolerance")):
    """One audited figure: ``verdict`` is "MATCH" or "ERRATUM"."""

    __slots__ = ()


class ErrataReport(_Named):
    __slots__ = ()

    @property
    def has_errata(self) -> bool:
        return any(entry.verdict == "ERRATUM" for entry in self)


# (name, claimed value, default tolerance), each in its report record's unit.
# Names ending in _snapped compare the snapped column of the matching _ideal
# record; amp_gain, dimensionless, is recovered from i_e/i_b.  The duty figure
# gets a tighter default gate: the computed ratio is exact, so anything past
# rounding noise is a real slip.
REFERENCE_FIGURES = (
    ("r1_ideal", 451.43, 0.01),
    ("r1_snapped", 470.0, 0.01),
    ("r2_ideal", 980.0, 0.01),
    ("led2_current", 0.012, 0.01),
    ("piv", 36.0, 0.01),
    ("filter_c_ideal", 2.4056e-3, 0.01),
    ("filter_c_snapped", 2.2e-3, 0.01),
    ("trigger_timeout", 11.374, 0.01),
    ("trigger_i_c", 0.03, 0.01),
    ("trigger_i_b", 0.0024, 0.01),
    ("r5_ideal", 47050.0, 0.01),
    ("high_t1", 1.386e-3, 0.01),
    ("high_t2", 0.693e-3, 0.01),
    ("high_freq", 481.0, 0.01),
    ("high_duty", 0.6695, 0.001),
    ("low_t1", 1.041, 0.01),
    ("low_t2", 0.9957, 0.01),
    ("low_period", 2.037, 0.01),
    ("low_freq", 0.491, 0.01),
    ("amp_i_b", 0.038, 0.01),
    ("amp_i_e", 0.418, 0.01),
    ("amp_p_out", 5.016, 0.01),
    ("amp_gain", 100.0, 0.01),
)


def verify_reference_values(report: DesignReport, tolerance: float | None = None) -> ErrataReport:
    """Compare the report against the reference figures entry by entry.

    ``tolerance`` overrides every entry's default gate when given; the
    report prints it as a percentage, so ``tolerance * 100`` must be finite.
    """
    if tolerance is not None and not 0.0 < tolerance * 100 < math.inf:
        raise DesignError(f"tolerance: must be finite and > 0 as a percentage, got {tolerance!r}")
    entries = []
    for name, claimed, default_tol in REFERENCE_FIGURES:
        if name == "amp_gain":
            computed, unit = report.value("amp_i_e") / report.value("amp_i_b") - 1.0, "dimensionless"
        else:
            record = report.get(name.replace("_snapped", "_ideal"))
            computed, unit = record.snapped if name.endswith("_snapped") else record.ideal, record.unit
        tol = default_tol if tolerance is None else tolerance
        relative_error = abs(computed - claimed) / abs(claimed)
        verdict = "MATCH" if relative_error <= tol else "ERRATUM"
        entries.append(ErrataEntry(name, computed, claimed, unit, verdict, tol))
    return ErrataReport(entries)


# --- text / kv rendering -------------------------------------------------------


def write_report(report: DesignReport | ErrataReport, format: str = "text") -> bytes:
    """Render a report as an aligned text table or stable ``name=value`` lines."""
    if format not in ("text", "kv"):
        raise ExportError(f"format must be 'text' or 'kv', got {format!r}")
    if isinstance(report, DesignReport):
        text = _design_kv(report) if format == "kv" else _design_text(report)
    elif isinstance(report, ErrataReport):
        text = (_errata_kv if format == "kv" else _errata_text)(report) if report else "no entries\n"
    else:
        raise ExportError(f"cannot render {type(report).__name__}")
    return text.encode("utf-8")


def _table(rows: list[tuple[str, str, str, str]], align: str) -> str:
    """Four-cell rows as aligned text lines: the first three cells are padded to their column's
    widest, on the side that ``align`` gives each (``<`` or ``>``), and the cells are two spaces apart."""
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    padded = ([f"{cell:{side}{width}}" for cell, side, width in zip(row, align, widths)] + [row[3]]
              for row in rows)
    return "".join("  ".join(cells).rstrip() + "\n" for cells in padded)


def _design_kv(report: DesignReport) -> str:
    lines = []
    for record in report:
        lines.append(f"{record.name}={format_quantity(Quantity(record.ideal, record.unit))}")
        if record.snapped is not None:
            lines.append(f"{record.name.replace('_ideal', '_snapped')}="
                         f"{format_quantity(Quantity(record.snapped, record.unit))}")
    return "\n".join(lines) + "\n"


def _design_text(report: DesignReport) -> str:
    rows = [("quantity", "ideal", "snapped", "formula")]
    for record in report:
        snapped = "-" if record.snapped is None else format_quantity(
            Quantity(record.snapped, record.unit), digits=6)
        rows.append((record.name, format_quantity(Quantity(record.ideal, record.unit), digits=6),
                     snapped, record.formula))
    return _table(rows, "<>>")


def _errata_kv(report: ErrataReport) -> str:
    return "\n".join(f"{entry.name}={entry.verdict}" for entry in report) + "\n"


def _errata_text(report: ErrataReport) -> str:
    rows = []
    for entry in report:
        comparison = (
            f"{format_quantity(Quantity(entry.computed, entry.unit), digits=6)}"
            f" vs claimed {format_quantity(Quantity(entry.claimed, entry.unit), digits=6)}"
        )
        rows.append((entry.name, comparison, entry.verdict, f"(tol {entry.tolerance * 100:g}%)"))
    return _table(rows, "<<<")
