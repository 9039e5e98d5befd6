"""Sizing equations for the touch-alarm circuit and the full design report.

Covers the 555 monostable/astable timing, LED current limiting, supply
rectification (PIV and filter capacitor), the relay driver base resistor,
the speaker amplifier power chain, and the control-pin coupling that turns
the carrier oscillator into a two-tone siren.  ``verify_reference_values``
audits the computed results against the worked figures quoted in the
original design write-up and flags the arithmetic slips it contains, and
``write_report`` renders either report as text or ``name=value`` lines.

The error classes of ``simulator`` and ``export`` live here too, beside the
design's own, so the command line maps every error to an exit code without
importing those numpy-backed modules.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .units import (E6, E12, ESeries, Quantity, QuantityError, format_quantity, parse_quantity, quoted,
                    snap_preferred)

LN2 = math.log(2.0)
LN3 = math.log(3.0)

# The 555 control pin sits on an internal 5k/5k/5k ladder: seen from the pin
# that is a 2/3·Vcc source behind 5k ∥ 10k.
CONTROL_PIN_THEVENIN_OHMS = 5e3 * 10e3 / 15e3

# Ideal base resistances beyond this are reported as an error (the drive
# current has effectively vanished).
BASE_RESISTOR_CAP_OHMS = 10e6


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


class CircuitSpec(NamedTuple):
    """Component roster and electrical assumptions of the alarm circuit.

    Defaults reproduce the reference design's stock values.
    """

    mains_voltage: float = 240.0
    transformer_secondary: float = 18.0
    fuse_rating: float = 1.0
    regulator_voltage: float = 12.0
    regulator_current: float = 0.5
    ripple_frequency: float = 50.0
    ripple_factor: float = 0.05
    diode_piv_rating: float = 50.0
    r1: float = 470.0
    r2: float = 980.0
    r3: float = 220e3
    r4: float = 10.8e6  # sensor sensitivity; carried but drives no equation
    r5: float = 4.7e3
    r6: float = 1e3
    r7: float = 100e3
    r8: float = 100e3
    r9: float = 300e3
    r10: float = 2.2e3
    r11: float = 1e3
    r12: float = 22e3
    c1: float = 2200e-6
    c2: float = 47e-6
    c3: float = 0.01e-6  # decoupling; no governing equation
    c4: float = 0.01e-6
    c5: float = 47e-6  # control-pin bypass; no governing equation
    c6: float = 47e-6
    vcc: float = 12.0
    v_led: float = 2.2
    i_led_max: float = 0.035
    i_led_run: float = 0.01
    v_be: float = 0.6
    tr1_hfe: float = 25.0
    tr1_saturation_factor: float = 2.0
    tr2_hfe: float = 10.0  # audited value; the write-up's "gain = 100" contradicts its own power figure
    amp_base_resistance: float = 300.0
    relay_coil_resistance: float = 400.0
    speaker_impedance: float = 8.0
    speaker_power_rating: float = 5.0

    def validate(self) -> None:
        """Raise DesignError naming the first field that violates an invariant."""
        for name, value in zip(self._fields, self):
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise DesignError(f"{name}: must be a finite number, got {value!r}")
        for name, value in zip(self._fields, self):
            if FIELD_UNITS[name] in ("ohm", "farad", "ampere", "hertz", "watt") and value <= 0:
                raise DesignError(f"{name}: must be > 0, got {value!r}")
        for name, value in zip(self._fields, self):
            if FIELD_UNITS[name] == "volt" and value < 0:
                raise DesignError(f"{name}: voltage must be >= 0")
        if not 0.0 < self.ripple_factor < 1.0:
            raise DesignError(f"ripple_factor: must be in (0, 1), got {self.ripple_factor!r}")
        if self.tr1_hfe < 1 or self.tr2_hfe < 1:
            raise DesignError("tr1_hfe/tr2_hfe: gain must be >= 1")
        if self.tr1_saturation_factor < 1:
            raise DesignError("tr1_saturation_factor: must be >= 1")
        if self.vcc <= self.v_be:
            raise DesignError("vcc: must exceed v_be")
        if self.transformer_secondary < self.regulator_voltage:
            raise DesignError("transformer_secondary: must be >= regulator_voltage")


# key -> unit tag, for the circuit file format
FIELD_UNITS = {
    "mains_voltage": "volt", "transformer_secondary": "volt", "fuse_rating": "ampere",
    "regulator_voltage": "volt", "regulator_current": "ampere",
    "ripple_frequency": "hertz", "ripple_factor": "dimensionless",
    "diode_piv_rating": "volt",
    **{f"r{i}": "ohm" for i in range(1, 13)},
    **{f"c{i}": "farad" for i in range(1, 7)},
    "vcc": "volt", "v_led": "volt", "i_led_max": "ampere", "i_led_run": "ampere",
    "v_be": "volt", "tr1_hfe": "dimensionless", "tr1_saturation_factor": "dimensionless",
    "tr2_hfe": "dimensionless", "amp_base_resistance": "ohm",
    "relay_coil_resistance": "ohm", "speaker_impedance": "ohm",
    "speaker_power_rating": "watt",
}


def parse_circuit(text: str) -> CircuitSpec:
    """Parse ``key = value`` circuit-file text into a validated CircuitSpec.

    Unknown keys are errors; omitted keys keep the stock defaults.
    """
    overrides: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    spec = CircuitSpec(**overrides)
    try:
        spec.validate()
    except DesignError as exc:
        raise CircuitFileError(str(exc)) from exc
    return spec


# --- individual design equations -----------------------------------------------


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise DesignError(f"{name}: must be a finite number, got {value!r}")


def monostable_period(r: float, c: float, model: str = "approx") -> float:
    """One-shot pulse width: 1.1·R·C (approx) or R·C·ln 3 (exact)."""
    _require_finite(r=r, c=c)
    if r <= 0:
        raise DesignError(f"r: must be > 0, got {r!r}")
    if c < 0:
        raise DesignError(f"c: must be >= 0, got {c!r}")
    if model == "approx":
        return 1.1 * r * c
    if model == "exact":
        return r * c * LN3
    raise DesignError(f"model: expected 'approx' or 'exact', got {model!r}")


class AstableTimes(NamedTuple):
    t1: float
    t2: float
    period: float
    frequency: float
    duty: float


def astable_times(ra: float, rb: float, c: float) -> AstableTimes:
    """Free-running charge/discharge times: t1 = ln2·(Ra+Rb)·C, t2 = ln2·Rb·C."""
    _require_finite(ra=ra, rb=rb, c=c)
    if ra < 0:
        raise DesignError(f"ra: must be >= 0, got {ra!r}")
    if rb <= 0:
        raise DesignError(f"rb: must be > 0, got {rb!r}")
    if c <= 0:
        raise DesignError(f"c: must be > 0, got {c!r}")
    t1 = LN2 * (ra + rb) * c
    t2 = LN2 * rb * c
    period = t1 + t2
    return AstableTimes(t1, t2, period, 1.0 / period, t1 / period)


def astable_times_cv(ra: float, rb: float, c: float, vcc: float, v_ctl: float) -> AstableTimes:
    """Astable times with the upper threshold moved to v_ctl.

    The capacitor charges from v_ctl/2 up to v_ctl and discharges back to
    v_ctl/2, so t1 = (Ra+Rb)·C·ln((Vcc − v_ctl/2)/(Vcc − v_ctl)) and
    t2 = Rb·C·ln 2.  At v_ctl = 2/3·Vcc this reduces to astable_times.
    """
    _require_finite(ra=ra, rb=rb, c=c, vcc=vcc, v_ctl=v_ctl)
    if ra < 0:
        raise DesignError(f"ra: must be >= 0, got {ra!r}")
    if rb <= 0:
        raise DesignError(f"rb: must be > 0, got {rb!r}")
    if c <= 0:
        raise DesignError(f"c: must be > 0, got {c!r}")
    if not 0.0 < v_ctl < vcc:
        raise DesignError(f"v_ctl: must be inside (0, vcc), got {v_ctl!r} with vcc={vcc!r}")
    t1 = (ra + rb) * c * math.log((vcc - v_ctl / 2.0) / (vcc - v_ctl))
    t2 = rb * c * LN2
    period = t1 + t2
    return AstableTimes(t1, t2, period, 1.0 / period, t1 / period)


class ModulationVoltages(NamedTuple):
    v_ctl_low: float
    v_ctl_high: float


def modulation_voltages(vcc: float, r9: float) -> ModulationVoltages:
    """Control-pin voltages with the modulator output coupled through r9.

    Two-source node: internal 2/3·Vcc behind the 5k ∥ 10k ladder, external
    modulator output (0 V or Vcc) behind r9.
    """
    _require_finite(vcc=vcc, r9=r9)
    if vcc <= 0:
        raise DesignError(f"vcc: must be > 0, got {vcc!r}")
    if r9 <= 0:
        raise DesignError(f"r9: must be > 0, got {r9!r}")
    r_th = CONTROL_PIN_THEVENIN_OHMS
    internal = (2.0 / 3.0) * vcc / r_th
    conductance = 1.0 / r_th + 1.0 / r9

    def node(v_mod: float) -> float:
        return (internal + v_mod / r9) / conductance

    return ModulationVoltages(v_ctl_low=node(0.0), v_ctl_high=node(vcc))


class LedResistor(NamedTuple):
    r_ideal: float
    r_snapped: float
    i_actual: float


def led_resistor(vcc: float, v_led: float, i_led: float, series: ESeries = E12) -> LedResistor:
    """Current-limiting resistor: (Vcc − V_led)/I_led, snapped to the series."""
    _require_finite(vcc=vcc, v_led=v_led, i_led=i_led)
    if vcc <= v_led:
        raise DesignError(f"vcc: must exceed v_led ({vcc!r} <= {v_led!r})")
    if i_led <= 0:
        raise DesignError(f"i_led: must be > 0, got {i_led!r}")
    r_ideal = (vcc - v_led) / i_led
    r_snapped = snap_preferred(r_ideal, series, "nearest")
    return LedResistor(r_ideal, r_snapped, (vcc - v_led) / r_snapped)


class FilterCapacitor(NamedTuple):
    r_load: float
    c_ideal: float
    c_snapped: float


def filter_capacitor(
    f: float, ripple_factor: float, v_reg: float, i_reg: float, series: ESeries = E6
) -> FilterCapacitor:
    """Full-wave reservoir capacitor: C = 1/(4·√3·f·y·R_load)."""
    _require_finite(f=f, ripple_factor=ripple_factor, v_reg=v_reg, i_reg=i_reg)
    if f <= 0:
        raise DesignError(f"f: must be > 0, got {f!r}")
    if not 0.0 < ripple_factor < 1.0:
        raise DesignError(f"ripple_factor: must be in (0, 1), got {ripple_factor!r}")
    if v_reg <= 0:
        raise DesignError(f"v_reg: must be > 0, got {v_reg!r}")
    if i_reg <= 0:
        raise DesignError(f"i_reg: must be > 0, got {i_reg!r}")
    r_load = v_reg / i_reg
    c_ideal = 1.0 / (4.0 * math.sqrt(3.0) * f * ripple_factor * r_load)
    return FilterCapacitor(r_load, c_ideal, snap_preferred(c_ideal, series, "nearest"))


class PivCheck(NamedTuple):
    piv: float
    within_rating: bool


def peak_inverse_voltage(v_secondary: float, diode_rating: float) -> PivCheck:
    """Bridge rectifier PIV = 2 × secondary voltage, checked strictly."""
    _require_finite(v_secondary=v_secondary, diode_rating=diode_rating)
    if v_secondary < 0:
        raise DesignError(f"v_secondary: must be >= 0, got {v_secondary!r}")
    piv = 2.0 * v_secondary
    return PivCheck(piv, piv < diode_rating)


class BaseResistor(NamedTuple):
    i_c: float
    i_b: float
    r_ideal: float
    r_snapped: float


def base_resistor(
    vcc: float,
    v_be: float,
    coil_resistance: float,
    hfe: float,
    saturation_factor: float,
    series: ESeries = E12,
) -> BaseResistor:
    """Relay-driver base resistor with overdrive into saturation."""
    _require_finite(vcc=vcc, v_be=v_be, coil_resistance=coil_resistance,
                    hfe=hfe, saturation_factor=saturation_factor)
    if vcc <= v_be:
        raise DesignError(f"vcc: must exceed v_be ({vcc!r} <= {v_be!r})")
    if coil_resistance <= 0:
        raise DesignError(f"coil_resistance: must be > 0, got {coil_resistance!r}")
    if hfe < 1:
        raise DesignError(f"hfe: must be >= 1, got {hfe!r}")
    if saturation_factor < 1:
        raise DesignError(f"saturation_factor: must be >= 1, got {saturation_factor!r}")
    i_c = vcc / coil_resistance
    i_b = saturation_factor * i_c / hfe
    r_ideal = (vcc - v_be) / i_b
    if r_ideal > BASE_RESISTOR_CAP_OHMS:
        raise DesignError(
            f"base resistance {r_ideal:.3g}Ω exceeds the {BASE_RESISTOR_CAP_OHMS:.0e}Ω cap; "
            "the requested drive current is impractically small"
        )
    return BaseResistor(i_c, i_b, r_ideal, snap_preferred(r_ideal, series, "nearest"))


class AmplifierPower(NamedTuple):
    i_b: float
    i_e: float
    p_out: float


def amplifier_power(vcc: float, v_be: float, r_base: float, hfe: float) -> AmplifierPower:
    """Emitter-follower output power: I_E = (1+hfe)·I_B, P = I_E·Vcc."""
    _require_finite(vcc=vcc, v_be=v_be, r_base=r_base, hfe=hfe)
    if vcc < v_be:
        raise DesignError(f"vcc: must be >= v_be ({vcc!r} < {v_be!r})")
    if r_base <= 0:
        raise DesignError(f"r_base: must be > 0, got {r_base!r}")
    if hfe < 1:
        raise DesignError(f"hfe: must be >= 1, got {hfe!r}")
    i_b = (vcc - v_be) / r_base
    i_e = (1.0 + hfe) * i_b
    return AmplifierPower(i_b, i_e, i_e * vcc)


def trigger_threshold(vcc: float) -> float:
    """Touch-trigger threshold: one third of the supply voltage."""
    _require_finite(vcc=vcc)
    if vcc < 0:
        raise DesignError(f"vcc: must be >= 0, got {vcc!r}")
    return vcc / 3.0


# --- aggregate report -----------------------------------------------------------


class DesignRecord(NamedTuple):
    name: str
    ideal: float
    unit: str
    formula: str
    snapped: float | None = None

    def ideal_quantity(self) -> Quantity:
        return Quantity(self.ideal, self.unit)

    def snapped_quantity(self) -> Quantity | None:
        return None if self.snapped is None else Quantity(self.snapped, self.unit)


class DesignReport(tuple):
    """Every computed sizing/timing quantity, in a fixed order."""

    __slots__ = ()

    @property
    def records(self) -> tuple[DesignRecord, ...]:
        return tuple(self)

    def get(self, name: str) -> DesignRecord:
        for record in self:
            if record.name == name:
                return record
        raise KeyError(name)

    def value(self, name: str) -> float:
        return self.get(name).ideal

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(record.name for record in self)


def compute_report(spec: CircuitSpec) -> DesignReport:
    """Run every design equation against the spec and collect the results."""
    spec.validate()
    records: list[DesignRecord] = []

    def stage(quantity: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DesignError, QuantityError) as exc:
            raise DesignError(f"{quantity}: {exc}") from exc

    led1 = stage("r1_ideal", led_resistor, spec.transformer_secondary, spec.v_led, spec.i_led_max)
    records.append(DesignRecord("r1_ideal", led1.r_ideal, "ohm",
                                "(v_secondary-v_led)/i_led_max", led1.r_snapped))
    records.append(DesignRecord("led1_current", led1.i_actual, "ampere",
                                "(v_secondary-v_led)/r1_snapped"))

    led2 = stage("r2_ideal", led_resistor, spec.vcc, spec.v_led, spec.i_led_run)
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

    timeout = stage("trigger_timeout", monostable_period, spec.r3, spec.c2, "approx")
    records.append(DesignRecord("trigger_timeout", timeout, "second", "1.1*r3*c2"))
    records.append(DesignRecord("trigger_frequency", 1.0 / timeout, "hertz", "1/trigger_timeout"))
    records.append(DesignRecord("trigger_threshold",
                                stage("trigger_threshold", trigger_threshold, spec.vcc),
                                "volt", "vcc/3"))

    base = stage("r5_ideal", base_resistor, spec.vcc, spec.v_be,
                 spec.relay_coil_resistance, spec.tr1_hfe, spec.tr1_saturation_factor)
    records.append(DesignRecord("r5_ideal", base.r_ideal, "ohm",
                                "(vcc-v_be)/i_b", base.r_snapped))
    records.append(DesignRecord("trigger_i_c", base.i_c, "ampere", "vcc/relay_coil"))
    records.append(DesignRecord("trigger_i_b", base.i_b, "ampere", "sat_factor*i_c/hfe"))

    high = stage("high_t1", astable_times, spec.r7, spec.r8, spec.c4)
    records.append(DesignRecord("high_t1", high.t1, "second", "ln2*(r7+r8)*c4"))
    records.append(DesignRecord("high_t2", high.t2, "second", "ln2*r8*c4"))
    records.append(DesignRecord("high_period", high.period, "second", "t1+t2"))
    records.append(DesignRecord("high_freq", high.frequency, "hertz", "1/period"))
    records.append(DesignRecord("high_duty", high.duty, "dimensionless", "t1/period"))

    low = stage("low_t1", astable_times, spec.r11, spec.r12, spec.c6)
    records.append(DesignRecord("low_t1", low.t1, "second", "ln2*(r11+r12)*c6"))
    records.append(DesignRecord("low_t2", low.t2, "second", "ln2*r12*c6"))
    records.append(DesignRecord("low_period", low.period, "second", "t1+t2"))
    records.append(DesignRecord("low_freq", low.frequency, "hertz", "1/period"))
    records.append(DesignRecord("low_duty", low.duty, "dimensionless", "t1/period"))

    amp = stage("amp_i_b", amplifier_power, spec.vcc, spec.v_be,
                spec.amp_base_resistance, spec.tr2_hfe)
    records.append(DesignRecord("amp_i_b", amp.i_b, "ampere", "(vcc-v_be)/amp_base_r"))
    records.append(DesignRecord("amp_i_e", amp.i_e, "ampere", "(1+hfe)*i_b"))
    records.append(DesignRecord("amp_p_out", amp.p_out, "watt", "i_e*vcc"))

    mod = stage("f_lo_tone", modulation_voltages, spec.vcc, spec.r9)
    cv_high = stage("f_lo_tone", astable_times_cv, spec.r7, spec.r8, spec.c4,
                    spec.vcc, mod.v_ctl_high)
    cv_low = stage("f_hi_tone", astable_times_cv, spec.r7, spec.r8, spec.c4,
                   spec.vcc, mod.v_ctl_low)
    records.append(DesignRecord("f_lo_tone", cv_high.frequency, "hertz", "cv(v_ctl_high)"))
    records.append(DesignRecord("f_hi_tone", cv_low.frequency, "hertz", "cv(v_ctl_low)"))

    return DesignReport(records)


# --- audit against the reference write-up's worked figures ----------------------


class ErrataEntry(NamedTuple):
    name: str
    computed: float
    claimed: float
    unit: str
    verdict: str  # "MATCH" or "ERRATUM"
    tolerance: float


class ErrataReport(tuple):
    __slots__ = ()

    @property
    def entries(self) -> tuple[ErrataEntry, ...]:
        return tuple(self)

    @property
    def has_errata(self) -> bool:
        return any(entry.verdict == "ERRATUM" for entry in self)

    def get(self, name: str) -> ErrataEntry:
        for entry in self:
            if entry.name == name:
                return entry
        raise KeyError(name)


# (name, claimed value, unit, default tolerance).  Names ending in _snapped
# compare the snapped column of the matching record; amp_gain is recovered
# from i_e/i_b.  The duty figure gets a tighter default gate: the computed
# ratio is exact, so anything past rounding noise is a real slip.
REFERENCE_FIGURES = (
    ("r1_ideal", 451.43, "ohm", 0.01),
    ("r1_snapped", 470.0, "ohm", 0.01),
    ("r2_ideal", 980.0, "ohm", 0.01),
    ("led2_current", 0.012, "ampere", 0.01),
    ("piv", 36.0, "volt", 0.01),
    ("filter_c_ideal", 2.4056e-3, "farad", 0.01),
    ("filter_c_snapped", 2.2e-3, "farad", 0.01),
    ("trigger_timeout", 11.374, "second", 0.01),
    ("trigger_i_c", 0.03, "ampere", 0.01),
    ("trigger_i_b", 0.0024, "ampere", 0.01),
    ("r5_ideal", 47050.0, "ohm", 0.01),
    ("high_t1", 1.386e-3, "second", 0.01),
    ("high_t2", 0.693e-3, "second", 0.01),
    ("high_freq", 481.0, "hertz", 0.01),
    ("high_duty", 0.6695, "dimensionless", 0.001),
    ("low_t1", 1.041, "second", 0.01),
    ("low_t2", 0.9957, "second", 0.01),
    ("low_period", 2.037, "second", 0.01),
    ("low_freq", 0.491, "hertz", 0.01),
    ("amp_i_b", 0.038, "ampere", 0.01),
    ("amp_i_e", 0.418, "ampere", 0.01),
    ("amp_p_out", 5.016, "watt", 0.01),
    ("amp_gain", 100.0, "dimensionless", 0.01),
)


def verify_reference_values(report: DesignReport, tolerance: float | None = None) -> ErrataReport:
    """Compare the report against the reference figures entry by entry.

    ``tolerance`` overrides every entry's default gate when given; the
    report prints it as a percentage, so ``tolerance * 100`` must be finite.
    """
    if tolerance is not None and not 0.0 < tolerance * 100 < math.inf:
        raise DesignError(f"tolerance: must be finite and > 0 as a percentage, got {tolerance!r}")
    entries = []
    for name, claimed, unit, default_tol in REFERENCE_FIGURES:
        if name == "amp_gain":
            computed = report.value("amp_i_e") / report.value("amp_i_b") - 1.0
        elif name.endswith("_snapped"):
            record = report.get(name[: -len("_snapped")] + "_ideal")
            computed = record.snapped
        else:
            computed = report.value(name)
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
        text = _errata_kv(report) if format == "kv" else _errata_text(report)
    else:
        raise ExportError(f"cannot render {type(report).__name__}")
    return text.encode("utf-8")


def _snapped_name(name: str) -> str:
    return name[: -len("_ideal")] + "_snapped" if name.endswith("_ideal") else name + "_snapped"


def _design_kv(report: DesignReport) -> str:
    lines = []
    for record in report:
        lines.append(f"{record.name}={format_quantity(record.ideal_quantity())}")
        if record.snapped is not None:
            lines.append(
                f"{_snapped_name(record.name)}={format_quantity(record.snapped_quantity())}"
            )
    return "\n".join(lines) + "\n"


def _design_text(report: DesignReport) -> str:
    rows = [("quantity", "ideal", "snapped", "formula")]
    for record in report:
        snapped = "-" if record.snapped is None else format_quantity(
            record.snapped_quantity(), digits=6
        )
        rows.append(
            (record.name, format_quantity(record.ideal_quantity(), digits=6),
             snapped, record.formula)
        )
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = [
        f"{name:<{widths[0]}}  {ideal:>{widths[1]}}  {snapped:>{widths[2]}}  {formula}".rstrip()
        for name, ideal, snapped, formula in rows
    ]
    return "\n".join(lines) + "\n"


def _errata_kv(report: ErrataReport) -> str:
    if not report:
        return "no entries\n"
    return "\n".join(f"{entry.name}={entry.verdict}" for entry in report) + "\n"


def _errata_text(report: ErrataReport) -> str:
    if not report:
        return "no entries\n"
    rows = []
    for entry in report:
        comparison = (
            f"{format_quantity(Quantity(entry.computed, entry.unit), digits=6)}"
            f" vs claimed {format_quantity(Quantity(entry.claimed, entry.unit), digits=6)}"
        )
        rows.append((entry.name, comparison, entry.verdict, f"(tol {entry.tolerance * 100:g}%)"))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = [
        f"{name:<{widths[0]}}  {comparison:<{widths[1]}}  {verdict:<{widths[2]}}  {tol}"
        for name, comparison, verdict, tol in rows
    ]
    return "\n".join(lines) + "\n"
