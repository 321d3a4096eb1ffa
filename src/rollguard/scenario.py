"""Scenario configuration: one flat record addressing every knob of a run,
loadable from an INI-style config file with strict key checking."""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

from .barrier import (TIP_POINT_SINGULAR_BAND, AlphaLinear, DisturbanceBudget,
                      GeometryParams, lipschitz_gain)
from .differentiator import (DiffChannel, DifferentiatorBank, HgoParams,
                             calibrate_envelope, check_rk4_resolves, error_envelope)
from .errors import DomainError
from .sysmodel import ActuatorParams, DisturbanceModel, NoiseModel, TerrainProfile

FILTERS = ("none", "backward_diff", "const_margin", "envelope", "envelope_budget")
# filters whose row carries the disturbance budget; the row is sufficient
# only at a linear alpha rate >= 1
BUDGET_ROW_FILTERS = ("const_margin", "envelope_budget")
# substeps one run may take, n_steps * substeps. A run holds its whole
# exogenous track and trace in memory: about 0.26 KB of track per substep
# plus 0.84 KB of track and 0.83 KB of trace records per control step
# (tracemalloc, CPython 3.11), so one run stays under about 1 GB, the
# most at one substep per step; at the default 4 substeps it admits
# 2 500 s at 50 Hz. It also bounds the envelope calibration, which sums
# over the same substeps: about 2 s at this cap
MAX_RUN_SUBSTEPS = 500_000


@dataclass(frozen=True)
class Scenario:
    """One simulation setup. The defaults are the critical slope scenario:
    the robot starts pointed up-slope while the terrain rolls to 27 degrees
    and the goal sits cross-slope below, so the goal-seeking controller
    commands a hard downhill turn exactly while the slope is steepest."""

    # timing
    horizon: float = 10.5
    control_rate: float = 50.0
    substeps: int = 4
    seed: int = 1
    # terrain
    terrain_profile: str = "ramp"          # ramp | constant
    roll_deg: float = 27.0
    ramp_start: float = 0.0
    ramp_duration: float = 2.0
    gravity: float = 9.81
    # measurement noise
    v_inf: float = 0.01
    noise_tau: float = 0.005
    # disturbance on the omega_dot / v_dot channels
    disturbance_kind: str = "sinusoid"     # none | sinusoid
    dist_omega_amp: float = 0.3
    dist_omega_freq: float = 0.12
    dist_omega_phase: float = -2.47
    dist_v_amp: float = 0.15
    dist_v_freq: float = 0.08
    dist_v_phase: float = 0.8
    # geometry
    half_width: float = 0.30
    cg_height: float = 0.40
    # actuator
    tau_v: float = 5.0
    tau_omega: float = 5.0
    # start pose, goal-seeking controller and input box
    start_x: float = 0.0
    start_y: float = 0.0
    start_theta: float = 1.5
    goal_x: float = 11.0
    goal_y: float = -8.0
    k_v: float = 0.6
    k_omega: float = 3.0
    goal_radius: float = 0.05
    u_v_min: float = -3.0
    u_v_max: float = 3.0
    u_omega_min: float = -2.0
    u_omega_max: float = 2.0
    # differentiator
    hgo_k1: float = 2.0
    hgo_k2: float = 1.0
    hgo_ell: float = 50.0
    pdot_bound: float = 4.5
    pddot_bound: float = 8.0
    # safety filter
    filter: str = "envelope"
    alpha: float = 4.0
    budget_initial: float = 0.0
    budget_decay: float = 1.0
    budget_floor: float = 1.1

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type == "float" and not math.isfinite(value):
                raise DomainError(f"{field.name} must be finite, got {value!r}")
            # a float substeps fails later in a run, a float seed draws a
            # noise stream of its own and a numpy integer fails in the JSON
            # summary; a bool is no count or seed
            if field.type == "int" and type(value) is not int:
                raise DomainError(f"{field.name} must be an int, got {value!r}")
        if self.control_rate <= 0.0 or self.horizon <= 0.0:
            raise DomainError("control_rate and horizon must be positive")
        if self.horizon < 1.0 / self.control_rate:
            raise DomainError(f"horizon {self.horizon} is shorter than one "
                              f"control period (1/{self.control_rate})")
        if abs(self.roll_deg) >= 90.0:
            raise DomainError(f"roll_deg must lie strictly between -90 and 90, "
                              f"got {self.roll_deg}")
        if self.substeps < 1:
            raise DomainError("substeps must be at least 1")
        try:
            period, n_steps, sub_dt = self.grid()
        except OverflowError:
            # an infinite horizon * control_rate, or substeps past the float
            # range: the grid has no step count or no substep length
            raise DomainError(f"horizon {self.horizon}, control_rate "
                              f"{self.control_rate} and substeps give no finite "
                              f"time grid") from None
        if n_steps * self.substeps > MAX_RUN_SUBSTEPS:
            raise DomainError(f"horizon {self.horizon} at control_rate "
                              f"{self.control_rate} gives "
                              f"{self.horizon * self.control_rate:.4g} control steps "
                              f"of {self.substeps} substeps, more than "
                              f"{MAX_RUN_SUBSTEPS} substeps per run")
        if self.filter not in FILTERS:
            raise DomainError(f"unknown filter {self.filter!r}; choose from {FILTERS}")
        # the terrain and disturbance records check their kinds and the
        # ramp duration
        self.terrain()
        self.disturbance()
        if self.disturbance_kind == "sinusoid":
            # math.sin raises on an infinite argument. 2 pi f t + phase is
            # monotone in t; a run reads no time above the last period's
            # end, as each other lies half a substep (> 1e-6 of it) below
            t_max = n_steps * period
            for name in ("omega", "v"):
                freq = getattr(self, f"dist_{name}_freq")
                phase = getattr(self, f"dist_{name}_phase")
                arg = 2.0 * math.pi * freq * t_max + phase
                if not math.isfinite(arg):
                    raise DomainError(f"disturbance {name}_freq {freq} and {name}_phase "
                                      f"{phase} give the sine argument {arg} at "
                                      f"t = {t_max}")
        # the component validators (positive geometry, actuator, observer
        # and alpha; nonnegative budget, whichever filter reads it) fire
        # here, not inside a run. The run integrates the observers with RK4
        # at sub_dt, which must resolve their error dynamics
        self.geometry()
        self.actuator()
        check_rk4_resolves(self.hgo(), sub_dt)
        self.alpha_fn()
        if self.filter in BUDGET_ROW_FILTERS and self.alpha < 1.0:
            raise DomainError(f"filter {self.filter!r} requires alpha >= 1, "
                              f"got {self.alpha}")
        DisturbanceBudget(self.budget_initial, self.budget_decay, self.budget_floor)
        # the rows and the schedule checks take alpha times the budget and
        # the budget's rate, initial * decay at t = 0
        if not math.isfinite(self.alpha * (self.budget_initial + self.budget_floor)
                             + self.budget_initial * self.budget_decay):
            raise DomainError(f"alpha {self.alpha} and the budget (initial "
                              f"{self.budget_initial}, decay {self.budget_decay}, "
                              f"floor {self.budget_floor}) overflow the rows")
        if self.u_v_min > self.u_v_max or self.u_omega_min > self.u_omega_max:
            raise DomainError("input box is empty")
        # the QP and its relaxation square the distance between two points of
        # the box; that is finite, and ** 2 does not raise, when the squared
        # diagonal is
        span_v = self.u_v_max - self.u_v_min
        span_omega = self.u_omega_max - self.u_omega_min
        if not math.isfinite(span_v * span_v + span_omega * span_omega):
            raise DomainError(f"input box spans {span_v} in v and {span_omega} "
                              f"in omega: its squared diagonal overflows")
        if self.gravity <= 0.0:
            raise DomainError(f"gravity must be positive, got {self.gravity}")
        # h1 + h2 = -2 * width_ratio * g_z, so every h overflows with it
        if not math.isfinite(2.0 * self.geometry().width_ratio * self.gravity):
            raise DomainError(f"half_width {self.half_width} over cg_height "
                              f"{self.cg_height} at gravity {self.gravity} overflows "
                              f"the rollover constraints")
        # the steepest roll of either profile is roll_deg itself
        g_z = -self.gravity * math.cos(math.radians(self.roll_deg))
        if abs(g_z) < TIP_POINT_SINGULAR_BAND:
            raise DomainError(f"roll_deg {self.roll_deg} leaves a normal gravity "
                              f"component of {g_z} m/s^2, inside the tip-point "
                              f"singular band |g_z| < {TIP_POINT_SINGULAR_BAND}")
        if self.v_inf < 0.0:
            raise DomainError(f"v_inf must be nonnegative, got {self.v_inf}")
        if not math.isfinite(2.0 * self.v_inf):
            # the noise targets are -v_inf + 2 * v_inf * u, which would be
            # inf or nan with an infinite width
            raise DomainError(f"v_inf {self.v_inf} is too large: the noise "
                              f"range 2 * v_inf is not finite")
        if self.seed < 0:
            # random.Random seeds from |seed|, so -s would share the noise
            # stream of s
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if self.noise_tau <= 0.0:
            raise DomainError(f"noise tau must be positive, got {self.noise_tau}")
        if self.pdot_bound < 0.0 or self.pddot_bound < 0.0:
            raise DomainError("signal derivative bounds must be nonnegative")
        if self.v_inf == 0.0 and self.pddot_bound > 0.0:
            raise DomainError("v_inf = 0 requires pddot_bound = 0: without a "
                              "noise term the envelope cannot absorb the "
                              "curvature residual")

    # --- builders -------------------------------------------------------

    def grid(self) -> tuple[float, int, float]:
        """The run's time grid: (control period, control steps, substep
        length); control step k starts at k * period, its substep i at
        k * period + i * sub_dt, and its last substep ends at (k + 1) *
        period, the next step's time. Each of these times is read once."""
        period = 1.0 / self.control_rate
        return period, int(round(self.horizon * self.control_rate)), period / self.substeps

    def terrain(self) -> TerrainProfile:
        return TerrainProfile(self.terrain_profile, math.radians(self.roll_deg),
                              self.ramp_start, self.ramp_duration, self.gravity)

    def noise_model(self) -> NoiseModel:
        return NoiseModel(self.v_inf, self.control_rate, self.horizon,
                          self.seed, self.noise_tau)

    def disturbance(self) -> DisturbanceModel:
        return DisturbanceModel(self.disturbance_kind, self.dist_omega_amp,
                                self.dist_omega_freq, self.dist_v_amp, self.dist_v_freq,
                                self.dist_omega_phase, self.dist_v_phase)

    def geometry(self) -> GeometryParams:
        return GeometryParams(self.half_width, self.cg_height)

    def actuator(self) -> ActuatorParams:
        return ActuatorParams(self.tau_v, self.tau_omega)

    def hgo(self) -> HgoParams:
        return HgoParams(self.hgo_k1, self.hgo_k2, self.hgo_ell)

    def alpha_fn(self) -> AlphaLinear:
        return AlphaLinear(self.alpha)

    def budget(self) -> DisturbanceBudget:
        """Budget schedule used by the run; the constant-margin filter
        ignores the transient part by definition."""
        if self.filter == "const_margin":
            return DisturbanceBudget(0.0, 1.0, self.budget_floor)
        return DisturbanceBudget(self.budget_initial, self.budget_decay,
                                 self.budget_floor)

    def input_box(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.u_v_min, self.u_omega_min), (self.u_v_max, self.u_omega_max))

    def make_bank(self) -> DifferentiatorBank:
        """Two-channel differentiator bank (lateral then normal gravity
        component), its one error envelope calibrated on the run's n_steps
        * substeps RK4 substeps of sub_dt (`grid()`); estimates start at
        zero until the harness seeds them from the first measurement."""
        _, n_steps, sub_dt = self.grid()
        bank = DifferentiatorBank(
            channels=(DiffChannel(), DiffChannel()), hgo=self.hgo(),
            coeffs=calibrate_envelope(self.hgo(), self.v_inf, self.pddot_bound,
                                      sub_dt, n_steps * self.substeps),
            e0_bound=self.v_inf + self.pdot_bound, v_inf=self.v_inf)
        # the rows and the checks take alpha(lip * M) + lip * dM/dt, largest
        # in size at t = 0
        value, rate = error_envelope(bank, 0.0)
        lip = lipschitz_gain(self.geometry())
        if not math.isfinite(self.alpha * lip * value + lip * rate):
            raise DomainError(f"the error envelope at t = 0, {value} with rate {rate}, "
                              f"overflows the rows at alpha {self.alpha}; lower "
                              f"pdot_bound or v_inf")
        return bank


_SCHEMA: dict[str, dict[str, str]] = {
    "run": {"horizon": "horizon", "control_rate": "control_rate",
            "substeps": "substeps", "seed": "seed"},
    "terrain": {"profile": "terrain_profile", "roll_deg": "roll_deg",
                "ramp_start": "ramp_start", "ramp_duration": "ramp_duration",
                "gravity": "gravity"},
    "noise": {"v_inf": "v_inf", "tau": "noise_tau"},
    "disturbance": {"kind": "disturbance_kind", "omega_amp": "dist_omega_amp",
                    "omega_freq": "dist_omega_freq", "omega_phase": "dist_omega_phase",
                    "v_amp": "dist_v_amp", "v_freq": "dist_v_freq",
                    "v_phase": "dist_v_phase"},
    "geometry": {"half_width": "half_width", "cg_height": "cg_height"},
    "actuator": {"tau_v": "tau_v", "tau_omega": "tau_omega"},
    "controller": {"start_x": "start_x", "start_y": "start_y",
                   "start_theta": "start_theta",
                   "goal_x": "goal_x", "goal_y": "goal_y", "k_v": "k_v",
                   "k_omega": "k_omega", "goal_radius": "goal_radius",
                   "u_v_min": "u_v_min", "u_v_max": "u_v_max",
                   "u_omega_min": "u_omega_min", "u_omega_max": "u_omega_max"},
    "differentiator": {"k1": "hgo_k1", "k2": "hgo_k2", "ell": "hgo_ell",
                       "pdot_bound": "pdot_bound", "pddot_bound": "pddot_bound"},
    "filter": {"name": "filter", "alpha": "alpha",
               "budget_initial": "budget_initial", "budget_decay": "budget_decay",
               "budget_floor": "budget_floor"},
}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(Scenario)}


def load_config(path) -> Scenario:
    """Parse an INI-style scenario file; unknown sections or keys are
    rejected so typos cannot silently fall back to defaults, and values are
    taken literally (no `%` interpolation). The file is read as UTF-8, with
    or without a byte-order mark, and keys under `[DEFAULT]`, which
    configparser would merge into every other section, are rejected like
    any unknown section."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise DomainError(f"malformed config file {path!r}: {exc}") from exc
    if not read:
        raise DomainError(f"config file {path!r} not found or unreadable")
    if parser.defaults():
        raise DomainError(f"unknown config section [{parser.default_section}]")
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise DomainError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise DomainError(f"unknown key {key!r} in section [{section}]")
            field = _SCHEMA[section][key]
            kind = _FIELD_TYPES[field]
            try:
                if kind == "int":
                    values[field] = int(raw)
                elif kind == "float":
                    values[field] = float(raw)
                else:
                    values[field] = raw.strip()
            except ValueError as exc:
                raise DomainError(f"bad value for {section}.{key}: {raw!r}") from exc
    return Scenario(**values)


# the fields a variant spec sets; a comparison's variants share every other
VARIANT_FIELDS = ("filter", "budget_floor")


def parse_variant(scenario: Scenario, spec: str) -> tuple[str, Scenario]:
    """Variant spec 'filter' or 'filter:budget_floor', spaces around either
    part dropped, applied on top of a base scenario; everything else
    (seed, signals) is shared."""
    name, _, arg = spec.strip().partition(":")
    name, arg = name.strip(), arg.strip()
    if name not in FILTERS:
        raise DomainError(f"unknown filter {name!r} in variant {spec!r}")
    fields = {"filter": name}
    label = name
    if arg:
        try:
            fields["budget_floor"] = float(arg)
        except ValueError as exc:
            raise DomainError(f"bad budget value in variant {spec!r}") from exc
        label = f"{name}_{arg}"
    return label, dataclasses.replace(scenario, **fields)
