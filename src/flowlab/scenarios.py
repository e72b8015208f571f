"""Built-in example systems with closed-form oracles and negative controls.

Each scenario bundles a system, its geometric model, curvature data where
relevant, an exact pathwise oracle when one exists, and the certificate
statuses the verdict engine is expected to reproduce.  The scenario registry
is immutable; ``builtin("ou(1)")``-style names are parsed here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

from .errors import ContractError, check_ladder, check_vector, check_whole
from .geometry import (
    CurvatureData,
    FlatModel,
    PuncturedFlatModel,
    RescaledFlatModel,
    paraboloid_model,
    sphere_model,
    vec_norm,
)
from .systems import (
    STRATONOVICH,
    VectorFieldSystem,
    gradient_brownian_from_embedding,
    zero_field,
    zero_jacobian,
)

if TYPE_CHECKING:
    from .flow import BrownianDriver, StepSchedule

Array = np.ndarray

#: oracle denominators closer than this to zero flag a singular path
ORACLE_SINGULARITY_TOL = 1e-8

#: paths a convergence study draws, at most, to find its survivors
ORACLE_CANDIDATES = 2048


@dataclass
class OracleResult:
    states: Array               # (n_steps + 1, ..., d)
    singular: Array             # bool, per trailing batch member
    min_denominator: Optional[Array] = None


@dataclass(frozen=True)
class Scenario:
    name: str
    system: VectorFieldSystem
    curvature: CurvatureData
    oracle: Optional[Callable[[Array, Array, float], OracleResult]]
    notes: str
    expected_verdicts: Dict[str, str] = field(default_factory=dict)
    default_horizon: float = 1.0

    @property
    def model(self):
        return self.system.model


def oracle_flow(scenario: Scenario, x0, driver: BrownianDriver,
                sched: StepSchedule) -> OracleResult:
    """Exact pathwise solution consuming the same increments the integrator
    would draw from this driver."""
    if scenario.oracle is None:
        raise ContractError(f"scenario {scenario.name} has no oracle")
    dW = driver.increments(sched)
    return scenario.oracle(np.asarray(x0, dtype=float), dW, sched.dt)


# ----------------------------------------------------------------------
# oracles: signature (x0, increments (n, ..., m), dt) -> OracleResult
# ----------------------------------------------------------------------

def _translation_oracle(x0: Array, dW: Array, dt: float) -> OracleResult:
    csum = np.concatenate([np.zeros_like(dW[:1]), np.cumsum(dW, axis=0)], axis=0)
    states = x0 + csum
    batch = states.shape[1:-1]
    return OracleResult(states=states, singular=np.zeros(batch, dtype=bool))


def _inversion_oracle(x0: Array, dW: Array, dt: float) -> OracleResult:
    z0 = x0[..., 0] + 1j * x0[..., 1]
    csum = np.concatenate([np.zeros_like(dW[:1]), np.cumsum(dW, axis=0)], axis=0)
    B = csum[..., 0] + 1j * csum[..., 1]
    den = 1.0 + z0 * B
    absden = np.abs(den)
    min_den = absden.min(axis=0)
    singular = min_den < ORACLE_SINGULARITY_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        z = z0 / den
    states = np.stack([z.real, z.imag], axis=-1)
    return OracleResult(states=states, singular=singular, min_denominator=min_den)


# ----------------------------------------------------------------------
# scenario factories
# ----------------------------------------------------------------------

def _additive_system(name: str, dim: int, drift, drift_jacobian, model=None) -> VectorFieldSystem:
    """dx = drift(x) dt + dB with unit additive noise, B of dimension dim.
    X(x)e = e does not depend on x, so it is returned as e and broadcasts
    against x in the caller's arithmetic."""
    def diffusion(x, e):
        return np.asarray(e, dtype=float)

    return VectorFieldSystem(
        name=name, dim=dim, noise_dim=dim,
        diffusion=diffusion, drift=drift,
        diffusion_jacobian=lambda x, e, v: np.zeros_like(np.asarray(v, dtype=float)),
        drift_jacobian=drift_jacobian,
        calculus=STRATONOVICH, model=model or FlatModel(dim),
        constant_diffusion=True,
    )


def _translation_system(dim: int, model=None) -> VectorFieldSystem:
    return _additive_system(f"translation({dim})", dim, zero_field, zero_jacobian, model)


def _scn_translation(dim: int) -> Scenario:
    sys_ = _translation_system(dim)
    oracle = _translation_oracle

    return Scenario(
        name=f"translation({dim})", system=sys_,
        curvature=CurvatureData(pole=np.zeros(dim)),
        oracle=oracle,
        notes="Additive noise, no drift; the flow is x + B_t and the scheme is exact.",
        expected_verdicts={"Cor5.2": "certified", "Thm5.3": "certified",
                           "Thm6.2": "certified", "Diffeo": "certified"},
    )


def _scn_punctured_translation(dim: int) -> Scenario:
    if dim < 2:
        raise ContractError("punctured translation needs dim >= 2")
    model = PuncturedFlatModel(dim, np.zeros(dim))
    sys_ = _translation_system(dim, model=model)

    return Scenario(
        name=f"punctured_translation({dim})", system=sys_,
        curvature=CurvatureData(),
        oracle=_translation_oracle,
        notes="Translation flow on the punctured space: complete from each "
              "point but a moving segment can be carried arbitrarily close to "
              "the deleted point, so flow-level continuity fails.",
        expected_verdicts={"Cor5.2": "not-applicable", "Thm6.2": "not-applicable"},
    )


def _scn_rescaled_punctured_plane() -> Scenario:
    model = RescaledFlatModel(2, weight=lambda x: 1.0 / vec_norm(x), excluded=np.zeros(2))
    sys_ = _translation_system(2, model=model)
    return Scenario(
        name="rescaled_punctured_plane", system=sys_,
        curvature=CurvatureData(),
        oracle=_translation_oracle,
        notes="Translation dynamics measured in the conformal norm |v|/|x|; "
              "the deleted point sits at metric infinity.  Fixed-time "
              "derivative moments stay finite even though flow-level "
              "one-continuity fails, which is why sup-in-time moments matter.",
        expected_verdicts={"Cor5.2": "not-applicable"},
    )


def _scn_inversion_plane() -> Scenario:
    def diffusion(x, e):
        x = np.asarray(x, dtype=float)
        e = np.asarray(e, dtype=float)
        z = x[..., 0] + 1j * x[..., 1]
        ec = e[..., 0] + 1j * e[..., 1]
        out = -(z * z) * ec
        return np.stack([out.real, out.imag], axis=-1)

    def diffusion_jacobian(x, e, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        e = np.asarray(e, dtype=float)
        z = x[..., 0] + 1j * x[..., 1]
        vc = v[..., 0] + 1j * v[..., 1]
        ec = e[..., 0] + 1j * e[..., 1]
        out = -2.0 * z * vc * ec
        return np.stack([out.real, out.imag], axis=-1)

    sys_ = VectorFieldSystem(
        name="inversion_plane", dim=2, noise_dim=2,
        diffusion=diffusion, drift=zero_field,
        diffusion_jacobian=diffusion_jacobian, drift_jacobian=zero_jacobian,
        calculus=STRATONOVICH, model=FlatModel(2),
    )
    return Scenario(
        name="inversion_plane", system=sys_,
        curvature=CurvatureData(pole=np.zeros(2)),
        oracle=_inversion_oracle,
        notes="Image of the punctured translation flow under z -> 1/z; the "
              "exact flow is z/(1 + z B_t) in complex arithmetic.  Coefficients "
              "grow quadratically, so the linear-growth certificate fails.",
        expected_verdicts={"Thm6.2": "failed"},
        default_horizon=0.5,
    )


def _scn_ou(dim: int) -> Scenario:
    def drift(x):
        return -np.asarray(x, dtype=float)

    def drift_jacobian(x, v):
        return -np.asarray(v, dtype=float)

    return Scenario(
        name=f"ou({dim})", system=_additive_system(f"ou({dim})", dim, drift, drift_jacobian),
        curvature=CurvatureData(pole=np.zeros(dim)),
        oracle=ou_exact_states,
        notes="Linear restoring drift with unit additive noise; the derivative "
              "flow contracts deterministically at rate 1.",
        expected_verdicts={"Cor5.2": "certified", "Thm5.3": "certified",
                           "Thm6.2": "certified", "Diffeo": "certified"},
    )


def ou_exact_states(x0, dW: Array, dt: float) -> OracleResult:
    """Exact-in-distribution OU recursion consuming the integrator's increments.

    x_{k+1} = e^{-dt} x_k + sqrt((1 - e^{-2dt})/2) (dW_k / sqrt(dt)); the step
    scaling is the exact conditional standard deviation, so marginals are exact
    while the path stays maximally coupled to the Heun path.  With a silent
    noise stream the recursion degenerates to x0 e^{-t}.
    """
    x0 = np.asarray(x0, dtype=float)
    decay = float(np.exp(-dt))
    scale = float(np.sqrt((1.0 - np.exp(-2.0 * dt)) / 2.0) / np.sqrt(dt))
    x = np.broadcast_to(x0, dW.shape[1:]).astype(float).copy()
    out = [x.copy()]
    for k in range(dW.shape[0]):
        x = decay * x + scale * dW[k]
        out.append(x.copy())
    states = np.stack(out, axis=0)
    return OracleResult(states=states, singular=np.zeros(states.shape[1:-1], dtype=bool))


def _scn_kunita() -> Scenario:
    def diffusion(x, e):
        x = np.asarray(x, dtype=float)
        e = np.asarray(e, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = x[..., 1] * e[..., 0]
        out[..., 1] = 0.5 * x[..., 0] ** 2 * e[..., 1]
        return out

    def diffusion_jacobian(x, e, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        e = np.asarray(e, dtype=float)
        out = np.empty_like(v)
        out[..., 0] = v[..., 1] * e[..., 0]
        out[..., 1] = x[..., 0] * v[..., 0] * e[..., 1]
        return out

    sys_ = VectorFieldSystem(
        name="kunita", dim=2, noise_dim=2,
        diffusion=diffusion, drift=zero_field,
        diffusion_jacobian=diffusion_jacobian, drift_jacobian=zero_jacobian,
        calculus=STRATONOVICH, model=FlatModel(2),
    )
    return Scenario(
        name="kunita", system=sys_,
        curvature=CurvatureData(pole=np.zeros(2)),
        oracle=None,
        notes="Nondegenerate diagonal system with quadratically growing "
              "second column: stochastically complete yet not strongly "
              "complete.  Moments blow up quickly; keep horizons short "
              "(default 0.5).",
        expected_verdicts={"Thm6.2": "failed"},
        default_horizon=0.5,
    )


def _scn_sphere(n: int) -> Scenario:
    model = sphere_model(n)
    sys_ = gradient_brownian_from_embedding(model, name=f"sphere({n})")
    return Scenario(
        name=f"sphere({n})", system=sys_,
        curvature=CurvatureData(ricci=model.ricci),
        oracle=None,
        notes="Gradient Brownian system of the unit sphere embedding; "
              "compact, so every certificate with bounded data applies.",
        expected_verdicts={"Thm8.1": "certified", "Cor8.3": "certified",
                           "Diffeo": "certified"},
    )


def _scn_paraboloid() -> Scenario:
    model = paraboloid_model()
    sys_ = gradient_brownian_from_embedding(model, name="paraboloid")
    return Scenario(
        name="paraboloid", system=sys_,
        curvature=CurvatureData(ricci=model.ricci,
                                sectional_lower_bound=lambda r: np.ones_like(np.asarray(r, dtype=float))),
        oracle=None,
        notes="Gradient Brownian system on a convex surface with a pole at "
              "the vertex; curvature is positive and decays, the second "
              "fundamental form is bounded.",
        expected_verdicts={"Thm8.1": "certified", "Cor8.3": "certified",
                           "Thm7.1": "certified", "Diffeo": "certified"},
    )


def _scn_linear(matrix=None) -> Scenario:
    M = np.asarray(matrix if matrix is not None else [[-1.0]], dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ContractError("linear scenario needs a square drift matrix")
    dim = M.shape[0]

    def drift(x):
        return np.einsum("ij,...j->...i", M, np.asarray(x, dtype=float))

    def drift_jacobian(x, v):
        return np.einsum("ij,...j->...i", M, np.asarray(v, dtype=float))

    return Scenario(
        name=f"linear({dim})", system=_additive_system(f"linear({dim})", dim, drift, drift_jacobian),
        curvature=CurvatureData(pole=np.zeros(dim)),
        oracle=None,
        notes="Additive noise with linear drift matrix; derivative flow is "
              "the deterministic matrix exponential.",
        expected_verdicts={"Cor5.2": "certified"},
    )


_FACTORIES = {
    "translation": _scn_translation,
    "punctured_translation": _scn_punctured_translation,
    "rescaled_punctured_plane": _scn_rescaled_punctured_plane,
    "inversion_plane": _scn_inversion_plane,
    "ou": _scn_ou,
    "kunita": _scn_kunita,
    "sphere": _scn_sphere,
    "paraboloid": _scn_paraboloid,
    "linear": _scn_linear,
}

_NEEDS_DIM = {"translation", "punctured_translation", "ou", "sphere"}


def builtin(name: str, **kwargs) -> Scenario:
    """Look up a built-in scenario; dimensioned families parse 'name(n)'."""
    m = re.fullmatch(r"\s*([a-z_]+)\s*(?:\(\s*(\d+)\s*\))?\s*", name)
    if not m:
        raise ContractError(f"unknown scenario name {name!r}")
    base, arg = m.group(1), m.group(2)
    if base not in _FACTORIES:
        raise ContractError(f"unknown scenario {base!r}; known: {sorted(_FACTORIES)}")
    if base in _NEEDS_DIM:
        if arg is None:
            raise ContractError(f"scenario {base!r} needs a dimension, e.g. {base}(2)")
        return _FACTORIES[base](int(arg))
    if arg is not None:
        raise ContractError(f"scenario {base!r} takes no dimension argument")
    return _FACTORIES[base](**kwargs)


def oracle_convergence_study(scenario: Scenario, x0, t: float, dts, n_paths: int,
                             seed: int, filter_threshold: float = 0.25) -> dict:
    """Strong-error convergence study of the integrator against the scenario
    oracle over a step-size ladder.

    All levels consume aggregated increments of one fine-grid Brownian path
    per path id, so the comparison is pathwise.  Paths whose oracle
    denominator dips below ``filter_threshold`` (singularity-adjacent) are
    discarded before the first ``n_paths`` survivors are kept, among the
    first ``ORACLE_CANDIDATES`` paths.  x0 must be one admissible point.  Each step
    size in dts must divide the horizon t into a whole number of steps
    (``flow.schedule_for``), nested in the finest grid, and at least two of
    them must differ.  Returns the per-level RMS terminal errors and the
    fitted log-log slope, None when an error is at floating-point level
    (1e-13 of 1 + the RMS size of the exact end states), as for an exact
    scheme or a fixed point.
    """
    from .flow import BrownianDriver, NOISE_BLOCK, NoiseSource, Stepper, refill_steps, schedule_for

    if scenario.oracle is None:
        raise ContractError(f"scenario {scenario.name} has no oracle")
    check_whole("n_paths", n_paths)
    dts = sorted(check_ladder("dts", dts, low=0.0, increasing=False))
    levels = [schedule_for(t, d) for d in dts]
    if len({lv.n_steps for lv in levels}) < 2:
        raise ContractError(f"the convergence study fits its slope to at least two distinct "
                            f"step sizes, got {dts!r}")
    fine, n_fine = levels[0], levels[0].n_steps
    if any(n_fine % lv.n_steps for lv in levels):
        raise ContractError("step sizes must nest integrally inside the horizon")
    factors = [n_fine // lv.n_steps for lv in levels]
    x0 = check_vector("x0", x0, scenario.system.dim)
    scenario.model.check_admissible(x0)
    m = scenario.system.noise_dim
    driver = BrownianDriver(seed, m)

    # filter candidates in path order, NOISE_BLOCK at a time as whole paths
    # (the oracle needs them), until n_paths survive; keep only the
    # survivors' stream ids and end states
    kept, kept_T = [], []
    for lo in range(0, ORACLE_CANDIDATES, NOISE_BLOCK):
        if len(kept) >= n_paths:
            break
        whole = NoiseSource(driver, range(lo, min(lo + NOISE_BLOCK, ORACLE_CANDIDATES)), fine,
                            block=n_fine)
        oracle = scenario.oracle(x0, whole.next_block(), dts[0])
        keep = ~oracle.singular
        if oracle.min_denominator is not None:
            keep &= oracle.min_denominator > filter_threshold
        idx = np.nonzero(keep)[0][:n_paths - len(kept)]
        kept.extend(lo + idx)
        kept_T.append(oracle.states[-1][idx])
    if len(kept) < n_paths:
        raise ContractError("not enough paths survive the singularity filter")
    exact_T = np.concatenate(kept_T)

    # redraw the survivors a block at a time and step every level in
    # lockstep; a block is the source's refill rounded down to a whole
    # number of coarse steps at every level, and at least NOISE_BLOCK steps.
    # The ladder steps without propagate's freezing on purpose: a diverging
    # scheme must show up as a non-finite RMS error, which frozen paths would
    # turn into a finite number
    nest = int(np.lcm.reduce(factors))
    block_steps = nest * max(refill_steps(n_paths, m) // nest, -(-NOISE_BLOCK // nest))
    noise = NoiseSource(driver, kept, fine, block=block_steps)
    stepper = Stepper(scenario.system)
    xs = [np.broadcast_to(x0, exact_T.shape).copy() for _ in dts]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(-(-n_fine // block_steps)):
            # a path-major view, summed as such: numpy orders a reduction by
            # the memory layout (8 or more terms along the shortest stride are
            # summed pairwise), so the layout is part of the bits
            block = noise.next_block()                      # (b, n_paths, m)
            for i, (d, f) in enumerate(zip(dts, factors)):
                for dB in block.reshape(-1, f, n_paths, m).sum(axis=1):
                    xs[i] = stepper.step_x(xs[i], dB, d)
    rms = [float(np.sqrt(np.mean(vec_norm(x - exact_T) ** 2))) for x in xs]
    scale = 1.0 + float(np.sqrt(np.mean(vec_norm(exact_T) ** 2)))
    slope = None
    if not any(e <= 1e-13 * scale for e in rms):
        slope = float(np.polyfit(np.log(dts), np.log(rms), 1)[0])
    return {"dts": dts, "rms_errors": rms, "slope": slope,
            "n_paths": int(n_paths), "filter_threshold": filter_threshold,
            "seed": seed, "t": t}


def scenario_listing() -> list:
    """Names and notes of every built-in, for the listing interface."""
    out = []
    samples = ["translation(2)", "punctured_translation(2)", "rescaled_punctured_plane",
               "inversion_plane", "ou(1)", "kunita", "sphere(3)", "paraboloid", "linear"]
    for name in samples:
        scn = builtin(name)
        out.append({"name": scn.name, "notes": scn.notes,
                    "has_oracle": scn.oracle is not None,
                    "expected_verdicts": scn.expected_verdicts,
                    "default_horizon": scn.default_horizon})
    return out
