"""The fast paths of the flow layer give the bits of the straightforward code
they stand in for: short-axis sums, compiled spec expressions, block-drawn
noise, frame stepping, row-subset frame norms, the finite-batch
classification, the unmerged all-alive step, the single constant-diffusion
evaluation, the built-in fields' noise broadcasting, the single base-point
run of the semigroup check, the log-radial accumulators, and the Sobol
directions and normal quantile of ``flowlab.qmc`` against scipy's (imported
here only).  Every comparison is bitwise, but the closed-form top eigenvalue
of a two-column frame, which is held to eigvalsh within a few ulp."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from flowlab import (BrownianDriver, CurvatureData, builtin, flow, integrate_derivative_flow,
                     load_system, oracle_convergence_study, semigroup)
from flowlab.estimators import (_log_opnorm, _top_eigenvalue, estimate_exponential_functional,
                                estimate_girsanov_one_completeness, estimate_moment_exponent,
                                estimate_radial_moment, estimate_stopped_moment,
                                estimate_sup_derivative_moment)
from flowlab.criteria import direction_sample
from flowlab.expressions import _FUNCS, _Parser, _tokenize, compile_expression
from flowlab.flow import (NOISE_BLOCK, NOISE_BYTES, NoiseSource, StepSchedule, Stepper, chunk_paths,
                          propagate, refill_steps, schedule_for)
from flowlab.qmc import ndtri, sobol_points
from flowlab.semigroup import observable
from flowlab.geometry import sum_last, vec_norm
from test_flow_regression import SPEC_SYSTEM


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ----------------------------------------------------------------------
# short-axis sums
# ----------------------------------------------------------------------

COMPONENTS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e300]) \
    | st.floats(-1e300, 1e300).filter(lambda c: c == 0.0 or abs(c) >= 1e-300) \
    | st.integers(-300, 300).map(lambda e: 10.0 ** e)


@st.composite
def short_axis_arrays(draw):
    batch = draw(st.lists(st.integers(1, 3), max_size=2))
    n = draw(st.integers(1, 9))
    values = draw(st.lists(COMPONENTS, min_size=int(np.prod(batch, dtype=int)) * n,
                           max_size=int(np.prod(batch, dtype=int)) * n))
    return np.array(values, dtype=float).reshape(tuple(batch) + (n,))


@settings(max_examples=300, deadline=None)
@given(short_axis_arrays())
def test_sum_last_is_np_sum(p):
    with np.errstate(all="ignore"):
        assert same_bits(sum_last(p), np.sum(p, axis=-1))
        assert same_bits(vec_norm(p), np.sqrt(np.sum(np.square(p), axis=-1)))
        if p.ndim > 1:
            assert same_bits(vec_norm(p, axis=-2), np.sqrt(np.sum(np.square(p), axis=-2)))


def test_sum_last_keeps_signed_zeros_as_np_sum_does():
    z = np.array([[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]])
    assert same_bits(sum_last(z), np.sum(z, axis=-1))
    assert same_bits(sum_last(np.array([-0.0])), np.sum(np.array([-0.0]), axis=-1))


# ----------------------------------------------------------------------
# compiled spec expressions
# ----------------------------------------------------------------------

_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


def reference_evaluate(node, x):
    """Direct recursive evaluation with every constant broadcast to the batch."""
    kind = node[0]
    if kind == "num":
        return np.broadcast_to(np.float64(node[1]), x.shape[:-1])
    if kind == "var":
        return x[..., node[1]]
    if kind == "neg":
        return -reference_evaluate(node[1], x)
    if kind == "call":
        return _FUNCS[node[1]](reference_evaluate(node[2], x))
    _, op, left, right = node
    return _OPS[op](reference_evaluate(left, x), reference_evaluate(right, x))


NUMBERS = st.sampled_from(["0", "1", "2", "0.5", "3.25", "1e-3", "2.5e2", ".75"])
LEAVES = NUMBERS | st.sampled_from(["x", "y", "x1", "x2"])


def _combine(children):
    return st.tuples(children, st.sampled_from(["+", "-", "*", "/", "^"]), children) \
              .map(lambda t: f"({t[0]}) {t[1]} ({t[2]})") \
        | st.tuples(st.sampled_from(sorted(_FUNCS)), children).map(lambda t: f"{t[0]}({t[1]})") \
        | children.map(lambda c: f"-({c})") \
        | children.map(lambda c: f"|{c}|")


EXPRESSIONS = st.recursive(LEAVES, _combine, max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS, st.integers(0, 2 ** 32 - 1), st.sampled_from([(4, 3), (7,), (1,), (1, 5)]))
def test_compiled_expressions_match_the_reference_evaluator(src, seed, batch):
    x = np.random.default_rng(seed).standard_normal(batch + (2,)) * 2.0
    x.reshape(-1, 2)[0] = [0.0, -0.0]
    node = _Parser(_tokenize(src), 2).parse()
    with np.errstate(all="ignore"):
        got = compile_expression(src, 2)(x)
        want = reference_evaluate(node, x)
    assert same_bits(got, want), src


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["-1", "0", "0.5", "1", "2"]))
def test_a_constant_exponent_gives_the_same_bits_at_any_batch_shape(seed, exponent):
    # the one batch shape where direct evaluation differs: a single point
    # with two or more batch axes makes np.power call pow on a broadcast
    # exponent of 2 instead of squaring, so x^2 moved by an ulp there
    # depending on the shape; a scalar exponent takes numpy's fast path
    # (square, sqrt, reciprocal, ...) at every shape
    x = np.abs(np.random.default_rng(seed).standard_normal((6, 2))) + 0.1
    f = compile_expression(f"x^{exponent} + y", 2)
    with np.errstate(all="ignore"):
        flat = f(x)
        assert all(same_bits(f(x[i].reshape(1, 1, 2)), flat[i].reshape(1, 1)) for i in range(6))


# ----------------------------------------------------------------------
# block-drawn noise
# ----------------------------------------------------------------------

#: step counts below, at and above one noise block, and a few blocks
STEP_COUNTS = st.sampled_from([1, NOISE_BLOCK - 1, NOISE_BLOCK, NOISE_BLOCK + 1, 101])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 3), st.integers(0, 50), st.integers(1, 6),
       STEP_COUNTS | st.integers(1, 40), st.sampled_from([1e-3, 0.01, 0.3]), st.integers(1, 2))
def test_chunk_paths_draws_each_path_from_its_stream(seed, dim, lo, n, n_steps, dt, grid_ndim):
    driver = BrownianDriver(seed, dim, stream=7)
    sched = StepSchedule(dt=dt, n_steps=n_steps)
    x = np.zeros((2, 3) if grid_ndim == 2 else (3,))
    xs, dW = chunk_paths(driver, lo, lo + n, sched, x)
    assert xs.shape == (n,) + x.shape and len(dW) == n_steps
    want = [driver.for_path(k).increments(sched) for k in range(lo, lo + n)]
    for k in range(n_steps):                  # the source read step by step, as propagate reads it
        assert dW[k].shape == (n,) + (1,) * (grid_ndim - 1) + (dim,)
        assert same_bits(dW[k].reshape(n, dim), np.stack([w[k] for w in want]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 3),
       st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=6), STEP_COUNTS, st.integers(1, 40))
def test_a_noise_source_draws_any_streams_in_blocks(seed, dim, streams, n_steps, block):
    # the oracle study redraws its survivors, an arbitrary list of stream
    # ids, in blocks of any length: each block continues its path's stream
    driver = BrownianDriver(seed, dim)
    sched = StepSchedule(dt=0.01, n_steps=n_steps)
    noise = NoiseSource(driver, streams, sched, block=block)
    blocks = [noise.next_block().copy() for _ in range(-(-n_steps // block))]
    want = np.stack([driver.for_path(k).increments(sched) for k in streams], axis=1)
    assert all(len(b) == min(block, n_steps) for b in blocks[:-1])
    assert same_bits(np.concatenate(blocks), want)


#: seeds and streams at the ends and the middle of the 64-bit key words
KEY_WORDS = st.sampled_from([0, 1, 2 ** 63, 2 ** 64 - 1]) | st.integers(0, 2 ** 64 - 1)


@settings(max_examples=40, deadline=None)
@given(KEY_WORDS, KEY_WORDS)
def test_the_key_seeded_generator_is_philox_keyed(seed, stream):
    got = BrownianDriver(seed, 2, stream=stream).generator()
    want = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    gs, ws = got.bit_generator.state, want.bit_generator.state
    assert gs["bit_generator"] == ws["bit_generator"] == "Philox"
    for part in ("counter", "key"):
        assert np.array_equal(gs["state"][part], ws["state"][part])
    assert all(np.array_equal(gs[k], ws[k]) for k in ("buffer", "buffer_pos", "has_uint32", "uinteger"))
    assert same_bits(got.standard_normal(97), want.standard_normal(97))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 7, 300, 2048, 10_000]), st.integers(1, 3), STEP_COUNTS | st.integers(1, 3000))
def test_a_refill_is_a_block_or_more_and_holds_at_most_the_noise_budget(C, m, n_steps):
    noise = NoiseSource(BrownianDriver(5, m), range(C), StepSchedule(dt=0.01, n_steps=n_steps))
    block = noise.next_block()
    b = refill_steps(C, m)
    assert b >= NOISE_BLOCK and len(block) == min(b, n_steps)
    assert block.nbytes <= max(NOISE_BYTES, C * NOISE_BLOCK * m * 8)
    if n_steps >= b and C * NOISE_BLOCK * m * 8 <= NOISE_BYTES:
        assert block.nbytes > NOISE_BYTES // 2     # the budget is used, not just the floor


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.sampled_from([(512, 2, 600), (1000, 1, 700), (300, 3, 500)]))
def test_default_refills_give_one_whole_draw(seed, shape):
    # refills of 256, 262 and 291 steps, none of which divides its horizon
    C, m, n_steps = shape
    assert n_steps % refill_steps(C, m) and n_steps > refill_steps(C, m)
    driver = BrownianDriver(seed, m)
    sched = StepSchedule(dt=0.01, n_steps=n_steps)
    noise = NoiseSource(driver, range(C), sched)
    got = np.stack([noise[k].copy() for k in range(n_steps)])   # a view lives until the next refill
    want = np.stack([driver.for_path(k).increments(sched) for k in range(C)], axis=1)
    assert same_bits(got, want)


@pytest.mark.parametrize("dts, n_paths", [([4e-3, 1e-3, 2.5e-4], 256), ([0.03, 0.04, 1e-3], 40),
                                          ([0.02, 1e-4], 3)])
def test_the_survivor_source_refills_whole_coarse_steps(monkeypatch, dts, n_paths):
    blocks = []

    class Recording(NoiseSource):
        def __init__(self, *args, block=None, **kw):
            blocks.append(block)
            super().__init__(*args, block=block, **kw)
    monkeypatch.setattr(flow, "NoiseSource", Recording)
    t = 0.12
    res = oracle_convergence_study(builtin("inversion_plane"), [0.5, 0.0], t, dts, n_paths, seed=2)
    fine = round(t / min(dts))
    nest = int(np.lcm.reduce([fine // round(t / d) for d in dts]))
    survivors = blocks[-1]
    assert survivors % nest == 0 and survivors >= NOISE_BLOCK
    assert survivors <= max(refill_steps(n_paths, 2), nest * -(-NOISE_BLOCK // nest))
    assert all(b == fine for b in blocks[:-1])                 # candidates are drawn whole
    assert len(res["rms_errors"]) == len(dts)


# ----------------------------------------------------------------------
# frame stepping
# ----------------------------------------------------------------------

def _system(name):
    return load_system(SPEC_SYSTEM) if name == "spec" else builtin(name).system


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["sphere(3)", "kunita", "spec", "paraboloid"]), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 3), st.integers(1, 3))
def test_frame_step_is_a_step_per_column(name, seed, n_grid, r):
    system = _system(name)
    stepper = Stepper(system)
    d, m = system.dim, system.noise_dim
    rng = np.random.default_rng(seed)
    C = 4
    x = rng.standard_normal((C, n_grid, d))
    if name == "sphere(3)":
        x /= vec_norm(x)[..., None]
    elif name == "paraboloid":
        x[..., 2] = 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2)
    v = rng.standard_normal((C, n_grid, r, d))
    v = system.model.tangent_project(np.broadcast_to(x[..., None, :], v.shape), v)
    dB = rng.standard_normal((C, 1, m)) * 0.03
    with np.errstate(all="ignore"):
        x1, v1 = stepper.step_pair(x, v, dB, 0.01)
        for j in range(r):
            xj, vj = stepper.step_pair(x, v[..., j, :], dB, 0.01)
            assert same_bits(x1, xj)
            assert same_bits(v1[..., j, :], vj)
        assert same_bits(x1, stepper.step_x(x, dB, 0.01))


# ----------------------------------------------------------------------
# frame operator norms on a row subset
# ----------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 3)]), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 40), st.integers(1, 3))
def test_log_opnorm_of_a_row_subset_is_the_subset_of_the_stack(kd, seed, C, G):
    k, d = kd
    rng = np.random.default_rng(seed)
    L = rng.standard_normal((C, G, k)) * 50.0
    U = rng.standard_normal((C, G, k, d))
    U /= vec_norm(U)[..., None]
    rows = np.flatnonzero(rng.random(C) < 0.3)
    assume(rows.size < C)
    assert same_bits(_log_opnorm(L[rows], U[rows]), _log_opnorm(L, U)[rows])
    assert same_bits(_log_opnorm(L[slice(None)], U[slice(None)]), _log_opnorm(L, U))


def eigvalsh_log_opnorm(L, U):
    """The log operator norm by the full Gram matrix and eigvalsh."""
    Lm = L.max(axis=-1, keepdims=True)
    W = np.exp(L - Lm)[..., None] * U
    lam = np.linalg.eigvalsh(np.einsum("...ki,...li->...kl", W, W))[..., -1]
    return Lm[..., 0] + 0.5 * np.log(np.maximum(lam, 1e-300))


@st.composite
def frames(draw, k):
    """(L, U) of C frames of k columns in dimension d: log-lengths in +-700,
    unit columns, with equal lengths and parallel, antiparallel, nearly
    parallel and zero-length columns mixed in."""
    C, d = draw(st.integers(1, 8)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    L = np.array(draw(st.lists(st.floats(-700.0, 700.0) | st.sampled_from([0.0, -700.0, 700.0]),
                               min_size=C * k, max_size=C * k))).reshape(C, k)
    U = rng.standard_normal((C, k, d))
    U /= vec_norm(U)[..., None]
    kinds = ["free", "zero", "all zero"] + (["parallel", "antiparallel", "near", "equal"] if k > 1 else [])
    for c in range(C):
        kind = draw(st.sampled_from(kinds))
        if kind in ("parallel", "antiparallel"):
            U[c, 1] = U[c, 0] if kind == "parallel" else -U[c, 0]
        elif kind == "near":
            U[c, 1] = U[c, 0] + 1e-9 * rng.standard_normal(d)
            U[c, 1] /= vec_norm(U[c, 1])
        elif kind == "equal":
            L[c, 1] = L[c, 0]
        elif kind == "zero":
            U[c, draw(st.integers(0, k - 1))] = 0.0
        elif kind == "all zero":
            U[c] = 0.0
    return L, U


@settings(max_examples=300, deadline=None)
@given(frames(2))
def test_the_two_column_top_eigenvalue_is_eigvalsh_to_a_few_ulp(frame):
    L, U = frame
    W = np.exp(L - L.max(axis=-1, keepdims=True))[..., None] * U
    G = np.einsum("...ki,...li->...kl", W, W)
    want = np.linalg.eigvalsh(G)[..., -1]
    got = _top_eigenvalue(G[..., 0, 0], G[..., 0, 1], G[..., 1, 1])
    assert (np.abs(got - want) <= 4 * np.spacing(want)).all(), (got, want)
    assert np.allclose(_log_opnorm(L, U), eigvalsh_log_opnorm(L, U), rtol=1e-15, atol=1e-13)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 3]).flatmap(frames))
def test_one_and_three_column_frames_keep_their_bits(frame):
    L, U = frame
    want = L[..., 0] if L.shape[-1] == 1 else eigvalsh_log_opnorm(L, U)
    assert same_bits(_log_opnorm(L, U), want)


# ----------------------------------------------------------------------
# the lean Heun step: classification, merging, constant diffusion, the
# built-in coefficient fields and the semigroup chunk
# ----------------------------------------------------------------------

def sanitising_classify(stepper, x):
    """Classification with every row zero-filled where it is not finite."""
    finite = np.isfinite(x).all(axis=-1)
    xz = np.where(finite[..., None], x, 0.0)
    with np.errstate(all="ignore"):
        esc = np.where(finite, stepper.model.escape_coordinate(xz), np.inf)
        exploded = ~finite | (esc > stepper.r_expl)
        return exploded, finite & ~stepper.model.admissible(xz) & ~exploded


# NaN, infinities, a pair whose sum overflows, points past the explosion
# radius and points inside the punctured models' exclusion balls
STATE_COMPONENTS = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 2e6, 0.0, -0.0,
                                    1e-13, 5e-9]) | st.floats(-3.0, 3.0)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["translation(2)", "punctured_translation(2)", "rescaled_punctured_plane",
                        "kunita", "sphere(3)", "paraboloid"]),
       st.integers(1, 5), st.data())
def test_classify_gives_the_sanitising_masks(name, n, data):
    stepper = Stepper(builtin(name).system)
    d = stepper.system.dim
    x = np.array(data.draw(st.lists(STATE_COMPONENTS, min_size=n * d, max_size=n * d))).reshape(n, d)
    want = sanitising_classify(stepper, x)
    with np.errstate(all="ignore"):
        got = stepper.classify(x)
        rows = [stepper.classify(x[i:i + 1]) for i in range(n)]
    for g, w in zip(got, want):
        assert g.dtype == bool and np.array_equal(g, w)
    for i, (e, o) in enumerate(rows):
        assert np.array_equal(e, want[0][i:i + 1]) and np.array_equal(o, want[1][i:i + 1])


def merging_propagate(stepper, x, dW, dt, v=None, unit=False):
    """propagate with every step merged through np.where, frozen or not."""
    frame = v is not None and v.ndim == x.ndim + 1
    alive = np.ones(x.shape[:-1], dtype=bool)
    expl_step = exit_step = np.full(alive.shape, len(dW) + 1, dtype=int)
    yield x, v, alive, expl_step, exit_step, None
    logw = None
    for k in range(len(dW)):
        with np.errstate(all="ignore"):
            if v is None:
                x1 = stepper.step_x(x, dW[k], dt)
            else:
                x1, v1 = stepper.step_pair(x, v, dW[k], dt)
            bad, out = sanitising_classify(stepper, x1)
            expl_step = np.where(alive & bad, k + 1, expl_step)
            exit_step = np.where(alive & out & (exit_step > k), k + 1, exit_step)
            keep = alive & ~bad
            x = np.where(keep[..., None], x1, x)
            if v is not None:
                keep_v = keep[..., None, None] if frame else keep[..., None]
                if unit:
                    nw = vec_norm(v1)
                    logw = np.where(nw > 0, np.log(np.maximum(nw, 1e-300)), 0.0)
                    v = np.where(keep_v & (nw > 0)[..., None],
                                 v1 / np.where(nw == 0.0, 1.0, nw)[..., None], v)
                else:
                    v = np.where(keep_v, v1, v)
            alive = keep
        yield x, v, alive, expl_step, exit_step, logw


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["ou(2)", "sphere(3)", "kunita", "spec", "punctured_translation(2)"]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(["x", "pair", "frame", "unit"]),
       st.sampled_from([0.3, 3.0, 12.0]))
def test_propagate_takes_the_step_when_nothing_is_frozen(name, seed, mode, scale):
    # scale 12 sends kunita members past the explosion radius, so both the
    # all-alive shortcut and the merge run inside one batch
    system = _system(name)
    stepper = Stepper(system)
    d, m = system.dim, system.noise_dim
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, d)) * scale
    if name == "sphere(3)":
        x /= vec_norm(x)[..., None]
    v = None
    if mode != "x":
        v = rng.standard_normal((6, 2, d) if mode == "frame" else (6, d))
        v[0] = 0.0                       # a zero tangent stays zero in unit mode
        v = system.model.tangent_project(x[:, None, :] if mode == "frame" else x, v)
    dW = rng.standard_normal((60, 6, m)) * 0.1
    with np.errstate(all="ignore"):
        got = list(propagate(stepper, x, dW, 0.01, v=v, unit=mode == "unit"))
        want = list(merging_propagate(stepper, x, dW, 0.01, v=v, unit=mode == "unit"))
    for s, (wx, wv, walive, wexpl, wexit, wlogw) in zip(got, want):
        assert same_bits(s.x, wx)
        assert np.array_equal(s.alive, walive)
        assert np.array_equal(s.explosion_step, wexpl) and np.array_equal(s.exit_step, wexit)
        if v is not None:
            assert same_bits(s.v, wv)
        if wlogw is not None:
            assert same_bits(s.logw, wlogw)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ou(1)", "ou(2)", "translation(2)", "linear", "punctured_translation(2)"]),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.sampled_from([1e-3, 0.1, 10.0]))
def test_a_constant_diffusion_is_evaluated_once(name, seed, r, scale):
    # 0.5 * (b + b) is b for every b below half the largest float; increments
    # that large never come out of a Gaussian driver
    system = builtin(name).system
    assert system.constant_diffusion
    lean, twice = Stepper(system), Stepper(replace(system, constant_diffusion=False))
    d = system.dim
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((5, 2, d)) * scale
    x.reshape(-1, d)[0] = [-0.0] * d
    dB = rng.standard_normal((5, 1, d)) * scale
    v = rng.standard_normal((5, 2, d))
    frame = rng.standard_normal((5, 2, r, d))
    with np.errstate(all="ignore"):
        assert same_bits(lean.step_x(x, dB, 0.01), twice.step_x(x, dB, 0.01))
        for tangent in (v, frame):
            for a, b in zip(lean.step_pair(x, tangent, dB, 0.01), twice.step_pair(x, tangent, dB, 0.01)):
                assert same_bits(a, b)


def _broadcast_noise(field):
    """The same field handed e broadcast to the shape of x."""
    def wrapped(x, e, *v):
        x = np.asarray(x, dtype=float)
        return field(x, np.broadcast_to(np.asarray(e, dtype=float), x.shape), *v)
    return wrapped


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["kunita", "inversion_plane", "ou(2)", "translation(2)"]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(["point", "batch", "grid", "frame"]))
def test_builtin_fields_broadcast_the_noise_argument_in_arithmetic(name, seed, layout):
    system = builtin(name).system
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 3, 2)) * 3.0
    v = rng.standard_normal((4, 3, 2))
    e = {"point": rng.standard_normal(2), "batch": rng.standard_normal((4, 3, 2)),
         "grid": rng.standard_normal((4, 1, 2)), "frame": rng.standard_normal((4, 1, 1, 2))}[layout]
    if layout == "frame":          # a point with a size-1 column axis against 3 columns
        x, v = x[:, :1, None, :], v[:, :, None, :].swapaxes(1, 2)
    full = np.broadcast_to(x, np.broadcast_shapes(x.shape, v.shape))
    assert same_bits(np.broadcast_to(system.diffusion(x, e), x.shape),
                     _broadcast_noise(system.diffusion)(x, e))
    assert same_bits(system.diffusion_jacobian(x, e, v),
                     _broadcast_noise(system.diffusion_jacobian)(full, e, v))


def two_run_chunk(system, obs, x, v, eps_ladder, sched, driver, lo, hi):
    """The semigroup chunk that steps the base point twice, one run after
    the other, each on its own draw of the noise: once x-only as column 0 of
    the (C, 1+E) batch and once as the pair run."""
    starts = np.stack([x] + [x + e * v for e in eps_ladder])
    xs, dW = chunk_paths(driver, lo, hi, sched, starts)
    stepper = Stepper(system)
    for s in propagate(stepper, xs, dW, sched.dt):
        pass
    xb, dW = chunk_paths(driver, lo, hi, sched, x)
    for p in propagate(stepper, xb, dW, sched.dt, v=np.broadcast_to(v, xb.shape).copy()):
        pass
    return {"f_vals": np.where(s.alive, np.asarray(obs.f(s.x), dtype=float), 0.0),
            "delta": np.where(p.alive, np.asarray(obs.df(p.x, p.v), dtype=float), 0.0),
            "alive": s.alive.all(axis=1) & p.alive}


@pytest.mark.parametrize("name, x, v, t, f", [
    ("ou(1)", [0.7], [1.0], 0.5, "x^2 + sin(x)"),
    ("sphere(3)", [0.0, 0.6, 0.8], [1.0, 0.0, 0.0], 0.2, "x + y*z"),
    ("spec", [1.0, 0.0], [1.0, 0.5], 0.1, "x - y^2"),
    ("kunita", [12.0, 12.0], [1.0, 0.0], 0.5, "sin(x) + cos(y)"),
])
def test_the_semigroup_chunk_steps_the_base_point_once(monkeypatch, name, x, v, t, f):
    system = _system(name)
    obs = observable(lambda y: compile_expression(f, system.dim)(y))
    captured = {}

    def run_one_chunk(n_paths, fn, workers=1, chunk=None):
        captured.update(fn(0, n_paths))
        return captured
    monkeypatch.setattr(flow, "run_chunks", run_one_chunk)
    eps = [1e-1, 1e-2, 1e-3]
    with np.errstate(all="ignore"):
        semigroup.gradient_consistency_check(system, obs, x, v, t=t, n_paths=300, seed=9,
                                             dt=0.01, eps_ladder=eps)
        want = two_run_chunk(system, obs, np.array(x), np.array(v), eps, schedule_for(t, 0.01),
                             BrownianDriver(9, system.noise_dim), 0, 300)
    for key in ("f_vals", "delta"):
        assert same_bits(captured[key], want[key]), key
    assert np.array_equal(captured["alive"], want["alive"])
    if name == "kunita":
        assert not want["alive"].all() and want["alive"].any()


# ----------------------------------------------------------------------
# log-radial accumulators
# ----------------------------------------------------------------------

def test_log_radial_accumulators_are_the_per_column_loop():
    # inversion_plane's noise is multiplicative, so the martingale term M and
    # <M, M> are not zero: each step's g_i = <D_u X^i, u>, one noise column at
    # a time, gives the bits of the column-jacobian stack
    system = builtin("inversion_plane").system
    x0 = np.array([[1.0, 0.0], [0.3, -0.8], [-1.5, 0.4]])
    v0 = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 0.0]])
    sched = schedule_for(0.3, 1e-2)
    res = integrate_derivative_flow(system, x0, v0, sched, BrownianDriver(14, 2), mode="log_radial")
    assert not res.exploded.any()
    dW = BrownianDriver(14, 2).increments(sched)
    strat, m = Stepper(system).system, system.noise_dim
    M, QV = np.zeros((2, sched.n_steps + 1, len(x0)))
    for k in range(sched.n_steps):
        x, u = res.states[k], res.directions[k]
        g = np.zeros((len(x0), m))
        for i in range(m):
            g[:, i] = sum_last(strat.diffusion_jacobian(x, np.eye(m)[i], u) * u)
        M[k + 1] = M[k] + sum_last(g * dW[k])
        QV[k + 1] = QV[k] + sum_last(g * g) * sched.dt
    assert same_bits(res.martingale, M) and same_bits(res.quad_variation, QV)
    assert (res.martingale[-1, :2] != 0.0).all() and (res.quad_variation[-1, :2] > 0.0).all()


# ----------------------------------------------------------------------
# any chunking
# ----------------------------------------------------------------------

#: 12 paths: one per chunk, a divisor, a size that does not divide, all in one
N_PATHS, CHUNKINGS = 12, (1, 3, 5, 12)

#: per system: a start, a tangent, a two-point grid (kunita's far point
#: explodes on some paths), a radius ladder, a spec-language observable and
#: the entry points the system cannot take (the H_1 field needs a gradient
#: system, the radial moment a pole distance)
CHUNKING_CASES = {
    "kunita": ([0.5, -0.5], [1.0, 0.5], [[12.0, 12.0], [0.5, -0.5]], [1.0, 16.0, 64.0],
               "sin(x) + y^2", {"girsanov"}),
    "spec": ([1.0, 0.0], [1.0, 0.5], [[1.0, 0.0], [-0.5, 2.0]], [1.0, 2.0], "x - y^2",
             {"girsanov"}),
    "sphere(3)": ([0.0, 0.6, 0.8], [1.0, 0.0, 0.0], [[0.0, 0.6, 0.8], [0.6, 0.0, 0.8]],
                  [0.5, 1.0], "x + y*z", {"radial"}),
}


def _every_estimator(system, x0, v, grid, radii, f, cannot):
    """The ten Monte Carlo entry points but ``cannot`` on one system, as
    report bytes."""
    obs = observable(compile_expression(f, system.dim))
    t, kw = 0.5, dict(n_paths=N_PATHS, seed=21, dt=0.01)
    curvature = CurvatureData(pole=np.zeros(system.dim))
    runs = {
        "sup-derivative": lambda: estimate_sup_derivative_moment(system, grid, 2.0, t, **kw),
        "stopped": lambda: estimate_stopped_moment(system, grid, radii, t, **kw),
        "exp-functional": lambda: estimate_exponential_functional(system, obs.f, x0, t, 0.5, **kw),
        "radial": lambda: estimate_radial_moment(system, curvature, x0, 2.0, t, radius_ladder=radii,
                                                 **kw),
        "exponent": lambda: estimate_moment_exponent(system, grid, 2.0, [0.1, t], **kw),
        "girsanov": lambda: estimate_girsanov_one_completeness(system, grid, t, **kw),
        "Ptf": lambda: semigroup.estimate_Ptf(system, obs, x0, t, **kw),
        "deltaPt": lambda: semigroup.estimate_deltaPt(system, obs, x0, v, t, **kw),
        "gradient-check": lambda: semigroup.gradient_consistency_check(system, obs, x0, v, t, **kw),
        "nested": lambda: semigroup.estimate_nested_Ptf(system, obs, x0, t, t, N_PATHS, 3, seed=21,
                                                        dt=0.01),
    }
    out = {}
    with np.errstate(all="ignore"):
        for name, run in runs.items():
            if name in cannot:
                continue
            res = run()
            parts = res if isinstance(res, tuple) else (res,)
            out[name] = json.dumps([p.to_dict() for p in parts], sort_keys=True)
    return out


@pytest.mark.parametrize("name", sorted(CHUNKING_CASES))
def test_any_chunking_gives_the_same_bytes(monkeypatch, name):
    # a path's numbers may not depend on the paths that share its chunk; a
    # ufunc loop that depends on the batch's layout (np.power on compiled
    # spec expressions) would break this, hence the spec system
    system = _system(name)
    want = _every_estimator(system, *CHUNKING_CASES[name])
    for size in CHUNKINGS:
        monkeypatch.setattr(flow, "chunk_size", lambda *args: size)
        got = _every_estimator(system, *CHUNKING_CASES[name])
        assert got == want, [k for k in want if got[k] != want[k]]
    if name == "kunita":           # the split also cuts between truncated and whole paths
        assert json.loads(want["stopped"])[0]["per_radius_sup"][0]["truncated"] > 0


def test_the_chunking_cases_cover_the_ten_entry_points():
    cannot = set.intersection(*(case[-1] for case in CHUNKING_CASES.values()))
    assert not cannot


# ----------------------------------------------------------------------
# Sobol directions and the normal quantile, against scipy
# ----------------------------------------------------------------------

def scipy_direction_sample(dim, n):
    """The scipy construction direction_sample replaced, verbatim."""
    from scipy.special import ndtri
    from scipy.stats import qmc

    eng = qmc.Sobol(d=dim, scramble=False)
    m = int(np.ceil(np.log2(2 * n + 8)))
    pts = eng.random_base2(m)[1:]  # drop the all-zeros point
    g = ndtri(np.clip(pts, 1e-12, 1.0 - 1e-12))
    nz = vec_norm(g) > 1e-9
    g = g[nz][:n]
    out = g / vec_norm(g)[..., None]
    out.setflags(write=False)
    return out


@pytest.mark.parametrize("dim", range(1, 41))
def test_sobol_points_are_scipys(dim):
    from scipy.stats import qmc

    for m in (1, 2, 3, 5, 8, 11):
        assert same_bits(sobol_points(dim, m), qmc.Sobol(dim, scramble=False).random_base2(m))


@pytest.mark.parametrize("dim", range(1, 65))
def test_direction_sample_is_the_scipy_construction(dim):
    for n in (1, 4, 8, 32, 100, 1000):
        assert same_bits(direction_sample(dim, n), scipy_direction_sample(dim, n)), n


@pytest.mark.parametrize("dim", [1111, 5000, 21201])
def test_direction_sample_is_the_scipy_construction_in_high_dimensions(dim):
    for n in (1, 4, 8):
        assert same_bits(direction_sample(dim, n), scipy_direction_sample(dim, n)), n


def _next(x, toward):
    return float(np.nextafter(x, toward))


# either side of exp(-2), where the tails start (and of its mirror 1 - exp(-2)),
# and of exp(-32), where the tail switches from P1/Q1 to P2/Q2 (x = 8)
SWITCHES = [0.13533528323661269189, 1.0 - 0.13533528323661269189, 1.2664165549094176e-14]
EXPLICIT_QUANTILES = [0.5, 1e-12, 1.0 - 1e-12, 1e-300, 5e-324, _next(1.0, 0.0)] + [
    _next(s, d) for s in SWITCHES for d in (0.0, 1.0)] + SWITCHES


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=40))
@example(EXPLICIT_QUANTILES)
def test_ndtri_is_scipys(p):
    from scipy.special import ndtri as scipy_ndtri

    p = np.array(p)
    assert same_bits(ndtri(p), scipy_ndtri(p))
    assert all(same_bits(ndtri(q), scipy_ndtri(q)) for q in p[:5])


def test_ndtri_ends_are_scipys():
    from scipy.special import ndtri as scipy_ndtri

    # values bitwise; a nan is a nan whatever its sign bit
    p = np.array([0.0, 1.0, -0.0, -1e-300, 1.5, np.nan, np.inf, -np.inf])
    with np.errstate(invalid="ignore"):
        got, want = ndtri(p), scipy_ndtri(p)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert same_bits(got[~np.isnan(got)], want[~np.isnan(want)])
