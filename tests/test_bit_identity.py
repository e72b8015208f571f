"""The fast paths of the flow layer give the bits of the straightforward code
they stand in for: short-axis sums, compiled spec expressions, chunked noise,
frame stepping and row-subset frame norms.  Every comparison is bitwise."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from flowlab import BrownianDriver, builtin, load_system
from flowlab.estimators import _log_opnorm
from flowlab.expressions import _FUNCS, _Parser, _tokenize, compile_expression
from flowlab.flow import StepSchedule, Stepper, chunk_paths
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
# chunked noise
# ----------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 3), st.integers(0, 50), st.integers(1, 6),
       st.integers(1, 40), st.sampled_from([1e-3, 0.01, 0.3]), st.integers(1, 2))
def test_chunk_paths_draws_each_path_from_its_stream(seed, dim, lo, n, n_steps, dt, grid_ndim):
    driver = BrownianDriver(seed, dim, stream=7)
    sched = StepSchedule(dt=dt, n_steps=n_steps)
    x = np.zeros((2, 3) if grid_ndim == 2 else (3,))
    xs, dW = chunk_paths(driver, lo, lo + n, sched, x)
    assert xs.shape == (n,) + x.shape
    for k in range(lo, lo + n):
        want = driver.for_path(k).increments(sched)
        assert same_bits(dW[:, k - lo].reshape(want.shape), want)


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
    if stepper.embedded:
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
