"""Peak traced memory of long Monte Carlo requests and of wide H_p scans: a
path's noise is drawn a block of steps at a time, so memory does not grow with
the horizon, and a constant diffusion's (zero) column jacobians are never
formed.  ``tracemalloc`` sees numpy's buffers as well as Python objects."""

import tracemalloc

import numpy as np

from flowlab import builtin, estimate_Ptf, hp_report, observable, oracle_convergence_study
from flowlab.criteria import direction_sample

MB = 2 ** 20


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_long_horizon_holds_one_block_of_noise():
    # 512 paths of 10,000 steps: their whole noise would be 39 MiB
    ou = builtin("ou(1)")
    obs = observable(lambda x: np.cos(x[..., 0]))
    peak = traced_peak(lambda: estimate_Ptf(ou.system, obs, [0.5], 10.0, 512, seed=3, dt=1e-3))
    assert peak <= 4 * MB, peak / MB


def test_the_oracle_study_keeps_only_its_survivors_streams():
    # 256 survivors of 2,000 fine steps on a three-level ladder
    inv = builtin("inversion_plane")
    peak = traced_peak(lambda: oracle_convergence_study(inv, [0.5, 0.0], 0.5, [4e-3, 1e-3, 2.5e-4],
                                                        256, seed=5))
    assert peak <= 16 * MB, peak / MB


def test_a_wide_hp_scan_of_a_constant_diffusion_forms_no_jacobian_stack():
    # translation(600)'s hp-scan samples: 32 points, 4 directions each; the
    # (128, 600, 600) stack of column jacobians alone would be 368 MB
    system = builtin("translation(600)").system
    points = np.concatenate([r * direction_sample(600, 8) for r in (0.5, 1.0, 2.0, 4.0)])
    samples = [(x, v) for x in points for v in direction_sample(600, 4)]
    peak = traced_peak(lambda: hp_report(system, samples, p=2.0))
    assert peak <= 32 * MB, peak / MB
