import numpy as np

from projgeo.suites import random_generic_pair


def test_generic_pair_gap_holds_at_first_draw():
    # the angles stay below arccos(min_sigma + 0.02), so the gap of
    # P + Q - 1 clears min_sigma without a rejection loop
    for seed in range(200):
        p, q = random_generic_pair(seed, min_sigma=0.1)
        gap = np.linalg.svd(p + q - np.eye(p.shape[0]), compute_uv=False)[-1]
        assert gap >= 0.1 + 0.02 - 1e-12
