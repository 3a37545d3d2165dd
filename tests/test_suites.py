import numpy as np

from projgeo import blockmodel, geodesics, projections, suites
from projgeo.suites import random_generic_pair


def test_generic_pair_gap_holds_at_first_draw():
    # the angles stay below arccos(min_sigma + 0.02), so the gap of
    # P + Q - 1 clears min_sigma without a rejection loop
    for seed in range(200):
        p, q = random_generic_pair(seed, min_sigma=0.1)
        gap = np.linalg.svd(p + q - np.eye(p.shape[0]), compute_uv=False)[-1]
        assert gap >= 0.1 + 0.02 - 1e-12


def test_minimality_fails_a_chord_off_the_sine_identity(monkeypatch):
    # a chord sum 1e-11 off grid sin(|Z| / grid) is well inside chord_gap,
    # so only the chord-identity check can fail the trial
    true_length = suites.curve_length
    monkeypatch.setattr(
        suites, "curve_length", lambda seg, grid: true_length(seg, grid) + 1e-11
    )
    report = suites.run_suite("minimality", 1, seed=123)
    assert report.failures == 1
    assert report.worst_residual <= suites.BOUNDS["minimality.chord_gap"]


def test_lifting_validates_each_draw_once(monkeypatch):
    counts = {"_pair": 0, "random_quotient_pair": 0}

    def counted(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    for module in (projections, geodesics, blockmodel):
        counted(module, "_pair")
    counted(suites, "random_quotient_pair")
    suites.run_suite("lifting", 40, 11)
    # one validation per drawn pair, accepted or rejected
    assert counts["_pair"] == counts["random_quotient_pair"] > 40
