"""The fault table: each entry plants one named fault in the package and
pins how many of the 200 trials at seed 11 each suite then fails.  A fault
that no suite fails is listed in ``UNCAUGHT`` with the check that would
catch it, so the table fails both when a suite stops catching a fault and
when a listed fault starts being caught."""

import dataclasses

import numpy as np
import pytest

from projgeo import blockmodel, geodesics, numkernel, projections, suites
from projgeo.blockmodel import BlockOperator, DiagonalSequence

MODULES = (numkernel, projections, geodesics, blockmodel, suites)
TRIALS, SEED = 200, 11


def _largest_angle_moved(real):
    def moved(*args, **kwargs):
        fs = real(*args, **kwargs)
        last = np.arange(fs.angles.size) == fs.angles.size - 1  # ascending: the largest
        return dataclasses.replace(fs, angles=fs.angles + 1e-9 * last)

    return moved


def _uncompressed(real):
    def lift(*args, **kwargs):
        lifted = real(*args, **kwargs)
        z = lifted.tail
        return BlockOperator(lifted.block_dim, np.broadcast_to(z, lifted.exceptional.shape), z)

    return lift


def _one_crossed_fewer(real):
    def split(*args, **kwargs):
        sp = real(*args, **kwargs)
        return sp._replace(crossed=max(sp.crossed - 1, 0))

    return split


# name: (defining module, function, the fault as a wrapper of the real
# function, failed trials per suite where there are any)
FAULTS = {
    "largest angle + 1e-9 in _five_space": (
        projections, "_five_space", _largest_angle_moved,
        {"uniqueness": 195, "minimality": 92},
    ),
    "_exponent x (1 + 1e-9)": (
        geodesics, "_exponent",
        lambda real: lambda *args, **kwargs: real(*args, **kwargs) * (1 + 1e-9),
        {"uniqueness": 200, "minimality": 200, "lifting": 67},
    ),
    "evaluate at t (1 + 1e-9)": (
        geodesics, "evaluate",
        lambda real: lambda seg, t: real(seg, np.multiply(t, 1 + 1e-9)),
        {"uniqueness": 40},
    ),
    "quotient_geodesic always unique": (
        blockmodel, "quotient_geodesic",
        lambda real: lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs), unique=True),
        {},
    ),
    "lift_geodesic leaves z uncompressed": (
        blockmodel, "lift_geodesic", _uncompressed,
        {},
    ),
    "lifting_surgery does nothing": (
        blockmodel, "lifting_surgery",
        lambda real: lambda lift_p, lift_q, **kwargs: (lift_p, lift_q),
        {"existence": 49},
    ),
    "_split counts one crossed angle fewer": (
        projections, "_split", _one_crossed_fewer,
        {"existence": 48, "uniqueness": 40},
    ),
    "minimal_norm_lift returns 0": (
        blockmodel, "minimal_norm_lift",
        lambda real: lambda d: DiagonalSequence((0.0,) * len(d.prefix), (0.0,) * len(d.tail_cycle)),
        {"normlift": 161},
    ),
}

# the faults that no suite catches, each with the check that would
UNCAUGHT = {
    "quotient_geodesic always unique": "a uniqueness check in the quotient model "
    "(ROADMAP item 7)",
    "lift_geodesic leaves z uncompressed": "a codiagonality check of the lifted "
    "exponent's exceptional blocks (ROADMAP item 5)",
}


def _plant(monkeypatch, module, name, make):
    """Replace ``module.name`` by ``make(real)`` in every module that binds it."""
    real = getattr(module, name)
    fake = make(real)
    for m in MODULES:
        if getattr(m, name, None) is real:
            monkeypatch.setattr(m, name, fake)


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_fails_its_pinned_trials(monkeypatch, fault):
    module, name, make, expected = FAULTS[fault]
    _plant(monkeypatch, module, name, make)
    failures = {s: suites.run_suite(s, TRIALS, SEED).failures for s in suites.SUITES}
    assert failures == {**dict.fromkeys(suites.SUITES, 0), **expected}
    assert (fault in UNCAUGHT) == (not expected)


def test_uncaught_faults_are_in_the_table():
    assert set(UNCAUGHT) <= set(FAULTS)
