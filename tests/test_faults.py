"""The fault table: each entry plants one named fault in the package and
pins, for each suite, how many of the 200 trials at seed 11 each check
fails, or each error type ends.  A fault that no suite fails is listed in
``UNCAUGHT`` with the check that would catch it, so the table fails both
when a suite stops catching a fault and when a listed fault starts being
caught."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from projgeo import blockmodel, cli, geodesics, numkernel, projections, suites
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


def _kernel_one_short(real):
    def svd(m, **kwargs):
        if kwargs.get("compute_uv") is False:  # the truncation oracle's values stay true
            return real(m, **kwargs)
        u, s, vh = real(m, **kwargs)
        s = s.copy()
        s[..., -1] = 1.0  # the smallest singular direction leaves the kernel
        return u, s, vh

    return svd


def _oracle_one_plane_short(real):
    def svd(m, **kwargs):
        s = real(m, **kwargs)
        if kwargs.get("compute_uv") is False:  # the truncation oracle's cosines
            s = s.copy()
            s[..., 0] = 0.0  # each block's largest one, and so one plane, is lost
        return s

    return svd


# name: (defining module, or a 1-tuple of the one module to plant it in,
# function, the fault as a wrapper of the real function,
# {suite: {failed check or error type: trials}} where any fail)
FAULTS = {
    "largest angle + 1e-9 in _five_space": (
        projections, "_five_space", _largest_angle_moved,
        {"uniqueness": {"uniqueness.direct_rotation": 160, "uniqueness.endpoint": 35},
         "minimality": {"minimality.certificate_gap": 92}},
    ),
    "_exponent x (1 + 1e-9)": (
        geodesics, "_exponent",
        lambda real: lambda *args, **kwargs: real(*args, **kwargs) * (1 + 1e-9),
        {"uniqueness": {"uniqueness.direct_rotation": 160, "uniqueness.norm_error": 40},
         "minimality": {"minimality.eig_residual": 200},
         "lifting": {"NormTooLarge": 67}},
    ),
    "evaluate at t (1 + 1e-9)": (
        geodesics, "evaluate",
        lambda real: lambda seg, t: real(seg, np.multiply(t, 1 + 1e-9)),
        {"uniqueness": {"uniqueness.endpoint": 40}},
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
        {"existence": {"existence.witness_index": 49}},
    ),
    # blockmodel alone: the surgery and the truncation oracle each read singular values of Q P
    "surgery kernel one dimension short": (
        (blockmodel,), "_svd", _kernel_one_short,
        {},
    ),
    "truncation oracle one plane short": (
        (blockmodel,), "_svd", _oracle_one_plane_short,
        {"existence": {"existence.oracle": 123}},
    ),
    "_split counts one crossed angle fewer": (
        projections, "_split", _one_crossed_fewer,
        {"existence": {"existence.oracle": 48},
         "uniqueness": {"DimMismatch": 21, "BadIndex": 19}},
    ),
    "minimal_norm_lift returns 0": (
        blockmodel, "minimal_norm_lift",
        lambda real: lambda d: DiagonalSequence((0.0,) * len(d.prefix), (0.0,) * len(d.tail_cycle)),
        {"normlift": {"normlift.level_gap": 161}},
    ),
}

# the faults that no suite catches, each with the check that would
UNCAUGHT = {
    "quotient_geodesic always unique": "a uniqueness check in the quotient model "
    "(ROADMAP item 7)",
    "lift_geodesic leaves z uncompressed": "a codiagonality check of the lifted "
    "exponent's exceptional blocks (ROADMAP item 5)",
    # the raised value lifts the surgery's count only below its cap min(r, s), where a
    # block pair crosses beyond the forced |r - s|, which no Haar draw does; and both
    # witnesses of a block get rank count, so they read balanced whatever the count
    "surgery kernel one dimension short": "existence draws whose block pairs cross "
    "beyond |r - s|, with a check that each witness block reads (0, 0), beside the "
    "record of the block pairs the surgery changed (ROADMAP item 5)",
}


def _plant(monkeypatch, module, name, make):
    """Replace ``module.name`` by ``make(real)`` in every module that binds
    it; for a 1-tuple ``(module,)``, in that module alone."""
    modules = MODULES
    if isinstance(module, tuple):
        modules, (module,) = module, module
    real = getattr(module, name)
    fake = make(real)
    for m in modules:
        if getattr(m, name, None) is real:
            monkeypatch.setattr(m, name, fake)


def _failed(report) -> dict:
    """The failed trials by failed check, or by error type for a trial that raised."""
    return dict(Counter(name for r in report.records if not r["ok"]
                        for name in r.get("failed") or [r["error"].partition(":")[0]]))


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_fails_its_pinned_trials(monkeypatch, fault):
    module, name, make, expected = FAULTS[fault]
    _plant(monkeypatch, module, name, make)
    reports = {s: suites.run_suite(s, TRIALS, SEED) for s in suites.SUITES}
    assert {s: _failed(r) for s, r in reports.items() if r.failures} == expected
    assert (fault in UNCAUGHT) == (not expected)
    # "failed" is on exactly the failing records that did not raise, just before "ok"
    for record in (r for report in reports.values() for r in report.records):
        assert ("failed" in record) == (not record["ok"] and "error" not in record)
        keys = list(record)
        assert keys[-1] == "ok" and ("failed" not in record or keys[-2] == "failed")


def test_uncaught_faults_are_in_the_table():
    assert set(UNCAUGHT) <= set(FAULTS)


def test_verify_names_the_check_that_failed(monkeypatch, capsys):
    module, name, make, _ = FAULTS["minimal_norm_lift returns 0"]
    _plant(monkeypatch, module, name, make)
    assert cli.main(["verify", "--suite", "normlift", "--trials", str(TRIALS), "--seed", str(SEED)]) == 1
    assert capsys.readouterr().err == (
        "suite normlift: 200 trials, 161 failures; failed: normlift.level_gap 161\n"
    )
