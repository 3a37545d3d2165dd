"""The five-space split and exponent that projgeo computed before it read
the principal angles off one CS decomposition, kept as an independent
reference for the angle-based split.

The intersections are the nullspaces of ``P - Q -+ 1``, ``P + Q - 2`` and
``P + Q``; the generic part is their orthogonal complement, ordered by the
compression of ``P - Q``; its exponent is the principal logarithm of
``V0 (2 P0 - 1)`` with ``V0`` the polar factor of ``P0 + Q0 - 1``.  The
singular values these thresholds read are quadratic in the distance of an
angle to 0 or pi/2, so the reference is only trusted for angles well inside
(0, pi/2).  Every function takes one matrix at a time.

``expm_skew``, the unitary exponential of a skew matrix, is the inverse the
logarithm's tests check against.

``reference_projection_blocks`` is the suites' block sampler drawn one
block, and one QR, at a time: the stacked sampler must give its blocks and
leave its generator in the same state.

``reference_haar_unitaries`` is the Haar stack drawn one complex Gaussian
temporary per key before the one QR: ``random_unitary`` must give the same
unitary for each key.

``minimality_competitors`` is the sampled oracle of the paper's minimality
claim, two-leg curves through random midpoints, that acceptance criterion 3
holds the geodesic against; it draws its midpoints through
``reference_haar_unitaries``, and ``reference_competitors`` is the same
lengths one midpoint, one split and one leg at a time.

``reference_block_geodesic_instance`` is the lifting suite's sampler that
built and solved every drawn quotient pair and skipped the ones the solver
rejected: the sampler that keeps a draw by its dims must give the same
instances.

``reference_random_equal_index_pair``, ``reference_random_generic_pair``
and ``reference_random_crossed_pair`` are the balanced samplers that drew
their dims through one helper, ``_reference_balanced_dims``, and each its
angles and pair on its own; ``reference_quotient_dims`` is the quotient
case mix with a branch of its own per kind, labelled by kind.  The samplers
must give the same dims and pairs and leave their generators in the same
state.

``reference_truncated_index_pairs`` is the truncation oracle that counted
each block's crossed dims as the positive and negative eigenvalues of
``K*(P - Q)K`` on the kernel ``K`` of ``P + Q - 1``: the ranks less the
count of cosines of ``Q P`` must agree with it.

``block_at`` is a block operator's block on one summand, and
``reference_lift_projection`` the spectral-threshold lift that checked and
eigensolved one block at a time: the stacked lift must give the same
operator or raise the same message.

``reference_dumps`` is the JSON dumper that walks a payload one list and
one scalar at a time, and ``reference_pair_json`` the pair payload of
nested lists it was given: the array renderer of ``dumps_canonical`` must
write the same bytes.

``reference_matrix_from_json`` is the matrix reader that walked a matrix's
entries four times: their types, their lengths, the types of their numbers
and the numbers again into the array.  The reader that flattens the
entries once must return the same bits or raise the same message.
"""

import json
from itertools import chain
from typing import NamedTuple

import numpy as np
import scipy.linalg

from projgeo.blockmodel import SPECTRAL_GAP, BlockOperator, quotient_geodesic
from projgeo.errors import NoGeodesic, NoSpectralGap, NotHermitian, NotPeriodic, NotUnitary
from projgeo.geodesics import _CHUNK_BYTES, _require_balanced
from projgeo.numkernel import (
    RECON_RTOL,
    Tolerance,
    _adjoint,
    _svd,
    as_cmatrix,
    herm_eig,
    nullspace,
    op_norm,
    require_square,
)
from projgeo.projections import (
    IndexPair,
    _pair,
    _split,
    make_projection,
    pair_with_dims,
    random_projection,
)
from projgeo.suites import random_projection_blocks, random_quotient_pair

HALF_PI_BOUND = np.pi / 2 + 1e-12


class SingularInput(ValueError):
    pass


class LogAtMinusOne(ValueError):
    pass


class NotSkew(ValueError):
    pass


def _herm(m):
    return (m + m.conj().T) / 2


def polar_unitary(a, tol=Tolerance()):
    """Unitary factor of the polar decomposition of an invertible Hermitian
    matrix: the spectral sign function."""
    w, u = herm_eig(a)
    absw = np.abs(w)
    if absw.max(initial=0.0) == 0.0 or absw.min() <= tol.rank_rtol * absw.max():
        raise SingularInput("polar factor undefined: input has a nullspace")
    return _herm((u * np.where(w >= 0.0, 1.0, -1.0)) @ u.conj().T)


def _check_skew(m):
    if np.array_equal(m, -m.conj().T):
        return
    norm, defect = op_norm(np.array([m, m + m.conj().T])).tolist()
    if defect > RECON_RTOL * norm:
        raise NotSkew(
            f"skew defect {defect:.3e} exceeds "
            f"{RECON_RTOL:.1e} * norm {norm:.3e}"
        )


def expm_skew(z):
    """Unitary exponential of a skew-Hermitian matrix.

    Computed spectrally: with ``-i z = U diag(theta) U*`` the result is
    ``U diag(exp(i theta)) U*``, unitary to working precision.
    """
    m = as_cmatrix(z)
    require_square(m)
    _check_skew(m)
    w, u = herm_eig(_herm(-1j * m))
    return (u * np.exp(1j * w)) @ u.conj().T


class PrincipalLog(NamedTuple):
    skew: np.ndarray        # skew-Hermitian logarithm
    within_half_pi: bool    # all phases in [-pi/2, pi/2] (+ tiny slack)
    near_minus_one: bool    # spectrum within rank_rtol of -1


def logm_unitary_principal(w, tol=Tolerance(), *, require_interior=False):
    """Principal skew-Hermitian logarithm of a unitary matrix, with the
    branch closed at ``+pi``, from a complex Schur factorization."""
    m = np.asarray(w, dtype=complex)
    n = m.shape[0]
    if op_norm(m.conj().T @ m - np.eye(n)) > RECON_RTOL:
        raise NotUnitary(f"input is not unitary within {RECON_RTOL:.1e}")
    t, u = scipy.linalg.schur(m, output="complex")
    lam = np.diagonal(t)
    phases = np.arctan2(lam.imag, lam.real)
    phases = np.where(phases == -np.pi, np.pi, phases)
    near = bool((np.abs(lam + 1.0) <= tol.rank_rtol).any())
    if require_interior and near:
        raise LogAtMinusOne("spectrum touches -1; no interior logarithm")
    z = (u * (1j * phases)) @ u.conj().T
    within = bool((np.abs(phases) <= HALF_PI_BOUND).all())
    return PrincipalLog((z - z.conj().T) / 2, within, near)


def reference_split(p, q, tol):
    """Crossed bases, generic basis and generic compressions of one pair:
    ``(m10, m01, h0, p0, q0)``."""
    n = p.shape[0]
    eye = np.eye(n)
    diff = _herm(p - q)
    summ = _herm(p + q)
    m10 = nullspace(diff - eye, tol)
    m01 = nullspace(diff + eye, tol)
    m11 = nullspace(summ - 2 * eye, tol)
    m00 = nullspace(summ, tol)
    cols = np.hstack([m11, m00, m10, m01])
    k = cols.shape[1]
    if k == 0:
        h0 = np.eye(n, dtype=complex)
    elif k >= n:
        h0 = np.zeros((n, 0), dtype=complex)
    else:
        h0 = np.linalg.svd(cols, full_matrices=True)[0][:, k:]
    p0 = q0 = None
    if h0.shape[1]:
        _, vecs = np.linalg.eigh(_herm(h0.conj().T @ diff @ h0))
        h0 = h0 @ vecs
        p0 = make_projection(_herm(h0.conj().T @ p @ h0))
        q0 = make_projection(_herm(h0.conj().T @ q @ h0))
    return m10, m01, h0, p0, q0


def reference_leg(split, tol):
    """Exponent of one split, with the identity crossed pairing."""
    m10, m01, h0, p0, q0 = split
    n = h0.shape[0]
    z = np.zeros((n, n), dtype=complex)
    if m10.shape[1]:
        v = m10 @ m01.conj().T
        z += 1j * (np.pi / 2) * (v + v.conj().T)
    if h0.shape[1]:
        eye = np.eye(h0.shape[1])
        v0 = polar_unitary(_herm(p0 + q0 - eye), tol)
        z0 = logm_unitary_principal(v0 @ (2 * p0 - eye), tol).skew
        z += h0 @ z0 @ h0.conj().T
    return (z - z.conj().T) / 2


def reference_exponent(p, q, tol=Tolerance()):
    """Minimal exponent of one pair by the old pipeline."""
    return reference_leg(reference_split(p, q, tol), tol)


def reference_competitors(p, q, trials, seed, replace=()):
    """Competitor lengths one midpoint, one split and one leg at a time;
    attempt ``a`` of competitor ``i`` draws from ``(seed + i, 5, 1 + a)``,
    and ``replace`` maps such a key to the midpoint used in its place."""
    tol = Tolerance()
    replace = dict(replace)
    n = p.shape[0]
    rank = int(round(np.trace(p).real))
    lengths = []
    for i in range(trials):
        for attempt in range(64):
            key = (seed + i, 5, 1 + attempt)
            r = replace.get(key)
            if r is None:
                r = random_projection(n, rank, key)
            leg1 = reference_split(p, r, tol)
            if leg1[0].shape[1] == leg1[1].shape[1]:
                leg2 = reference_split(r, q, tol)
                if leg2[0].shape[1] == leg2[1].shape[1]:
                    break
        else:
            raise NoGeodesic("no midpoint")
        lengths.append(op_norm(reference_leg(leg1, tol)) + op_norm(reference_leg(leg2, tol)))
    return lengths


def reference_projection_blocks(rng, d, count):
    """``count`` blocks, each its rank from ``rng`` and then its own
    ``random_projection`` draw from ``rng``."""
    blocks = []
    for _ in range(count):
        rank = int(rng.integers(0, d + 1))
        blocks.append(random_projection(d, rank, rng))
    return tuple(blocks)


def reference_haar_unitaries(n, seeds):
    """``random_unitary(n, seed)`` over ``seeds``, one complex Gaussian
    temporary per key, then one QR of their stack with its phases fixed."""
    draws = []
    for s in seeds:
        re, im = np.random.default_rng(s).standard_normal((2, n, n))
        draws.append(re + 1j * im)
    q, r = np.linalg.qr(np.array(draws) / np.sqrt(2))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d = np.where(np.abs(d) == 0.0, 1.0, d / np.abs(d))
    return q * d[..., None, :]


def minimality_competitors(
    p,
    q,
    trials: int,
    seed,
    tol: Tolerance = Tolerance(),
) -> list[float]:
    """Lengths of two-leg piecewise geodesics ``P -> R -> Q`` through random
    midpoints ``R``; each length is the sum of the two leg norms and never
    beats the direct segment.  The midpoint of competitor ``i`` is
    ``random_projection(n, rank P, (seed + i, 5, 1))``, the range of the first
    columns ``V_R`` of that key's Haar unitary (a key with a non-zero last word
    is a stream of its own, where ``(s, 0)`` is a suite sampler's
    ``default_rng(s)``).  Both legs are balanced, as a pair's index differs by
    its rank difference.  A leg is as long as its largest principal angle (Porta
    & Recht, Proc. AMS 100, 1987): for an end's eigenvectors ``V_E`` (the
    split's ``vp`` or ``vq``), the first ``rank P`` rows of ``V_E* V_R`` have the
    leg's cosines as singular values and the others its sines, so the leg is
    ``atan2(smax(sines), smin(cosines))``: no midpoint is formed and the pair is
    not solved again; a 1 MB stack costs a QR and two singular-value calls.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    sp = _split(_pair(p, q), tol)
    _require_balanced(sp.index)
    n, rank = sp.vp.shape[0], sp.r
    if rank in (0, n):
        return [0.0] * trials  # P = Q = R
    ends = _adjoint(np.array([sp.vp, sp.vq])[:, None])
    step = max(1, _CHUNK_BYTES // sp.vp.nbytes)
    lengths = []
    for start in range(0, trials, step):
        seeds = [(seed + i, 5, 1) for i in range(start, min(start + step, trials))]
        x = ends @ reference_haar_unitaries(n, seeds)[..., :rank]
        cos, sin = (_svd(rows, compute_uv=False) for rows in (x[..., :rank, :], x[..., rank:, :]))
        legs = np.arctan2(sin[..., 0], cos[..., -1])  # the largest sine, the smallest cosine
        lengths.extend((legs[0] + legs[1]).tolist())
    return lengths


def reference_block_geodesic_instance(seed, tol):
    """The lifting suite's pair, exponent and lift of ``seed``: the first
    attempt ``a`` whose ``random_quotient_pair((seed, a))`` the solver joins."""
    rng = np.random.default_rng((seed, 4, 1))
    for attempt in range(64):
        p, q = random_quotient_pair((seed, attempt))
        try:
            z = quotient_geodesic(p, q, tol).segment.exponent
        except (NoGeodesic, NotPeriodic):
            continue
        break
    else:
        raise RuntimeError("no balanced quotient pair found")
    d = p.shape[0]
    lift_p = BlockOperator(d, random_projection_blocks(rng, d, int(rng.integers(1, 4))), p)
    return p, q, z, lift_p


def _reference_balanced_dims(rng, crossed=None):
    """Five-space dimensions with equal crossed parts, total <= 14."""
    if crossed is None:
        crossed = int(rng.choice([0, 0, 0, 1, 1, 2]))
    d11 = int(rng.integers(0, 3))
    d00 = int(rng.integers(0, 3))
    generic = int(rng.integers(1, 4))
    return d11, d00, crossed, crossed, generic


def reference_random_equal_index_pair(seed):
    rng = np.random.default_rng(seed)
    d11, d00, k, _, g = _reference_balanced_dims(rng)
    angles = rng.uniform(0.15, np.pi / 2 - 0.15, g)
    return pair_with_dims(d11, d00, k, k, 2 * g, angles, seed=rng)


def reference_random_generic_pair(seed, min_sigma=0.1):
    rng = np.random.default_rng(seed)
    hi = np.arccos(min_sigma + 0.02) if min_sigma else np.pi / 2 - 0.15
    d11, d00, _, _, g = _reference_balanced_dims(rng, crossed=0)
    angles = rng.uniform(0.15, hi, g)
    return pair_with_dims(d11, d00, 0, 0, 2 * g, angles, seed=rng)


def reference_random_crossed_pair(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 3))
    d11, d00, _, _, g = _reference_balanced_dims(rng, crossed=0)
    angles = rng.uniform(0.15, np.pi / 2 - 0.15, g)
    return pair_with_dims(d11, d00, k, k, 2 * g, angles, seed=rng), k


def reference_quotient_dims(rng, d_max=6):
    """The kind of a quotient draw, then its dims ``(d11, d00, d10, d01, g)``."""
    kind = rng.random()
    if kind < 0.4:
        which = "finite"
        d10 = d01 = 0
        g = int(rng.integers(1, (d_max - 1) // 2 + 1))
        d11 = int(rng.integers(0, d_max - 2 * g + 1))
        d00 = int(rng.integers(0, d_max - 2 * g - d11 + 1))
    elif kind < 0.75:
        which = "infinite"
        d10 = int(rng.integers(1, 3))
        d01 = int(rng.integers(1, 3))
        room = d_max - d10 - d01
        g = int(rng.integers(0, room // 2 + 1))
        d11 = int(rng.integers(0, room - 2 * g + 1))
        d00 = 0
    else:
        which = "mixed"
        d10 = int(rng.integers(1, 3))
        d01 = 0
        if rng.random() < 0.5:
            d10, d01 = d01, d10
        room = d_max - d10 - d01
        g = int(rng.integers(0, room // 2 + 1))
        d11 = int(rng.integers(0, room - 2 * g + 1))
        d00 = 0
    return which, (d11, d00, d10, d01, g)


def block_at(lift, i):
    """The block of ``lift`` acting on the ``i``-th summand."""
    return lift.exceptional[i] if i < len(lift.exceptional) else lift.tail


def reference_lift_projection(t):
    """``lift_projection`` one block at a time."""
    for i, b in enumerate((*t.exceptional, t.tail)):
        if not np.array_equal(b, b.conj().T):
            raise NotHermitian(f"block {i} is not selfadjoint")
    make_projection(t.tail)
    lifted = []
    for i, b in enumerate((*t.exceptional, t.tail)):
        w, u = herm_eig(b)
        bad = np.abs(w - 0.5) < SPECTRAL_GAP
        if i < len(t.exceptional) and bad.any():
            raise NoSpectralGap(
                f"eigenvalue {float(w[bad][0])!r} of exceptional block {i} lies "
                f"within {SPECTRAL_GAP} of 1/2"
            )
        step = (u * (w >= 0.5).astype(float)) @ u.conj().T
        lifted.append((step + step.conj().T) / 2)
    return BlockOperator(t.block_dim, tuple(lifted[:-1]), lifted[-1])


def reference_truncated_index_pairs(lift_p, lift_q, lengths, tol=Tolerance()):
    """Index pairs of the truncations to ``n`` blocks, each block's pair the
    signs of ``K*(P - Q)K``, one block at a time."""
    m = max(len(lift_p.exceptional), len(lift_q.exceptional))
    crossed = []
    for i in range(m + 1):
        bp, bq = block_at(lift_p, i), block_at(lift_q, i)
        k = nullspace(bp + bq - np.eye(lift_p.block_dim), tol)
        w = herm_eig(_herm(k.conj().T @ (bp - bq) @ k)).eigenvalues
        crossed.append(np.array([(w > 0).sum(), (w < 0).sum()]))
    return [
        IndexPair(*(sum(crossed[:min(n, m)], np.zeros(2, int))
                    + max(n - m, 0) * crossed[m]).tolist())
        for n in lengths
    ]


def reference_pair_json(p, q):
    return {
        name: {
            "rows": m.shape[0],
            "cols": m.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
        }
        for name, m in (("P", p), ("Q", q))
    }


def _reference_scalar(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if not np.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x!r}")
        return format(float(x), ".17g")
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x)!r}")


def reference_dumps(obj, indent=0):
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {reference_dumps(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{inner}{reference_dumps(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _reference_scalar(obj)


_REFERENCE_NOT_PAIRS = "matrix data entries must be [re, im] pairs of numbers"


def reference_matrix_from_json(obj):
    if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= obj.keys():
        raise ValueError("a matrix must be an object with rows, cols and data")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not all(type(v) is int and v >= 0 for v in (rows, cols)):
        raise ValueError(f"rows and cols must be ints >= 0, got {rows!r} and {cols!r}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(f"matrix data must be a list of {rows * cols} entries")
    if not (
        set(map(type, data)) <= {list}
        and set(map(len, data)) <= {2}
        and set(map(type, chain.from_iterable(data))) <= {int, float}
    ):
        raise ValueError(_REFERENCE_NOT_PAIRS)
    try:
        flat = np.fromiter(chain.from_iterable(data), float, 2 * rows * cols)
    except OverflowError:
        raise ValueError(_REFERENCE_NOT_PAIRS) from None
    return as_cmatrix(flat.view(np.complex128).reshape(rows, cols))
