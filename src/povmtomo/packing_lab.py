"""Desk-scale packing families, as the ``packing`` command builds and checks them.

Builds small families of packing POVMs around Haar-random unitaries and a
fixed rank-d/2 projector, and certifies their pairwise separation against the
distance module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from ._rng import haar_isometry, make_rng
from .distances import d_av, d_op_exact
from .povm import Povm, leading_projector, packing_av_povm, packing_op_povm

REDRAW_FACTOR = 10  # budget: REDRAW_FACTOR * n_members candidate draws
TRACE_NORM_THRESHOLD = 0.25  # acceptance rule: (1/d) || UPU+ - VPV+ ||_1 >= 1/4


class PackingBudgetError(RuntimeError):
    """Raised when the rejection rule exhausts its redraw budget."""


@dataclass(frozen=True)
class PackingFamily:
    kind: str  # "op" | "av"
    dim: int
    epsilon: float
    unitaries: tuple
    members: tuple


@dataclass(frozen=True)
class SeparationReport:
    min_pairwise: float
    threshold: float
    ok: bool


def build_packing(
    kind: str,
    d: int,
    n_outcomes: int,
    epsilon: float,
    n_members: int,
    seed,
) -> PackingFamily:
    """Assemble a family of packing POVMs from Haar-random unitaries.

    ``op`` families carry one unitary per member and ``n_outcomes`` flat
    effects (members have n_outcomes + 2 effects in total); a candidate is
    redrawn unless its rotated projector is at least 1/4 away in normalized
    trace norm from every accepted member, which certifies the pairwise
    worst-case separation epsilon/8. ``av`` families carry n_outcomes/2
    unitaries per member and have exactly ``n_outcomes`` effects; their
    separation is probabilistic, not enforced.
    """
    if kind not in ("op", "av"):
        raise ValueError("kind must be 'op' or 'av'")
    if d % 2:
        raise ValueError(f"packing families need even dimension, got d={d}")
    if not 0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    if kind == "av" and n_outcomes % 2:
        raise ValueError("av families need an even outcome count")
    rng = make_rng(seed)
    projector = leading_projector(d)
    budget = REDRAW_FACTOR * n_members

    unitaries: list = []
    members: list[Povm] = []
    if kind == "op":
        rotated: list[np.ndarray] = []
        n_draws = 0
        while len(members) < n_members:
            if n_draws >= budget:
                raise PackingBudgetError(
                    f"could not assemble {n_members} members within {budget} draws; "
                    "parameters too tight for desk scale"
                )
            n_draws += 1
            u = haar_isometry(d, d, rng)
            candidate = u @ projector @ u.conj().T
            gaps = linalg.matrix_norm(candidate - np.reshape(rotated, (-1, d, d)), "trace") / d
            if np.any(gaps < TRACE_NORM_THRESHOLD):
                continue
            rotated.append(candidate)
            unitaries.append(u)
            members.append(packing_op_povm(u, epsilon, n_outcomes))
    else:
        for _ in range(n_members):
            us = tuple(haar_isometry(d, d, rng, (n_outcomes // 2,)))
            unitaries.append(us)
            members.append(packing_av_povm(us, epsilon))
    return PackingFamily(kind, d, float(epsilon), tuple(unitaries), tuple(members))


def verify_separation(family: PackingFamily) -> SeparationReport:
    """Minimum pairwise distance of the family against its target threshold.

    ``op`` families compare worst-case distances to epsilon/8; ``av``
    families compare sqrt(d) * average-case distances to epsilon/4. Each
    member meets all the later ones in one list call of :func:`d_op_exact` or
    :func:`d_av`, whose reports are bit for bit the solo ones.
    """
    if len(family.members) < 2:
        raise ValueError("separation needs at least two members")
    members, distance = list(family.members), (d_op_exact if family.kind == "op" else d_av)
    values = [report.value for a in range(len(members) - 1) for report in distance(members[a], members[a + 1:])]
    min_pairwise = min(values) if family.kind == "op" else np.sqrt(family.dim) * min(values)
    threshold = family.epsilon / 8 if family.kind == "op" else family.epsilon / 4
    return SeparationReport(float(min_pairwise), float(threshold), bool(min_pairwise >= threshold))
