"""Slow exact searches kept as test oracles for the fast paths in src/nfk.

_box_norm_matches is the coordinate-box generator search that
ideals._lattice_norm_matches replaced; tests compare the two and can
monkeypatch it in for the lattice search.
"""

from __future__ import annotations

from typing import Sequence

import mpmath

from nfk.config import Ceilings
from nfk.errors import CeilingError, RankError
from nfk.ideals import Ideal
from nfk.number_field import AlgebraicNumber


def _box_norm_matches(
    a: Ideal,
    target: int,
    units: Sequence[AlgebraicNumber],
    ceilings: Ceilings,
) -> list[list[int]]:
    """All x in the ideal with |N(x)| = target, found by a bounded coordinate box.

    Test oracle only: norm_matches uses _lattice_norm_matches, which covers
    the same generators with far fewer points.  The box covers a fundamental
    domain of the unit action on the norm-target surface: any generator can
    be unit-shifted until each |log sigma_i| stays within half the total
    log-spread of the fundamental units, so a complete scan of that box
    decides principality.
    """
    K = a.field
    n = K.degree
    rank = K.r1 + K.r2 - 1
    if len(units) < rank:
        raise RankError(f"box search needs {rank} fundamental units, got {len(units)}")
    rts = K.roots(200)
    with mpmath.workprec(120):
        spread = [mpmath.mpf(0)] * (K.r1 + K.r2)
        for u in units:
            vals = K.embeddings(u, 80)
            for i, v in enumerate(vals):
                spread[i] += abs(mpmath.log(abs(v))) / 2
        nth = mpmath.mpf(target) ** (mpmath.mpf(1) / n)
        # one uniform bound M: the unit-balanced generator has every
        # |sigma_i| <= N^(1/n) exp(spread_i) <= M, so the max-|sigma|
        # minimizers all satisfy max |sigma| <= M and the box is complete
        # for them (per-coordinate bounds would not guarantee that).
        emb_bound = nth * mpmath.exp(max(spread)) * mpmath.mpf("1.0001") + mpmath.mpf("1e-9")
        # real n x n embedding matrix of the ideal basis (complex rows split)
        rows = []
        for i, rho in enumerate(rts):
            vals = [
                sum(mpmath.mpf(c) * rho**k for k, c in enumerate(col)) for col in a.hnf.columns()
            ]
            if i < K.r1:
                rows.append([mpmath.mpf(v) for v in vals])
            else:
                rows.append([mpmath.mpc(v).real for v in vals])
                rows.append([mpmath.mpc(v).imag for v in vals])
        inv = mpmath.inverse(mpmath.matrix(rows))
        tbound = []
        for j in range(n):
            s = sum(abs(inv[j, k]) * emb_bound for k in range(n))
            tbound.append(int(mpmath.floor(s)) + 1)
    points = 1
    for tb in tbound:
        points *= 2 * tb + 1
    if points > ceilings.search_points:
        raise CeilingError(f"generator search box of {points} points", ceilings.search_points)
    cols = [a.hnf.column(j) for j in range(n)]
    out = []
    idx = [-tb for tb in tbound]
    norm_int = K.norm_int
    while True:
        coords = [sum(idx[j] * cols[j][i] for j in range(n)) for i in range(n)]
        if any(coords):
            if abs(norm_int(coords)) == target:
                out.append(coords)
        i = 0
        while i < n:
            idx[i] += 1
            if idx[i] <= tbound[i]:
                break
            idx[i] = -tbound[i]
            i += 1
        if i == n:
            return out
