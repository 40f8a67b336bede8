"""Recipe-independent confirmation of non-rational gap sets.

Instead of following the per-gap witness constructions, enumerate by
dynamic programming ALL products of the expanded basis functions
(powers of F_P, x_a, the f and g chains) whose certified pole bound fits
inside (m-1)(q+2).  Every reachable valuation v yields the gap v+1 by
the differential criterion, so the reachable set must be contained in
the claimed gap set; since the claimed set has exactly genus elements
and each is reachable, the two must coincide exactly.  A wrong gap set,
a wrong chain valuation or a wrong pole bound would all break the
equality.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from charthree.errors import CertificateError
from charthree.localseries import LocalData, f_pole_bound, g_pole_bound
from charthree.weierstrass import semigroup_at, verify_gaps, verify_nongaps


def reachable_valuations(curve, place):
    local = LocalData(curve, place)
    q, m = curve.q, curve.m
    basis = [(1, 2 * m), (q, q + 1)]          # x_a and F_P (v_P = q here)
    basis += [(fj.val, f_pole_bound(curve, j)) for j, fj in enumerate(local.f)]
    basis += [(gl.val, g_pole_bound(curve, ell)) for ell, gl in enumerate(local.g)]
    budget = (m - 1) * (q + 2)
    # knapsack closure over (valuation, pole bound) pairs
    reachable = [[False] * (budget + 1) for _ in range(budget + 2)]
    reachable[0][0] = True
    for (dv, dp) in basis:
        for v in range(budget + 1):
            row = reachable[v]
            for p in range(budget + 1 - dp):
                if row[p] and v + dv <= budget + 1:
                    reachable[v + dv][p + dp] = True
    return {v for v in range(budget + 2) if any(reachable[v])}


@pytest.mark.parametrize("order", [4, 8])
def test_blind_sweep_q9(curve9, order):
    place = curve9.sample_nonrational(order, count=1)[0]
    claimed = set(semigroup_at(curve9, place).gap_set.gaps)
    witnessed = {v + 1 for v in reachable_valuations(curve9, place)}
    assert witnessed == claimed


def test_blind_sweep_golden_special_q9(curve9):
    place = curve9.sample_nonrational(7, count=1, max_rel_degree=9)[0]
    assert (place.place_class.i, place.place_class.K) == (6, 1)
    claimed = set(semigroup_at(curve9, place).gap_set.gaps)
    assert claimed == {1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 19}
    witnessed = {v + 1 for v in reachable_valuations(curve9, place)}
    assert witnessed == claimed


@pytest.mark.parametrize("order", [13, 19])
def test_blind_sweep_q27(curve27, order):
    place = curve27.sample_nonrational(order, count=1)[0]
    claimed = set(semigroup_at(curve27, place).gap_set.gaps)
    witnessed = {v + 1 for v in reachable_valuations(curve27, place)}
    assert len(claimed) == curve27.genus
    assert witnessed == claimed


# -- negative controls: tampered claims must be rejected -----------------------


def test_tampered_gap_set_is_rejected(curve9):
    place = curve9.sample_nonrational(4, count=1)[0]   # true set has 13 -> 14
    assignment = semigroup_at(curve9, place)
    from charthree.semigroups import GapSet
    wrong = GapSet(sorted((set(assignment.gap_set.gaps) - {14}) | {13}))
    assignment.gap_set = wrong
    with pytest.raises((ValueError, AssertionError)):
        verify_gaps(curve9, assignment)


def test_tampered_generators_are_rejected(curve9, places9):
    place = next(p for p in places9 if p.place_class.kind == "beta_one")
    assignment = semigroup_at(curve9, place)
    from charthree.semigroups import NumericalSemigroup
    assignment.semigroup = NumericalSemigroup.from_generators(
        tuple(assignment.semigroup.generators) + (7,))
    with pytest.raises(CertificateError, match="generator 7 lacks a certificate"):
        verify_nongaps(curve9, assignment)


def test_tampered_claims_are_rejected_under_python_O():
    """`python -O` strips assert statements; the certificate checks must
    not depend on them."""
    here = Path(__file__).resolve()
    src = str(here.parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    tests = [f"{here}::test_tampered_gap_set_is_rejected",
             f"{here}::test_tampered_generators_are_rejected"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 passed" in proc.stdout
