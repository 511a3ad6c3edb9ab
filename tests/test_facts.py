"""Facts about the two example systems, run as tests.

Fact E: example 2 has one primitive exact overlap, the pair ``15``/``23``
at level 2, and every other pair of words with equal maps is derived
from it.  ``overlap_transfer_counts`` counts the primitive and derived
pairs of each level over the walks of ``_return_walks`` without building
a pair; the overlap scan lists them, and ``perfbench/reference.py``
counts example 2's pairs from the tiling of ``15`` and ``23`` alone,
without sepkit.  That module is loaded from its file and only read.

Fact C: each option of a template is an injective affine map of the
scaled gap u, u -> mu*u + (dP, dQ) on the displacement lattice, with
mu = -m on a swap, and the value u_n alone decides option n + 1: the
option the construction takes maps u_n into (0, 1), the other does not.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sepkit import DrivingSequence, exact_overlap_scan, example_template, param_point
from sepkit.separation import DisplacementLattice

from bruteforce import overlap_transfer_counts, small_systems

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"


def _scan_counts(sys, max_level):
    """(primitive, derived) pairs per level, read from the scan's level column."""
    scan = exact_overlap_scan(sys, max_level)
    primitive, derived = Counter(scan.overlaps.value), Counter(scan.derived.value)
    return [(primitive[level], derived[level]) for level in range(1, max_level + 1)]


@pytest.mark.parametrize("which", [1, 2])
def test_transfer_count_matches_the_overlap_scan(which):
    sys = example_template(which).system
    assert overlap_transfer_counts(sys, 7) == _scan_counts(sys, 7)


@settings(max_examples=40, deadline=None)
@given(small_systems(), st.integers(1, 4))
def test_transfer_count_matches_the_overlap_scan_random_systems(sys, max_level):
    assert overlap_transfer_counts(sys, max_level) == _scan_counts(sys, max_level)


def test_example2_pairs_all_derive_from_one_primitive_overlap():
    spec = importlib.util.spec_from_file_location("perfbench_reference_facts", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    counts = overlap_transfer_counts(example_template(2).system, 12)
    assert [primitive for primitive, _ in counts] == [0, 1] + [0] * 10
    assert [primitive + derived for primitive, derived in counts] == (
        reference.overlap_pair_counts(12)
    )


@pytest.mark.parametrize("sequence", [DrivingSequence.thue_morse(), DrivingSequence.fibonacci()],
                         ids=["thue-morse", "fibonacci"])
@pytest.mark.parametrize("which", [1, 2])
def test_the_scaled_gap_alone_decides_the_next_option(which, sequence):
    # levels 1-300; example 2's first step is its fixed prefix, not an option
    tmpl = example_template(which)
    pt = param_point(tmpl, sequence, budget=5000)
    lattice = DisplacementLattice(tmpl.system)
    lp, lq, m = lattice.lp, lattice.lq, lattice.m
    maps = {
        label: (-m if opt.swap else m, *lattice.step(opt.append_left, opt.append_right))
        for label, opt in (("option1", tmpl.option1), ("option2", tmpl.option2))
    }

    def in_unit_interval(P, Q):
        return pt.sign_lattice(P, lp, Q, lq) > 0 and pt.sign_lattice(lp - P, lp, -Q, lq) > 0

    states, checked = pt.refiner.states_up_to(301), 0
    for state, taken in zip(states, states[1:]):
        if taken.choice == "prefix":
            continue
        P, Q = state.point
        for label, (mu, dP, dQ) in maps.items():
            inside = in_unit_interval(mu * P + dP, mu * Q + dQ)
            assert inside == (label == taken.choice), (state.level, label)
        checked += 1
    assert checked == (300 if which == 1 else 299)
