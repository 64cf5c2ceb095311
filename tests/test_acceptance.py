"""Acceptance suite: every oracle property, each run once.

test_selftest_property runs each check of brute.CHECKS as a test of its
own, so each property passes or fails under its own name (the name is
that of the `selftest` command that once ran them, kept so that the item
IDs stay stable).  The criterion tests run the other four checks, with
what a plain run would not show: the corpus shape and time bounds of
criteria 1, 2 and 7, and the larger trial counts of criteria 3 and 7.
Each criterion test prints a single PASS line when it succeeds (visible
with pytest -s or in the captured output).
"""

import time

import pytest

import brute


def _report(number: int, name: str):
    print(f"ACCEPTANCE {number} ({name}): PASS")


@pytest.mark.parametrize("check", [fn for _name, fn in brute.CHECKS],
                         ids=[name for name, _fn in brute.CHECKS])
def test_selftest_property(check):
    check()


def test_criterion_1_enumeration_correctness():
    corpus = brute.GROUP_CORPUS
    assert len(corpus) >= 10
    kinds = {case.name[0] for case in corpus}
    assert {"c", "s", "d", "q"} <= kinds  # cyclic/symmetric/dihedral/quaternion
    assert all(case.order <= 48 for case in corpus)
    start = time.perf_counter()
    detail = brute.check_enumeration_order_index()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"enumeration corpus took {elapsed:.2f}s"
    _report(1, f"enumeration correctness, {detail} in {elapsed:.2f}s")


def test_criterion_2_double_coset_oracle():
    start = time.perf_counter()
    detail = brute.check_double_coset_partition()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"double-coset oracle took {elapsed:.2f}s"
    _report(2, detail)


def test_criterion_3_well_definedness():
    detail = brute.check_representative_independence(trials=1000, seed=brute.SEED)
    _report(3, detail)


def test_criterion_7_quotient_soundness():
    start = time.perf_counter()
    detail = brute.check_quotient_soundness(pairs=500, seed=brute.SEED)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"soundness suite took {elapsed:.2f}s"
    _report(7, f"{detail} in {elapsed:.1f}s")
