"""Each reference case in ``cases.CASES`` gives what it declares.

Tests pick cases by their declared field, branch and verdicts, so a wrong
declaration must fail here rather than drop a case from a referee test.
"""

import numpy as np
import pytest

from twoiso import theorem_verdict, truncation_cutoff, truncation_safe
import cases


@pytest.mark.parametrize("name", list(cases.CASES))
def test_declared_field_branch_and_verdicts_hold(name):
    case = cases.CASES[name]
    problem = case.build()
    assert problem.perturbed().matrix.dtype == problem.update[0].dtype == cases.DTYPES[case.field]
    if case.verdicts is None:
        assert case.branch is None
        with pytest.raises(ValueError, match="the defect form overflows"):
            theorem_verdict(problem)
        return
    report = theorem_verdict(problem)
    assert report.branch == case.branch
    assert (report.verdict_theorem, report.verdict_oracle) == case.verdicts


def test_perturbed_v_cases_stay_within_round_off():
    # ||v|| = 1 + 5e-13 is not renormalized, and the 1e-14 of v above the
    # window is within the round-off that truncation_safe forgives.
    assert not cases.problem("bidisc-8-v-off-unit").v_was_normalized
    problem = cases.problem("bidisc-8-v-mass-above-window")
    Tt = problem.perturbed()
    assert truncation_safe(Tt, problem.v)
    assert np.any(problem.v[Tt.space.degrees > truncation_cutoff(Tt)])
    assert cases.problem("non-2-isometric-base").base_defect > 1.0


def test_names_filter_on_the_declared_expectations():
    real_ii = cases.names(field="real", branch="II")
    assert "bidisc-8" in real_ii and "c2-swap" in real_ii
    assert all(cases.CASES[name].field == "real" for name in real_ii)
    assert cases.names(verdicts=None) == ["c2-identity-1e154", "dirichlet-n0-alpha-1e78"]
    assert set(cases.LADDER) <= set(cases.names(verdicts=(True, True)))
