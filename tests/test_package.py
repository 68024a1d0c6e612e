"""The package's public name list."""

import twoiso
from twoiso import analysis, function_spaces, operators, spaces


def test_all_is_the_union_of_the_submodules_lists():
    names = twoiso.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(twoiso, name) is not None
    submodules = (spaces, operators, analysis, function_spaces)
    expected = {name for mod in submodules for name in mod.__all__} | {"__version__"}
    assert set(names) == expected
    assert sum(len(mod.__all__) for mod in submodules) + 1 == len(names)


PUBLIC = {
    "__version__",
    # spaces
    "WeightedSpace", "make_coordinate_space", "make_dirichlet_space", "make_bidisc_space",
    "weighted_gram_schmidt", "vec_from_pairs", "vec_to_pairs",
    # operators
    "Op", "TruncationError", "DefectReport", "apply", "perturb", "defect_quadratic",
    "polarized_defect_form", "defect_apply_in_window",
    # analysis
    "DEFAULT_RANK_TOL", "DEFAULT_DEFECT_TOL", "PerturbationProblem", "TheoremReport",
    "witness_vector", "gamma_coefficient", "condition_iib_residual",
    "condition_iia_residual", "kernel_condition_residual", "theorem_verdict",
    # function spaces
    "PolyCoeffs", "dirichlet_shift", "bidisc_shift", "perturbed_dirichlet",
    "constant_perturbed_dirichlet", "dirichlet_admissibility_residual",
    "dirichlet_perturbation_problem", "bidisc_example_problem",
}


def test_public_names_are_pinned():
    # A name that enters or leaves the API shows in this set. The window
    # is reached as Op.window; its builder and rules are not public names.
    assert len(PUBLIC) == 34
    assert set(twoiso.__all__) == PUBLIC
