"""End-to-end CLI tests: exit codes, JSON stability, pipeline identity."""

import json
import os
import runpy
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from twoiso import (
    Op,
    make_coordinate_space,
    theorem_verdict,
    vec_to_pairs,
)
from twoiso import cli, function_spaces
from twoiso.cli import (
    MAX_SEARCH_POINTS,
    constant_defect,
    main,
    search_dirichlet_alpha,
)
from twoiso.function_spaces import (
    PolyCoeffs,
    constant_perturbed_dirichlet,
    dirichlet_admissibility_residual,
    dirichlet_shift,
    perturbed_dirichlet,
)
from twoiso.operators import defect_quadratic
from twoiso.spaces import MAX_DIM
import cases
from cases import strict_json


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def swap_input_doc():
    return cases.problem_document(cases.problem("c2-swap"))


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_all_exit_zero(capsys):
    assert main(["reproduce", "all"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("name", ["c2-example", "dirichlet-pper", "dirichlet-n0", "bidisc"])
def test_reproduce_each_case(name, capsys):
    assert main(["reproduce", name]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_reproduce_unknown_name_is_input_error(capsys):
    assert main(["reproduce", "nope"]) == 2


def test_reproduce_mismatch_exit_one(capsys):
    # A tiny constant perturbation is numerically indistinguishable from the
    # unperturbed shift, so the expected "not a 2-isometry" outcome fails to
    # reproduce and the command must signal the mismatch.
    assert main(["reproduce", "dirichlet-n0", "--alpha", "1e-6"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_reproduce_json_format(capsys):
    assert main(["reproduce", "c2-example", "--format", "json"]) == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["pass"] is True
    case = doc["cases"][0]
    assert case["name"] == "c2-example"
    assert case["report"]["paper_branch"] == "(ii)"
    assert case["report"]["gamma"] == pytest.approx(0.0, abs=1e-12)


def test_reproduce_rejects_nonpositive_tolerance():
    assert main(["reproduce", "c2-example", "--tol-defect", "0"]) == 2


def test_reproduce_n0_zero_alpha_is_input_error(capsys):
    assert main(["reproduce", "dirichlet-n0", "--alpha", "0"]) == 2
    assert "nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["bidisc", "all"])
def test_reproduce_bidisc_needs_room(name, capsys):
    # The bidisc check reads the polarized defect on degree <= N - 4, which
    # is empty at N = 3: an input error that names the bound, and no case is
    # printed.
    assert main(["reproduce", name, "-N", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: reproduce bidisc needs N >= 4 for its window check "
                            "on degree <= N - 4, got N = 3\n")


@pytest.mark.parametrize("N", [-1, 0, 1, 2, 3])
def test_reproduce_bidisc_refuses_n_below_4_up_front(N, capsys):
    # N = 2 used to fail on the window of v and N = 3 on a degree of -1 that
    # the user never asked for; every N below the bound names it.
    assert main(["reproduce", "bidisc", "-N", str(N)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: reproduce bidisc needs N >= 4 for its window check "
                            f"on degree <= N - 4, got N = {N}\n")


def test_reproduce_bidisc_at_n_4_passes(capsys):
    assert main(["reproduce", "bidisc", "-N", "4"]) == 0
    assert "polarized defect on degree <= 0" in capsys.readouterr().out


def test_reproduce_absent_value_fails_the_check(capsys):
    # A rank tolerance above ||T*v - <T*v, v> v|| = 1 puts the swap example
    # in branch I, so gamma and condition (b) are absent: a missed
    # reproduction (exit 1), not a crash.
    args = ["reproduce", "c2-example", "--tol-rank", "10", "--format", "json"]
    assert main(args) == 1
    checks = strict_json(capsys.readouterr().out)["cases"][0]["checks"]
    gamma = next(c for c in checks if c["label"] == "gamma")
    assert gamma["value"] is None and gamma["pass"] is False


# Every reference check as (label, expected, pass), written out by hand so
# that a change in a label, a printed tolerance or an outcome shows up here.
_II_TRUE = [("verdict_theorem", "true", True), ("verdict_oracle", "true", True)]
C2_CHECKS = [
    ("branch", "II", True),
    ("gamma", "0 within 1e-10", True),
    ("cond_iib_residual", "<= 1e-12", True),
    ("kernel_residual", "<= 1e-12", True),
    ("full defect matrix max entry", "<= 1e-12", True),
    *_II_TRUE,
]
PPER_CHECKS = [
    (f"{label}: {check}", expected, True)
    for label, admissible in (
        ("p = -2z", True),
        ("p = (e^{i pi/3} - 1) z", True),
        ("p = i z", False),
    )
    for check, expected in (
        ("branch", "I"),
        ("admissibility residual", "0" if admissible else "nonzero"),
        ("verdict_theorem", "true" if admissible else "false"),
        ("verdict_oracle", "true" if admissible else "false"),
        ("defect on constant vs closed form", "0 within 1e-10"),
    )
]


def n0_checks(alpha_text, verdicts_pass):
    return [
        ("defect on constant", f"|alpha|^4 = {alpha_text} within 1e-10", True),
        ("verdict_theorem", "false (never a 2-isometry)", verdicts_pass),
        ("verdict_oracle", "false (never a 2-isometry)", verdicts_pass),
    ]


def bidisc_checks(top_degree):
    return [
        ("branch", "II", True),
        ("gamma", "0 within 1e-10", True),
        ("||u||^2", "2 within 1e-12", True),
        ("kernel_residual", "<= 1e-12", True),
        ("cond_iia_residual", "<= 1e-12", True),
        ("cond_iib_residual", "<= 1e-12", True),
        (f"polarized defect on degree <= {top_degree}", "<= 1e-10", True),
        *_II_TRUE,
    ]


ONE_REPORT = ["checks", "name", "pass", "report"]


@pytest.mark.parametrize(
    "args, code, cases",
    [
        (
            ["all"],
            0,
            [
                ("c2-example", ONE_REPORT, C2_CHECKS),
                ("dirichlet-pper", ["checks", "name", "pass", "reports"], PPER_CHECKS),
                ("dirichlet-n0", ["checks", "name", "notes", "pass", "report"],
                 n0_checks("1", True)),
                ("bidisc", ONE_REPORT, bidisc_checks(2)),
            ],
        ),
        (["bidisc", "-N", "8"], 0, [("bidisc", ONE_REPORT, bidisc_checks(4))]),
        (
            ["dirichlet-pper", "-N", "14"],
            0,
            [("dirichlet-pper", ["checks", "name", "pass", "reports"], PPER_CHECKS)],
        ),
        (
            ["dirichlet-n0", "--alpha", "1e-6"],
            1,
            [("dirichlet-n0", ["checks", "name", "notes", "pass", "report"],
              n0_checks("1e-24", False))],
        ),
        *(pytest.param(["dirichlet-pper", "-N", N], 0,
                       [("dirichlet-pper", ["checks", "name", "pass", "reports"], PPER_CHECKS)],
                       id=f"dirichlet-pper-{N}") for N in ("1000", "1999")),
        pytest.param(["bidisc", "-N", "40"], 0, [("bidisc", ONE_REPORT, bidisc_checks(36))],
                     id="bidisc-40"),
    ],
)
def test_reproduce_checks_are_pinned(args, code, cases, capsys):
    assert main(["reproduce", *args, "--format", "json"]) == code
    doc = strict_json(capsys.readouterr().out)
    assert doc["pass"] is (code == 0)
    assert [case["name"] for case in doc["cases"]] == [name for name, _, _ in cases]
    for case, (name, keys, checks) in zip(doc["cases"], cases):
        assert sorted(case) == keys
        got = [(c["label"], c["expected"], c["pass"]) for c in case["checks"]]
        assert got == checks
        assert case["pass"] is all(ok for _, _, ok in checks)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_matches_reproduce_numbers(tmp_path, capsys):
    path = write_json(tmp_path / "swap.json", swap_input_doc())
    assert main(["analyze", "--input", path, "--format", "json"]) == 0
    got = strict_json(capsys.readouterr().out)

    expected = theorem_verdict(cases.problem("c2-swap")).to_dict()
    for key in (
        "branch",
        "paper_branch",
        "gamma",
        "kernel_residual",
        "cond_iia_residual",
        "cond_iib_residual",
        "oracle_defect",
        "verdict_theorem",
        "verdict_oracle",
    ):
        assert got[key] == expected[key]


def test_analyze_output_stable_across_runs(tmp_path, capsys):
    path = write_json(tmp_path / "swap.json", swap_input_doc())
    assert main(["analyze", "--input", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", "--input", path, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_analyze_zero_v_is_input_error(tmp_path, capsys):
    doc = swap_input_doc()
    doc["v"] = [[0.0, 0.0], [0.0, 0.0]]
    path = write_json(tmp_path / "zero_v.json", doc)
    assert main(["analyze", "--input", path]) == 2
    assert "not rank one" in capsys.readouterr().err


def test_analyze_guards_non_2_isometric_base(tmp_path, capsys):
    space = make_coordinate_space(1)
    doc = {
        "operator": Op.from_exact_matrix(space, [[2.0]]).to_dict(),
        "u": [[1.0, 0.0]],
        "v": [[1.0, 0.0]],
    }
    path = write_json(tmp_path / "double.json", doc)
    assert main(["analyze", "--input", path]) == 2
    assert "not a 2-isometry" in capsys.readouterr().err
    assert main(["analyze", "--input", path, "--allow-non-2iso-base"]) == 0


def test_analyze_missing_file_is_input_error(tmp_path):
    assert main(["analyze", "--input", str(tmp_path / "missing.json")]) == 2


def test_analyze_malformed_json_is_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["analyze", "--input", str(path)]) == 2


@pytest.mark.parametrize("doc", [[1, 2], "problem", 3, None])
def test_analyze_document_not_an_object_is_input_error(doc, tmp_path, capsys):
    assert main(["analyze", "--input", write_json(tmp_path / "doc.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: analyze input must be a JSON object")


@pytest.mark.parametrize(
    "where", ["analyze-input", "defect-operator", "defect-vector-file", "defect-vector-inline"]
)
def test_deeply_nested_json_is_input_error(where, tmp_path, capsys):
    # Nesting past the decoder's recursion limit is bad input, not a
    # RecursionError traceback.
    deep = tmp_path / "deep.json"
    deep.write_text(cases.DEEP_JSON)
    shift = write_json(tmp_path / "shift.json", dirichlet_shift(4).to_dict())
    args = {
        "analyze-input": ["analyze", "--input", str(deep)],
        "defect-operator": ["defect", "--operator", str(deep), "--vector", "[[1.0, 0.0]]"],
        "defect-vector-file": ["defect", "--operator", shift, "--vector", str(deep)],
        "defect-vector-inline": ["defect", "--operator", shift, "--vector", cases.DEEP_JSON],
    }[where]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: JSON document is nested too deeply to decode"]


def _nan_u(doc):
    doc["u"][0] = [float("nan"), 0.0]


def _short_matrix_pair(doc):
    doc["operator"]["matrix"][0] = doc["operator"]["matrix"][0][:1]


def _scalar_u(doc):
    doc["u"] = 1.0


def _bool_in_u(doc):
    doc["u"][1][0] = True


def _negative_label(doc):
    doc["operator"]["space"]["labels"][0] = [-1, 0]


@pytest.mark.parametrize(
    "corrupt", [_nan_u, _short_matrix_pair, _scalar_u, _bool_in_u, _negative_label]
)
def test_analyze_malformed_document_is_input_error(corrupt, tmp_path, capsys):
    doc = swap_input_doc()
    corrupt(doc)
    path = write_json(tmp_path / "bad.json", doc)
    assert main(["analyze", "--input", path, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


_NESTED_KIND = json.loads("[" * 900 + "]" * 900)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("kind", [_NESTED_KIND, 7, None, {"kind": "custom"}],
                         ids=["nested-list", "number", "null", "object"])
def test_analyze_non_string_space_kind_is_input_error(kind, fmt, tmp_path, capsys):
    # The space kind is echoed in every report: any JSON value but a string
    # is refused, not echoed back.
    doc = swap_input_doc()
    doc["operator"]["space"]["kind"] = kind
    path = write_json(tmp_path / "kind.json", doc)
    assert main(["analyze", "--input", path, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: space kind must be a string"]


_E0, _E1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])


# The text report as (document, lines): every key in order, with "absent"
# for the branch II fields that branch I leaves None. The identity base with
# v = 2 e1 and u = -e1 is rescaled to v = e1, u = -2 e1, a reflection.
ANALYZE_TEXT = {
    "branch-II-swap": (
        lambda: cases.c2_document(cases.SWAP, -2.0 * _E0, _E1),
        [
            "branch: II",
            "paper_branch: (ii)",
            "kernel_residual: 0",
            "gamma: 0",
            "cond_iia_residual: 0",
            "cond_iib_residual: 0",
            "oracle_defect: 0",
            "verdict_theorem: true",
            "verdict_oracle: true",
            "safe_dim: 2",
            "s_dim_evaluated: 0",
            "v_was_normalized: false",
            "base_defect: 0",
            "tol_defect: 1e-08",
            "tol_rank: 1e-09",
        ],
    ),
    "branch-I-reflection": (
        lambda: cases.c2_document(np.eye(2), -_E1, 2.0 * _E1),
        [
            "branch: I",
            "paper_branch: (i)",
            "kernel_residual: 0",
            "gamma: absent",
            "cond_iia_residual: absent",
            "cond_iib_residual: absent",
            "oracle_defect: 0",
            "verdict_theorem: true",
            "verdict_oracle: true",
            "safe_dim: 2",
            "s_dim_evaluated: absent",
            "v_was_normalized: true",
            "base_defect: 0",
            "tol_defect: 1e-08",
            "tol_rank: 1e-09",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(ANALYZE_TEXT))
def test_analyze_text_output_is_pinned(case, tmp_path, capsys):
    make_doc, lines = ANALYZE_TEXT[case]
    path = write_json(tmp_path / "doc.json", make_doc())
    assert main(["analyze", "--input", path]) == 0
    assert capsys.readouterr().out.splitlines() == lines


# Finite entries whose defect form overflows. The first two used to exit 0
# with a NaN kernel residual and both verdicts false; the swap cases used
# to exit 2 with a misleading message (a degenerate denominator, a failed
# SVD).
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", ["diagonal-1e200-base",
                                  pytest.param("overflow", id="identity-base-huge-u"),
                                  "swap-base-huge-u", "swap-times-1e200"])
def test_analyze_overflow_is_input_error(case, fmt, tmp_path, capsys):
    path = write_json(tmp_path / "huge.json", cases.DOCUMENTS[case]())
    assert main(["analyze", "--input", path, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the defect form overflows")


# Finite u and v whose norms leave floating point at the problem boundary.
# The first two used to raise numpy RuntimeWarnings (a traceback under
# -W error), the third was reported as a zero u.
NORM_RANGE_MESSAGES = {
    "v-norm-overflow": "the squared norm of v overflows",
    "rescaled-u-overflow": "the rescaled u = ||v|| u overflows",
    "u-norm-underflow": "the squared norm of u underflows to zero",
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(NORM_RANGE_MESSAGES))
def test_analyze_norm_out_of_range_is_input_error(case, fmt, tmp_path, capsys):
    message = NORM_RANGE_MESSAGES[case]
    path = write_json(tmp_path / "norm.json", cases.DOCUMENTS[case]())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", "--input", path, "--format", fmt])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_analyze_json_condition_iia_finite_when_its_squares_overflow(tmp_path, capsys):
    # A valid problem whose defect form is finite, with entries near 1e243:
    # condition (a) used to read inf and the JSON encoder refused it.
    doc = cases.problem_document(cases.problem("c4-huge-u"))
    path = write_json(tmp_path / "huge-u.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", "--input", path, "--format", "json"])
    assert code == 0
    out = strict_json(capsys.readouterr().out)
    assert out["branch"] == "II"
    assert 1e200 < out["cond_iia_residual"] < float("inf")
    assert out["verdict_theorem"] is False and out["verdict_oracle"] is False


def test_reproduce_n0_overflowing_alpha_is_input_error(capsys):
    assert main(["reproduce", "dirichlet-n0", "--alpha", "1e80"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the defect form overflows")


@pytest.mark.parametrize("alpha", ["1e30", "1e50"])
def test_reproduce_n0_large_alpha_passes(alpha, capsys):
    # |alpha|^4 is checked within 1e-10 relative to max(1, |alpha|^4).
    assert main(["reproduce", "dirichlet-n0", "--alpha", alpha]) == 0
    assert "result: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("alpha", ["1e30", "1e50"])
def test_reproduce_n0_large_alpha_json_is_finite(alpha, capsys):
    # At 1e50 the defect image has entries near 1e200; the kernel residual
    # is a norm in range whose squares are not, so it must come out finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["reproduce", "dirichlet-n0", "--alpha", alpha, "--format", "json"])
    assert code == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["pass"] is True
    alpha4 = float(alpha) ** 4
    assert doc["cases"][0]["report"]["kernel_residual"] == pytest.approx(alpha4, rel=1e-10)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_defect_command_overflow_is_input_error(fmt, tmp_path, capsys):
    space = make_coordinate_space(2)
    path = write_json(
        tmp_path / "huge.json", Op.from_exact_matrix(space, 1e200 * np.eye(2)).to_dict()
    )
    vec = json.dumps(vec_to_pairs(space.basis_vector(0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["defect", "--operator", path, "--vector", vec, "--format", fmt])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the defect overflows")


def test_analyze_identity_base_with_phase_rotation(tmp_path, capsys):
    space = make_coordinate_space(3)
    rng = np.random.default_rng(70)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = v / space.norm(v)
    u = (np.exp(1j * 0.4) - 1.0) * v
    doc = {
        "operator": Op.from_exact_matrix(space, np.eye(3)).to_dict(),
        "u": vec_to_pairs(u),
        "v": vec_to_pairs(v),
    }
    path = write_json(tmp_path / "identity.json", doc)
    assert main(["analyze", "--input", path, "--format", "json"]) == 0
    got = strict_json(capsys.readouterr().out)
    assert got["paper_branch"] == "(i)"
    assert got["verdict_theorem"] is True
    assert got["verdict_oracle"] is True


def _near_tolerance_doc(**tolerances):
    """The C^2 swap with u scaled by 1 + 1e-8: the kernel residual and the
    norm balance read 4e-8, so the verdicts are false at the default
    tol_defect 1e-8 and true at 1e-7."""
    doc = cases.c2_document(cases.SWAP, -2.0 * (1.0 + 1e-8) * _E0, _E1)
    doc.update(tolerances)
    return doc


@pytest.mark.parametrize(
    "doc_tol, flags, verdict, tol_defect",
    [
        ({}, [], False, 1e-8),
        ({"tol_defect": 1e-7}, [], True, 1e-7),
        ({"tol_defect": 1e-7}, ["--tol-defect", "1e-8"], False, 1e-8),
        ({}, ["--tol-defect", "1e-7"], True, 1e-7),
        ({"tol_defect": 1}, [], True, 1.0),
    ],
    ids=["default", "document", "flag-over-document", "flag", "integer-document"],
)
def test_analyze_tolerance_precedence(doc_tol, flags, verdict, tol_defect, tmp_path, capsys):
    # The flag wins over the document, the document over the default.
    path = write_json(tmp_path / "near.json", _near_tolerance_doc(**doc_tol))
    assert main(["analyze", "--input", path, "--format", "json", *flags]) == 0
    text = capsys.readouterr().out
    got = strict_json(text)
    assert got["verdict_theorem"] is verdict
    assert got["verdict_oracle"] is verdict
    assert got["tol_defect"] == tol_defect
    assert type(got["tol_defect"]) is float
    assert f'"tol_defect": {tol_defect!r}' in text


@pytest.mark.parametrize("key", ["tol_defect", "tol_rank"])
# JSON source text of the value; 1e400 decodes to inf, and a 401-digit
# integer decodes to an int that no float holds.
@pytest.mark.parametrize(
    "token",
    ["true", '"1e-8"', "0", "-1", "1e400", pytest.param("1" + "0" * 400, id="int-1e400")],
)
def test_analyze_bad_document_tolerance_is_input_error(key, token, tmp_path, capsys):
    doc = json.dumps(_near_tolerance_doc())
    path = tmp_path / "bad-tol.json"
    path.write_text(f'{doc[:-1]}, "{key}": {token}}}')
    assert main(["analyze", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} must be finite and positive")


# ---------------------------------------------------------------------------
# search


def test_search_dirichlet_alpha_hits_lie_on_circle(capsys):
    code = main(
        [
            "search",
            "dirichlet-alpha",
            "--n", "1",
            "--re-min", "-2.2", "--re-max", "0.2",
            "--im-min", "-1.2", "--im-max", "1.2",
            "--step", "0.2",
            "--format", "json",
        ]
    )
    assert code == 0
    doc = strict_json(capsys.readouterr().out)
    hits = doc["hits"]
    assert hits
    for hit in hits:
        assert hit["circle_residual"] <= 1e-8
    assert any(
        abs(h["alpha"][0] + 2.0) <= 1e-9 and abs(h["alpha"][1]) <= 1e-9 for h in hits
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_constant_defect_matches_defect_quadratic(n):
    # The closed form against the forward defect of the candidate the search
    # builds, on the smallest truncation the search allows and a larger one.
    on_circle = [-1.0 + np.exp(1j * t) for t in (0.3, 2.0, np.pi, -1.1)]
    off_circle = [0.3 + 0.7j, -2.5 - 1.0j, 1e-3, 4.0j]
    alphas = np.array(on_circle + off_circle)
    q = constant_defect(n, alphas.reshape(2, 4))
    assert q.shape == (2, 4)
    # a q(1) that rounds to zero is +0.0, so no hit prints -0.0
    assert not np.signbit(constant_defect(n, np.array([1e-200, 1e-200j]))).any()
    for N in (2 * max(1, n) + 1, 2 * n + 4):
        for alpha, got in zip(alphas, q.ravel()):
            if n == 0:
                cand = constant_perturbed_dirichlet(N, alpha)
            else:
                p = PolyCoeffs((0.0,) * (n - 1) + (alpha,))
                cand = perturbed_dirichlet(N, p)
                residual = dirichlet_admissibility_residual(p)
                assert abs(got + residual) <= 1e-12 * max(1.0, abs(residual))
            expected = defect_quadratic(cand, cand.space.basis_vector(0))
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_search_dirichlet_alpha_default_grid_hits_exactly_the_circle():
    hits = search_dirichlet_alpha(
        n=1, re_range=(-3.0, 1.0), im_range=(-3.0, 1.0), step=0.05, N=12, tol=1e-8
    )
    # alpha + 1 = (a + ib)/20 with a^2 + b^2 = 400, other than alpha = 0
    expected = [
        (a, b)
        for a in range(-20, 21)
        for b in range(-20, 21)
        if a * a + b * b == 400 and (a, b) != (20, 0)
    ]
    found = [
        (round((h["alpha"][0] + 1.0) * 20), round(h["alpha"][1] * 20)) for h in hits
    ]
    assert sorted(found) == sorted(expected)
    assert len(found) == 11
    for h, (a, b) in zip(hits, found):
        assert h["alpha"] == pytest.approx([a / 20 - 1.0, b / 20], abs=1e-12)


def test_search_dirichlet_alpha_n2_empty(capsys):
    code = main(
        [
            "search",
            "dirichlet-alpha",
            "--n", "2",
            "--re-min", "-1.0", "--re-max", "0.5",
            "--im-min", "-0.5", "--im-max", "0.5",
            "--step", "0.25",
            "--format", "json",
        ]
    )
    assert code == 0
    assert strict_json(capsys.readouterr().out)["hits"] == []


def _survivor_grid(n):
    # The 5 x 5 grid on [-0.5, 0.5]^2 at tol 1 and the smallest truncation
    # the search allows for n.
    return ["search", "dirichlet-alpha", "--n", str(n), "-N", str(2 * max(1, n) + 1),
            "--tol", "1", "--step", "0.25", "--re-min", "-0.5", "--re-max", "0.5",
            "--im-min", "-0.5", "--im-max", "0.5"]


_N0_SURVIVORS = _survivor_grid(0)


def _search_json_hits(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--format", "json"])
    assert code == 0
    return strict_json(capsys.readouterr().out)["hits"]


def test_search_dirichlet_alpha_n0_confirms_its_survivors(capsys):
    # q(1) = |alpha|^4 <= 1/4 on the whole 5 x 5 grid, so every point but
    # alpha = 0 survives the prefilter and is built as M_z + (alpha 1)⊗1.
    # On the two-label window the oracle's largest entry is q(1) itself.
    # The public builders referee the search's shared shift, for n >= 1 too:
    # each hit's oracle is bit for bit the one of the builder's operator.
    grid = [-0.5, -0.25, 0.0, 0.25, 0.5]
    for n, count in ((0, 24), (1, 19), (2, 24)):
        argv = _survivor_grid(n)
        hits = _search_json_hits(argv, capsys)
        assert len(hits) == count
        N = int(argv[argv.index("-N") + 1])
        for hit in hits:
            re, im = hit["alpha"]
            if n == 0:
                assert hit["defect_on_constant"] == hit["oracle_defect"] == (re**2 + im**2) ** 2
                op = constant_perturbed_dirichlet(N, complex(re, im))
            else:
                op = perturbed_dirichlet(N, PolyCoeffs((0.0,) * (n - 1) + (complex(re, im),)))
            assert hit["oracle_defect"] == op.defect_form.max_residual
        if n == 0:
            assert [h["alpha"] for h in hits] == [[a, b] for a in grid for b in grid
                                                  if (a, b) != (0, 0)]


def test_search_text_output_lists_hits_or_says_none(capsys):
    # One compact JSON line per hit, the hits of --format json, then a count.
    assert main([*_N0_SURVIVORS, "--format", "json"]) == 0
    hits = strict_json(capsys.readouterr().out)["hits"]
    assert main(_N0_SURVIVORS) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("search {'family': 'dirichlet-alpha', 'n': 0, 'N': 3")
    assert all(line.startswith("  {") for line in out[1:-1])
    assert [strict_json(line) for line in out[1:-1]] == hits
    assert out[-1] == "24 hit(s)"
    assert main(["search", "dirichlet-alpha", "--n", "2", "--re-min", "0.5", "--re-max", "0.5",
                 "--im-min", "0", "--im-max", "0", "--step", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["no hits", "0 hit(s)"]


@pytest.mark.parametrize("args, message", [
    (["--n", "-1"], "n must be non-negative"),
    (["--n", "2", "-N", "4"], "truncation N=4 too small for n=2"),
    (["--n", "0", "-N", "1"], "truncation N=1 too small for n=0"),
])
def test_search_bad_n_or_truncation_is_input_error(args, message, capsys):
    assert main(["search", "dirichlet-alpha", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("part", ["re", "im"])
def test_search_inverted_range_is_input_error(part, capsys):
    # An inverted range used to scan an empty grid and report "0 hit(s)".
    args = ["search", "dirichlet-alpha", f"--{part}-min", "1", f"--{part}-max", "-3"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--{part}-min 1 is greater than --{part}-max -3" in captured.err


@pytest.mark.parametrize(
    "args, dim",
    [
        (["reproduce", "dirichlet-pper", "-N", "100000000"], 100000001),
        (["reproduce", "bidisc", "-N", "62"], 2016),
        (["search", "dirichlet-alpha", "-N", "100000000"], 100000001),
    ],
    ids=["dirichlet-pper", "bidisc", "search"],
)
def test_dimension_above_the_cap_is_input_error(args, dim, capsys):
    # Refused before any label or matrix is built, so a huge -N neither
    # runs out of memory nor tries to allocate gigabytes.
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"dimension {dim}, more than {MAX_DIM}" in captured.err


@pytest.mark.parametrize("step", ["1e-300", "1e-5"])
def test_search_grid_above_the_cap_is_input_error(step, capsys):
    # 1e-300 used to reach np.linspace ("Maximum allowed size exceeded"),
    # 1e-5 asks for 400,001 x 400,001 points; both are refused up front.
    assert main(["search", "dirichlet-alpha", "--step", step, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--step" in captured.err
    assert f"more than {MAX_SEARCH_POINTS} points" in captured.err


@pytest.mark.parametrize("n, alpha", [("1", "1e200"), ("0", "1e100"), ("2", "-1e200")])
def test_search_overflowing_defect_on_constant_is_pruned(n, alpha, capsys):
    # q(1) overflows to an infinity, which the prefilter prunes: no warning,
    # no hit, strict JSON.
    args = ["search", "dirichlet-alpha", "--n", n, f"--re-min={alpha}", f"--re-max={alpha}",
            "--im-min", "0", "--im-max", "0", "--step", "1", "--format", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(args)
    assert code == 0
    assert strict_json(capsys.readouterr().out)["hits"] == []


def test_search_prefilter_memory_does_not_grow_with_the_truncation():
    # A 5,000-point row at N = 400: the prefilter holds a few arrays of the
    # grid's size; (points, dim) forward images would take about 80 MB.
    tracemalloc.start()
    try:
        hits = search_dirichlet_alpha(
            n=1, re_range=(0.0, 0.0), im_range=(1.0, 5000.0), step=1.0, N=400, tol=1e-8
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == []
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "args, builds",
    [
        ([], 1),
        (["-N", "400", "--re-min", "0", "--re-max", "0", "--im-min", "1", "--im-max", "5000",
          "--step", "1", "--tol", "1e-8"], 0),
        (["-N", "1999", "--re-min", "0", "--re-max", "0", "--im-min", "0", "--im-max", "99999",
          "--step", "1"], 0),
    ],
    ids=["default-grid", "no-survivor-at-N-400", "no-survivor-at-N-1999"],
)
def test_search_builds_one_shared_shift_and_none_without_survivors(args, builds, monkeypatch,
                                                                  capsys):
    # The default grid has 11 survivors, all confirmed on one shift; a
    # search where no point survives builds no operator at all.
    calls = []

    def counted(N):
        calls.append(N)
        return dirichlet_shift(N)

    monkeypatch.setattr(cli, "dirichlet_shift", counted)
    monkeypatch.setattr(function_spaces, "dirichlet_shift", counted)
    hits = _search_json_hits(["search", "dirichlet-alpha", *args], capsys)
    assert len(hits) == (11 if builds else 0)
    assert len(calls) == builds


def test_search_trials_above_the_cap_is_input_error(monkeypatch, capsys):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "random_complex_vector", no_trial)
    args = ["search", "c2-rankone", "--trials", str(MAX_SEARCH_POINTS + 1)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --trials 1000001 is more than {MAX_SEARCH_POINTS}\n"


def test_search_c2_rankone_deterministic(capsys):
    args = ["search", "c2-rankone", "--trials", "16", "--seed", "3", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    hits = strict_json(first)["hits"]
    assert hits
    assert all(h["verdict_theorem"] for h in hits)
    # Half of 200 trials draw u on the correction locus, and each is a hit.
    hits = _search_json_hits(["search", "c2-rankone", "--trials", "200"], capsys)
    assert len(hits) == 100 and all(h["verdict_theorem"] is True for h in hits)


# ---------------------------------------------------------------------------
# defect


def test_defect_command_safe_vector(tmp_path, capsys):
    # A monomial under the Dirichlet shift, and the bidisc example's v under
    # its base, each read from a file.
    op = dirichlet_shift(6)
    for operator, vector in ((op.to_dict(), vec_to_pairs(op.space.monomial((2,)))),
                             (cases.DOCUMENTS["operator"](), cases.DOCUMENTS["vector"]())):
        code = main(["defect", "--operator", write_json(tmp_path / "operator.json", operator),
                     "--vector", write_json(tmp_path / "vector.json", vector), "--format", "json"])
        assert code == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["defect"] == pytest.approx(0.0, abs=1e-12)
        assert doc["truncation_safe"] is True


def test_defect_command_constant_perturbation(tmp_path, capsys):
    from twoiso.function_spaces import constant_perturbed_dirichlet

    op = constant_perturbed_dirichlet(6, 1.0)
    path = write_json(tmp_path / "pert.json", op.to_dict())
    vec = vec_to_pairs(op.space.basis_vector(0))
    code = main(
        ["defect", "--operator", path, "--vector", json.dumps(vec), "--format", "json"]
    )
    assert code == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["defect"] == pytest.approx(1.0, abs=1e-10)
    assert doc["truncation_safe"] is True


def test_defect_command_flags_top_degree(tmp_path, capsys):
    op = dirichlet_shift(6)
    path = write_json(tmp_path / "shift.json", op.to_dict())
    vec = vec_to_pairs(op.space.monomial((6,)))
    code = main(["defect", "--operator", path, "--vector", json.dumps(vec)])
    assert code == 0
    out = capsys.readouterr().out
    assert "truncation_safe = false" in out
    assert "warning" in out


def _defect_json(operator: Op, x, tmp_path, capsys) -> dict:
    path = write_json(tmp_path / "operator.json", operator.to_dict())
    code = main(["defect", "--operator", path, "--vector", json.dumps(vec_to_pairs(x)),
                 "--format", "json"])
    assert code == 0
    return strict_json(capsys.readouterr().out)


def test_defect_command_unbounded_growth_is_never_safe(tmp_path, capsys):
    # No growth certificate, no window: not even the zero vector is safe.
    shift = dirichlet_shift(4)
    op = Op(shift.space, shift.matrix)
    assert op.to_dict()["degree_growth"] == "unbounded"
    for x in (op.space.zeros(), op.space.basis_vector(0)):
        assert _defect_json(op, x, tmp_path, capsys)["truncation_safe"] is False


def test_defect_command_empty_window_holds_only_zero(tmp_path, capsys):
    # Growth 3 on Dirichlet N = 4: the window is degree <= -2, empty.
    shift = dirichlet_shift(4)
    op = Op(shift.space, shift.matrix, degree_growth=3)
    assert op.window.idx.size == 0
    assert _defect_json(op, op.space.zeros(), tmp_path, capsys)["truncation_safe"] is True
    assert _defect_json(op, op.space.basis_vector(0), tmp_path, capsys)["truncation_safe"] is False


def test_analyze_empty_perturbed_window_is_input_error(tmp_path, capsys):
    # The base M_z on Dirichlet N = 3 has a window; T + z^3 ⊗ 1 has none.
    base = dirichlet_shift(3)
    doc = {"operator": base.to_dict(), "u": vec_to_pairs(base.space.monomial((3,))),
           "v": vec_to_pairs(base.space.basis_vector(0))}
    assert main(["analyze", "--input", write_json(tmp_path / "p.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "truncation too small: no labels of degree <= -3" in captured.err


def test_defect_command_vector_from_file(tmp_path, capsys):
    op = dirichlet_shift(4)
    op_path = write_json(tmp_path / "shift.json", op.to_dict())
    vec_path = write_json(tmp_path / "vec.json", vec_to_pairs(op.space.monomial((1,))))
    assert main(["defect", "--operator", op_path, "--vector", vec_path]) == 0
    assert "defect_quadratic" in capsys.readouterr().out


def test_defect_command_dimension_mismatch(tmp_path, capsys):
    op = dirichlet_shift(4)
    path = write_json(tmp_path / "shift.json", op.to_dict())
    assert main(["defect", "--operator", path, "--vector", "[[1.0, 0.0]]"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["search", "dirichlet-alpha", "--step", "x"],
        ["search", "dirichlet-alpha", "--re-min", "x"],
        ["search", "c2-rankone", "--trials", "x"],
        ["search", "c2-rankone", "--seed", "-1"],
        ["search", "c2-rankone", "--tol", "nan"],
        ["reproduce", "dirichlet-n0", "--alpha", "x"],
        ["reproduce", "bidisc", "--tol-rank", "inf"],
    ],
    ids=lambda args: f"{args[2]}={args[3]}",
)
def test_bad_number_option_names_the_option(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = captured.err.splitlines()[-1]
    assert f"argument {args[2]}: must be " in message
    assert "_" not in message  # no private converter name


def test_search_negative_trials_is_input_error(capsys):
    assert main(["search", "c2-rankone", "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-negative" in captured.err


@pytest.mark.parametrize(
    "args, dest, value",
    [
        (["search", "dirichlet-alpha", "--re-min", "-1e-3"], "re_min", -1e-3),
        (["search", "dirichlet-alpha", "--im-max", "-2e0"], "im_max", -2.0),
        (["search", "dirichlet-alpha", "--re-min", "-1E+2"], "re_min", -100.0),
        (["reproduce", "dirichlet-n0", "--alpha", "-1e-3"], "alpha", complex(-1e-3)),
        (["reproduce", "dirichlet-n0", "--alpha", "-0.5+1j"], "alpha", complex(-0.5, 1.0)),
        (["reproduce", "dirichlet-n0", "--alpha", "-1j"], "alpha", complex(-1j)),
        (["reproduce", "dirichlet-n0", "--alpha", "-.5"], "alpha", complex(-0.5)),
        (["reproduce", "dirichlet-n0", "--alpha", "-2"], "alpha", complex(-2)),
        (["reproduce", "bidisc", "-N", "12"], "N", 12),
        (["search", "dirichlet-alpha", "-N", "12", "--re-min", "-1e-3"], "N", 12),
    ],
    ids=lambda arg: " ".join(arg) if isinstance(arg, list) else None,
)
def test_negative_values_in_exponent_or_complex_form_parse(args, dest, value):
    # argparse reads only -2 and -.5 style tokens as negative numbers, so
    # -1e-3 and -0.5+1j after a space were taken for option names.
    ns = cli.build_parser().parse_args(args)
    assert getattr(ns, dest) == value
    assert type(getattr(ns, dest)) is type(value)


@pytest.mark.parametrize(
    "args",
    [
        ["search", "dirichlet-alpha", "--re-min", "-1e-3", "--re-max", "0",
         "--im-min", "0", "--im-max", "0", "--step", "1"],
        ["search", "dirichlet-alpha", "--im-min", "-3", "--im-max", "-2e0"],
        ["reproduce", "dirichlet-n0", "--alpha", "-1e-3"],
        ["reproduce", "dirichlet-n0", "--alpha", "-0.5+1j"],
    ],
    ids=" ".join,
)
def test_negative_value_after_a_space_runs_as_after_an_equals_sign(args, capsys):
    # The same exit code and output as the "--opt=-1e-3" form, which always
    # parsed. At alpha = -1e-3 the defect 1e-12 is below tol, so
    # dirichlet-n0 misses its "never a 2-isometry" check and exits 1.
    joined = args[:2] + [f"{args[i]}={args[i + 1]}" for i in range(2, len(args), 2)]
    codes, outputs = [], []
    for argv in (args, joined):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes.append(main(argv + ["--format", "json"]))
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(strict_json(captured.out))
    assert codes[0] == codes[1] == (1 if args[-1] == "-1e-3" else 0)
    assert outputs[0] == outputs[1]


def test_an_option_name_after_an_option_is_still_refused(capsys):
    assert main(["search", "dirichlet-alpha", "--re-min", "--re-max", "0"]) == 2
    assert "expected one argument" in capsys.readouterr().err


def test_the_module_runs_as_a_program_with_warnings_as_errors(monkeypatch):
    # python -W error -m twoiso.cli: strict JSON and exit 0, or exit 2 with
    # nothing on stdout. Then the error run in this process, as __main__.
    path = (os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    bad = ["search", "c2-rankone", "--trials", "-5"]
    for argv, code in ((["reproduce", "c2-example", "--format", "json"], 0), (bad, 2)):
        run = subprocess.run([sys.executable, "-W", "error", "-m", "twoiso.cli", *argv],
                             capture_output=True, text=True, env=env)
        assert run.returncode == code, run.stderr
        if code:
            assert run.stdout == ""
        else:
            assert strict_json(run.stdout)["pass"] is True
    monkeypatch.delitem(sys.modules, "twoiso.cli")
    monkeypatch.setattr(sys, "argv", ["twoiso", *bad])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("twoiso.cli", run_name="__main__")
    assert exit_.value.code == 2


# ---------------------------------------------------------------------------
# many calls in one process


def test_repeated_calls_in_one_process_match_each_call_on_its_own(tmp_path, capsys):
    # main builds its parser on the first call and reuses it. Each command of
    # the sequence, exit-2 errors and --help among them, must give the exit
    # code, stdout and stderr it gives on a parser built for it alone.
    cases.write_analyze_documents(tmp_path)
    bad = swap_input_doc()
    _nan_u(bad)
    first = ["analyze", "--input", str(tmp_path / f"{cases.ANALYZE_DOCUMENTS[0]}.json"),
             "--format", "json"]
    sequence = [
        first,
        ["search", "dirichlet-alpha", "--step", "x"],
        ["analyze", "--input", write_json(tmp_path / "bad.json", bad)],
        ["reproduce", "c2-example", "--format", "json"],
        ["--help"],
        first,
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    parser = cli.build_parser()
    assert [run(argv) for argv in sequence] == alone
    assert cli.build_parser() is parser
    assert [code for code, _, _ in alone] == [0, 2, 2, 0, 0, 0]
    assert "argument --step: must be " in alone[1][2]
    assert strict_json(alone[0][1]) == strict_json(alone[-1][1])


def test_main_looks_up_the_subcommand_when_it_is_called(tmp_path, monkeypatch):
    # The parser outlives the first call, so it must not hold the command
    # functions: one replaced on the module after that call, as a tracer
    # wraps cmd_analyze, is the one the next call runs.
    path = write_json(tmp_path / "swap.json", swap_input_doc())
    assert main(["analyze", "--input", path]) == 0
    seen = []

    def spy(ns):
        seen.append(ns.input)
        return 7

    monkeypatch.setattr(cli, "cmd_analyze", spy)
    assert main(["analyze", "--input", path]) == 7
    assert seen == [path]
