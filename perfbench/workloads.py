"""The benchmark's four workloads.

A workload is a fixed list of operations made from the seed during set-up.
One pass runs the list in order, one operation at a time: a closed loop with
a single caller that issues the next operation only after the previous one
returned. Operations call only the API the ``twoiso`` command line itself
uses, and they look every function up on its module at call time, so the
tracer in ``spans.py`` sees the calls once it has wrapped them.

Every operation has a check. ``Outcome.failed`` marks an operation that
raised, gave the wrong verdict, branch or exit code, disagreed with the
oracle, or printed JSON that is not strict. ``Outcome.wrong`` marks the
subset that gave a wrong answer to a valid input; a malformed input that is
not refused with exit code 2 is a failure but not a wrong answer.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Absolute tolerance of the criterion-6 trials; the CLI default as well.
TOL_DEFECT = 1e-8


@dataclass
class Outcome:
    token: str
    failed: bool = False
    wrong: bool = False
    facts: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    dim: int = 0  # space dimension, where large; picks the probe kernel in speed.py


def _raised(name: str, exc: BaseException) -> Outcome:
    return Outcome(f"{name}:raised:{type(exc).__name__}", failed=True)


def _verdict_check(name: str, branch: str, verdict: bool):
    """Check a TheoremReport against the expected branch and verdict."""

    def check(report) -> Outcome:
        if isinstance(report, BaseException):
            return _raised(name, report)
        token = (
            f"{name}:{report.branch}:{report.verdict_theorem}:{report.verdict_oracle}"
        )
        ok = (
            report.branch == branch
            and report.verdict_theorem == verdict
            and report.verdict_oracle == verdict
        )
        return Outcome(token, failed=not ok, wrong=not ok)

    return check


# ---------------------------------------------------------------------------
# ladder: the ROADMAP ladder of growing safe windows

LADDER = [("D", n) for n in (12, 24, 48, 96)] + [("B", n) for n in (6, 10, 14, 18)]
TINY_LADDER = [("D", 12), ("B", 6)]


def ladder(tw, seed: int, tiny: bool, workdir: Path) -> list[Op]:
    """Dirichlet M_z + (-2z)⊗1 (branch I) and bidisc M_z1 + (-z1^2+z2)⊗z1
    (branch II), both 2-isometries. One op builds the problem, which
    validates the base, and runs theorem_verdict. The rungs do not depend on
    the seed."""
    fs, an = tw.function_spaces, tw.analysis
    p = fs.PolyCoeffs((-2.0,))
    ops = []
    for family, n in TINY_LADDER if tiny else LADDER:
        name = f"{family}{n}"
        if family == "D":
            ops.append(Op(
                name,
                lambda n=n: an.theorem_verdict(fs.dirichlet_perturbation_problem(n, p)),
                _verdict_check(name, "I", True),
                dim=n + 1,
            ))
        else:
            ops.append(Op(
                name,
                lambda n=n: an.theorem_verdict(fs.bidisc_example_problem(n)),
                _verdict_check(name, "II", True),
                dim=(n + 1) * (n + 2) // 2,
            ))
    return ops


# ---------------------------------------------------------------------------
# c2-trials: the seeded trial generator of acceptance criterion 6

# trial % 4 -> (branch, verdict)
C2_EXPECTED = {0: ("II", True), 1: ("I", True), 2: ("II", False), 3: ("II", False)}


def c2_trials(tw, seed: int, tiny: bool, workdir: Path) -> list[Op]:
    """Unitary bases on C^2..C^6 with four kinds of perturbation: an
    isometric correction (II, true), an eigenvector direction (I, true), the
    correction scaled by 1.7 (II, false) and a random pair (II, false)."""
    sm, sp, opm, an = tw.sampling, tw.spaces, tw.operators, tw.analysis
    rng = np.random.default_rng(seed)
    ops = []
    for trial in range(8 if tiny else 200):
        dim = 2 + trial % 5
        V = sm.random_unitary(dim, rng)
        base = opm.Op.from_exact_matrix(sp.make_coordinate_space(dim), V)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        kind = trial % 4
        if kind == 0:
            u, v = sm.isometric_correction_pair(V, sm.random_complex_vector(dim, rng), theta)
        elif kind == 1:
            u, v = sm.invariant_kernel_pair(V, theta, which=trial % dim)
        elif kind == 2:
            u, v = sm.isometric_correction_pair(V, sm.random_complex_vector(dim, rng), theta)
            u = 1.7 * u
        else:
            u = sm.random_complex_vector(dim, rng)
            v = sm.random_complex_vector(dim, rng)
        name = f"t{trial}"
        ops.append(Op(
            name,
            lambda base=base, u=u, v=v: an.theorem_verdict(
                an.PerturbationProblem(base=base, u=u, v=v, tol_defect=TOL_DEFECT)
            ),
            _verdict_check(name, *C2_EXPECTED[kind]),
        ))
    return ops


# ---------------------------------------------------------------------------
# alpha-search: the default `search dirichlet-alpha` grid

def alpha_search(tw, seed: int, tiny: bool, workdir: Path) -> list[Op]:
    """One op scans alpha over [-3, 1]^2 for M_z + (alpha z)⊗1 at N = 12,
    with k grid steps per unit (k = 20 is the CLI default step 0.05). The
    grid does not depend on the seed. Hits must be exactly the grid points
    on |alpha + 1| = 1 other than alpha = 0, found here in integers:
    alpha + 1 = (a + i b) / k with a^2 + b^2 = k^2."""
    cli = tw.cli
    k = 4 if tiny else 20
    side = 4 * k + 1
    expected = {
        (a + 2 * k, b + 3 * k)
        for a in range(-k, k + 1)
        for b in range(-k, k + 1)
        if a * a + b * b == k * k and (a, b) != (k, 0)
    }

    def run():
        return cli.search_dirichlet_alpha(
            n=1, re_range=(-3.0, 1.0), im_range=(-3.0, 1.0),
            step=1.0 / k, N=12, tol=TOL_DEFECT,
        )

    def check(hits) -> Outcome:
        if isinstance(hits, BaseException):
            return _raised("alpha", hits)
        found = set()
        on_circle = True
        for hit in hits:
            re, im = hit["alpha"]
            i, j = round((re + 3.0) * k), round((im + 3.0) * k)
            on_grid = abs(re - (-3.0 + i / k)) <= 1e-9 and abs(im - (-3.0 + j / k)) <= 1e-9
            on_circle &= on_grid and abs(abs(complex(re, im) + 1.0) - 1.0) <= 1e-6
            found.add((i, j))
        ok = on_circle and len(hits) == len(expected) and found == expected
        token = "alpha:" + ",".join(f"{i}/{j}" for i, j in sorted(found))
        return Outcome(
            token, failed=not ok, wrong=not ok,
            facts={"search_points": side * side, "search_hits": len(hits)},
        )

    return [Op("alpha", run, check)]


# ---------------------------------------------------------------------------
# analyze-json: the CLI's decode, decide and encode path

def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def _problem_doc(sp, problem) -> dict:
    return {
        "operator": problem.base.to_dict(),
        "u": sp.vec_to_pairs(problem.u),
        "v": sp.vec_to_pairs(problem.v),
    }


def _weighted_docs(tw, rng) -> tuple[dict, dict]:
    """A weighted-unitary base on weighted C^4 with an isometric correction
    (II, true) and the same correction scaled by 1.7 (II, false). The seed
    draws the weights, the unitary and the correction; the dimension is fixed
    so that every seed asks for the same amount of work.

    With S = diag(sqrt(w)), S^-1 U S is unitary for the weighted inner
    product, and the Euclidean pair (u', v') for U maps to (S^-1 u', S^-1 v').
    """
    sm, sp, opm = tw.sampling, tw.spaces, tw.operators
    dim = 4
    w = rng.uniform(0.5, 3.0, size=dim)
    s = np.sqrt(w)
    U = sm.random_unitary(dim, rng)
    space = sp.make_coordinate_space(dim, weights=tuple(float(x) for x in w))
    base = opm.Op.from_exact_matrix(space, U * s[None, :] / s[:, None])
    u0, v0 = sm.isometric_correction_pair(
        U, sm.random_complex_vector(dim, rng), rng.uniform(0.0, 2.0 * np.pi)
    )
    u, v = u0 / s, v0 / s
    op_doc = base.to_dict()
    good = {"operator": op_doc, "u": sp.vec_to_pairs(u), "v": sp.vec_to_pairs(v)}
    scaled = {"operator": op_doc, "u": sp.vec_to_pairs(1.7 * u), "v": sp.vec_to_pairs(v)}
    return good, scaled


def _malformed(doc: dict) -> dict[str, dict]:
    """Five broken variants of a valid document; each must exit 2."""
    out = {name: copy.deepcopy(doc) for name in (
        "bad-entry-count", "bad-missing-key", "bad-nan-u", "bad-short-pair", "bad-scalar-u",
    )}
    out["bad-entry-count"]["operator"]["matrix"].pop()
    del out["bad-missing-key"]["v"]
    out["bad-nan-u"]["u"][0] = [math.nan, 0.0]
    mat = out["bad-short-pair"]["operator"]["matrix"]
    mat[0] = mat[0][:1]
    out["bad-scalar-u"]["u"] = 1.0
    return out


# Four weighted bases give 15 documents: 4 fast refusals, 9 C^4 analyses,
# then D48 and B10. That puts the p50 well inside the C^4 ones and the p90 in
# the middle of the D48 ones, rather than at the edge of a kind, where the
# percentile would follow the noisiest op of that kind.
WEIGHTED_BASES = 4


def analyze_json(tw, seed: int, tiny: bool, workdir: Path) -> list[Op]:
    """In-process `twoiso analyze --input f --format json` on Dirichlet N=48,
    bidisc N=10, eight seeded weighted C^4 documents and five malformed ones.
    Set-up writes the documents into ``workdir``."""
    fs, sp, cli = tw.function_spaces, tw.spaces, tw.cli
    rng = np.random.default_rng(seed)
    dirichlet = fs.dirichlet_perturbation_problem(12 if tiny else 48, fs.PolyCoeffs((-2.0,)))
    bidisc = fs.bidisc_example_problem(6 if tiny else 10)
    # name -> (document, expected (branch, verdict), or None for exit 2)
    docs = {
        "dirichlet": (_problem_doc(sp, dirichlet), ("I", True)),
        "bidisc": (_problem_doc(sp, bidisc), ("II", True)),
    }
    for i in range(1, WEIGHTED_BASES + 1):
        good, scaled = _weighted_docs(tw, rng)
        docs[f"weighted{i}-true"] = (good, ("II", True))
        docs[f"weighted{i}-false"] = (scaled, ("II", False))
        if i == 1:
            malformed = _malformed(good)
    docs.update({name: (doc, None) for name, doc in malformed.items()})

    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, (doc, expected) in docs.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

        def run(path=path):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["analyze", "--input", str(path), "--format", "json"])
            return code, out.getvalue()

        ops.append(Op(name, run, _analyze_check(name, expected)))
    return ops


def _analyze_check(name: str, expected):
    def check(result) -> Outcome:
        if isinstance(result, BaseException):
            return _raised(name, result)
        code, text = result
        try:
            report = _strict_json(text) if code == 0 else None
        except ValueError:
            return Outcome(f"{name}:rc={code}:invalid-json", failed=True, wrong=expected is not None)
        if expected is None:
            return Outcome(f"{name}:rc={code}", failed=code != 2)
        branch, verdict = expected
        got = (report.get("branch"), report.get("verdict_theorem"), report.get("verdict_oracle"))
        ok = code == 0 and got == (branch, verdict, verdict)
        return Outcome(f"{name}:rc={code}:{got[0]}:{got[1]}:{got[2]}", failed=not ok, wrong=not ok)

    return check


WORKLOADS = {
    "ladder": ladder,
    "c2-trials": c2_trials,
    "alpha-search": alpha_search,
    "analyze-json": analyze_json,
}
