"""Command-line front end.

Subcommands:

* ``reproduce``: run the bundled reference perturbation problems and check
  every reported number against its expected outcome.
* ``analyze``: decide a user-supplied problem given as operator + vectors
  in JSON.
* ``search``: scan a perturbation family for parameters whose perturbed
  operator passes the defect oracle.
* ``defect``: evaluate the quadratic defect of an operator at one vector.

Exit codes: 0 when everything passed, 1 when a reproduction check missed
its expected outcome, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import (
    DEFAULT_DEFECT_TOL,
    DEFAULT_RANK_TOL,
    PerturbationProblem,
    theorem_verdict,
)
from .function_spaces import (
    PolyCoeffs,
    bidisc_example_problem,
    dirichlet_admissibility_residual,
    dirichlet_shift,
)
from .operators import (
    Op,
    defect_quadratic,
    perturb,
    truncation_cutoff,
    truncation_safe,
)
from .sampling import isometric_correction_pair, random_complex_vector
from .spaces import (make_coordinate_space, make_dirichlet_space, vec_from_pairs,
                     vec_to_pairs)

DEFAULT_DIRICHLET_N = 12
DEFAULT_BIDISC_N = 6
# Largest grid `search dirichlet-alpha` scans (the default grid has 6,561
# points) and most `search c2-rankone --trials`; more is an input error.
MAX_SEARCH_POINTS = 1_000_000


# ---------------------------------------------------------------------------
# small helpers


def _arg_type(parse: Callable, what: str, ok: Callable = np.isfinite) -> Callable:
    """An argparse type that parses the text and requires ``ok`` of the value.

    Both failures raise ArgumentTypeError, which argparse reports under the
    option's name: "argument --step: must be a finite positive number, got 'x'".
    """

    def convert(text: str):
        try:
            val = parse(text)
        except ValueError:
            val = None
        if val is None or not ok(val):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return val

    return convert


_finite_float = _arg_type(float, "a finite number")
_positive_float = _arg_type(float, "a finite positive number", lambda val: 0 < val < np.inf)
_non_negative_int = _arg_type(int, "a non-negative integer", lambda val: val >= 0)
_finite_complex = _arg_type(complex, "a finite number")


def _dumps(payload, indent: int | None = 2) -> str:
    """Strict RFC 8259 JSON: a NaN or infinity raises ValueError (exit 2)."""
    return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# ---------------------------------------------------------------------------
# reproduce
#
# A check kind turns one expectation into its ``expected`` text and its test,
# so the tolerance that is printed is the tolerance that is applied.


def _equals(want, why: str = ""):
    return _fmt(want) + (f" ({why})" if why else ""), lambda value: value == want


def _at_most(tol: float):
    return f"<= {tol:g}", lambda value: value <= tol


def _within(target: float, tol: float, what: str = ""):
    text = f"{what}{_fmt(target)} within {tol:g}"
    return text, lambda value: abs(value - target) <= tol


def _zero_iff(zero: bool, tol: float):
    return "0" if zero else "nonzero", lambda value: (abs(value) <= tol) == zero


def _c2_example(ns, N):
    space = make_coordinate_space(2)
    base = Op.from_exact_matrix(space, [[0.0, 1.0], [1.0, 0.0]])
    problem = PerturbationProblem(
        base=base,
        u=-2.0 * space.basis_vector(0),
        v=space.basis_vector(1),
        tol_rank=ns.tol_rank,
        tol_defect=ns.tol_defect,
    )
    r = theorem_verdict(problem)
    # C^2 is exact, so the safe window is the whole space and the oracle form
    # is the full defect matrix W^{1/2} D W^{-1/2} (D itself for unit weights).
    return r, [
        ("branch", r.branch, _equals("II")),
        ("gamma", r.gamma, _within(0.0, 1e-10)),
        ("cond_iib_residual", r.cond_iib_residual, _at_most(1e-12)),
        ("kernel_residual", r.kernel_residual, _at_most(1e-12)),
        ("full defect matrix max entry", r.oracle_defect, _at_most(1e-12)),
        ("verdict_theorem", r.verdict_theorem, _equals(True)),
        ("verdict_oracle", r.verdict_oracle, _equals(True)),
    ]


# (label, p, whether M_z + p⊗1 is a 2-isometry)
_PPER_POLYNOMIALS = (
    ("p = -2z", PolyCoeffs((-2.0,)), True),
    ("p = (e^{i pi/3} - 1) z", PolyCoeffs((np.exp(1j * np.pi / 3) - 1.0,)), True),
    ("p = i z", PolyCoeffs((1j,)), False),
)


def _dirichlet_pper(ns, N):
    base = dirichlet_shift(N)  # one base for the three, so one defect form
    one = base.space.basis_vector(0)
    reports, checks = {}, []
    for label, p, admissible in _PPER_POLYNOMIALS:
        residual = dirichlet_admissibility_residual(p)
        problem = PerturbationProblem(base, p.to_vector(base.space), one,
                                      tol_rank=ns.tol_rank, tol_defect=ns.tol_defect)
        r = reports[label] = theorem_verdict(problem)
        closed_form_gap = defect_quadratic(problem.perturbed(), one) + residual
        checks += [
            (f"{label}: branch", r.branch, _equals("I")),
            (
                f"{label}: admissibility residual",
                residual,
                _zero_iff(admissible, 1e-12),
            ),
            (f"{label}: verdict_theorem", r.verdict_theorem, _equals(admissible)),
            (f"{label}: verdict_oracle", r.verdict_oracle, _equals(admissible)),
            (
                f"{label}: defect on constant vs closed form",
                closed_form_gap,
                _within(0.0, 1e-10),
            ),
        ]
    return reports, checks


def _dirichlet_n0(ns, N):
    alpha = complex(ns.alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero for the constant perturbation")
    base = dirichlet_shift(N)
    one = base.space.basis_vector(0)
    problem = PerturbationProblem(
        base=base,
        u=alpha * one,
        v=one,
        tol_rank=ns.tol_rank,
        tol_defect=ns.tol_defect,
    )
    r = theorem_verdict(problem)
    never = "never a 2-isometry"
    alpha4 = abs(alpha) ** 4
    return r, [
        (
            "defect on constant",
            defect_quadratic(problem.perturbed(), one),
            _within(alpha4, 1e-10 * max(1.0, alpha4), "|alpha|^4 = "),
        ),
        ("verdict_theorem", r.verdict_theorem, _equals(False, never)),
        ("verdict_oracle", r.verdict_oracle, _equals(False, never)),
    ]


def _bidisc(ns, N):
    if N < 4:  # the window check below reads degree <= N - 4
        raise ValueError(f"reproduce bidisc needs N >= 4 for its window check "
                         f"on degree <= N - 4, got N = {N}")
    problem = bidisc_example_problem(N, tol_rank=ns.tol_rank, tol_defect=ns.tol_defect)
    r = theorem_verdict(problem)
    # Growth 2, the degree of u's range, not the scanned 1: window degree <= N - 4.
    op = Op(problem.space, problem.perturbed().matrix, degree_growth=2)
    window_defect = op.defect_form.max_residual
    nu = problem.space.norm(problem.u)
    return r, [
        ("branch", r.branch, _equals("II")),
        ("gamma", r.gamma, _within(0.0, 1e-10)),
        ("||u||^2", nu * nu, _within(2.0, 1e-12)),
        ("kernel_residual", r.kernel_residual, _at_most(1e-12)),
        ("cond_iia_residual", r.cond_iia_residual, _at_most(1e-12)),
        ("cond_iib_residual", r.cond_iib_residual, _at_most(1e-12)),
        (
            f"polarized defect on degree <= {truncation_cutoff(op)}",
            window_defect,
            _at_most(1e-10),
        ),
        ("verdict_theorem", r.verdict_theorem, _equals(True)),
        ("verdict_oracle", r.verdict_oracle, _equals(True)),
    ]


@dataclass(frozen=True)
class _Case:
    """A reference case: ``run(ns, N)`` returns its report (or reports by
    label) and its checks as (label, value, check kind) triples."""

    run: Callable
    default_N: int | None = None
    notes: tuple[str, ...] = ()


_CASES = {
    "c2-example": _Case(_c2_example),
    "dirichlet-pper": _Case(_dirichlet_pper, DEFAULT_DIRICHLET_N),
    "dirichlet-n0": _Case(
        _dirichlet_n0,
        DEFAULT_DIRICHLET_N,
        notes=(
            "the measured defect at the constant function is |alpha|^4, "
            "not |alpha|^2; either way it is positive for alpha != 0, so the "
            "constant perturbation is never a 2-isometry",
        ),
    ),
    "bidisc": _Case(_bidisc, DEFAULT_BIDISC_N),
}


def _reproduce(name: str, ns) -> dict:
    """Run one reference case; a check whose value is absent fails."""
    case = _CASES[name]
    report, rows = case.run(ns, ns.N if ns.N is not None else case.default_N)
    checks = [
        {
            "label": label,
            "value": value,
            "expected": expected,
            "pass": value is not None and bool(test(value)),
        }
        for label, value, (expected, test) in rows
    ]
    out = {"name": name, "checks": checks}
    if isinstance(report, dict):
        out["reports"] = {label: r.to_dict() for label, r in report.items()}
    else:
        out["report"] = report.to_dict()
    if case.notes:
        out["notes"] = list(case.notes)
    out["pass"] = all(c["pass"] for c in checks)
    return out


def cmd_reproduce(ns) -> int:
    names = _CASES if ns.name == "all" else (ns.name,)
    cases = [_reproduce(name, ns) for name in names]
    all_pass = all(case["pass"] for case in cases)
    if ns.format == "json":
        payload = {"command": "reproduce", "cases": cases, "pass": all_pass}
        print(_dumps(payload))
    else:
        for case in cases:
            print(f"== {case['name']} ==")
            for ch in case["checks"]:
                status = "PASS" if ch["pass"] else "FAIL"
                print(
                    f"  [{status}] {ch['label']}: value={_fmt(ch['value'])} "
                    f"(expected {ch['expected']})"
                )
            for note in case.get("notes", []):
                print(f"  note: {note}")
            print(f"  result: {'PASS' if case['pass'] else 'FAIL'}")
        print(
            f"tolerances: tol_defect={ns.tol_defect:.1e} tol_rank={ns.tol_rank:.1e}"
        )
        print(f"overall: {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# analyze


def _parse_json(text: str):
    """Decode JSON text; nesting too deep for the decoder is an input error."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply to decode") from None


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_json(fh.read())


def cmd_analyze(ns) -> int:
    doc = _load_json(ns.input)
    if not isinstance(doc, dict):
        raise ValueError("analyze input must be a JSON object")
    op = Op.from_dict(doc["operator"])
    u = vec_from_pairs(doc["u"])
    v = vec_from_pairs(doc["v"])
    problem = PerturbationProblem(
        base=op,
        u=u,
        v=v,
        tol_rank=ns.tol_rank if ns.tol_rank is not None else doc.get(
            "tol_rank", DEFAULT_RANK_TOL
        ),
        tol_defect=ns.tol_defect if ns.tol_defect is not None else doc.get(
            "tol_defect", DEFAULT_DEFECT_TOL
        ),
        allow_non_2_isometric_base=ns.allow_non_2iso_base,
    )
    report = theorem_verdict(problem)
    if ns.format == "json":
        print(_dumps(report.to_dict()))
    else:
        for key, value in report.to_dict().items():
            if key != "space":
                print(f"{key}: {_fmt(value) if value is not None else 'absent'}")
    return 0


# ---------------------------------------------------------------------------
# search


def constant_defect(n: int, alphas: np.ndarray) -> np.ndarray:
    """q(1) of T_alpha = M_z + (alpha z^n)⊗1 for each entry of ``alphas``.

    T_alpha x = M_z x + alpha x_0 z^n and ||z^k||^2 = k + 1, so
    q(1) = ||1||^2 - 2 ||T1||^2 + ||T^2 1||^2 is

        |alpha|^4 (n = 0),   1 - |1 + alpha|^2 (n = 1),   -n |alpha|^2 (n >= 2),

    minus :func:`dirichlet_admissibility_residual` of alpha z^n for n >= 1.
    T^2 1 has degree n + 1, so this is exact for every N >= n + 1. An
    overflow reads as an infinity. As a prefilter it is sound: the constant
    has unit norm and starts the orthonormal basis of the safe window, so
    q(1) is the (0, 0) entry of the oracle form.
    """
    re, im = alphas.real, alphas.imag
    with np.errstate(over="ignore"):
        if n == 0:
            return (re**2 + im**2) ** 2
        if n == 1:
            return 1.0 - ((1.0 + re) ** 2 + im**2)
        return 0.0 - n * (re**2 + im**2)  # 0.0 - 0.0 is +0.0, never -0.0


def search_dirichlet_alpha(
    n: int,
    re_range: tuple[float, float],
    im_range: tuple[float, float],
    step: float,
    N: int,
    tol: float,
) -> list[dict]:
    """Grid search over alpha for 2-isometric M_z + (alpha z^n)⊗1.

    Each axis has round((max - min) / step) + 1 evenly spaced points, both
    ends included. The sound prefilter :func:`constant_defect` evaluates
    q(1) over the whole grid at once and builds no operator. Only the points
    with |q(1)| <= tol are built, on one shift M_z that the first of them
    builds for the whole search, and confirmed against the oracle form on
    the whole safe window, :func:`polarized_defect_form` (read off the
    diagonal for a real shift). The unperturbed point alpha = 0 is skipped.
    Hits come in row-major order. An inverted range, a grid of more than
    ``MAX_SEARCH_POINTS`` points or a dimension above ``MAX_DIM`` is refused
    with a ValueError.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if N < max(2, 2 * max(1, n) + 1):
        raise ValueError(f"truncation N={N} too small for n={n}")
    for part, (lo, hi) in (("re", re_range), ("im", im_range)):
        if lo > hi:
            raise ValueError(f"--{part}-min {lo:g} is greater than --{part}-max {hi:g}")
    make_dirichlet_space(N)  # refuses a dimension above MAX_DIM

    def count(lo, hi):
        return float(np.rint((hi - lo) / step)) + 1

    n_re, n_im = count(*re_range), count(*im_range)
    if max(n_re, n_im, n_re * n_im) > MAX_SEARCH_POINTS:
        raise ValueError(
            f"--step {step:g} asks for a {n_re:.6g} x {n_im:.6g} grid, more than "
            f"{MAX_SEARCH_POINTS} points; choose a larger --step"
        )
    res = np.linspace(re_range[0], re_range[1], int(n_re))
    ims = np.linspace(im_range[0], im_range[1], int(n_im))
    alphas = res[:, None] + 1j * ims[None, :]
    q = constant_defect(n, alphas)
    hits, base = [], None
    for i, j in np.argwhere((np.abs(q) <= tol) & (alphas != 0)):
        re, im = res[i], ims[j]
        alpha = complex(re, im)
        if base is None:
            base = dirichlet_shift(N)
        u = base.space.zeros()
        u[n] = alpha  # M_z + (alpha z^n)⊗1
        oracle = perturb(base, u, base.space.basis_vector(0)).defect_form.max_residual
        if oracle <= tol:
            hits.append(
                {
                    "alpha": [float(re), float(im)],
                    "defect_on_constant": float(q[i, j]),
                    "oracle_defect": oracle,
                    "circle_residual": float(abs(abs(alpha + 1.0) - 1.0)),
                }
            )
    return hits


def search_c2_rank_one(trials: int, seed: int, tol: float) -> list[dict]:
    """Random search for isometric rank-one corrections of the C^2 swap.

    Half the trials draw u on the analytic correction locus (a rotation of
    the image line), the other half jitter it off the locus; hits are the
    samples whose full defect passes the oracle, cross-checked against the
    branch decision. More than ``MAX_SEARCH_POINTS`` trials is a ValueError.
    """
    if trials > MAX_SEARCH_POINTS:
        raise ValueError(f"--trials {trials} is more than {MAX_SEARCH_POINTS}")
    rng = np.random.default_rng(seed)
    space = make_coordinate_space(2)
    V = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    base = Op.from_exact_matrix(space, V)
    hits = []
    for trial in range(trials):
        v = random_complex_vector(2, rng)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        u, vhat = isometric_correction_pair(V, v, theta)
        if trial % 2 == 1:
            u = u + 0.3 * random_complex_vector(2, rng)
        problem = PerturbationProblem(
            base=base, u=u, v=vhat, tol_defect=tol, allow_non_2_isometric_base=False
        )
        report = theorem_verdict(problem)
        if report.oracle_defect <= tol:
            hits.append(
                {
                    "trial": trial,
                    "u": vec_to_pairs(u),
                    "v": vec_to_pairs(vhat),
                    "oracle_defect": report.oracle_defect,
                    "verdict_theorem": bool(report.verdict_theorem),
                }
            )
    return hits


def cmd_search(ns) -> int:
    if ns.family == "dirichlet-alpha":
        N = ns.N if ns.N is not None else DEFAULT_DIRICHLET_N
        hits = search_dirichlet_alpha(
            n=ns.n,
            re_range=(ns.re_min, ns.re_max),
            im_range=(ns.im_min, ns.im_max),
            step=ns.step,
            N=N,
            tol=ns.tol,
        )
        meta = {
            "family": "dirichlet-alpha",
            "n": ns.n,
            "N": N,
            "step": ns.step,
            "tol": ns.tol,
        }
    else:
        hits = search_c2_rank_one(trials=ns.trials, seed=ns.seed, tol=ns.tol)
        meta = {
            "family": "c2-rankone",
            "trials": ns.trials,
            "seed": ns.seed,
            "tol": ns.tol,
        }
    if ns.format == "json":
        print(_dumps({"search": meta, "hits": hits}))
    else:
        print(f"search {meta}")
        if not hits:
            print("no hits")
        for hit in hits:
            print("  " + _dumps(hit, indent=None))
        print(f"{len(hits)} hit(s)")
    return 0


# ---------------------------------------------------------------------------
# defect


def cmd_defect(ns) -> int:
    op = Op.from_dict(_load_json(ns.operator))
    text = ns.vector.strip()
    pairs = _parse_json(text) if text.startswith("[") else _load_json(ns.vector)
    x = op.space.check_vec(vec_from_pairs(pairs))
    value = defect_quadratic(op, x)
    safe = truncation_safe(op, x)
    if ns.format == "json":
        print(_dumps({"defect": value, "truncation_safe": bool(safe)}, indent=None))
    else:
        print(f"defect_quadratic = {value:.12g}")
        print(f"truncation_safe = {_fmt(bool(safe))}")
        if not safe:
            print(
                "warning: the vector leaves the truncation-safe window, the "
                "value may differ from the untruncated defect"
            )
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token starting '-' or '-.' then a digit
    as a value, -1e-3 and -0.5+1j too: stock argparse takes those two for
    option names. No option here starts with a digit; the subcommand parsers
    share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twoiso",
        description=(
            "Decide whether rank-one perturbations of 2-isometries on "
            "weighted coefficient spaces remain 2-isometries."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("reproduce", help="run the bundled reference problems")
    rep.add_argument("name", choices=(*_CASES, "all"))
    rep.add_argument("--tol-defect", dest="tol_defect", type=_positive_float,
                     default=DEFAULT_DEFECT_TOL)
    rep.add_argument("--tol-rank", dest="tol_rank", type=_positive_float,
                     default=DEFAULT_RANK_TOL)
    rep.add_argument("-N", dest="N", type=int, default=None,
                     help="truncation degree (per-case default when omitted)")
    rep.add_argument("--alpha", type=_finite_complex, default=1.0,
                     help="constant perturbation for dirichlet-n0")
    rep.add_argument("--format", choices=("text", "json"), default="text")
    rep.set_defaults(func=cmd_reproduce)

    ana = sub.add_parser("analyze", help="analyze a problem from a JSON file")
    ana.add_argument("--input", required=True, help="operator+vectors JSON file")
    ana.add_argument("--tol-defect", dest="tol_defect", type=_positive_float,
                     default=None)
    ana.add_argument("--tol-rank", dest="tol_rank", type=_positive_float,
                     default=None)
    ana.add_argument("--allow-non-2iso-base", action="store_true",
                     dest="allow_non_2iso_base")
    ana.add_argument("--format", choices=("text", "json"), default="text")
    ana.set_defaults(func=cmd_analyze)

    sea = sub.add_parser("search", help="scan a perturbation family for hits")
    sea.add_argument("family", choices=("dirichlet-alpha", "c2-rankone"))
    sea.add_argument("--n", type=int, default=1,
                     help="monomial degree for dirichlet-alpha")
    sea.add_argument("--re-min", type=_finite_float, default=-3.0)
    sea.add_argument("--re-max", type=_finite_float, default=1.0)
    sea.add_argument("--im-min", type=_finite_float, default=-3.0)
    sea.add_argument("--im-max", type=_finite_float, default=1.0)
    sea.add_argument("--step", type=_positive_float, default=0.05)
    sea.add_argument("-N", dest="N", type=int, default=None)
    sea.add_argument("--trials", type=_non_negative_int, default=64)
    sea.add_argument("--seed", type=_non_negative_int, default=0)
    sea.add_argument("--tol", type=_positive_float, default=DEFAULT_DEFECT_TOL)
    sea.add_argument("--format", choices=("text", "json"), default="text")
    sea.set_defaults(func=cmd_search)

    dfc = sub.add_parser("defect", help="quadratic defect at one vector")
    dfc.add_argument("--operator", required=True, help="operator JSON file")
    dfc.add_argument("--vector", required=True,
                     help="vector as inline JSON [[re,im],...] or a file path")
    dfc.add_argument("--format", choices=("text", "json"), default="text")
    dfc.set_defaults(func=cmd_defect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return ns.func(ns)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
