"""The CLI's output on the reference commands, against ``tests/golden/``.

Each row of ``GOLDEN`` is (file, argv, exit code). To regenerate a file, run
the CLI with the row's argv in a directory that holds the analyze documents,
and write its standard output to the file:

    cd "$(mktemp -d)"
    PYTHONPATH=$REPO/src:$REPO/tests python -c 'import cases; cases.write_analyze_documents(".")'
    PYTHONPATH=$REPO/src python -m twoiso.cli ARGV > $REPO/tests/golden/FILE

A change that moves a value regenerates its file and says so in CHANGES.md.
Keys, strings, booleans, nulls, integers, list lengths and exit codes must
match exactly. Each float, and each number in a text output, must agree
within ``|a - b| <= BAND * max(1, |a|, |b|)``: absolute at unit scale, since
a round-off residual such as 4.6e-16 has no meaningful relative band, and
four orders below the default tol_defect 1e-8, so that another BLAS kernel
may move last bits but no verdict.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from twoiso.cli import main
import cases

BAND = 1024 * np.finfo(float).eps
GOLDEN_DIR = Path(__file__).parent / "golden"
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")

GOLDEN = [
    ("reproduce-all.txt", ["reproduce", "all"], 0),
    ("reproduce-all.json", ["reproduce", "all", "--format", "json"], 0),
    ("reproduce-bidisc-18.json", ["reproduce", "bidisc", "-N", "18", "--format", "json"], 0),
    ("reproduce-dirichlet-pper-400.json",
     ["reproduce", "dirichlet-pper", "-N", "400", "--format", "json"], 0),
    ("reproduce-dirichlet-n0-1e50.json",
     ["reproduce", "dirichlet-n0", "--alpha", "1e50", "--format", "json"], 0),
    ("reproduce-dirichlet-n0-complex.json",
     ["reproduce", "dirichlet-n0", "--alpha", "-0.5+1j", "--format", "json"], 0),
    ("reproduce-dirichlet-n0-1e-6.json",
     ["reproduce", "dirichlet-n0", "--alpha", "1e-6", "--format", "json"], 1),
    ("search-dirichlet-alpha.json", ["search", "dirichlet-alpha", "--format", "json"], 0),
    ("search-c2-rankone.json", ["search", "c2-rankone", "--format", "json"], 0),
    *((f"analyze-{doc}.json", ["analyze", "--input", f"{doc}.json", "--format", "json"], 0)
      for doc in ("problem", "complex-problem", "weighted-true", "weighted-false")),
]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= BAND * max(1.0, abs(a), abs(b))


def _assert_matches(got, want, path="$"):
    if isinstance(want, float) and isinstance(got, float):
        assert _close(got, want), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), (path, got, want)
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (path, len(got), len(want))
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def _assert_text_matches(got: str, want: str):
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    assert len(got_parts) == len(want_parts)
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2:
            assert _close(float(g), float(w)), (g, w)
        else:
            assert g == w


@pytest.mark.parametrize("name, argv, code", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_cli_output_matches_its_golden_file(name, argv, code, tmp_path, monkeypatch, capsys):
    cases.write_analyze_documents(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    got = capsys.readouterr().out
    want = (GOLDEN_DIR / name).read_text()
    if name.endswith(".json"):
        _assert_matches(json.loads(got), json.loads(want))
    else:
        _assert_text_matches(got, want)


def test_the_comparison_holds_floats_to_the_band():
    _assert_matches({"a": [1.0, 1e300, None]}, {"a": [1.0 + 1e-13, 1e300 * (1 + 1e-13), None]})
    _assert_text_matches("value=4.44089e-16 (N=12)", "value=4.6e-16 (N=12)")
    for got, want in (({"a": 1.0}, {"a": 1.0 + 1e-12}), ({"a": 1}, {"a": 1.0}),
                      ({"a": [1.0]}, {"a": [1.0, 2.0]}), ({"a": True}, {"a": 1}),
                      ({"b": 1.0}, {"a": 1.0})):
        with pytest.raises(AssertionError):
            _assert_matches(got, want)
    for got, want in (("x=1", "x=1.000001"), ("x=1 true", "x=1 false")):
        with pytest.raises(AssertionError):
            _assert_text_matches(got, want)
