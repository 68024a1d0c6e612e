"""Seeded mutation fuzzing of the ``analyze`` and ``defect`` input documents.

Each case takes a valid document, applies one mutation at a random place
(drop a key, swap a number for a string, boolean, list or 1e400, truncate a
list, wrap a scalar in a list) and runs the command in process. Whatever the
document, the command must exit 0 or 2 without raising, and print either
nothing or strict JSON (no NaN or Infinity tokens).
"""

import json

import numpy as np
import pytest

from twoiso import vec_to_pairs
from twoiso.cli import main
from twoiso.function_spaces import bidisc_shift, dirichlet_shift
import cases

# Written as a string, then spliced into the JSON text as a bare 1e400 literal,
# which the decoder reads as an infinite float.
OVERFLOW = "__overflow__"
CASES_PER_SEED = 40


def _defect_docs():
    for op in (dirichlet_shift(3), bidisc_shift(2, 1)):
        yield op.to_dict(), vec_to_pairs(op.space.basis_vector(1))


def _places(node, path=()):
    """Every (path, value) below the root, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        yield path + (key,), val
        if isinstance(val, (dict, list)):
            yield from _places(val, path + (key,))


def _mutate(doc, rng) -> str:
    """JSON text of ``doc`` with one random mutation applied."""
    doc = json.loads(json.dumps(doc))
    places = list(_places(doc))
    path, val = places[int(rng.integers(len(places)))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kinds = ["drop"]
    if isinstance(val, list) and val:
        kinds.append("truncate")
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        kinds.append("swap")
    if not isinstance(val, (dict, list)):
        kinds.append("wrap")
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "drop":
        del parent[key]
    elif kind == "truncate":
        parent[key] = val[: int(rng.integers(len(val)))]
    elif kind == "swap":
        parent[key] = ["1.0", True, [val], OVERFLOW][int(rng.integers(4))]
    else:
        parent[key] = [val]
    return json.dumps(doc).replace(f'"{OVERFLOW}"', "1e400")


def _check_run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2), argv
    assert "Traceback" not in captured.err
    if captured.out:
        cases.strict_json(captured.out)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_analyze_mutations_exit_cleanly(seed, tmp_path, capsys):
    rng = np.random.default_rng(seed)
    docs = [cases.DOCUMENTS[name]() for name in ("weighted-swap-with-tolerances", "dirichlet-4")]
    path = tmp_path / "doc.json"
    for _ in range(CASES_PER_SEED):
        path.write_text(_mutate(docs[int(rng.integers(len(docs)))], rng))
        _check_run(["analyze", "--input", str(path), "--format", "json"], capsys)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_defect_mutations_exit_cleanly(seed, tmp_path, capsys):
    rng = np.random.default_rng(seed)
    docs = list(_defect_docs())
    op_path = tmp_path / "op.json"
    for _ in range(CASES_PER_SEED):
        op_doc, vec = docs[int(rng.integers(len(docs)))]
        if rng.integers(2):
            op_path.write_text(_mutate(op_doc, rng))
            text = json.dumps(vec)
        else:
            op_path.write_text(json.dumps(op_doc))
            text = _mutate(vec, rng)
        _check_run(
            ["defect", "--operator", str(op_path), "--vector", text, "--format", "json"],
            capsys,
        )
