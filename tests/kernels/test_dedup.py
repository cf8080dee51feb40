"""``sorted_unique`` against ``np.unique``, and a scan that keeps
NumPy's hash ``unique`` out of the package.

Since the NumPy 2.3 series a plain ``np.unique(x)`` (no ``return_*``,
no ``axis``) answers from a hash table, 2-14x slower than a sort on the
small integer batches the BFS levels, Trim rounds and dynamic
maintenance dedup.  The package dedups with
:func:`repro.kernels.sorted_unique` instead; calls that ask for
indices, counts or an axis still take NumPy's sorting path and stay.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import sorted_unique

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: keywords that put ``np.unique`` on its sorting path.
SORTING_KEYWORDS = {"return_index", "return_inverse", "return_counts", "axis"}


def cases(dtype):
    info = np.iinfo(dtype)
    random = np.random.default_rng(3).integers(0, 50, size=200).astype(dtype)
    return {
        "empty": np.empty(0, dtype=dtype),
        "one": np.array([7], dtype=dtype),
        "all-equal": np.full(9, 4, dtype=dtype),
        "sorted": np.arange(12, dtype=dtype),
        "extremes": np.array(
            [info.max, info.min, 0, info.max, 1], dtype=dtype
        ),
        "random": random,
        "strided": random[::3],
    }


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
@pytest.mark.parametrize("case", sorted(cases(np.int64)))
def test_sorted_unique_equals_np_unique(dtype, case):
    values = cases(dtype)[case]
    before = values.copy()
    got = sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(values, before)  # input left alone


def plain_unique_calls(source: str, filename: str = "<src>") -> list:
    """Line numbers of ``np.unique(...)`` calls passing none of the
    sorting keywords (``**kwargs`` counts as unknown, so plain)."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            continue
        if not SORTING_KEYWORDS & {kw.arg for kw in node.keywords}:
            found.append(node.lineno)
    return found


def test_scanner_tells_plain_from_sorting_calls():
    source = (
        "a = np.unique(x)\n"
        "b, c = np.unique(x, return_counts=True)\n"
        "d = numpy.unique(x, **opts)\n"
        "e = np.unique(x, axis=0)\n"
        "f = np.unique(\n    x, sorted=False\n)\n"
    )
    assert plain_unique_calls(source) == [1, 3, 5]


def test_no_plain_np_unique_in_the_package():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    plain = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in files
        for line in plain_unique_calls(path.read_text(), str(path))
    ]
    assert not plain, (
        "plain np.unique takes NumPy's hash path; use "
        f"repro.kernels.sorted_unique: {plain}"
    )
