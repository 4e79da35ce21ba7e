"""The README's "Library tour" runs as written, on small MNIST-shaped
arrays, so the documented API cannot drift from the package."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library tour")[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_tour_runs():
    rng = np.random.default_rng(0)
    names = {"x_train": rng.random((32, 1, 28, 28)),
             "y_train": rng.integers(0, 10, 32),
             "x_test": rng.random((16, 1, 28, 28)),
             "y_test": rng.integers(0, 10, 16)}
    exec(compile(_tour(), str(README), "exec"), names)
    rows = names["rows"]
    assert [row["epoch"] for row in rows] == list(range(20))
    assert all(row["lr"] == 0.01 for row in rows)
    assert rows[-1]["realized_sparsity"] == pytest.approx(0.95, abs=0.01)
