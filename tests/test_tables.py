"""The shared CSV table writer: layout and the exact text of each format."""

import numpy as np
import pytest

from openbilliards.tables import write_table


def test_layout_and_column_formats(tmp_path):
    path = tmp_path / "table.csv"
    write_table(
        path, ("config abc", "units: k in pi/w"), ("n", "value", "defect"),
        ("d", ".12g", ".6g"),
        np.array([3, 12], dtype=np.int64), np.array([1.0 / 3.0, 2.5]), np.array([1.23456789e-15, 0.0]),
    )
    assert path.read_text() == (
        "# config abc\n"
        "# units: k in pi/w\n"
        "n,value,defect\n"
        "3,0.333333333333,1.23457e-15\n"
        "12,2.5,0\n"
    )


def test_unequal_columns_are_refused(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "a.csv", (), ("a", "b"), ("d", "d"), [1, 2], [1])
    with pytest.raises(ValueError):
        write_table(tmp_path / "b.csv", (), ("a", "b"), ("d",), [1], [1])
