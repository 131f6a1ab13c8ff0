"""The vectorised "%.16e" kernel must give CPython's bytes for every float."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from qbmsbs import _floatfmt, cli
from qbmsbs.analysis import ScanGrid


def formatted(x) -> bytes:
    return b"".join(_floatfmt.csv_blocks(np.asarray(x, dtype=float).reshape(-1, 1)))


def reference(x) -> bytes:
    return "".join("%.16e\n" % v for v in np.asarray(x, dtype=float).tolist()).encode()


def edge_values() -> np.ndarray:
    tiny, huge = np.finfo(float).smallest_subnormal, np.finfo(float).max
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    special = [0.0, tiny, 2 * tiny, np.finfo(float).tiny, huge, np.nextafter(huge, 0.0),
               1e100, 1e-100, 1.5e-300, 9.999999999999999e99, 0.5, 1.0, 2.0 ** -1074,
               np.nan, np.inf]
    x = np.concatenate([near, special])
    return np.concatenate([x, -x])


@pytest.mark.skipif(not _floatfmt._LONG_DOUBLE_OK, reason="every entry takes the exact path")
def test_scale_table_correctly_rounded():
    for e, value in zip(range(_floatfmt._E_MIN, _floatfmt._E_MAX + 1), _floatfmt._SCALE):
        error = Fraction(*value.as_integer_ratio()) - Fraction(10) ** (16 - e)
        assert abs(error) <= Fraction(*np.spacing(value).as_integer_ratio()) / 2


def test_random_bit_patterns():
    bits = np.random.default_rng(20240811).integers(0, 2 ** 64, size=120_000,
                                                     dtype=np.uint64)
    x = bits.view(np.float64)
    assert formatted(x) == reference(x)


def test_edge_values():
    x = edge_values()
    assert formatted(x) == reference(x)


def test_exact_path_alone(monkeypatch):
    """Without an 80-bit long double every entry is formatted by CPython;
    zeroing the scale table shows that none takes the fast path."""
    monkeypatch.setattr(_floatfmt, "_LONG_DOUBLE_OK", False)
    monkeypatch.setattr(_floatfmt, "_SCALE", np.zeros_like(_floatfmt._SCALE))
    x = np.concatenate([edge_values(), np.random.default_rng(3).standard_normal(2000)])
    assert formatted(x) == reference(x)


def test_rows_and_blocks(monkeypatch):
    monkeypatch.setattr(_floatfmt, "BLOCK", 7)
    table = np.random.default_rng(5).standard_normal((10, 3)) * 1e-5
    expected = "".join("%.16e,%.16e,%.16e\n" % tuple(row) for row in table.tolist())
    assert b"".join(_floatfmt.csv_blocks(table)) == expected.encode()
    assert list(_floatfmt.csv_blocks(np.empty((0, 3)))) == []


def test_json_array_round_trips(monkeypatch):
    monkeypatch.setattr(_floatfmt, "BLOCK", 100)
    x = np.concatenate([edge_values(), [np.nan, -np.inf]])
    text = "".join(_floatfmt.json_array(x))
    assert text.startswith("[\n    ") and text.endswith("\n  ]")
    assert json.dumps(json.loads(text)) == json.dumps(x.tolist())
    assert "".join(_floatfmt.json_array(np.array([]))) == "[]"


def test_sidecar_splices_arrays(tmp_path):
    args = np.array([0.1, 2.5e-7, 3.0])
    path = tmp_path / "out.csv.json"
    cli.write_sidecar(path, {"config": {"path": "a.csv"}, "i0_arguments_b": args,
                             "i0_arguments_gamma": np.array([]), "seed": 1})
    doc = json.loads(path.read_text())
    assert doc["i0_arguments_b"] == args.tolist()
    assert doc["i0_arguments_gamma"] == []
    assert list(doc) == sorted(doc)
    assert '  "i0_arguments_b": [\n    1.0000000000000001e-01,\n' in path.read_text()


# Digests of the bytes the per-row f-string formatters wrote before the
# kernel replaced them: the CSV must not change across versions.
SERIES_SHA256 = "e77233a0e446b94bedcc43bcfa6dd191a66f53dc225ed0c9b7ec9bd4fa13c933"
SCAN_SHA256 = "0808c942dc2d24521072bc6fb8bf8b5a95e903ade0d19989dbce18471f78af26"


def test_series_csv_golden(tmp_path):
    i = np.arange(300, dtype=float)
    b = ((i * 7919.0) % 1009.0 + 1.0) / 1013.0 / (i + 1.0) ** 4
    path = tmp_path / "s.csv"
    cli.write_series_csv(path, i * 3.3e-11, 1.0 / (1.0 + 0.37 * i), b)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SERIES_SHA256


def test_scan_csv_golden():
    t = (1e-4, 1e-3 / 3.0, 0.1, 1.0, 7.0 / 3.0)
    r = (0.0, 0.1, 1.0, 3.0)
    grid = ScanGrid(t_values=t, r_values=r,
                    avg_gamma=tuple(tuple(1.0 / (1.0 + ti * (1.0 + rj)) for rj in r)
                                    for ti in t),
                    avg_b=tuple(tuple(ti / (ti + 1.0 + rj * rj) for rj in r) for ti in t))
    digest = hashlib.sha256(grid.to_csv_text().encode()).hexdigest()
    assert digest == SCAN_SHA256


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), max_size=50))
def test_matches_printf_property(values):
    assert formatted(values) == reference(values)
