"""The CLI's figure CSVs pinned as files under ``tests/golden``.

Each golden file was written by ``proxpoint.cli`` with one OpenBLAS
thread; each test reruns its configuration in-process and compares every
field. A change that moves a CSV on purpose updates its golden file in
the same diff, so the change can be reviewed as data.

Bytes cannot gate: another BLAS build or thread count sums in another
order and moves the last digits. Numbers are therefore compared to a
relative tolerance of ``RTOL = 1e-9``. Every run here is a nonexpansive
iteration of at most a few hundred steps, so rounding differences of a
few ulps per operation stay many orders below it, while a change of
method, rate, restart rule or reference moves values far beyond it.
Residual, infeasibility and gap values are differences of iterates, so
their rounding scales with the iterates rather than with the value: each
of these columns also allows an absolute ``FLOOR = 1e-10`` times its
largest magnitude for the same method (the late, tiny residuals). Header
numbers get the same floor times ``max(1, R)``. Integers, labels and
restart lists must match exactly. Whether the bytes match is reported
(a warning and the ``bytes_identical`` property), not asserted.
"""

import math
import warnings
from pathlib import Path

import pytest

from proxpoint import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
RTOL = 1e-9
FLOOR = 1e-10

# golden file -> CLI arguments. At the preset's 100 iterations no adaptive
# restart fires on fig5-desk, so that run takes 200 (restarts 170, 178, 199).
GOLDEN = {
    "fig1.csv": ["--experiment", "fig1"],
    "fig2.csv": ["--experiment", "fig2"],
    "fig5-desk.csv": ["--experiment", "fig5-desk"],
    "fig2.restarted-adaptive.csv": ["--experiment", "fig2", "--method", "restarted",
                                    "--restart", "adaptive"],
    "fig5-desk.restarted-adaptive.csv": ["--experiment", "fig5-desk", "--method",
                                         "restarted", "--restart", "adaptive",
                                         "--iters", "200"],
}


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _close(got, want, floor):
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return got == want
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=floor)


def _split(text):
    lines = text.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    table = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return meta, table[0], table[1:]


def assert_csv_matches(got_text, want_text):
    got_meta, got_cols, got_rows = _split(got_text)
    want_meta, want_cols, want_rows = _split(want_text)
    assert got_cols == want_cols
    radius = next((float(tok[2:]) for ln in want_meta for tok in ln.split()
                   if tok.startswith("R=")), 1.0)
    assert len(got_meta) == len(want_meta)
    for got, want in zip(got_meta, want_meta):
        got_tokens, want_tokens = got.split(), want.split()
        assert len(got_tokens) == len(want_tokens), (got, want)
        for g, w in zip(got_tokens, want_tokens):
            g_key, _, g_val = g.partition("=")
            w_key, _, w_val = w.partition("=")
            assert g_key == w_key and _close(g_val, w_val, FLOOR * max(1.0, radius)), (g, w)

    assert [r[:3] for r in got_rows] == [r[:3] for r in want_rows]
    scale = {}
    for row in want_rows:
        for j, text in enumerate(row[3:], 3):
            value = _number(text)
            if value is not None:
                key = (row[1], j)
                scale[key] = max(scale.get(key, 0.0), abs(value))
    for got, want in zip(got_rows, want_rows):
        for j in range(3, len(want_cols)):
            floor = FLOOR * scale.get((want[1], j), 0.0)
            assert _close(got[j], want[j], floor), (want_cols[j], want[:3], got[j], want[j])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_reproduces_the_golden_csv(name, tmp_path, record_property):
    out = tmp_path / name
    assert cli.main(GOLDEN[name] + ["--out", str(out)]) == 0
    golden = (GOLDEN_DIR / name).read_bytes()
    assert_csv_matches(out.read_text(), golden.decode())
    identical = out.read_bytes() == golden
    record_property("bytes_identical", identical)
    if not identical:
        warnings.warn(f"{name}: every value is within tolerance of its golden "
                      "copy, but the bytes differ", stacklevel=1)


def test_a_moved_value_fails_the_comparison():
    text = (GOLDEN_DIR / "fig2.restarted-adaptive.csv").read_text()
    lines = text.splitlines()
    header = next(i for i, ln in enumerate(lines) if ln.startswith("experiment,"))
    row = lines[header + 50].split(",")
    row[3] = repr(float(row[3]) * (1.0 + 1e-7))
    moved = lines[:header + 50] + [",".join(row)] + lines[header + 51:]
    with pytest.raises(AssertionError):
        assert_csv_matches("\n".join(moved), text)
    restarts = next(i for i, ln in enumerate(lines) if ln.startswith("# restarts"))
    shifted = lines.copy()
    shifted[restarts] = shifted[restarts].replace("=33,", "=34,")
    with pytest.raises(AssertionError):
        assert_csv_matches("\n".join(shifted), text)
