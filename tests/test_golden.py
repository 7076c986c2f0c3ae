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

The certificate CSV has its own rule. ``N`` and ``dual_value`` (``1/N^2``)
must match exactly. ``deviation`` and ``min_eig`` are rounding-level
numbers, zero in exact arithmetic, so a relative tolerance means nothing
for them: they are compared to the absolute ``CERT_ATOL = 1e-13``. That is
above ``N * eps`` for ``N <= 60`` and below the certificate's own gates
(1e-12 on the deviation, 1e-10 on the eigenvalue), so a certificate that
moved toward failing is caught before it fails.
"""

import math
import warnings
from pathlib import Path

import pytest

from proxpoint import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
RTOL = 1e-9
FLOOR = 1e-10
CERT_ATOL = 1e-13

# golden file -> CLI arguments. At the preset's 100 iterations no adaptive
# restart fires on fig5-desk, so that run takes 200 (restarts 170, 178, 199).
GOLDEN = {
    "fig1.csv": ["--experiment", "fig1"],
    "fig2.csv": ["--experiment", "fig2"],
    "fig3-desk.csv": ["--experiment", "fig3-desk"],
    "fig4-desk.csv": ["--experiment", "fig4-desk"],
    "fig5-desk.csv": ["--experiment", "fig5-desk"],
    "cert-nmax60.csv": ["--experiment", "cert", "--nmax", "60"],
    "fig2.restarted-adaptive.csv": ["--experiment", "fig2", "--method", "restarted",
                                    "--restart", "adaptive"],
    "fig5-desk.restarted-adaptive.csv": ["--experiment", "fig5-desk", "--method",
                                         "restarted", "--restart", "adaptive",
                                         "--iters", "200"],
    # The Guler variants and a fixed restart interval on every figure that
    # defines them (fig5 has no Guler variant), and adaptive restarts on
    # fig1 and the fig3/fig4 desks. At fig3-desk's preset 60 iterations no
    # adaptive restart fires; at 200 the first fires at 180.
    **{f"{p}.guler-restarted-7.csv": ["--experiment", p, "--method", "guler1", "--method",
                                      "guler2", "--method", "restarted", "--restart", "7"]
       for p in ("fig1", "fig2", "fig3-desk", "fig4-desk")},
    "fig5-desk.restarted-7.csv": ["--experiment", "fig5-desk", "--method", "restarted",
                                  "--restart", "7"],
    "fig1.restarted-adaptive.csv": ["--experiment", "fig1", "--method", "restarted",
                                    "--restart", "adaptive"],
    "fig4-desk.restarted-adaptive.csv": ["--experiment", "fig4-desk", "--method",
                                         "restarted", "--restart", "adaptive"],
    "fig3-desk.restarted-adaptive.csv": ["--experiment", "fig3-desk", "--method",
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


def assert_cert_matches(got_text, want_text):
    got, want = got_text.splitlines(), want_text.splitlines()
    assert got[:2] == want[:2] and len(got) == len(want)
    for got_row, want_row in zip(got[2:], want[2:]):
        n, deviation, min_eig, dual_value = got_row.split(",")
        want_n, want_deviation, want_min_eig, want_dual_value = want_row.split(",")
        assert (n, dual_value) == (want_n, want_dual_value), (got_row, want_row)
        for g, w in ((deviation, want_deviation), (min_eig, want_min_eig)):
            assert abs(float(g) - float(w)) <= CERT_ATOL, (got_row, want_row)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_reproduces_the_golden_csv(name, tmp_path, record_property):
    out = tmp_path / name
    assert cli.main(GOLDEN[name] + ["--out", str(out)]) == 0
    golden = (GOLDEN_DIR / name).read_bytes()
    compare = assert_cert_matches if name.startswith("cert") else assert_csv_matches
    compare(out.read_text(), golden.decode())
    identical = out.read_bytes() == golden
    record_property("bytes_identical", identical)
    if not identical:
        warnings.warn(f"{name}: every value is within tolerance of its golden "
                      "copy, but the bytes differ", stacklevel=1)


def test_every_golden_file_has_an_entry_and_every_entry_a_file():
    assert {p.name for p in GOLDEN_DIR.iterdir()} == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(n for n in GOLDEN if "restarted" in GOLDEN[n]))
def test_restarted_golden_files_record_restarts(name):
    lines = (GOLDEN_DIR / name).read_text().splitlines()
    assert any(ln.startswith("# restarts[") for ln in lines)


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


def test_a_moved_certificate_value_fails_the_comparison():
    text = (GOLDEN_DIR / "cert-nmax60.csv").read_text()
    lines = text.splitlines()
    n, deviation, min_eig, dual_value = lines[20].split(",")
    for moved in ([n, deviation, repr(float(min_eig) - 2 * CERT_ATOL), dual_value],
                  [n, repr(float(deviation) + 2 * CERT_ATOL), min_eig, dual_value],
                  [n, deviation, min_eig, repr(float(dual_value) * (1.0 + 1e-15))]):
        with pytest.raises(AssertionError):
            assert_cert_matches("\n".join(lines[:20] + [",".join(moved)] + lines[21:]), text)
