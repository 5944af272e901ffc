"""Harness: table/figure computation and rendering (small configs)."""

from repro.harness.experiments import (render_experiments_md, render_findings,
                                       render_report)
from repro.harness.figure3 import compute_figure3, render_figure3
from repro.harness.figure4 import Figure4Row, compute_figure4, render_figure4
from repro.harness.format import markdown_table, pct, render_table
from repro.harness.table1 import compute_table1, render_table1
from repro.harness.table2 import compute_table2, render_table2
from repro.harness.table3 import compute_table3, render_table3


def test_table1_rows(results):
    rows = {r.app: r for r in results.table1}
    assert set(rows) == {"fft", "sor", "tsp", "water"}
    for r in rows.values():
        assert r.slowdown > 1.0
        assert r.memory_kbytes > 0
    assert rows["fft"].intervals_per_barrier == 2.0
    assert rows["sor"].intervals_per_barrier == 2.0
    assert rows["tsp"].intervals_per_barrier == \
        max(r.intervals_per_barrier for r in rows.values())


def test_table2_rows(results):
    for r in results.table2:
        assert r.eliminated_fraction > 0.99
        assert r.library > r.instrumented


def test_table3_rows(results):
    rows = {r.app: r for r in results.table3}
    assert rows["sor"].intervals_used == 0.0
    assert rows["tsp"].intervals_used == \
        max(r.intervals_used for r in rows.values())
    for r in rows.values():
        assert 0 <= r.bitmaps_used <= 1
        assert r.shared_per_sec >= 0 and r.private_per_sec >= 0


def test_figure3_rows(results):
    for r in results.figure3:
        assert r.total_overhead > 0
        assert 0 <= r.instrumentation_share <= 1
        # Interval comparison is never the dominant overhead (paper: at
        # most 3rd/4th largest).
        assert r.category_rank("intervals") >= 2
    # Instrumentation dominates on average (paper: ~68%).
    avg = sum(r.instrumentation_share for r in results.figure3) / 4
    assert avg > 0.5


def test_figure4_rows(results):
    for r in results.figure4:
        assert set(r.slowdowns) == {2, 4}
        assert all(s > 1 for s in r.slowdowns.values())


def test_findings(results):
    text = render_findings(results)
    assert "TSP" in text and "tsp_bound" in text
    assert "water_poteng" in text
    assert "FFT    no data races (expected)" in text


def test_renderers_produce_text(results):
    for chunk in (render_table1(results.table1),
                  render_table2(results.table2),
                  render_table3(results.table3),
                  render_figure3(results.figure3),
                  render_figure4(results.figure4),
                  render_report(results)):
        assert isinstance(chunk, str) and len(chunk) > 50


def test_experiments_md(results):
    md = render_experiments_md(results)
    assert "## Table 1" in md and "## Figure 4" in md
    assert "tsp_bound" in md and "water_poteng" in md


def test_format_helpers():
    assert pct(0.133) == "13%"
    table = render_table("T", ["a", "bb"], [[1, 2.5], ["x", 10000.0]])
    assert "T" in table and "10,000" in table
    md = markdown_table(["h"], [[1]])
    assert md.startswith("| h |")


def test_figure4_decreasing_check():
    row = Figure4Row("x", {2: 3.0, 4: 2.0, 8: 1.5})
    assert row.decreasing_overall()
    row2 = Figure4Row("x", {2: 1.2, 8: 2.0})
    assert not row2.decreasing_overall()
