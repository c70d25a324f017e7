"""The accuracy table's machinery (``benchmarks/accuracy.py``).

The table itself is regenerated by ``python -m benchmarks.accuracy``;
these tests pin what must hold for it to mean anything: a row's value
does not depend on which rows ran before it, invariants hold on every
seed while estimates hold on the median, and regenerating touches only
the marked block.
"""

from __future__ import annotations

from benchmarks.accuracy import (
    BEGIN,
    END,
    Row,
    between,
    conn_stability,
    conn_success,
    eq,
    every_seed,
    judge,
    ratio,
    rewrite,
)


def test_fig06_and_fig07_rows_do_not_depend_on_order():
    fig06_first = {**conn_stability(5), **conn_success(5)}
    fig07_first = {**conn_success(5), **conn_stability(5)}
    assert fig06_first == fig07_first


def test_estimates_hold_on_the_median_invariants_on_every_seed():
    rows = [
        Row("estimate", "Fig. 0", "m", 2.0, (ratio(between(0.5, 2.0)),)),
        Row("invariant", "Fig. 0", "m", 0, (every_seed(eq(0)),)),
        Row("unchecked", "Fig. 0", "m", None, ()),
    ]
    samples = {
        # Median 2.1 (ratio 1.05) passes although one seed is off-band.
        "estimate": [1.5, 2.0, 2.2, 9.0, 2.1],
        # One failing seed fails the invariant although the median is 0.
        "invariant": [0, 0, 1, 0, 0],
        "unchecked": [3.0],
    }
    estimate, invariant, unchecked = judge(samples, rows)
    assert estimate.passed is True and estimate.ratio == 1.05
    assert invariant.passed is False and invariant.median == 0
    assert unchecked.passed is None


def test_rewrite_replaces_only_the_marked_block(tmp_path):
    path = tmp_path / "EXPERIMENTS.md"
    path.write_text(f"head\n{BEGIN}\nold\n{END}\ntail\n", encoding="utf-8")
    rewrite(str(path), "new")
    assert path.read_text(encoding="utf-8") == f"head\n{BEGIN}\nnew\n{END}\ntail\n"
