import numpy as np
import pytest

from emgrip.errors import DataError, NumericError
from emgrip.metrics import (
    RunRecord,
    anova_rbd,
    block_effects,
    summary_stats,
    wmape,
)

# Per-run estimation wMAPE values of the reference two-position, 13-subject,
# 2-replication experiment (52 runs).
EST_P1R1 = [4.4, 6.4, 10.0, 4.5, 7.7, 6.6, 4.5, 8.4, 4.3, 5.1, 2.7, 6.1, 3.8]
EST_P1R2 = [2.3, 4.7, 5.4, 3.9, 8.0, 6.9, 7.6, 3.7, 5.2, 6.8, 6.4, 7.9, 4.3]
EST_P2R1 = [4.0, 4.1, 4.7, 3.9, 3.3, 5.8, 3.6, 4.4, 7.2, 8.5, 3.3, 6.7, 4.4]
EST_P2R2 = [3.8, 4.3, 4.4, 5.1, 4.9, 6.2, 4.4, 4.6, 9.2, 9.9, 3.2, 10.1, 3.3]

PRED_P1R1 = [24.7, 15.0, 25.0, 18.7, 21.4, 21.1, 13.1, 22.7, 12.5, 15.4, 19.4, 18.8, 13.4]
PRED_P1R2 = [23.6, 15.4, 17.9, 17.6, 15.0, 18.9, 17.5, 15.1, 22.3, 14.7, 18.6, 19.6, 10.6]
PRED_P2R1 = [14.8, 17.2, 16.7, 17.7, 16.1, 20.4, 12.9, 18.5, 15.8, 17.2, 19.1, 20.2, 15.2]
PRED_P2R2 = [16.8, 16.1, 17.6, 22.3, 14.2, 22.9, 12.3, 17.2, 20.9, 25.2, 19.0, 20.5, 16.7]

SUBJECTS = ["ac", "dp", "ds", "js", "lb", "lk", "lm", "ln", "md", "mm", "nk", "pb", "ss"]


def _records(p1r1, p1r2, p2r1, p2r2):
    rows = []
    for pos, rep, vals in [
        (1, 1, p1r1), (1, 2, p1r2), (2, 1, p2r1), (2, 2, p2r2)
    ]:
        rows.extend(
            RunRecord(s, pos, rep, v) for s, v in zip(SUBJECTS, vals)
        )
    return rows


def estimation_records():
    return _records(EST_P1R1, EST_P1R2, EST_P2R1, EST_P2R2)


def prediction_records():
    return _records(PRED_P1R1, PRED_P1R2, PRED_P2R1, PRED_P2R2)


class TestWmape:
    def test_perfect_prediction(self):
        assert wmape([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_direct_formula(self):
        assert wmape([1.0, 1.0], [2.0, 0.0]) == pytest.approx(100.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(0.5, 5, 40)
        p = g + rng.standard_normal(40) * 0.2
        base = wmape(g, p)
        for c in (0.1, 3.0, 250.0):
            assert wmape(c * g, c * p) == pytest.approx(base, rel=1e-12)

    def test_reorder_invariance(self):
        rng = np.random.default_rng(4)
        g = rng.uniform(0.5, 5, 40)
        p = g + rng.standard_normal(40) * 0.2
        perm = rng.permutation(40)
        assert wmape(g[perm], p[perm]) == pytest.approx(wmape(g, p), rel=1e-12)

    def test_nonnegative_and_zero_iff_exact(self):
        rng = np.random.default_rng(5)
        g = rng.uniform(1, 2, 20)
        assert wmape(g, g + 1e-9) > 0.0

    def test_all_zero_actual_rejected(self):
        with pytest.raises(NumericError):
            wmape([0.0, 0.0], [1.0, 1.0])


class TestBlockEffects:
    def test_single_block(self):
        eff = block_effects([RunRecord("a", 1, 1, 5.0), RunRecord("a", 1, 2, 7.0)], "subject")
        assert eff.effects[0] == pytest.approx(0.0)

    def test_balanced_two_block(self):
        recs = [
            RunRecord("a", 1, 1, 4.0), RunRecord("a", 2, 1, 4.0),
            RunRecord("b", 1, 1, 6.0), RunRecord("b", 2, 1, 6.0),
        ]
        eff = block_effects(recs, "subject")
        assert eff.grand_mean == pytest.approx(5.0)
        assert np.allclose(eff.effects, [-1.0, 1.0])

    def test_reference_position_effects(self):
        eff = block_effects(estimation_records(), "position")
        assert eff.blocks == (1, 2)
        assert eff.effects[0] == pytest.approx(0.2, abs=0.05)
        assert eff.effects[1] == pytest.approx(-0.2, abs=0.05)

    def test_eleven_positions_in_numeric_order(self):
        recs = [RunRecord(s, p, 1, float(p)) for s in ("s10", "s2") for p in range(1, 12)]
        eff = block_effects(recs, "position")
        assert eff.blocks == tuple(range(1, 12))
        assert np.array_equal(eff.means, np.arange(1.0, 12.0))
        assert block_effects(recs, "subject").blocks == ("s10", "s2")

    def test_balanced_effects_sum_to_zero(self):
        eff = block_effects(estimation_records(), "subject")
        assert abs(eff.effects.sum()) < 1e-12


class TestAnova:
    def test_degenerate_all_equal(self):
        recs = [
            RunRecord(s, p, r, 5.0)
            for s in ("a", "b") for p in (1, 2) for r in (1, 2)
        ]
        table = anova_rbd(recs)
        assert table.position.f == 0.0
        assert table.position.p == 1.0
        assert table.subject.ss == pytest.approx(0.0)

    def test_pinned_table(self):
        # 3 subjects x 2 positions x 2 replications; where scipy.stats is
        # imported must not move F or p
        values = [4.0, 4.4, 5.0, 5.3, 4.6, 4.2, 5.9, 6.1, 3.9, 4.4, 5.1, 4.8]
        cells = [(s, p, r) for s in (1, 2, 3) for p in (1, 2) for r in (1, 2)]
        table = anova_rbd([RunRecord(f"s{s}", p, r, v) for (s, p, r), v in zip(cells, values)])
        assert table.position.f == pytest.approx(39.55066079295186, rel=1e-12)
        assert table.position.p == pytest.approx(0.0002355817461995749, rel=1e-9)
        assert table.subject.f == pytest.approx(5.030837004405328, rel=1e-12)
        assert table.subject.p == pytest.approx(0.03848823094640983, rel=1e-9)

    def test_unbalanced_rejected(self):
        recs = estimation_records()[:-1]
        with pytest.raises(DataError):
            anova_rbd(recs)

    def test_single_level_factor_rejected(self):
        recs = [r for r in estimation_records() if r.position == 1]
        with pytest.raises(DataError):
            anova_rbd(recs)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_metric_names_the_run(self, bad):
        recs = estimation_records()
        r = recs[5]
        recs[5] = RunRecord(r.subject, r.position, r.replication, bad)
        with pytest.raises(DataError, match=f"run {r.subject}_p{r.position}_r{r.replication} "):
            anova_rbd(recs)

    def test_dfs_for_52_run_layout(self):
        table = anova_rbd(estimation_records())
        assert table.position.df == 1
        assert table.subject.df == 12
        assert table.residual.df == 38

    def test_additive_decomposition(self):
        table = anova_rbd(estimation_records())
        y = np.array(EST_P1R1 + EST_P1R2 + EST_P2R1 + EST_P2R2)
        total = ((y - y.mean()) ** 2).sum()
        assert table.total_ss == pytest.approx(total, abs=1e-9)

    def test_estimation_table_subject_and_pvalues(self):
        table = anova_rbd(estimation_records())
        assert table.subject.f == pytest.approx(2.52, rel=0.05)
        assert table.subject.p == pytest.approx(0.015, abs=0.02)
        assert table.position.p == pytest.approx(0.422, abs=0.02)

    def test_prediction_table_position(self):
        table = anova_rbd(prediction_records())
        assert table.position.f == pytest.approx(0.03, abs=0.02)
        assert table.position.p == pytest.approx(0.853, abs=0.02)

    @pytest.mark.xfail(
        strict=True,
        reason="the reference table ships per-run values rounded to 0.1; they yield "
        "Position F ~= 0.704, outside the 5% window around the reported 0.66 "
        "(computed from unrounded data)",
    )
    def test_estimation_table_position_f_at_reported_tolerance(self):
        table = anova_rbd(estimation_records())
        assert table.position.f == pytest.approx(0.66, rel=0.05)


class TestSummaryStats:
    def test_one_to_five(self):
        s = summary_stats([1, 2, 3, 4, 5])
        assert s.as_tuple() == (1.0, 2.0, 3.0, 3.0, 4.0, 5.0)

    def test_singleton(self):
        s = summary_stats([3.5])
        assert s.as_tuple() == (3.5,) * 6

    def test_sort_based_oracle(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(101)
        s = summary_stats(v)
        srt = np.sort(v)
        assert s.minimum == srt[0]
        assert s.maximum == srt[-1]
        assert s.median == pytest.approx(srt[50])
        assert s.q1 == pytest.approx(np.percentile(v, 25))
        assert s.q3 == pytest.approx(np.percentile(v, 75))
        assert s.mean == pytest.approx(v.mean())
