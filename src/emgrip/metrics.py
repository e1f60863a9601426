"""Error metrics, block effects, and ANOVA for the two-factor blocked design."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError


def wmape(actual, predicted) -> float:
    """Weighted mean absolute percentage error:
    100 * sum|pred - act| / sum|act|."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.size == 0 or actual.shape != predicted.shape:
        raise DataError("series must be non-empty and the same length")
    denom = np.abs(actual).sum()
    if denom == 0:
        raise NumericError("all-zero actual values: wMAPE undefined")
    return float(100.0 * np.abs(predicted - actual).sum() / denom)


@dataclass(frozen=True)
class RunRecord:
    """One experiment run and its error metric (wMAPE, percent)."""

    subject: str
    position: int
    replication: int
    metric: float


@dataclass(frozen=True)
class BlockEffects:
    grand_mean: float
    blocks: tuple
    means: np.ndarray
    effects: np.ndarray


def block_effects(records: list[RunRecord], block_by: str) -> BlockEffects:
    """Per-block means and effects (block mean minus grand mean).

    ``block_by`` is a RunRecord field name ('subject' or 'position').
    Effects sum to zero when the blocks are balanced.
    Blocks sort naturally: positions as integers, subjects as strings.
    """
    if not records:
        raise DataError("no records")
    metrics = np.array([r.metric for r in records], dtype=float)
    labels = [getattr(r, block_by) for r in records]
    grand = metrics.mean()
    blocks = sorted(set(labels))
    means = np.array([metrics[[l == b for l in labels]].mean() for b in blocks])
    return BlockEffects(float(grand), tuple(blocks), means, means - grand)


@dataclass(frozen=True)
class AnovaRow:
    source: str
    df: int
    ss: float
    ms: float
    f: float | None
    p: float | None


@dataclass(frozen=True)
class AnovaTable:
    position: AnovaRow
    subject: AnovaRow
    residual: AnovaRow

    @property
    def rows(self) -> tuple[AnovaRow, AnovaRow, AnovaRow]:
        return (self.position, self.subject, self.residual)

    @property
    def total_ss(self) -> float:
        return self.position.ss + self.subject.ss + self.residual.ss


def anova_rbd(records: list[RunRecord]) -> AnovaTable:
    """Two-way additive ANOVA (position + subject, no interaction).

    Requires a balanced layout: every (position, subject) cell must hold
    the same number of replications.  p-values come from the F survival
    function.
    """
    if not records:
        raise DataError("no records")
    for r in records:
        if not np.isfinite(r.metric):
            raise DataError(
                f"run {r.subject}_p{r.position}_r{r.replication} has non-finite metric {r.metric!r}"
            )
    pos = block_effects(records, "position")
    subj = block_effects(records, "subject")
    a, b = len(pos.blocks), len(subj.blocks)
    if a < 2 or b < 2:
        raise DataError("both factors need at least 2 levels")
    counts = {}
    for r in records:
        counts[(r.position, r.subject)] = counts.get((r.position, r.subject), 0) + 1
    reps = set(counts.values())
    if len(counts) != a * b or len(reps) != 1:
        raise DataError("unbalanced design: equal replication per cell required")
    n_rep = reps.pop()
    n = len(records)

    y = np.array([r.metric for r in records], dtype=float)
    grand = y.mean()
    ss_total = float(((y - grand) ** 2).sum())
    ss_pos = sum(b * n_rep * e**2 for e in pos.effects)
    ss_subj = sum(a * n_rep * e**2 for e in subj.effects)
    ss_res = ss_total - ss_pos - ss_subj

    df_pos, df_subj = a - 1, b - 1
    df_res = n - 1 - df_pos - df_subj
    ms_pos = ss_pos / df_pos
    ms_subj = ss_subj / df_subj
    ms_res = ss_res / df_res if df_res > 0 else 0.0

    def f_and_p(ss, ms, df):
        if ms_res <= 0:
            # degenerate data: no residual variation
            return (0.0, 1.0) if ss <= 0 else (float("inf"), 0.0)
        # imported here: scipy.stats takes ~0.9 s to load, and only this
        # p-value needs it
        from scipy import stats

        f = ms / ms_res
        return float(f), float(stats.f.sf(f, df, df_res))

    f_pos, p_pos = f_and_p(ss_pos, ms_pos, df_pos)
    f_subj, p_subj = f_and_p(ss_subj, ms_subj, df_subj)
    return AnovaTable(
        AnovaRow("position", df_pos, float(ss_pos), float(ms_pos), f_pos, p_pos),
        AnovaRow("subject", df_subj, float(ss_subj), float(ms_subj), f_subj, p_subj),
        AnovaRow("residual", df_res, float(ss_res), float(ms_res), None, None),
    )


@dataclass(frozen=True)
class SummaryStats:
    minimum: float
    q1: float
    median: float
    mean: float
    q3: float
    maximum: float

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.minimum, self.q1, self.median, self.mean, self.q3, self.maximum)


def summary_stats(values) -> SummaryStats:
    """Five-number summary plus mean; quartiles interpolate order statistics."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise DataError("no values")
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return SummaryStats(
        float(values.min()), float(q1), float(med), float(values.mean()),
        float(q3), float(values.max()),
    )
