"""Numeric evaluation: trajectory rewards, calibration metrics, benchmark scores.

Probabilistic metrics, for a label z that is the integer 0 or 1
    reward   = -(pi - z)^2          (invalid output -> -1, the floor)
    brier    = -mean(reward)        (so an invalid output adds the worst-case 1.0)
    accuracy with a 0.5 threshold, ties counted as positive predictions
    ECE over 10 equal-width bins, last bin closed at 1.0

Benchmark scores (all in [0, 1], reported on a 0-100 scale)
    choice   = 2 * y.yhat / (||y||_1 + ||yhat||_1), option-level F1
    numeric  = max(0, 1 - ((vhat - v) / (3 * sigma(V) + 1e-8))^2)
    overall  = equal-weight mean over the question types that have at least
               one resolved question

Uncertainty is reported as seeded percentile bootstrap intervals. Only they
use numpy, and they import it when called: point metrics need no numpy.

Treatment of invalid probabilistic outputs, declared here once: reward -1,
accuracy counts them wrong, Brier assigns the worst-case term 1.0, and ECE
excludes them (callers filter before binning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ProbPrediction:
    """A final probability estimate paired with the realized binary label.

    ``prob`` is None when the agent failed to produce a valid probability.
    """

    prob: Optional[float]
    label: int

    def __post_init__(self) -> None:
        binary_label(self.label)

    @property
    def valid(self) -> bool:
        return self.prob is not None and 0.0 <= self.prob <= 1.0


@dataclass(frozen=True)
class ChoiceAnswer:
    """Gold and predicted option vectors for one choice question."""

    gold: tuple[int, ...]
    predicted: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gold", tuple(int(v) for v in self.gold))
        object.__setattr__(self, "predicted", tuple(int(v) for v in self.predicted))
        if len(self.gold) != len(self.predicted):
            raise ValueError("gold and prediction vectors must have equal length")
        if any(v not in (0, 1) for v in self.gold + self.predicted):
            raise ValueError("option vectors must be binary")
        if sum(self.gold) < 1:
            raise ValueError("gold vector must select at least one option")


@dataclass(frozen=True)
class NumericAnswer:
    """A numeric prediction with the eight-value history ending at the truth."""

    predicted: float
    history: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "history", tuple(float(v) for v in self.history))
        if len(self.history) != 8:
            raise ValueError(f"history must hold exactly 8 values, got {len(self.history)}")

    @property
    def true_value(self) -> float:
        return self.history[-1]


def sum_in_order(values: Iterable[float]) -> float:
    """Add floats left to right, as the built-in ``sum`` did before CPython 3.12 compensated it."""
    total = 0.0
    for value in values:
        total += value
    return total


def binary_label(label: Any) -> None:
    """Refuse a label that is not the integer 0 or 1; ``True`` and ``1.0`` are no label."""
    if type(label) is not int or label not in (0, 1):
        raise ValueError(f"label must be binary (the integer 0 or 1), got {label!r}")


def trajectory_reward(prob: Optional[float], label: int) -> float:
    """Delayed trajectory reward: negative squared error, -1 when invalid."""
    binary_label(label)
    if prob is None or not 0.0 <= prob <= 1.0:
        return -1.0
    return -((prob - label) ** 2)


def brier(preds: Sequence[ProbPrediction]) -> float:
    """Mean squared probability error, the negated mean reward; 0.25 is the 0.5 baseline."""
    if not preds:
        raise ValueError("cannot compute Brier score on an empty list")
    return sum_in_order(-trajectory_reward(p.prob, p.label) for p in preds) / len(preds)


def accuracy(preds: Sequence[ProbPrediction]) -> float:
    """Fraction of correct predictions at a 0.5 threshold; ties count as positive."""
    if not preds:
        raise ValueError("cannot compute accuracy on an empty list")
    correct = 0
    for p in preds:  # an invalid prediction counts as wrong
        if p.valid and (p.prob >= 0.5) == (p.label == 1):
            correct += 1
    return correct / len(preds)


#: Equal-width bins of the reported ECE.
ECE_BINS = 10


def ece(preds: Sequence[ProbPrediction]) -> float:
    """Expected calibration error over equal-width bins.

    Bins are [0, 1/ECE_BINS), ..., [1-1/ECE_BINS, 1.0] with the last bin closed;
    empty bins contribute nothing. All predictions must be valid.
    """
    if not preds:
        raise ValueError("cannot compute ECE on an empty list")
    if any(not p.valid for p in preds):
        raise ValueError("ECE requires valid predictions; filter invalid ones first")
    sums_p = [0.0] * ECE_BINS
    sums_z = [0.0] * ECE_BINS
    counts = [0] * ECE_BINS
    for p in preds:
        idx = min(int(p.prob * ECE_BINS), ECE_BINS - 1)
        sums_p[idx] += p.prob
        sums_z[idx] += p.label
        counts[idx] += 1
    n = len(preds)
    total = 0.0
    for b in range(ECE_BINS):
        if counts[b] == 0:
            continue
        gap = abs(sums_z[b] / counts[b] - sums_p[b] / counts[b])
        total += counts[b] / n * gap
    return total


def f1_choice(answer: ChoiceAnswer, is_binary: bool = False) -> float:
    """Option-level F1 between gold and predicted selections.

    Binary questions must select exactly one option; anything else scores 0.
    An empty selection on a multi-select question also scores 0.
    """
    n_pred = sum(answer.predicted)
    if is_binary and n_pred != 1:
        return 0.0
    if n_pred == 0:
        return 0.0
    overlap = sum(y * yh for y, yh in zip(answer.gold, answer.predicted))
    return 2.0 * overlap / (sum(answer.gold) + n_pred)


def numeric_score(answer: NumericAnswer) -> float:
    """Score a numeric prediction against the recent variability of its target.

    The error is normalized by three sample standard deviations of the
    eight-value history, so targets that fluctuate more are scored more
    leniently. Bounded in [0, 1].
    """
    values = answer.history
    mean = sum_in_order(values) / len(values)
    var = sum_in_order((v - mean) ** 2 for v in values) / (len(values) - 1)
    sigma = math.sqrt(var)
    scaled = (answer.predicted - answer.true_value) / (3.0 * sigma + 1e-8)
    return max(0.0, 1.0 - scaled * scaled)


def overall(
    s_bin: Optional[float],
    s_smc: Optional[float],
    s_dmc: Optional[float],
    s_num: Optional[float],
) -> float:
    """Equal-weight mean over the question-type scores that are present."""
    present = [s for s in (s_bin, s_smc, s_dmc, s_num) if s is not None]
    if not present:
        raise ValueError("overall score needs at least one per-type score")
    return sum_in_order(present) / len(present)


CI_LEVEL = 0.95  # the central coverage of every bootstrap interval

#: Resample indexes drawn per block; bounds a bootstrap's working memory.
_BLOCK_ELEMENTS = 1 << 16


def _resample_blocks(n: int, n_resamples: int, seed: int) -> Iterator[np.ndarray]:
    """The seeded (n_resamples, n) bootstrap index matrix, a block of rows at a time.

    The generator yields the same index stream whether it is drawn whole, in
    row blocks or row by row, so the block size changes no interval.
    """
    if n == 0:
        raise ValueError("cannot bootstrap an empty sample")
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, n_resamples, rows):
        yield rng.integers(0, n, size=(min(rows, n_resamples - start), n))


def _percentile_interval(stats: list[np.ndarray], level: float) -> tuple[float, float]:
    """The central ``level`` interval of the statistics, as ``np.quantile`` gives it.

    Both quantiles come from one sort, with numpy's default ("linear") rule
    to the bit; ``np.quantile`` itself would import ``numpy.ma`` on first use.
    """
    import numpy as np

    ordered = np.sort(np.concatenate(stats))
    alpha = (1.0 - level) / 2.0
    return _sorted_quantile(ordered, alpha), _sorted_quantile(ordered, 1.0 - alpha)


def _sorted_quantile(ordered: np.ndarray, q: float) -> float:
    """numpy's linear quantile of sorted values: lerp between the two nearest ranks."""
    index = (len(ordered) - 1) * q
    below = math.floor(index)
    if below >= len(ordered) - 1:
        return float(ordered[-1])
    a, b = float(ordered[below]), float(ordered[below + 1])
    t, d = index - below, b - a
    return a + d * t if t < 0.5 else b - d * (1 - t)


def bootstrap_ci(
    values: Sequence[float],
    n_resamples: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Seeded 95% percentile bootstrap interval for the mean of per-question scores."""
    import numpy as np

    arr = np.asarray(values, dtype=float)
    means = [arr[idx].mean(axis=1) for idx in _resample_blocks(len(arr), n_resamples, seed)]
    return _percentile_interval(means, CI_LEVEL)


def bootstrap_metric_ci(
    probs: Sequence[float],
    labels: Sequence[int],
    n_resamples: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Seeded 95% percentile bootstrap interval for ECE, which is not a per-question mean.

    Takes the valid predictions as parallel probability and label sequences.
    Each resample's statistic equals ``ece`` on the resampled predictions
    bit for bit: bin sums accumulate in resample order and the bins' terms
    are added in bin order, as ``ece`` adds them.
    """
    import numpy as np

    bins = ECE_BINS
    p = np.asarray(probs, dtype=float)
    z = np.asarray(labels, dtype=float)
    n = len(p)
    bin_of = np.minimum((p * bins).astype(np.int64), bins - 1)
    stats = []
    for idx in _resample_blocks(n, n_resamples, seed):
        rows = len(idx)
        keys = (np.arange(rows)[:, None] * bins + bin_of[idx]).ravel()
        size = rows * bins
        counts = np.bincount(keys, minlength=size).reshape(rows, bins)
        sums_p = np.bincount(keys, p[idx].ravel(), size).reshape(rows, bins)
        sums_z = np.bincount(keys, z[idx].ravel(), size).reshape(rows, bins)
        total = np.zeros(rows)
        with np.errstate(divide="ignore", invalid="ignore"):
            for b in range(bins):
                c = counts[:, b]
                gap = np.abs(sums_z[:, b] / c - sums_p[:, b] / c)
                total += np.where(c > 0, c / n * gap, 0.0)  # an empty bin adds nothing
        stats.append(total)
    return _percentile_interval(stats, CI_LEVEL)


@dataclass
class ScoreReport:
    """Per-type benchmark scores plus probabilistic metrics, with intervals.

    Benchmark scores are stored in [0, 1]; the text rendering scales them to
    0-100. A per-type score is None when that type had no resolved questions
    that day, and the overall score averages the remaining types.
    """

    s_bin: Optional[float] = None
    s_smc: Optional[float] = None
    s_dmc: Optional[float] = None
    s_num: Optional[float] = None
    s_overall: Optional[float] = None
    accuracy: Optional[float] = None
    brier: Optional[float] = None
    ece: Optional[float] = None
    n_predictions: int = 0
    n_by_type: dict[str, int] = field(default_factory=dict)
    intervals: dict[str, tuple[float, float]] = field(default_factory=dict)

    def render_text(self) -> str:
        def cell(value: Optional[float], scale: float = 100.0) -> str:
            return "--" if value is None else f"{value * scale:.2f}"

        lines = ["metric        value"]
        lines.append(f"S_bin         {cell(self.s_bin)}")
        lines.append(f"S_smc         {cell(self.s_smc)}")
        lines.append(f"S_dmc         {cell(self.s_dmc)}")
        lines.append(f"S_num         {cell(self.s_num)}")
        lines.append(f"S_overall     {cell(self.s_overall)}")
        lines.append(f"accuracy      {cell(self.accuracy, 1.0)}")
        lines.append(f"brier         {cell(self.brier, 1.0)}")
        lines.append(f"ece           {cell(self.ece, 1.0)}")
        for name in sorted(self.intervals):
            low, high = self.intervals[name]
            lines.append(f"ci[{name}]    ({low:.4f}, {high:.4f})")
        return "\n".join(lines)


def summarize_probabilistic(
    preds: Sequence[ProbPrediction],
    seed: int = 0,
    with_intervals: bool = True,
) -> ScoreReport:
    """Accuracy/Brier/ECE over a prediction set, with bootstrap intervals."""
    if not preds:
        raise ValueError("cannot summarize an empty prediction set")
    report = ScoreReport(n_predictions=len(preds))
    report.accuracy = accuracy(preds)
    report.brier = brier(preds)
    valid = [p for p in preds if p.valid]
    if valid:
        report.ece = ece(valid)
    if with_intervals:
        acc_scores = [
            1.0 if p.valid and (p.prob >= 0.5) == (p.label == 1) else 0.0 for p in preds
        ]
        brier_terms = [-trajectory_reward(p.prob, p.label) for p in preds]
        report.intervals["accuracy"] = bootstrap_ci(acc_scores, seed=seed)
        report.intervals["brier"] = bootstrap_ci(brier_terms, seed=seed + 1)
        if valid:
            report.intervals["ece"] = bootstrap_metric_ci(
                [p.prob for p in valid], [p.label for p in valid], seed=seed + 2
            )
    return report
