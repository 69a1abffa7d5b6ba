from __future__ import annotations

import math
import random
import statistics

import numpy as np
import pytest

from futureworld.domain import Outcome
from futureworld.scoring import (
    ChoiceAnswer,
    NumericAnswer,
    ProbPrediction,
    accuracy,
    bootstrap_ci,
    bootstrap_metric_ci,
    brier,
    ece,
    f1_choice,
    numeric_score,
    overall,
    summarize_probabilistic,
    trajectory_reward,
)
from futureworld.scoring import _percentile_interval

from conftest import T1, make_trajectory

# -- independent oracles (deliberately different code paths) -------------------


def oracle_reward(prob, label):
    if prob is None or prob < 0 or prob > 1:
        return -1.0
    return -abs(prob - label) * abs(prob - label)


def oracle_brier(pairs):
    terms = []
    for prob, label in pairs:
        if prob is None or not (0 <= prob <= 1):
            terms.append(1.0)
        else:
            terms.append((prob - label) * (prob - label))
    return statistics.fmean(terms)


def oracle_accuracy(pairs):
    hits = 0
    for prob, label in pairs:
        if prob is None or not (0 <= prob <= 1):
            continue
        guess = 1 if prob >= 0.5 else 0
        hits += guess == label
    return hits / len(pairs)


def oracle_ece(pairs, bins=10):
    buckets = [[] for _ in range(bins)]
    for prob, label in pairs:
        idx = bins - 1 if prob == 1.0 else int(prob * bins)
        buckets[idx].append((prob, label))
    total = 0.0
    for bucket in buckets:
        if not bucket:
            continue
        avg_p = statistics.fmean(p for p, _ in bucket)
        avg_z = statistics.fmean(z for _, z in bucket)
        total += len(bucket) / len(pairs) * abs(avg_z - avg_p)
    return total


def oracle_f1(gold, predicted, is_binary):
    if is_binary and sum(predicted) != 1:
        return 0.0
    tp = sum(1 for g, p in zip(gold, predicted) if g == 1 and p == 1)
    if sum(predicted) == 0 or tp == 0:
        return 0.0
    precision = tp / sum(predicted)
    recall = tp / sum(gold)
    return 2 * precision * recall / (precision + recall)


def oracle_numeric(predicted, history, eps=1e-8):
    sigma = statistics.stdev(history)
    err = (predicted - history[-1]) / (3 * sigma + eps)
    return max(0.0, 1.0 - err**2)


def oracle_overall(parts):
    present = [p for p in parts if p is not None]
    return statistics.fmean(present)


# -- spec'd point values -------------------------------------------------------


def test_reward_examples():
    assert trajectory_reward(0.5, 1) == pytest.approx(-0.25)
    assert trajectory_reward(1.0, 1) == 0.0
    assert trajectory_reward(0.0, 0) == 0.0
    assert trajectory_reward(None, 1) == -1.0
    assert trajectory_reward(None, 0) == -1.0


@pytest.mark.parametrize("label", [True, False, 1.0, 0.0, 2, -1, None, "1"])
def test_a_label_is_the_integer_0_or_1_wherever_it_is_taken(label):
    takers = [
        lambda: trajectory_reward(0.5, label),
        lambda: ProbPrediction(0.5, label),
        lambda: Outcome(question_id="q-1", label=label, resolved_at=T1),
        lambda: make_trajectory().resolved(label),
    ]
    for take in takers:
        with pytest.raises(ValueError, match=r"label must be binary \(the integer 0 or 1\)"):
            take()


def test_reward_bounds_and_brier_identity():
    rng = random.Random(0)
    for _ in range(500):
        p, z = rng.random(), rng.randrange(2)
        r = trajectory_reward(p, z)
        assert -1.0 <= r <= 0.0
        assert r == pytest.approx(-((p - z) ** 2), abs=1e-12)


def test_brier_examples():
    half = [ProbPrediction(0.5, z) for z in (0, 1, 1, 0, 1)]
    assert brier(half) == pytest.approx(0.25)
    perfect = [ProbPrediction(float(z), z) for z in (0, 1, 0)]
    assert brier(perfect) == 0.0
    mixed = [ProbPrediction(0.9, 1), ProbPrediction(0.2, 0)]
    assert brier(mixed) == pytest.approx(0.025)


def test_brier_scores_invalid_as_worst_case():
    preds = [ProbPrediction(None, 1), ProbPrediction(1.0, 1)]
    assert brier(preds) == pytest.approx(0.5)


def test_accuracy_tie_counts_as_positive():
    assert accuracy([ProbPrediction(0.5, 1)]) == 1.0
    assert accuracy([ProbPrediction(0.5, 0)]) == 0.0
    assert accuracy([ProbPrediction(0.9, 1), ProbPrediction(0.1, 0)]) == 1.0
    assert accuracy([ProbPrediction(None, 1), ProbPrediction(0.9, 1)]) == 0.5


def test_ece_examples():
    assert ece([ProbPrediction(0.9, 1)]) == pytest.approx(0.1)
    calibrated = (
        [ProbPrediction(0.25, 1), ProbPrediction(0.25, 0), ProbPrediction(0.25, 0), ProbPrediction(0.25, 0)]
        + [ProbPrediction(0.75, 1), ProbPrediction(0.75, 1), ProbPrediction(0.75, 1), ProbPrediction(0.75, 0)]
    )
    assert ece(calibrated) == pytest.approx(0.0)
    assert ece([ProbPrediction(1.0, 1)]) == pytest.approx(0.0)  # 1.0 lands in the top bin


def test_ece_rejects_invalid_predictions():
    with pytest.raises(ValueError):
        ece([ProbPrediction(None, 1)])


def test_ece_permutation_invariant():
    rng = random.Random(1)
    preds = [ProbPrediction(rng.random(), rng.randrange(2)) for _ in range(60)]
    shuffled = preds[:]
    rng.shuffle(shuffled)
    assert ece(preds) == pytest.approx(ece(shuffled), abs=1e-12)


def test_f1_examples():
    assert f1_choice(ChoiceAnswer(gold=(1, 0), predicted=(1, 0)), is_binary=True) == 1.0
    assert f1_choice(ChoiceAnswer(gold=(1, 0), predicted=(1, 1)), is_binary=True) == 0.0
    assert f1_choice(ChoiceAnswer(gold=(1, 1, 0), predicted=(1, 0, 0))) == pytest.approx(2 / 3)
    assert f1_choice(ChoiceAnswer(gold=(1, 1, 0), predicted=(0, 0, 0))) == 0.0


def test_f1_equals_one_iff_exact_match():
    rng = random.Random(2)
    for _ in range(300):
        m = rng.randrange(2, 8)
        gold = [0] * m
        for i in rng.sample(range(m), rng.randrange(1, m + 1)):
            gold[i] = 1
        pred = [rng.randrange(2) for _ in range(m)]
        score = f1_choice(ChoiceAnswer(gold=tuple(gold), predicted=tuple(pred)))
        assert 0.0 <= score <= 1.0
        if score == 1.0:
            assert pred == gold


def test_choice_answer_validation():
    with pytest.raises(ValueError):
        ChoiceAnswer(gold=(1, 0), predicted=(1,))
    with pytest.raises(ValueError):
        ChoiceAnswer(gold=(0, 0), predicted=(1, 0))


def test_numeric_worked_case():
    answer = NumericAnswer(predicted=10.0, history=tuple(float(v) for v in range(1, 9)))
    sigma = statistics.stdev(range(1, 9))
    expected = 1.0 - (2.0 / (3.0 * sigma + 1e-8)) ** 2
    assert sigma == pytest.approx(math.sqrt(6))
    assert numeric_score(answer) == pytest.approx(expected, abs=1e-6)
    assert numeric_score(answer) == pytest.approx(0.9259259, abs=1e-6)


def test_numeric_boundaries():
    history = tuple(float(v) for v in range(1, 9))
    assert numeric_score(NumericAnswer(predicted=8.0, history=history)) == 1.0
    sigma = statistics.stdev(history)
    far = NumericAnswer(predicted=8.0 + 3 * sigma + 1.0, history=history)
    assert numeric_score(far) == 0.0
    with pytest.raises(ValueError):
        NumericAnswer(predicted=1.0, history=(1.0, 2.0))


def test_numeric_monotone_in_error():
    rng = random.Random(3)
    for _ in range(100):
        history = tuple(rng.uniform(0, 50) for _ in range(8))
        base = history[-1]
        errors = sorted(rng.uniform(0, 30) for _ in range(4))
        scores = [numeric_score(NumericAnswer(predicted=base + e, history=history)) for e in errors]
        assert scores == sorted(scores, reverse=True)


def test_overall_examples():
    assert overall(1.0, 1.0, 1.0, 1.0) == 1.0
    assert overall(0.8125, 0.4031, 0.2078, 0.0517) == pytest.approx(0.368775, abs=5e-5)
    assert overall(0.6, 0.3, 0.9, None) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        overall(None, None, None, None)


# -- bootstrap ------------------------------------------------------------------


def test_bootstrap_constant_values_degenerate():
    low, high = bootstrap_ci([0.4] * 20, seed=1)
    assert low == high == pytest.approx(0.4)


def test_bootstrap_same_seed_identical():
    rng = random.Random(4)
    values = [rng.random() for _ in range(50)]
    assert bootstrap_ci(values, seed=9) == bootstrap_ci(values, seed=9)
    assert bootstrap_ci(values, seed=9) != bootstrap_ci(values, seed=10)


def test_bootstrap_contains_sample_mean_on_symmetric_data():
    rng = random.Random(5)
    for trial in range(20):
        values = [rng.gauss(0.5, 0.1) for _ in range(40)]
        mean = statistics.fmean(values)
        low, high = bootstrap_ci(values, seed=trial)
        assert low <= mean <= high


def test_bootstrap_metric_ci_brackets_point_estimate():
    rng = random.Random(6)
    preds = [ProbPrediction(rng.random(), rng.randrange(2)) for _ in range(80)]
    low, high = bootstrap_metric_ci([p.prob for p in preds], [p.label for p in preds], seed=1)
    assert low <= ece(preds) <= high
    assert high - low < 1.0


# The whole-matrix and per-row loops the block bootstrap replaced, kept as references.


def reference_bootstrap_ci(values, level=0.95, n_resamples=1000, seed=0):
    rng = np.random.default_rng(seed)
    arr = np.asarray(values, dtype=float)
    idx = rng.integers(0, len(arr), size=(n_resamples, len(arr)))
    means = arr[idx].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    return float(low), float(high)


def reference_bootstrap_ece_ci(preds, level=0.95, n_resamples=1000, seed=0):
    rng = np.random.default_rng(seed)
    stats = []
    for _ in range(n_resamples):
        idx = rng.integers(0, len(preds), size=len(preds))
        stats.append(ece([preds[i] for i in idx]))
    alpha = (1.0 - level) / 2.0
    low, high = np.quantile(np.asarray(stats), [alpha, 1.0 - alpha])
    return float(low), float(high)


@pytest.mark.parametrize("n", [1, 7, 64, 65, 1301])
@pytest.mark.parametrize("n_resamples", [1000, 1234])
def test_block_bootstrap_equals_the_reference_loops_bit_for_bit(n, n_resamples):
    rng = random.Random(n * 7919 + n_resamples)
    # 0.0, 0.9 and 1.0 sit on bin edges; 1.0 falls into the closed last bin.
    probs = [rng.choice([0.0, 0.9, 1.0, rng.random(), round(rng.random(), 1)]) for _ in range(n)]
    labels = [rng.randrange(2) for _ in range(n)]
    preds = [ProbPrediction(p, z) for p, z in zip(probs, labels)]
    seed = rng.randrange(1 << 30)
    assert bootstrap_ci(probs, n_resamples=n_resamples, seed=seed) == reference_bootstrap_ci(
        probs, n_resamples=n_resamples, seed=seed
    )
    assert bootstrap_metric_ci(
        probs, labels, n_resamples=n_resamples, seed=seed
    ) == reference_bootstrap_ece_ci(preds, n_resamples=n_resamples, seed=seed)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 999, 1000, 4001])
def test_percentile_interval_equals_np_quantile_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for trial in range(40):
        values = rng.choice([rng.random(n), rng.integers(0, 5, n) / 4.0, -rng.random(n) * 1e6])
        level = float(rng.choice([0.95, 0.9, 0.5, 0.99, rng.random()]))
        blocks = np.array_split(values, rng.integers(1, 4))  # an interval reads a list of blocks
        alpha = (1.0 - level) / 2.0
        expected = tuple(float(q) for q in np.quantile(values, [alpha, 1.0 - alpha]))
        assert _percentile_interval(blocks, level) == expected, (trial, level)


# -- oracle agreement over random instances ---------------------------------------


def test_scorers_agree_with_brute_force_oracles():
    rng = random.Random(1234)
    for _ in range(1000):
        n = rng.randrange(1, 12)
        pairs = []
        for _ in range(n):
            if rng.random() < 0.1:
                pairs.append((None, rng.randrange(2)))
            else:
                pairs.append((round(rng.random(), 3), rng.randrange(2)))
        preds = [ProbPrediction(p, z) for p, z in pairs]
        assert brier(preds) == pytest.approx(oracle_brier(pairs), abs=1e-9)
        assert accuracy(preds) == pytest.approx(oracle_accuracy(pairs), abs=1e-9)
        valid = [(p, z) for p, z in pairs if p is not None]
        if valid:
            valid_preds = [ProbPrediction(p, z) for p, z in valid]
            assert ece(valid_preds) == pytest.approx(oracle_ece(valid), abs=1e-9)
        prob, label = pairs[0]
        assert trajectory_reward(prob, label) == pytest.approx(oracle_reward(prob, label), abs=1e-9)

        m = rng.randrange(2, 27)
        gold = [0] * m
        for i in rng.sample(range(m), rng.randrange(1, m + 1)):
            gold[i] = 1
        predicted = [rng.randrange(2) for _ in range(m)]
        is_binary = m == 2
        ours = f1_choice(ChoiceAnswer(gold=tuple(gold), predicted=tuple(predicted)), is_binary)
        assert ours == pytest.approx(oracle_f1(gold, predicted, is_binary), abs=1e-9)

        history = tuple(rng.uniform(-20, 80) for _ in range(8))
        predicted_value = history[-1] + rng.uniform(-25, 25)
        assert numeric_score(NumericAnswer(predicted_value, history)) == pytest.approx(
            oracle_numeric(predicted_value, history), abs=1e-9
        )

        parts = [rng.choice([None, rng.random()]) for _ in range(4)]
        if any(p is not None for p in parts):
            assert overall(*parts) == pytest.approx(oracle_overall(parts), abs=1e-9)


def test_summarize_probabilistic_fields():
    rng = random.Random(8)
    preds = [ProbPrediction(rng.random(), rng.randrange(2)) for _ in range(40)]
    report = summarize_probabilistic(preds, seed=3)
    assert report.n_predictions == 40
    assert 0 <= report.accuracy <= 1
    assert 0 <= report.brier <= 1
    assert 0 <= report.ece <= 1
    assert set(report.intervals) == {"accuracy", "brier", "ece"}
    low, high = report.intervals["brier"]
    assert low <= report.brier <= high
    text = report.render_text()
    assert "brier" in text and "--" in text  # benchmark scores absent on a pure prob report
