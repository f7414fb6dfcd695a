"""Tests for the confusion-matrix extension."""

import numpy as np
import pytest

from repro.corpus.generator import TestFile
from repro.metrics.accuracy import EvaluationSet
from repro.metrics.confusion import (
    breakdown_by,
    confusion_matrix,
    render_breakdown,
)


def evals(truth, judged):
    issues = [5 if t else 0 for t in truth]
    return EvaluationSet(np.array(issues), np.array(truth), np.array(judged))


class TestConfusionMatrix:
    def test_quadrants(self):
        cm = confusion_matrix(
            evals(
                truth=[False, False, True, True],
                judged=[False, True, False, True],
            )
        )
        assert cm.true_positive == 1  # invalid caught
        assert cm.false_negative == 1  # invalid slipped
        assert cm.false_positive == 1  # valid rejected
        assert cm.true_negative == 1

    def test_precision_recall_f1(self):
        cm = confusion_matrix(
            evals(
                truth=[False, False, False, True],
                judged=[False, False, True, True],
            )
        )
        assert cm.recall == pytest.approx(2 / 3)
        assert cm.precision == 1.0
        assert 0 < cm.f1 < 1

    def test_false_pass_rate(self):
        cm = confusion_matrix(
            evals(truth=[False, False], judged=[True, False])
        )
        assert cm.false_pass_rate == 0.5

    def test_empty_safe(self):
        cm = confusion_matrix(evals(truth=[], judged=[]))
        assert cm.accuracy == 0.0
        assert cm.precision == 0.0
        assert cm.recall == 0.0

    def test_render(self):
        cm = confusion_matrix(evals(truth=[True, False], judged=[True, False]))
        text = cm.render()
        assert "precision" in text and "recall" in text


class TestBreakdown:
    def _files(self):
        return [
            TestFile("a.c", "c", "acc", "s", "vector").with_issue(5),
            TestFile("b.cpp", "cpp", "acc", "s", "vector").with_issue(0),
            TestFile("c.c", "c", "acc", "s", "reduction").with_issue(5),
        ]

    def test_by_language(self):
        rows = breakdown_by(self._files(), [True, True, True], "language")
        by_key = {r.key: r for r in rows}
        assert by_key["c"].accuracy == 1.0
        assert by_key["cpp"].accuracy == 0.0  # invalid judged valid

    def test_by_template(self):
        rows = breakdown_by(self._files(), [True, False, True], "template")
        by_key = {r.key: r for r in rows}
        assert by_key["vector"].count == 2
        assert by_key["reduction"].count == 1

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            breakdown_by(self._files(), [True, True, True], "color")

    def test_render(self):
        rows = breakdown_by(self._files(), [True, True, True], "language")
        text = render_breakdown(rows, "By language")
        assert "By language" in text
        assert "cpp" in text

