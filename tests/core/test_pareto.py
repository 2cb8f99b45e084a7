"""Unit tests for Pareto-frontier analysis."""

import itertools

import pytest

from repro.core import (
    ParetoPoint,
    frontier_labels,
    pareto_frontier,
    pareto_frontier_map,
    vector_dominates,
)


def p(label, cpu, gpu):
    return ParetoPoint(label=label, cpu_performance=cpu, gpu_performance=gpu)


def dominates(a, b):
    """2-D dominance the way :func:`pareto_frontier` decides it: on each
    point's ``(cpu, gpu)`` vector."""
    return vector_dominates(
        (a.cpu_performance, a.gpu_performance), (b.cpu_performance, b.gpu_performance)
    )


class TestDominates:
    def test_strictly_better_dominates(self):
        assert dominates(p("a", 2, 2), p("b", 1, 1))

    def test_better_on_one_axis_dominates(self):
        assert dominates(p("a", 2, 1), p("b", 1, 1))

    def test_equal_points_do_not_dominate(self):
        assert not dominates(p("a", 1, 1), p("b", 1, 1))

    def test_tradeoff_points_incomparable(self):
        assert not dominates(p("a", 2, 1), p("b", 1, 2))
        assert not dominates(p("b", 1, 2), p("a", 2, 1))


class TestFrontier:
    def test_dominated_point_excluded(self):
        points = [p("good", 2, 2), p("bad", 1, 1)]
        assert frontier_labels(points) == ["good"]

    def test_tradeoff_curve_fully_kept(self):
        points = [p("cpu-best", 3, 1), p("mid", 2, 2), p("gpu-best", 1, 3)]
        assert frontier_labels(points) == ["gpu-best", "mid", "cpu-best"]

    def test_frontier_sorted_by_cpu_performance(self):
        points = [p("a", 3, 1), p("b", 1, 3), p("c", 2, 2)]
        frontier = pareto_frontier(points)
        values = [point.cpu_performance for point in frontier]
        assert values == sorted(values)

    def test_paper_shape_default_not_optimal(self):
        """The key Figure 7/8 observation: a point can be dominated even if
        it is nobody's favourite axis."""
        default = p("Default", 1.0, 1.0)
        steer_coalesce = p("Steer+Coalesce", 1.10, 1.45)
        mono = p("Monolithic", 0.95, 2.0)
        frontier = frontier_labels([default, steer_coalesce, mono])
        assert "Default" not in frontier
        assert "Steer+Coalesce" in frontier
        assert "Monolithic" in frontier

    def test_single_point_is_frontier(self):
        assert frontier_labels([p("only", 1, 1)]) == ["only"]

    def test_identical_vectors_collapse_deterministically(self):
        """Ties on both axes dedup to the lexicographically smallest label."""
        points = [p("b", 2, 2), p("a", 2, 2)]
        assert frontier_labels(points) == ["a"]
        assert frontier_labels(list(reversed(points))) == ["a"]

    def test_insertion_order_never_changes_the_frontier(self):
        """Regression: the frontier is a pure function of the point *set*."""
        points = [p("tie1", 2, 2), p("tie2", 2, 2), p("cpu", 3, 1),
                  p("gpu", 1, 3), p("dom", 1, 1)]
        expected = frontier_labels(points)
        for order in itertools.permutations(points):
            assert frontier_labels(list(order)) == expected
        assert expected == ["gpu", "tie1", "cpu"]

    def test_conflicting_points_sharing_a_label_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            pareto_frontier([p("a", 1, 1), p("a", 2, 2)])

    def test_exact_duplicate_points_are_harmless(self):
        assert frontier_labels([p("a", 2, 2), p("a", 2, 2)]) == ["a"]


class TestVectorLayer:
    def test_vector_dominates_basics(self):
        assert vector_dominates((2, 2, 2), (1, 2, 2))
        assert not vector_dominates((1, 1, 1), (1, 1, 1))
        assert not vector_dominates((2, 1), (1, 2))

    def test_vector_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length mismatch"):
            vector_dominates((1, 2), (1, 2, 3))

    def test_frontier_map_dedups_and_sorts(self):
        items = {"z": (2.0, 2.0), "a": (2.0, 2.0), "low": (1.0, 1.0),
                 "edge": (3.0, 0.5)}
        frontier = pareto_frontier_map(items)
        assert frontier == [("a", (2.0, 2.0)), ("edge", (3.0, 0.5))]

    def test_frontier_map_order_independent(self):
        items = [("c", (1.0, 3.0)), ("b", (2.0, 2.0)), ("a", (3.0, 1.0)),
                 ("dup", (2.0, 2.0)), ("dom", (0.5, 0.5))]
        expected = pareto_frontier_map(dict(items))
        for order in itertools.permutations(items):
            assert pareto_frontier_map(dict(order)) == expected

    def test_frontier_map_supports_many_dimensions(self):
        items = {"a": (1.0, 1.0, 1.0, 9.0), "b": (2.0, 2.0, 2.0, 1.0),
                 "dominated": (1.0, 1.0, 1.0, 1.0)}
        labels = [label for label, _vector in pareto_frontier_map(items)]
        assert labels == ["a", "b"]
