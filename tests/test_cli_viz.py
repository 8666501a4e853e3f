"""Unit tests for the CLI, reporting helpers, and ASCII visualisation."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiments.reporting import Series, Table
from repro.plan import compile_policy
from repro.policies import GreedyTreePolicy, make_policy, available_policies, greedy_for
from repro.exceptions import PolicyError
from repro.viz import render_decision_tree, render_hierarchy


class TestCli:
    def test_parser_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table3", "--scale", "tiny", "--seed", "3"])
        assert args.experiment == "table3"
        assert args.scale == "tiny"
        assert args.seed == 3

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_main_runs_example2(self, capsys):
        assert main(["example2", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "2.04" in out
        assert "finished" in out

    def test_result_cache_round_trips(self, capsys, tmp_path):
        """``--result-cache`` prints the uncached table on a cold and a
        warm run, and the warm run loads from disk, writing nothing; the
        plan cache's flag is gone."""
        from repro.engine import (
            get_default_result_cache,
            set_default_result_cache,
        )

        def table():
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if "finished" not in line]

        def files():
            return {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}

        cached = ["table4", "--scale", "tiny", "--result-cache", str(tmp_path)]
        try:
            set_default_result_cache(None)
            assert main(["table4", "--scale", "tiny"]) == 0
            uncached = table()
            assert main(cached) == 0
            assert table() == uncached
            written = files()
            assert written
            assert main(cached) == 0
            assert table() == uncached
            assert get_default_result_cache().hits > 0
            assert files() == written
        finally:
            set_default_result_cache(None)
        with pytest.raises(SystemExit):
            main(["table4", "--scale", "tiny", "--plan-cache", str(tmp_path)])


class TestRegistry:
    def test_available(self):
        names = available_policies()
        assert "greedy-tree" in names and "wigs" in names

    def test_make_policy(self):
        policy = make_policy("greedy-tree", rounded=True)
        assert policy.rounded

    def test_unknown_name(self):
        with pytest.raises(PolicyError, match="unknown policy"):
            make_policy("bogus")

    def test_greedy_for_shape(self, vehicle_hierarchy, diamond_dag):
        assert greedy_for(vehicle_hierarchy).name == "GreedyTree"
        assert greedy_for(diamond_dag).name == "GreedyDAG"


class TestReporting:
    def test_table_render_and_markdown(self):
        table = Table("Demo", ("A", "B"))
        table.add_row({"A": 1.234, "B": "x"})
        text = table.render()
        assert "Demo" in text and "1.23" in text
        md = table.to_markdown()
        assert md.startswith("| A | B |")
        assert table.column("B") == ["x"]

    def test_series_render(self):
        series = Series("Curve", "x", [1, 2])
        series.add_line("y", [10.0, 20.0])
        text = series.render()
        assert "Curve" in text and "20.00" in text


class TestViz:
    def test_render_hierarchy(self, vehicle_hierarchy, vehicle_distribution):
        text = render_hierarchy(
            vehicle_hierarchy, distribution=vehicle_distribution
        )
        assert text.splitlines()[0].startswith("Vehicle")
        assert "Sentra" in text
        assert "40.00%" in text

    def test_render_hierarchy_truncates(self, vehicle_hierarchy):
        text = render_hierarchy(vehicle_hierarchy, max_nodes=3)
        assert "truncated" in text

    def test_render_decision_tree(self, vehicle_hierarchy, vehicle_distribution):
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        text = render_decision_tree(plan)
        assert "reach(Maxima)?" in text
        assert "=> " in text

    def test_render_decision_tree_truncates(self, vehicle_hierarchy):
        from repro.policies import TopDownPolicy

        plan = compile_policy(TopDownPolicy(), vehicle_hierarchy)
        text = render_decision_tree(plan, max_depth=1)
        assert "truncated" in text

    @pytest.mark.parametrize("name", ["topdown", "migs"])
    def test_render_one_sided_questions(self, name):
        """A baseline on a DAG asks questions one answer of which no target
        is consistent with; the missing branch prints, and every target's
        leaf still does."""
        from repro.testing import make_random_dag

        hierarchy = make_random_dag(40, seed=3)
        plan = compile_policy(make_policy(name), hierarchy)
        lines = render_decision_tree(plan, max_depth=hierarchy.n).splitlines()
        assert sum(line.endswith("(no target)") for line in lines) == 10
        leaves = [line.split("=> ")[1] for line in lines if "=> " in line]
        assert sorted(leaves) == sorted(map(str, hierarchy.nodes))
