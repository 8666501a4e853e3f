"""Tests for the interactive console mode and decision-tree analysis."""

from __future__ import annotations

import pytest

from repro.core.oracle import ExactOracle
from repro.engine import simulate_all_targets
from repro.evaluation import analyze
from repro.exceptions import SearchError
from repro.interactive import console_search, parse_answer
from repro.plan import NO_PATH, compile_policy
from repro.policies import GreedyTreePolicy, make_policy
from repro.testing import make_random_dag, random_distribution


class ScriptedHuman:
    """Answers questions truthfully for a hidden target, like a worker."""

    def __init__(self, hierarchy, target):
        self.oracle = ExactOracle(hierarchy, target)
        self.prompts: list[str] = []

    def __call__(self, prompt: str) -> str:
        self.prompts.append(prompt)
        # The query is quoted inside the prompt: "... is it a 'Car'? "
        query = prompt.split("'")[1]
        return "yes" if self.oracle.answer(query) else "no"


class TestParseAnswer:
    @pytest.mark.parametrize("text", ["y", "YES", " true ", "1"])
    def test_yes(self, text):
        assert parse_answer(text) is True

    @pytest.mark.parametrize("text", ["n", "No", "false", "0"])
    def test_no(self, text):
        assert parse_answer(text) is False

    def test_garbage(self):
        with pytest.raises(SearchError, match="could not parse"):
            parse_answer("maybe")


class TestConsoleSearch:
    def test_identifies_target(self, vehicle_hierarchy, vehicle_distribution):
        printed: list[str] = []
        human = ScriptedHuman(vehicle_hierarchy, "Mercedes")
        result = console_search(
            GreedyTreePolicy(),
            vehicle_hierarchy,
            vehicle_distribution,
            input_fn=human,
            print_fn=printed.append,
        )
        assert result.returned == "Mercedes"
        assert len(human.prompts) == result.num_queries
        assert any("Mercedes" in line for line in printed)

    def test_reprompts_on_garbage(self, vehicle_hierarchy, vehicle_distribution):
        answers = iter(["banana", "??", "no", "no", "no", "no", "no", "no"])
        printed: list[str] = []
        result = console_search(
            GreedyTreePolicy(),
            vehicle_hierarchy,
            vehicle_distribution,
            input_fn=lambda _: next(answers),
            print_fn=printed.append,
        )
        # Two garbage answers were re-asked without being charged.
        assert result.returned == "Vehicle"
        assert sum("please answer" in line for line in printed) == 2

    def test_budget(self, vehicle_hierarchy, vehicle_distribution):
        with pytest.raises(SearchError, match="budget"):
            console_search(
                GreedyTreePolicy(),
                vehicle_hierarchy,
                vehicle_distribution,
                input_fn=lambda _: "no",
                print_fn=lambda _: None,
                max_queries=2,
            )

    def test_undo_takes_back_an_answer(
        self, vehicle_hierarchy, vehicle_distribution
    ):
        """A mistyped answer is reverted exactly and refunded.

        The greedy plan's first question on the Fig. 1 configuration is
        'Maxima' (asserted in the analysis tests): the worker fat-fingers
        "no", takes it back, and answers "yes" — one charged question.
        """
        answers = iter(["no", "undo", "yes"])
        printed: list[str] = []
        result = console_search(
            GreedyTreePolicy(),
            vehicle_hierarchy,
            vehicle_distribution,
            input_fn=lambda _: next(answers),
            print_fn=printed.append,
        )
        assert result.returned == "Maxima"
        assert any("took back" in line for line in printed)
        # Price and transcript reflect only the answer that stood.
        assert result.num_queries == 1
        assert result.total_price == 1.0
        assert result.transcript == (("Maxima", True),)

    def test_undo_with_nothing_to_undo(
        self, vehicle_hierarchy, vehicle_distribution
    ):
        human = ScriptedHuman(vehicle_hierarchy, "Honda")
        first = {"done": False}

        def stubborn(prompt: str) -> str:
            if not first["done"]:
                first["done"] = True
                return "undo"
            return human(prompt)

        printed: list[str] = []
        result = console_search(
            GreedyTreePolicy(),
            vehicle_hierarchy,
            vehicle_distribution,
            input_fn=stubborn,
            print_fn=printed.append,
        )
        assert result.returned == "Honda"
        assert any("nothing to undo" in line for line in printed)

    def test_serves_a_compiled_plan(
        self, vehicle_hierarchy, vehicle_distribution
    ):
        from repro.plan import compile_policy

        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        human = ScriptedHuman(vehicle_hierarchy, "Maxima")
        result = console_search(
            plan, input_fn=human, print_fn=lambda _: None
        )
        assert result.returned == "Maxima"


class TestAnalysis:
    def test_vehicle_analysis(self, vehicle_hierarchy, vehicle_distribution):
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        report = analyze(plan, vehicle_distribution)
        assert report.expected_cost == pytest.approx(2.04)
        assert report.worst_case_cost == 6
        assert 0 < report.efficiency <= 1
        # Depth distribution is a probability distribution.
        assert sum(report.depth_distribution.values()) == pytest.approx(1.0)
        # The root question is asked by every search.
        hottest, mass = report.hottest_queries(1)[0]
        assert hottest == "Maxima"
        assert mass == pytest.approx(1.0)
        # Expected cost == sum over queries of ask-probability (linearity).
        assert sum(report.query_frequency.values()) == pytest.approx(2.04)

    def test_depth_distribution_matches_expected_cost(
        self, vehicle_hierarchy, vehicle_distribution
    ):
        plan = compile_policy(
            GreedyTreePolicy(), vehicle_hierarchy, vehicle_distribution
        )
        report = analyze(plan, vehicle_distribution)
        mean_depth = sum(d * p for d, p in report.depth_distribution.items())
        assert mean_depth == pytest.approx(report.expected_cost)

    @pytest.mark.parametrize("name", ["topdown", "migs"])
    def test_one_sided_questions(self, name):
        """The baselines' plans on a DAG hold questions one answer of which
        no target is consistent with; that branch carries no mass."""
        hierarchy = make_random_dag(40, seed=3)
        distribution = random_distribution(hierarchy, 3)
        plan = compile_policy(make_policy(name), hierarchy, distribution)
        one_sided = (plan.yes_child == NO_PATH) | (plan.no_child == NO_PATH)
        assert one_sided.sum() == 10
        report = analyze(plan, distribution)
        assert sum(report.depth_distribution.values()) == pytest.approx(1.0)
        assert sum(report.query_frequency.values()) == pytest.approx(
            report.expected_cost
        )
        engine = simulate_all_targets(
            make_policy(name), hierarchy, distribution
        )
        assert plan.leaf_depths() == engine.per_target()
        assert report.expected_cost == pytest.approx(
            engine.expected_queries(distribution)
        )


class TestCliInteractive:
    def test_requires_edges(self, capsys):
        from repro.cli import main

        assert main(["interactive"]) == 2
        assert "--edges" in capsys.readouterr().err

    def test_end_to_end_with_scripted_stdin(
        self, tmp_path, monkeypatch, capsys, vehicle_hierarchy
    ):
        from repro.cli import main
        from repro.taxonomy import save_edge_list

        path = tmp_path / "vehicle.tsv"
        save_edge_list(vehicle_hierarchy, path)
        human = ScriptedHuman(vehicle_hierarchy, "Sentra")
        monkeypatch.setattr("builtins.input", human)
        assert main(["interactive", "--edges", str(path)]) == 0
        out = capsys.readouterr().out
        assert "category: 'Sentra'" in out
