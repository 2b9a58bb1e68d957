"""Self-test of tools/lint_repro.py on synthetic violations."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "lint_repro.py"


@pytest.fixture()
def lint(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("lint_repro_under_test", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    yield module, tmp_path
    sys.modules.pop(spec.name, None)


def write(root: Path, rel: str, code: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    return path


def test_private_accessor_flagged_outside_sanctioned_modules(lint):
    module, root = lint
    bad = write(
        root,
        "src/repro/serving/bad.py",
        """
        def peek(instance):
            return instance._tuples("R") | instance._bucket("R", 0, "a")
        """,
    )
    findings = module.lint_file(bad)
    assert [f.rule for f in findings] == ["private-accessor", "private-accessor"]
    assert findings[0].line == 3


def test_private_accessor_allowed_in_relational_and_cq(lint):
    module, root = lint
    for rel in ("src/repro/relational/fine.py", "src/repro/logic/cq.py"):
        path = write(root, rel, "def f(i):\n    return i._tuples('R')\n")
        assert module.lint_file(path) == []


def test_waiver_comment_suppresses_a_finding(lint):
    module, root = lint
    path = write(
        root,
        "src/repro/serving/waived.py",
        """
        def peek(instance):
            return instance._tuples("R")  # lint: allow(private-accessor)
        """,
    )
    assert module.lint_file(path) == []


def test_waiver_only_covers_its_own_rule(lint):
    module, root = lint
    path = write(
        root,
        "src/repro/serving/wrong_waiver.py",
        """
        def peek(instance):
            return instance._tuples("R")  # lint: allow(chase-timing)
        """,
    )
    assert [f.rule for f in module.lint_file(path)] == ["private-accessor"]


def test_clock_calls_flagged_inside_chase_package(lint):
    module, root = lint
    bad = write(
        root,
        "src/repro/chase/hot.py",
        """
        import time
        from time import perf_counter

        def step():
            started = time.perf_counter()
            wall = time.time()
            return perf_counter() - started, wall
        """,
    )
    assert [f.rule for f in module.lint_file(bad)] == ["chase-timing"] * 3


def test_clock_calls_fine_outside_chase_package(lint):
    module, root = lint
    fine = write(
        root,
        "src/repro/serving/timed.py",
        "import time\n\ndef f():\n    return time.perf_counter()\n",
    )
    assert module.lint_file(fine) == []


def test_lock_order_inversion_flagged(lint):
    module, root = lint
    bad = write(
        root,
        "src/repro/obs/inversion.py",
        """
        def snapshot(self):
            with self._mutex:
                with self._admin:
                    return dict(self._providers)
        """,
    )
    (finding,) = module.lint_file(bad)
    assert finding.rule == "lock-order"
    assert finding.line == 4


def test_lock_order_correct_nesting_passes(lint):
    module, root = lint
    fine = write(
        root,
        "src/repro/obs/correct.py",
        """
        def snapshot(self):
            with self._admin:
                with self._mutex:
                    return dict(self._providers)
        """,
    )
    assert module.lint_file(fine) == []


def test_routing_table_access_flagged_outside_elastic(lint):
    module, root = lint
    bad = write(
        root,
        "src/repro/serving/sneaky.py",
        """
        def route(exchange, value):
            return exchange._router._table.worker_of_value(value)
        """,
    )
    (finding,) = module.lint_file(bad)
    assert finding.rule == "routing-table"
    assert "routing_snapshot" in finding.message


def test_routing_table_access_allowed_inside_elastic(lint):
    module, root = lint
    fine = write(
        root,
        "src/repro/serving/elastic.py",
        """
        class EpochRouter:
            def snapshot(self):
                return self._table
        """,
    )
    assert module.lint_file(fine) == []


def test_merged_view_write_flagged_outside_its_maintainers(lint):
    module, root = lint
    bad = write(
        root,
        "src/repro/serving/sharding.py",
        """
        class ShardedExchange:
            def __init__(self):
                self._merged_view = None

            def _merged(self):
                view = self._merged_view = ("versions", "view", {})
                return view

            def apply_delta(self):
                self._merged_view = None  # a drop outside the maintainers
        """,
    )
    (finding,) = module.lint_file(bad)
    assert finding.rule == "merged-view"
    assert finding.line == 11
    assert "ShardedExchange.apply_delta" in finding.message


def test_slot_answer_carry_flagged_outside_apply_delta(lint):
    module, root = lint
    bad = write(
        root,
        "src/repro/serving/sharding.py",
        """
        class ShardedExchange:
            def apply_delta(self, before, reports):
                self._carry_slot_answers(before, reports)

            def _carry_slot_answers(self, before, reports):
                pass

            def _evaluate(self, before, reports):
                self._carry_slot_answers(before, reports)  # a reader's restamp
        """,
    )
    (finding,) = module.lint_file(bad)
    assert finding.rule == "slot-answers"
    assert finding.line == 10
    assert "ShardedExchange._evaluate" in finding.message


def test_epoch_publish_flagged_outside_the_publish_helper(lint):
    module, root = lint
    bad = write(
        root,
        "src/repro/serving/service.py",
        """
        class ExchangeService:
            def _publishing(self):
                token = self._epoch.begin_publish()
                try:
                    yield token
                except BaseException:
                    self._epoch.abort_publish(token)
                    raise
                self._epoch.commit_publish(token)

            def rebalance(self):
                token = self._epoch.begin_publish()  # a hand-rolled publish
                self._epoch.commit_publish(token)
        """,
    )
    findings = module.lint_file(bad)
    assert [(f.rule, f.line) for f in findings] == [
        ("epoch-publish", 13),
        ("epoch-publish", 14),
    ]
    assert ".begin_publish() called in ExchangeService.rebalance" in findings[0].message


def test_monitor_clock_flagged_outside_the_sampler(lint):
    module, root = lint
    bad = write(
        root,
        "src/repro/obs/monitor.py",
        """
        import time

        class Monitor:
            def _now(self):
                return time.monotonic()

            def tick(self):
                return time.monotonic()  # a second time base: flagged
        """,
    )
    (finding,) = module.lint_file(bad)
    assert finding.rule == "monitor-clock"
    assert finding.line == 9
    assert "Monitor._now" in finding.message


def test_monitor_clock_allowed_in_the_sampler_and_elsewhere_in_the_tree(lint):
    module, root = lint
    fine = write(
        root,
        "src/repro/obs/monitor.py",
        """
        import time

        class Monitor:
            def _now(self):
                return time.monotonic()
        """,
    )
    assert module.lint_file(fine) == []
    # the rule is scoped to the monitor module; other files may monotonic
    other = write(
        root,
        "src/repro/serving/concurrency.py",
        "import time\ndeadline = time.monotonic()\n",
    )
    assert module.lint_file(other) == []
    # wall-clock and perf_counter stay unrestricted in the monitor module
    clocks = write(
        root,
        "src/repro/obs/monitor.py",
        "import time\nstamp = time.time()\nspan = time.perf_counter()\n",
    )
    assert module.lint_file(clocks) == []


def test_monitor_clock_waiver(lint):
    module, root = lint
    waived = write(
        root,
        "src/repro/obs/monitor.py",
        """
        import time

        def helper():
            return time.monotonic()  # lint: allow(monitor-clock)
        """,
    )
    assert module.lint_file(waived) == []


def test_main_walks_directories_and_sets_exit_code(lint, capsys):
    module, root = lint
    write(
        root,
        "src/repro/serving/bad.py",
        "def f(i):\n    return i._tuples('R')\n",
    )
    write(root, "src/repro/serving/ok.py", "x = 1\n")
    assert module.main([str(root / "src")]) == 1
    out = capsys.readouterr().out
    assert "bad.py:2" in out and "private-accessor" in out
    (root / "src/repro/serving/bad.py").unlink()
    assert module.main([str(root / "src")]) == 0


def test_current_tree_is_clean():
    """The repo itself must pass its own lint (the CI gate)."""
    spec = importlib.util.spec_from_file_location("lint_repro_clean", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    findings = module.lint_paths([TOOL.parent.parent / "src"])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_layering_flags_a_type_checking_import(lint):
    module, root = lint
    path = write(
        root,
        "src/repro/analysis/x.py",
        """
        from typing import TYPE_CHECKING

        from repro.chase.dependencies import TGD

        if TYPE_CHECKING:
            from repro.serving.registry import ScenarioRegistry
        """,
    )
    findings = module.lint_file(path)
    assert [(f.rule, f.line) for f in findings] == [("layering", 7)]
    assert "repro.analysis imports repro.serving" in findings[0].message


def test_layering_flags_a_function_local_import(lint):
    module, root = lint
    path = write(
        root,
        "src/repro/analysis/x.py",
        """
        def plan():
            import repro.serving.sharding

            return repro.serving.sharding
        """,
    )
    assert [f.rule for f in module.lint_file(path)] == ["layering"]


def test_layering_flags_chase_importing_analysis(lint):
    module, root = lint
    path = write(
        root,
        "src/repro/chase/y.py",
        """
        from repro.analysis import analyse_mapping
        from repro.logic.terms import Var
        """,
    )
    findings = module.lint_file(path)
    assert [(f.rule, f.line) for f in findings] == [("layering", 2)]


def test_layering_exempts_main_clis(lint):
    module, root = lint
    path = write(
        root,
        "src/repro/analysis/__main__.py",
        "from repro.serving.registry import ScenarioRegistry\n",
    )
    assert module.lint_file(path) == []


def test_layering_table_names_every_package_of_the_real_tree():
    # test_current_tree_is_clean checks the imports; this checks that no
    # package escapes the table.
    spec = importlib.util.spec_from_file_location("lint_repro_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    repro = TOOL.parent.parent / "src" / "repro"
    packages = {path.name for path in repro.iterdir() if (path / "__init__.py").exists()}
    assert packages == set(module.LAYERS)


def test_size_budget_flags_a_package_over_budget(lint):
    module, root = lint
    write(root, "tools/size_budget.json", '{"logic": 2, "serving": 3}\n')
    write(root, "src/repro/logic/a.py", "x = 1\ny = 2\n")
    write(root, "src/repro/serving/a.py", "x = 1\n")
    write(root, "src/repro/serving/b.py", "y = 2\nz = 3\n")
    assert module.lint_paths([root / "src"]) == []
    write(root, "src/repro/serving/b.py", "y = 2\nz = 3\nw = 4\n")
    write(root, "src/repro/chase/c.py", "v = 5\n")
    findings = module.lint_paths([root / "src"])
    assert [f.rule for f in findings] == ["size-budget", "size-budget"]
    assert "repro.chase has 1 lines, no budget" in findings[0].message
    assert "repro.serving has 4 lines, over its budget of 3" in findings[1].message
    # A partial lint undercounts a package; it never flags one falsely, and
    # overlapping paths count each file once.
    assert module.lint_paths([root / "src/repro/serving/a.py"]) == []
    write(root, "src/repro/serving/b.py", "y = 2\nz = 3\n")
    serving = root / "src/repro/serving"
    assert module.lint_paths([serving, serving / "a.py"]) == []
