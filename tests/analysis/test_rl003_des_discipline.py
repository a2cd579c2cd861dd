"""RL003 fixtures: blocking sleeps, negative schedules, time equality."""

from tests.analysis.helpers import active_ids, lint

SELECT = ["RL003"]


class TestFires:
    def test_time_sleep_blocks_process(self):
        findings = lint(
            """
            import time

            def handler(scheduler):
                time.sleep(0.5)
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL003"]
        assert "schedule" in findings[0].message

    def test_sleep_in_scheduled_callback(self):
        # The retired RL010's fourth positive fixture, flagged at the sink.
        findings = lint(
            """
            import time


            class Source:
                def __init__(self, scheduler):
                    scheduler.schedule(0.1, self._tick)

                def _tick(self):
                    time.sleep(0.01)
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL003"]
        assert findings[0].line == 10 and "time.sleep" in findings[0].message

    def test_negative_delay_schedule(self):
        findings = lint(
            """
            def f(scheduler, fn):
                scheduler.schedule(-1.0, fn)
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL003"]

    def test_negative_absolute_schedule_at(self):
        findings = lint(
            """
            def f(scheduler, fn):
                scheduler.schedule_at(-0.25, fn)
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL003"]

    def test_equality_on_now(self):
        findings = lint(
            """
            def f(scheduler, deadline):
                if scheduler.now == deadline:
                    return True
                return False
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL003"]

    def test_equality_on_name_bound_to_now(self):
        findings = lint(
            """
            def f(scheduler, deadline):
                t = scheduler.now
                return t != deadline
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL003"]


class TestClean:
    def test_scheduled_delay_instead_of_sleep(self):
        assert lint(
            """
            def handler(scheduler, fn):
                scheduler.schedule(0.5, fn)
            """,
            select=SELECT,
        ) == []

    def test_negative_literal_inside_pytest_raises(self):
        assert lint(
            """
            import pytest

            def test_rejects_past(scheduler, fn):
                with pytest.raises(ValueError):
                    scheduler.schedule(-1.0, fn)
            """,
            select=SELECT,
        ) == []

    def test_ordering_comparison_allowed(self):
        assert lint(
            """
            def f(scheduler, deadline):
                return scheduler.now >= deadline
            """,
            select=SELECT,
        ) == []

    def test_tolerant_comparators_allowed(self):
        assert lint(
            """
            import math
            import pytest

            def f(scheduler, deadline):
                a = scheduler.now == pytest.approx(deadline)
                b = math.isclose(scheduler.now, deadline)
                return a and b
            """,
            select=SELECT,
        ) == []

    def test_exact_time_assert_allowed_in_tests(self):
        assert lint(
            """
            def test_clock(scheduler):
                assert scheduler.now == 1.0
            """,
            path="tests/net/test_events.py",
            select=SELECT,
        ) == []


class TestSuppression:
    def test_pragma_silences_sleep(self):
        findings = lint(
            """
            import time

            def warmup():
                time.sleep(0.01)  # repro-lint: disable=RL003
            """,
            select=SELECT,
        )
        assert active_ids(findings) == []
        assert len(findings) == 1 and findings[0].suppressed
