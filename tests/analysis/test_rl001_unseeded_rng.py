"""RL001 fixtures: unseeded randomness and wall-clock reads."""

from repro.analysis import analyze_paths
from tests.analysis.helpers import active_ids, lint, lint_modules

SELECT = ["RL001"]


class TestFires:
    def test_unseeded_default_rng(self):
        findings = lint(
            """
            import numpy as np

            def make():
                return np.random.default_rng()
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL001"]
        assert "derive_rng" in findings[0].message

    def test_unseeded_default_rng_via_from_import(self):
        findings = lint(
            """
            from numpy.random import default_rng

            rng = default_rng()
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL001"]

    def test_bare_seeded_default_rng_in_package(self):
        findings = lint(
            """
            import numpy as np

            def build(seed):
                links = np.random.default_rng(seed)
                coding = np.random.default_rng(seed)  # same words as the links
                spawned = np.random.default_rng(np.random.SeedSequence([seed, 1]))
                return links, coding, spawned
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL001", "RL001", "RL001"]
        assert "derive_rng(..., seed=seed)" in findings[0].message
        assert "alias" in findings[0].message

    def test_legacy_numpy_global_state(self):
        findings = lint(
            """
            import numpy as np

            x = np.random.rand(3)
            y = np.random.randint(0, 10)
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL001", "RL001"]

    def test_stdlib_random_module(self):
        findings = lint(
            """
            import random

            x = random.random()
            random.seed(0)
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL001", "RL001"]

    def test_seedless_random_random_instance(self):
        findings = lint(
            """
            import random

            r = random.Random()
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL001"]

    def test_wall_clock(self):
        findings = lint(
            """
            import time

            started = time.time()
            t = time.perf_counter()
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL001", "RL001"]

    def test_wall_clock_sinks_shared_with_rl006_and_rl010(self):
        # RL001's own copy of the list lacked process_time and datetime.
        findings = lint(
            """
            import time
            from datetime import datetime

            stamp = datetime.now()
            cpu = time.process_time()
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL001", "RL001"]
        assert "datetime.now" in findings[0].message

    def test_default_factory_fallback(self):
        findings = lint(
            """
            from dataclasses import dataclass, field
            import numpy as np

            @dataclass
            class C:
                rng: np.random.Generator = field(default_factory=np.random.default_rng)
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL001"]


class TestHandlerChains:
    """The retired RL010's positive fixtures: the *sink* is what is flagged."""

    def test_direct_wallclock_in_handler(self):
        findings = lint(
            """
            import time


            class Daemon:
                def on_packet(self, pkt):
                    return time.time()
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL001"]
        assert findings[0].line == 7 and "time.time" in findings[0].message

    def test_one_hop_helper_chain(self):
        findings = lint(
            """
            import time


            def _stamp():
                return time.time()


            class Daemon:
                def on_packet(self, pkt):
                    return _stamp()
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL001"]
        assert findings[0].line == 6  # inside _stamp, not at the handler

    def test_cross_module_chain(self):
        findings = lint_modules(
            {
                "src/repro/util/clock.py": """\
                    import time


                    def stamp():
                        return time.time()
                """,
                "src/repro/core/daemon.py": """\
                    from repro.util.clock import stamp


                    class Daemon:
                        def handle_signal(self, sig):
                            return stamp()
                """,
            },
            select=SELECT,
        )
        assert active_ids(findings) == ["RL001"]
        assert findings[0].path == "src/repro/util/clock.py"

    def test_non_handler_reaching_clock_flagged_too(self):
        # RL010 let host-side helpers through; RL001 does not.
        findings = lint(
            """
            import time


            def measure_wall_runtime():
                return time.time()
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL001"]


class TestClean:
    def test_seeded_default_rng(self):
        # Tests, benchmarks and the helper module build seeded generators
        # freely; only simulator code must derive its streams by key.
        for path in ("tests/conftest.py", "bench/workloads.py", "src/repro/util/rng.py"):
            assert lint(
                """
                import numpy as np

                rng = np.random.default_rng(42)
                """,
                path=path,
                select=SELECT,
            ) == []

    def test_derived_streams(self):
        assert lint(
            """
            from repro.util.rng import child_rng, derive_rng

            def build(seed, src, dst):
                root = derive_rng("experiments.demo", seed=seed)
                return child_rng(root, src, dst), derive_rng("experiments.demo", "vnf", "T", seed=seed)
            """,
            select=SELECT,
        ) == []

    def test_seeded_random_instance_and_generator_api(self):
        assert lint(
            """
            import random
            import numpy as np

            r = random.Random(7)
            g = np.random.Generator(np.random.PCG64(3))
            ss = np.random.SeedSequence([1, 2])
            """,
            select=SELECT,
        ) == []

    def test_outside_repro_package_not_scoped(self):
        assert lint(
            """
            import numpy as np

            rng = np.random.default_rng()
            """,
            path="tests/conftest.py",
            select=SELECT,
        ) == []

    def test_helper_module_exempt(self):
        assert lint(
            """
            import numpy as np

            def derive():
                return np.random.default_rng()
            """,
            path="src/repro/util/rng.py",
            select=SELECT,
        ) == []


class TestSuppression:
    def test_same_line_pragma(self):
        findings = lint(
            """
            import numpy as np

            rng = np.random.default_rng()  # repro-lint: disable=RL001
            """,
            select=SELECT,
        )
        assert active_ids(findings) == []
        assert [f.rule_id for f in findings if f.suppressed] == ["RL001"]

    def test_next_line_pragma(self):
        findings = lint(
            """
            import numpy as np

            # repro-lint: disable-next-line=RL001
            rng = np.random.default_rng()
            """,
            select=SELECT,
        )
        assert active_ids(findings) == []

    def test_pragma_for_other_rule_does_not_apply(self):
        findings = lint(
            """
            import numpy as np

            rng = np.random.default_rng()  # repro-lint: disable=RL002
            """,
            select=SELECT,
        )
        assert active_ids(findings) == ["RL001"]


class TestRealTree:
    def test_full_src_tree_is_closed(self):
        # Every generator under src/repro comes out of repro.util.rng:
        # the 14 bare ``default_rng(seed)`` sites of the experiment
        # builders went with the random-stream migration.
        result = analyze_paths(["src/repro"], select=SELECT)
        assert result.active == []
