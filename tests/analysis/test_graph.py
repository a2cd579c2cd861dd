"""ProjectGraph: symbol resolution and call graph."""

from repro.analysis.graph import build_graph, module_name_for

from tests.analysis.helpers import make_module


def _graph(sources: dict[str, str]):
    return build_graph([make_module(src, path) for path, src in sources.items()])


def test_module_name_for_src_layout():
    assert module_name_for(("src", "repro", "core", "vnf.py")) == "repro.core.vnf"
    assert module_name_for(("src", "repro", "core", "__init__.py")) == "repro.core"
    assert module_name_for(("tests", "test_x.py")) == "tests.test_x"


def test_symbols_indexed():
    graph = _graph(
        {
            "src/repro/a.py": """\
                def top():
                    pass


                class C:
                    def method(self):
                        pass
            """
        }
    )
    assert "repro.a.top" in graph.functions
    assert "repro.a.C.method" in graph.functions
    assert "repro.a.C" in graph.classes
    assert graph.classes["repro.a.C"].methods["method"] == "repro.a.C.method"


def test_direct_call_resolved_through_import_alias():
    graph = _graph(
        {
            "src/repro/util_mod.py": """\
                def helper():
                    pass
            """,
            "src/repro/user.py": """\
                from repro.util_mod import helper as h


                def caller():
                    h()
            """,
        }
    )
    assert "repro.util_mod.helper" in graph.functions["repro.user.caller"].callees


def test_self_method_call_resolved_including_base_class():
    graph = _graph(
        {
            "src/repro/a.py": """\
                class Base:
                    def shared(self):
                        pass


                class Child(Base):
                    def run(self):
                        self.shared()
            """
        }
    )
    assert "repro.a.Base.shared" in graph.functions["repro.a.Child.run"].callees


def test_class_construction_maps_to_init():
    graph = _graph(
        {
            "src/repro/a.py": """\
                class Thing:
                    def __init__(self):
                        pass


                def make():
                    return Thing()
            """
        }
    )
    assert "repro.a.Thing.__init__" in graph.functions["repro.a.make"].callees


def test_unresolved_calls_kept_as_external():
    graph = _graph(
        {
            "src/repro/a.py": """\
                import time


                def f():
                    return time.monotonic()
            """
        }
    )
    assert "time.monotonic" in graph.functions["repro.a.f"].external_calls


def test_callers_of_reverse_index():
    graph = _graph(
        {
            "src/repro/a.py": """\
                def leaf():
                    pass


                def mid():
                    leaf()


                def top():
                    mid()
            """
        }
    )
    assert graph.callers_of("repro.a.leaf") == {"repro.a.mid"}
    assert graph.callers_of("repro.a.mid") == {"repro.a.top"}


def test_nested_defs_own_their_calls():
    graph = _graph(
        {
            "src/repro/a.py": """\
                import time


                def outer():
                    def inner():
                        return time.time()
                    return inner
            """
        }
    )
    # The wall-clock call belongs to inner's (unindexed) scope, not outer.
    assert "time.time" not in graph.functions["repro.a.outer"].external_calls
