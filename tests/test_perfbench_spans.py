"""The benchmark's span tracer can still wrap every entry point it names.

perfbench/spans.py rebinds each entry point by its module-level name.  Its
install fails on a name it cannot find, such as a renamed function, and
raises TraceError on a module-level binding of an entry point that it left
unwrapped.  Installing and uninstalling it here catches both before a traced
benchmark run does.  The file is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import prodstruct.cli
import prodstruct.decomposition

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_entry_point_and_uninstalls():
    spans = load_spans()
    main, validate = prodstruct.cli.main, prodstruct.decomposition.validate
    tracer = spans.Tracer()
    try:
        tracer.install()        # raises TraceError on an unwrapped binding
        assert prodstruct.cli.main is not main
    finally:
        tracer.uninstall()
    assert prodstruct.cli.main is main
    assert prodstruct.decomposition.validate is validate
