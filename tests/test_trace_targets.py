"""The traced benchmark round wraps the functions that perfbench/tracer.py
lists in TARGETS; one that no longer resolves crashes `run.py --trace 1`.
The tracer is loaded by path, as a file of the benchmark, not edited."""
import importlib
import inspect
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module, attr):
    owner = importlib.import_module(f"altperm.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_target_resolves_on_the_package():
    targets = load_tracer().TARGETS
    assert targets
    for name, module, attr, kind in targets:
        owner = resolve(module, attr)
        assert owner is not None, f"{name}: altperm.{module}.{attr} is gone"
        assert callable(owner), f"{name}: altperm.{module}.{attr} is not callable"


def test_every_gen_target_is_a_generator_function():
    # the tracer's "gen" wrapper calls next() on what the target returns,
    # so a target that returns a list crashes the traced round
    gens = [(name, module, attr) for name, module, attr, kind in load_tracer().TARGETS if kind == "gen"]
    assert gens
    for name, module, attr in gens:
        assert inspect.isgeneratorfunction(resolve(module, attr)), name
