"""The frozen records against the @dataclass(frozen=True) classes they stand
in for, and the modules that `import ttrose` loads."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ttrose
from oracles import EXAMPLE_MAP, dataclass_twin
from ttrose._record import record
from ttrose.catalog import connected_simplicial_graphs
from ttrose.diagram import find_loops, star_target, target_verdict, verify_loop
from ttrose.ltt import ltt_of_map, transition_digraph, validate_ltt
from ttrose.maps import (
    FoldDecomposition,
    Generator,
    RoseMap,
    identity_permutation,
    is_train_track,
    stallings_fold_decomposition,
    validate_ideal_decomposition,
)
from ttrose.whitehead import WhiteheadGraph

SRC = Path(__file__).resolve().parents[1] / "src"


def _records() -> list[type]:
    """Every class the record decorator built, by module and name."""
    found = []
    for info in pkgutil.iter_modules(ttrose.__path__):
        module = importlib.import_module(f"ttrose.{info.name}")
        for _, obj in sorted(vars(module).items()):
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and getattr(vars(obj).get("__init__"), "__module__", "") == "ttrose._record"):
                found.append(obj)
    return found


RECORDS = _records()


@pytest.fixture(scope="module")
def samples() -> dict[type, list]:
    """Instances of every record, as the library builds them."""
    g504 = WhiteheadGraph.build(range(5), [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    result = target_verdict(g504, 3)
    diagram = result.diagram
    loop = find_loops(diagram.preliminary, diagram.components[0], 3)[0]
    report = verify_loop(loop)
    G = ltt_of_map(EXAMPLE_MAP)
    dec = stallings_fold_decomposition(EXAMPLE_MAP)
    found: dict[type, list] = {}
    for x in (g504, *connected_simplicial_graphs(3), G, validate_ltt(G), transition_digraph(G),
              result, target_verdict(star_target(3), 3), result.base, diagram,
              diagram.preliminary, *diagram.components[:2], result.ip, *loop[:2], loop[0].gen,
              EXAMPLE_MAP, is_train_track(EXAMPLE_MAP),
              is_train_track(RoseMap.from_strings(2, {"a": "ab", "b": "ab"})), dec,
              validate_ideal_decomposition(dec), report, report.ideal):
        found.setdefault(type(x), []).append(x)
    return found


def _values(x) -> tuple:
    return tuple(getattr(x, name) for name in x.__match_args__)


def _outcome(call, *args, **kwargs) -> tuple[str, str]:
    """The repr of what the call returns, or the type and message of what it raises."""
    try:
        return "returns", repr(call(*args, **kwargs))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_the_scan_finds_every_record(samples):
    assert len(RECORDS) >= 18
    assert set(samples) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_keeps_the_dataclass_contract(cls, samples):
    twin = dataclass_twin(cls)
    assert cls.__match_args__ == twin.__match_args__
    # a record of another class over the same fields and values
    sibling = record(type("Sibling", (), {"__annotations__": dict.fromkeys(cls.__match_args__)}))
    sibling_twin = dataclass_twin(sibling)
    instances = samples[cls]
    twins = [twin(*_values(x)) for x in instances]
    for x, t in zip(instances, twins):
        values = _values(x)
        others = [(cls(*values), twin(*values)), (sibling(*values), sibling_twin(*values)),
                  (values, values), (None, None), *zip(instances, twins)]
        for y, u in others:
            assert (x == y, x != y, y == x) == (t == u, t != u, u == t)
        assert x.__eq__(sibling(*values)) is t.__eq__(sibling_twin(*values)) is NotImplemented
        assert _outcome(hash, x) == _outcome(hash, t)
        assert repr(x) == repr(t)
        assert str(x) == (vars(cls)["__str__"](x) if "__str__" in vars(cls) else repr(t))
        for name in (*cls.__match_args__, "other"):
            for change in (lambda o: setattr(o, name, 0), lambda o: delattr(o, name)):
                assert _outcome(change, x) == _outcome(change, t)
                with pytest.raises(AttributeError):
                    change(x)
        assert _values(x) == values
        by_name = dict(zip(cls.__match_args__, values))
        first = cls.__match_args__[0]
        for args, kwargs in [((), {}), (values[:1], {}), (values[:-1], {}), ((*values, 0), {}),
                             ((*values, 0, 0), {}), ((), by_name), ((), {**by_name, "other": 0}),
                             ((*values, 0), {"other": 0}), (values[:1], {first: values[0]}),
                             ((*values, 0), {first: values[0]})]:
            assert _outcome(cls, *args, **kwargs) == _outcome(twin, *args, **kwargs)


@pytest.mark.parametrize("cls, args", [
    (Generator, (3, 1, 1)),
    (Generator, (3, 2, 1)),
    (Generator, (0, 1, 3)),
    (Generator, (3, 9, 1)),
    (RoseMap, (2, ((1,),))),
    (RoseMap, (2, ((), (3,)))),
    (RoseMap, (2, ((1, 2), (3,)))),
    (RoseMap, (2, ((1,), (7,)))),
    (FoldDecomposition, (3, (Generator(2, 1, 3),), identity_permutation(3))),
    (FoldDecomposition, (3, (), (1,) * 6)),
])
def test_post_init_refuses_as_the_dataclass(cls, args):
    refused = _outcome(cls, *args)
    assert refused[0] == "ValueError"
    assert refused == _outcome(dataclass_twin(cls), *args)


def test_import_loads_only_what_the_library_runs():
    # dataclasses loads inspect, and fractions loads decimal; the library
    # needs neither to start, and `python -S` keeps site's imports out.
    # hashlib, random and pathlib serve the DOT export, --oracle-samples
    # and output paths alone, so a CLI call that takes none of them loads
    # none; `import ttrose` alone loads no submodule
    heavy = ("dataclasses", "inspect", "fractions", "decimal", "hashlib", "random", "pathlib")
    code = ("import sys; before = set(sys.modules); import ttrose; "
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('ttrose.'))); "
            f"import ttrose.cli; print([m for m in {heavy!r} if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n[]\n"
