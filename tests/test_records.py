"""The package's records: immutable named tuples, checked where they convert or check fields."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rotta
from rotta.dataset import Sample
from rotta.models import CheckedRecord, OracleParams
from rotta.tta import TTAConfig

SRC = Path(rotta.__file__).parents[1]
MODULES = sorted(f"rotta.{p.stem}" for p in (SRC / "rotta").glob("*.py") if p.stem != "__init__")


def _sample():
    return Sample(id="s", a=[1.0, 0, 0, 0, 0, 0], vf=0.1, strain=[[0, 0, 0, 0, 0, 0]])


# a record that converts or checks its fields needs valid ones; any other is built from 0, 1, ...
CHECKED = {"Sample": _sample, "TTAConfig": lambda: TTAConfig(3), "OracleParams": OracleParams}


def _defined_records():
    """Every named-tuple class a ``rotta`` module defines, by name."""
    modules = [importlib.import_module(name) for name in MODULES]
    return {cls.__name__: cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, tuple) and cls.__module__ == module.__name__}


def _maker(cls):
    if cls.__name__ in CHECKED:
        return CHECKED[cls.__name__]
    if issubclass(cls, CheckedRecord):
        return lambda: pytest.fail(f"{cls.__name__} checks its fields: add a record with valid ones to CHECKED")
    return lambda: cls(*range(len(cls._fields)))


RECORDS = [pytest.param(_maker(cls), id=name) for name, cls in sorted(_defined_records().items())]


def test_every_checked_maker_builds_a_defined_record():
    defined = _defined_records()
    assert len(defined) == 11  # the count README gives
    for name, make in CHECKED.items():
        assert type(make()) is defined.get(name)


@pytest.mark.parametrize("make", RECORDS)
def test_records_refuse_assignment(make):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[1])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record._replace() == record


def test_checked_records_check_their_copies():
    with pytest.raises(ValueError):
        TTAConfig(3)._replace(n_rotations=-1)
    with pytest.raises(ValueError):
        TTAConfig(3)._replace(divisor_mode="median")
    with pytest.raises(ValueError):
        OracleParams()._replace(mu=0.0)
    with pytest.raises(ValueError):
        OracleParams()._replace(noise_amp=-1.0)
    with pytest.raises(ValueError):
        _sample()._replace(vf=1.5)
    with pytest.raises(ValueError):
        _sample()._replace(target_stress=np.zeros((2, 6)))
    assert TTAConfig(3)._replace(seed=5) == TTAConfig(n_rotations=3, seed=5)


def test_checked_records_convert_their_copies():
    sample = _sample()._replace(target_stress=[[1, 2, 3, 4, 5, 6]], a=[1, 0, 0, 0, 0, 0])
    for values in (sample.a, sample.target_stress):
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
    longer = sample._replace(strain=[[0, 1, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0]], target_stress=None)
    assert longer.strain.dtype == np.float64 and longer.n_steps == 2
    assert _sample()._replace(target_stress=None).target_stress is None


def test_importing_rotta_generates_no_dataclass_code():
    # a frozen dataclass execs its generated methods at every import; named tuples do not
    code = (f"import importlib, json, sys\nfor name in {MODULES!r}: importlib.import_module(name)\n"
            "print(json.dumps(['dataclasses' in sys.modules, sorted(m for m in sys.modules if m.startswith('rotta.'))]))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    has_dataclasses, imported = json.loads(out)
    assert imported == MODULES
    assert not has_dataclasses


def test_importing_rotta_compiles_no_annotations(tmp_path):
    # under `from __future__ import annotations` every NamedTuple field
    # annotation is a string that typing compiles into a ForwardRef
    code = ("import builtins, sys\nimport numpy\ncalls = []\n"
            "def profile(frame, event, arg):\n"
            "    if event == 'c_call' and arg is builtins.compile: calls.append(1)\n"
            "sys.setprofile(profile)\nimport rotta.cli\nsys.setprofile(None)\nprint(len(calls))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(tmp_path))
    runs = [subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            for _ in range(2)]  # the first run caches the bytecode of every module the second imports
    assert runs[1].stdout.split() == ["0"]
