"""Tests of dataset parsing, persistence, and synthetic generation."""

import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rotta.dataset import (
    InvariantViolation,
    ParseError,
    Sample,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from rotta.models import EquivariantOracle
from rotta.rotations import RotationStream
from rotta.voigt import trace


def _valid_sample(sample_id="s-1", n_steps=5, target=True):
    a = np.array([0.5, 0.3, 0.2, 0.05, 0.0, 0.0])
    strain = 0.01 * np.arange(n_steps * 6, dtype=float).reshape(n_steps, 6) / (n_steps * 6)
    sigma = 2.0 * strain if target else None
    return Sample(id=sample_id, a=a, vf=0.12, strain=strain, target_stress=sigma)


# ------------------------------------------------------------ round trip


def test_save_load_round_trip_is_exact(tmp_path):
    stream = RotationStream(21)
    samples = generate_synthetic(3, 7, stream=stream)
    path = tmp_path / "data.ndjson"
    save_dataset(samples, path)
    loaded = load_dataset(path)
    assert len(loaded) == 3
    for orig, back in zip(samples, loaded):
        assert back.id == orig.id
        assert np.array_equal(back.a, orig.a)
        assert back.vf == orig.vf
        assert np.array_equal(back.strain, orig.strain)
        assert np.array_equal(back.target_stress, orig.target_stress)


def test_resave_is_byte_identical(tmp_path):
    samples = generate_synthetic(2, 6, stream=RotationStream(22))
    first = tmp_path / "a.ndjson"
    second = tmp_path / "b.ndjson"
    save_dataset(samples, first)
    save_dataset(load_dataset(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_sample_without_target_round_trips(tmp_path):
    path = tmp_path / "nt.ndjson"
    save_dataset([_valid_sample(target=False)], path)
    loaded = load_dataset(path)
    assert loaded[0].target_stress is None
    assert loaded[0].n_steps == 5


# ------------------------------------------------------------ invariants


# a Sample checks its invariants when it is made, so an invalid one never exists


def test_validate_rejects_bad_trace():
    a = np.array([0.6, 0.4, 0.2, 0.0, 0.0, 0.0])
    assert trace(a) == pytest.approx(1.2)
    with pytest.raises(InvariantViolation) as err:
        Sample(id="x", a=a, vf=0.1, strain=np.zeros((3, 6)))
    assert err.value.field == "a"
    assert err.value.sample_id == "x"


def test_validate_rejects_indefinite_orientation():
    with pytest.raises(InvariantViolation) as err:
        Sample(id="x", a=np.array([0.7, 0.7, -0.4, 0.0, 0.0, 0.0]), vf=0.1, strain=np.zeros((3, 6)))
    assert err.value.field == "a"


def test_validate_rejects_bad_shapes():
    a = np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0])
    for field, fields in [
        ("a", dict(a=np.zeros(5), strain=np.zeros((3, 6)))),
        ("a", dict(a=[np.nan, 0.5, 0.5, 0.0, 0.0, 0.0], strain=np.zeros((3, 6)))),
        ("eps", dict(a=a, strain=np.zeros((0, 6)))),
        ("eps", dict(a=a, strain=np.zeros((3, 5)))),
        ("eps", dict(a=a, strain=np.zeros(6))),
    ]:
        with pytest.raises(InvariantViolation) as err:
            Sample(id="x", vf=0.1, **fields)
        assert err.value.field == field


def test_validate_rejects_out_of_range_vf():
    a = np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0])
    for vf in (0.0, 1.0, -0.2, np.nan):
        with pytest.raises(InvariantViolation) as err:
            Sample(id="x", a=a, vf=vf, strain=np.zeros((3, 6)))
        assert err.value.field == "vf"


def test_validate_rejects_target_shape_mismatch():
    with pytest.raises(InvariantViolation) as err:
        Sample(id="x", a=np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0]), vf=0.1,
               strain=np.zeros((4, 6)), target_stress=np.zeros((3, 6)))
    assert err.value.field == "sigma"


def test_validate_rejects_non_finite_strain():
    strain = np.zeros((3, 6))
    strain[1, 2] = np.inf
    sample = Sample(id="x", a=np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0]), vf=0.1, strain=np.zeros((3, 6)))
    with pytest.raises(InvariantViolation) as err:
        sample._replace(strain=strain)  # a copy is checked too
    assert err.value.field == "eps"


def test_load_raises_invariant_violation(tmp_path):
    sample = _valid_sample()
    path = tmp_path / "bad.ndjson"
    save_dataset([sample], path)
    text = path.read_text().replace('"vf": 0.12', '"vf": 1.5')
    path.write_text(text)
    with pytest.raises(InvariantViolation):
        load_dataset(path)


# --------------------------------------------------------------- parsing


def _write_lines(tmp_path, lines):
    path = tmp_path / "data.ndjson"
    path.write_text("\n".join(lines) + "\n")
    return path


GOOD_LINE = (
    '{"id": "ok", "a": [0.5, 0.3, 0.2, 0.0, 0.0, 0.0], "vf": 0.12, '
    '"eps": [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]}'
)


def test_parse_error_reports_line_number(tmp_path):
    path = _write_lines(tmp_path, [GOOD_LINE, "{not json"])
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert err.value.line_no == 2
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (lambda s: s.replace('"vf": 0.12, ', ""), "vf"),
        (lambda s: s.replace('"vf": 0.12', '"vf": "high"'), "vf"),
        (lambda s: s.replace('"vf": 0.12', '"vf": true'), "vf"),
        (lambda s: s.replace('"id": "ok"', '"id": 7'), "id"),
        (lambda s: s.replace("[0.5, 0.3, 0.2, 0.0, 0.0, 0.0]",
                             "[0.5, 0.3, 0.2, 0.0, 0.0]"), "a"),
        (lambda s: s.replace("[[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]",
                             "[[0.0, 0.0, 0.0]]"), "eps"),
        (lambda s: s.replace("[[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]",
                             '[[0.0, 0.0, 0.0, 0.0, 0.0, "x"]]'), "eps"),
    ],
)
def test_parse_error_cases(tmp_path, mutation, fragment):
    path = _write_lines(tmp_path, [mutation(GOOD_LINE)])
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert err.value.line_no == 1
    assert fragment in str(err.value)


def test_parse_rejects_blank_line(tmp_path):
    path = _write_lines(tmp_path, [GOOD_LINE, "", GOOD_LINE])
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert err.value.line_no == 2
    assert "blank" in str(err.value)


def test_parse_rejects_non_object(tmp_path):
    path = _write_lines(tmp_path, ["[1, 2, 3]"])
    with pytest.raises(ParseError):
        load_dataset(path)


def test_parse_rejects_a_line_that_is_not_utf8_after_hashing_every_byte(tmp_path):
    # "\r\n" and a lone "\r" end lines too, so the bad bytes are on line 3
    data = (GOOD_LINE + "\r\n" + GOOD_LINE.replace('"ok"', '"two"') + "\r").encode() + b'{"id": "\xe9"}\n'
    path = tmp_path / "data.ndjson"
    path.write_bytes(data)
    digest = hashlib.sha256()
    with pytest.raises(ParseError) as err:
        load_dataset(path, digest)
    assert str(err.value) == "line 3: not UTF-8 text: invalid continuation byte at offset 8"
    assert digest.digest() == hashlib.sha256(data).digest()


def test_load_rejects_a_repeated_id(tmp_path):
    path = _write_lines(tmp_path, [GOOD_LINE, GOOD_LINE.replace('"ok"', '"two"'), GOOD_LINE])
    with pytest.raises(InvariantViolation) as err:
        load_dataset(path)
    assert (err.value.sample_id, err.value.field) == ("ok", "id")
    assert str(err.value) == "sample 'ok', field 'id': repeats the id of line 1"


# -------------------------------------------------------------- generation


def test_generate_basic_properties():
    samples = generate_synthetic(4, 10, stream=RotationStream(23))
    assert [s.id for s in samples] == ["rve-0000", "rve-0001", "rve-0002", "rve-0003"]
    oracle = EquivariantOracle()
    for s in samples:
        assert 0.10 <= s.vf <= 0.15
        assert s.strain.shape == (10, 6)
        # rescaling pins the largest absolute strain component to the cap
        assert np.max(np.abs(s.strain)) == pytest.approx(0.035, abs=1e-12)
        assert np.array_equal(s.target_stress, oracle.predict_batch(s.a[None], s.vf, s.strain[None])[0])


def test_generate_is_replayable():
    a = generate_synthetic(3, 8, stream=RotationStream(24))
    b = generate_synthetic(3, 8, stream=RotationStream(24))
    for x, y in zip(a, b):
        assert np.array_equal(x.strain, y.strain)
        assert np.array_equal(x.a, y.a)
        assert x.vf == y.vf


def test_generate_prefix_stability():
    few = generate_synthetic(3, 8, stream=RotationStream(25))
    many = generate_synthetic(5, 8, stream=RotationStream(25))
    for k in range(3):
        assert np.array_equal(few[k].strain, many[k].strain)
        assert np.array_equal(few[k].a, many[k].a)
        assert few[k].vf == many[k].vf


def test_generate_custom_strain_cap_and_oracle():
    oracle = EquivariantOracle()  # the one source of generated targets
    samples = generate_synthetic(2, 6, max_strain=0.01, stream=RotationStream(26))
    for s in samples:
        assert np.max(np.abs(s.strain)) == pytest.approx(0.01, abs=1e-12)
        assert np.array_equal(s.target_stress, oracle.predict_batch(s.a[None], s.vf, s.strain[None])[0])


def test_generate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_synthetic(0, 10)
    with pytest.raises(ValueError):
        generate_synthetic(2, 0)
    with pytest.raises(ValueError):
        generate_synthetic(2, 10, max_strain=0.0)


def test_generate_uniaxial_paths():
    samples = generate_synthetic(3, 100, stream=RotationStream(27), uniaxial=True)
    assert [s.id for s in samples] == ["uni-0000", "uni-0001", "uni-0002"]
    axial = samples[0].strain[:, 0]
    assert axial[0] == 0.0
    assert axial[-1] == 0.0
    assert axial.max() == 0.035
    assert axial.min() == -0.035
    # pure axial loading: every other component stays zero
    assert np.all(samples[0].strain[:, 1:] == 0.0)
    # all samples share the path and differ only in microstructure
    assert np.array_equal(samples[0].strain, samples[1].strain)
    assert not np.array_equal(samples[0].a, samples[1].a)


def test_generate_uniaxial_visits_extremes_once_each():
    strain = generate_synthetic(1, 40, stream=RotationStream(28), uniaxial=True)[0].strain
    axial = strain[:, 0]
    assert np.count_nonzero(axial == 0.035) == 1
    assert np.count_nonzero(axial == -0.035) == 1
    assert np.argmax(axial) < np.argmin(axial)
    # piecewise linear between breakpoints: second differences vanish inside segments
    assert_allclose(np.diff(axial[: np.argmax(axial) + 1], 2), 0.0, atol=1e-15)


def test_generate_uniaxial_needs_four_steps():
    with pytest.raises(ValueError):
        generate_synthetic(1, 3, uniaxial=True)
