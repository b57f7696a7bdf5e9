import json
import re

import numpy as np
import pytest

from sgadmem.states import (
    FAMILIES,
    StateValidationError,
    load_state,
    make_noisy,
    make_pure,
    save_state,
    validate,
)


def test_pure_families_are_projectors():
    for fam in FAMILIES:
        rho = make_pure(fam)
        assert rho.shape == (8, 8)
        assert abs(np.trace(rho) - 1.0) < 1e-14
        assert np.abs(rho @ rho - rho).max() < 1e-14


def test_ghz_families_and_w_pair_orthogonal():
    ghz = ["ghz1", "ghz2", "ghz3", "ghz4"]
    for i, f1 in enumerate(ghz):
        for f2 in ghz[i + 1:]:
            assert abs(np.trace(make_pure(f1) @ make_pure(f2)).real) < 1e-14
    assert abs(np.trace(make_pure("w") @ make_pure("wtilde")).real) < 1e-14


def test_pure_family_positions():
    ghz1 = make_pure("ghz1")
    assert abs(ghz1[0, 0] - 0.5) < 1e-15 and abs(ghz1[0, 7] - 0.5) < 1e-15
    ghz2 = make_pure("ghz2")
    assert abs(ghz2[1, 6] - 0.5) < 1e-15
    w = make_pure("w")
    for i in (1, 2, 4):
        assert abs(w[i, i] - 1.0 / 3.0) < 1e-15
    wt = make_pure("wtilde")
    for i in (3, 5, 6):
        assert abs(wt[i, i] - 1.0 / 3.0) < 1e-15


def test_make_noisy_ghz_example():
    rho = make_noisy("ghz1", alpha=0.5)
    assert abs(rho[0, 7] - 0.25) < 1e-15
    assert abs(rho[1, 1] - 0.0625) < 1e-15
    assert abs(np.trace(rho) - 1.0) < 1e-14


def test_make_noisy_w_example():
    rho = make_noisy("w", beta=0.4)
    # (1-beta) |W><W| + beta I/8
    assert abs(rho[1, 1] - (0.6 / 3.0 + 0.4 / 8.0)) < 1e-15
    assert abs(rho[0, 0] - 0.05) < 1e-15


def test_make_noisy_parameter_checks():
    with pytest.raises(ValueError):
        make_noisy("ghz1", beta=0.5)  # wrong knob for the family
    with pytest.raises(ValueError):
        make_noisy("w", alpha=0.5)
    with pytest.raises(ValueError):
        make_noisy("ghz1", alpha=1.5)
    with pytest.raises(ValueError):
        make_noisy("w", beta=-0.1)
    with pytest.raises(ValueError):
        make_pure("ghz5")


def test_make_pure_returns_a_fresh_array():
    for fam in FAMILIES:
        first = make_pure(fam)
        expect = first.copy()
        assert first.flags.writeable
        first[:] = 5.0
        assert np.array_equal(make_pure(fam), expect)


def test_make_noisy_without_its_weight_is_the_pure_state():
    for fam in FAMILIES:
        assert np.array_equal(make_noisy(fam), make_pure(fam))
        assert np.array_equal(make_noisy(fam.upper()), make_pure(fam))
    with pytest.raises(ValueError, match="GHZ families take alpha, not beta"):
        make_noisy("ghz2", beta=0.5)
    with pytest.raises(ValueError, match="W families take beta, not alpha"):
        make_noisy("wtilde", alpha=0.5)
    with pytest.raises(ValueError, match="W families take beta, not alpha"):
        make_noisy("w", alpha=0.5, beta=0.5)


def test_validate_accepts_and_symmetrizes():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = g @ g.conj().T
    rho = h / np.trace(h).real
    out = validate(rho + 1e-13 * 1j * np.eye(8))
    assert np.abs(out - out.conj().T).max() == 0.0


def test_validate_copy_is_the_symmetrized_input_bit_for_bit():
    # states that are Hermitian only to rounding, as channel outputs are
    rng = np.random.default_rng(26)
    for _ in range(20):
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = g @ g.conj().T
        rho = h / np.trace(h).real
        rho = rho + 1e-14 * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        assert np.abs(rho - rho.conj().T).max() > 0.0
        out = validate(rho)
        assert out is not rho
        assert out.tobytes() == (0.5 * (rho + rho.conj().T)).tobytes()


def test_validate_collects_all_violations():
    bad = np.diag([0.5, 0.7, -0.2, 0, 0, 0, 0, 0]).astype(complex)
    bad[0, 1] = 0.3  # not hermitian either
    with pytest.raises(StateValidationError) as exc:
        validate(bad)
    text = str(exc.value)
    assert "hermitian" in text.lower()
    assert "eigenvalue" in text.lower()
    with pytest.raises(StateValidationError):
        validate(np.eye(8))  # trace 8
    # every comparison with NaN is false, so a NaN must be named, not passed
    nan = np.eye(8) / 8
    nan[0, 0] = np.nan
    with pytest.raises(StateValidationError, match=r"non-finite entries at \(0, 0\)"):
        validate(nan)
    inf = np.eye(8) / 8
    inf[0, 1] = inf[1, 0] = np.inf
    with pytest.raises(StateValidationError, match=r"non-finite entries at \(0, 1\), \(1, 0\)"):
        validate(inf)
    # a density matrix of another size is no three-qubit state
    for shape in ((2, 2), (4, 4), (16, 16), (8,), (2, 8, 8)):
        with pytest.raises(StateValidationError, match=re.escape(f"not an 8x8 matrix: shape {shape}")):
            validate(np.ones(shape) / shape[-1])


def test_save_load_roundtrip(tmp_path):
    rho = make_noisy("ghz3", alpha=0.7)
    path = tmp_path / "state.json"
    save_state(path, rho)
    back = load_state(path)
    assert np.abs(back - rho).max() < 1e-15


def _load(tmp_path, obj):
    # load_state reads files: write obj as the state file it stands for
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    return load_state(path)


def test_load_family_spec_dict(tmp_path):
    rho = _load(tmp_path, {"family": "ghz1", "alpha": 0.5})
    assert np.abs(rho - make_noisy("ghz1", alpha=0.5)).max() < 1e-15
    rho = _load(tmp_path, {"family": "w"})
    assert np.abs(rho - make_pure("w")).max() < 1e-15
    rho = _load(tmp_path, {"family": "ghz1", "alpha": None})
    assert np.abs(rho - make_pure("ghz1")).max() < 1e-15
    # a weight is a JSON number or null; a bool would read as 0 or 1
    for obj, message in [
        ({"family": "ghz1", "alpha": "0.5"}, "'alpha' must be a number or null, got str"),
        ({"family": "ghz1", "alpha": True}, "'alpha' must be a number or null, got bool"),
        ({"family": "w", "beta": [0.3]}, "'beta' must be a number or null, got list"),
        ({"family": 5}, "'family' must be a string, got int"),
        # a matrix next to a family would be silently ignored
        ({"family": "ghz1", "re": [[1, 0], [0, 0]]}, r"with 'family' takes only .*, not \['re'\]"),
    ]:
        with pytest.raises(ValueError, match=message):
            _load(tmp_path, obj)


def test_load_matrix_dict_and_errors(tmp_path):
    rho = make_pure("ghz2")
    obj = {"dim": 8, "re": rho.real.tolist(), "im": rho.imag.tolist()}
    assert np.abs(_load(tmp_path, obj) - rho).max() < 1e-15
    with pytest.raises((ValueError, StateValidationError, KeyError)):
        _load(tmp_path, {"dim": 8, "re": np.eye(8).tolist()[:4]})
    # an im of another shape than re is an error, not a broadcast
    for im in ([[0.0]], [0.0] * 8):
        with pytest.raises(ValueError, match=r"'im' has shape .* 're' has shape \(8, 8\)"):
            _load(tmp_path, {"dim": 8, "re": (np.eye(8) / 8).tolist(), "im": im})
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises((ValueError, json.JSONDecodeError)):
        load_state(p)
    with pytest.raises(ValueError, match=r"'re' must be a two-dimensional array, got shape \(\)"):
        _load(tmp_path, {"re": 5})
    # a family weight next to a matrix would be silently ignored
    with pytest.raises(ValueError, match=r"with 're' takes only .*, not \['alpha'\]"):
        _load(tmp_path, {"re": (np.eye(8) / 8).tolist(), "alpha": 0.3})
    for text, kind in (("7", "int"), ('"re"', "str"), ("[]", "list")):
        p.write_text(text)
        with pytest.raises(ValueError, match=f"state JSON must be an object, got {kind}"):
            load_state(p)
