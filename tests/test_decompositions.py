import numpy as np
import pytest

from vibsim.decompositions import (
    bloch_messiah,
    givens_reduction,
    givens_rotations,
    unitary_from_orthosymplectic,
    williamson,
)
from vibsim.gaussian import (
    _symplectic,
    passive_symplectic,
    replay,
    symplectic_form,
)
from helpers import random_circuit


def random_symplectic(rng, num_modes=2):
    circuit = random_circuit(rng, num_modes, channels=False, displacement=False)
    s = np.eye(2 * num_modes)
    for elem in circuit.elements:
        se = _symplectic(elem, num_modes, 1)[0][0]
        s = se @ s
    return s


@pytest.mark.parametrize("seed", range(6))
def test_williamson_reconstructs(seed):
    rng = np.random.default_rng(seed)
    state = replay(random_circuit(rng))
    s, nu = williamson(state.cov)
    omega = symplectic_form(state.num_modes)
    assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-9
    d = np.diag(np.concatenate([nu, nu]))
    assert np.max(np.abs(s @ d @ s.T - state.cov)) < 1e-9
    assert np.all(nu >= 0.5 - 1e-9)


def test_williamson_thermal_diagonal():
    cov = np.diag([1.5, 0.7, 1.5, 0.7])  # nbar = 1.0 and 0.2
    _, nu = williamson(cov)
    assert np.allclose(sorted(nu), [0.7, 1.5], atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_bloch_messiah_reconstructs(seed):
    rng = np.random.default_rng(100 + seed)
    s = random_symplectic(rng)
    o1, r, o2 = bloch_messiah(s)
    n = s.shape[0] // 2
    omega = symplectic_form(n)
    for o in (o1, o2):
        assert np.max(np.abs(o @ o.T - np.eye(2 * n))) < 1e-9
        assert np.max(np.abs(o @ omega @ o.T - omega)) < 1e-9
    z = np.diag(np.exp(np.concatenate([r, -r])))
    assert np.max(np.abs(o1 @ z @ o2 - s)) < 1e-8


def test_bloch_messiah_identity():
    o1, r, o2 = bloch_messiah(np.eye(4))
    assert np.allclose(r, 0.0, atol=1e-12)
    assert np.max(np.abs(o1 @ o2 - np.eye(4))) < 1e-10


def test_bloch_messiah_degenerate_squeezing():
    # paired equal singular values exercise the eigenplane clustering
    from vibsim.gaussian import TwoModeSqueeze

    s = _symplectic(TwoModeSqueeze(0, 1, 0.5), 2, 1)[0][0]
    o1, r, o2 = bloch_messiah(s)
    z = np.diag(np.exp(np.concatenate([r, -r])))
    assert np.max(np.abs(o1 @ z @ o2 - s)) < 1e-10
    assert np.allclose(sorted(np.abs(r)), [0.5, 0.5], atol=1e-10)


def test_williamson_degenerate_thermal():
    cov = np.diag([1.2, 1.2, 1.2, 1.2])
    s, nu = williamson(cov)
    omega = symplectic_form(2)
    assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-10
    assert np.max(np.abs(s @ np.diag(np.r_[nu, nu]) @ s.T - cov)) < 1e-10
    assert np.allclose(nu, [1.2, 1.2], atol=1e-12)


def test_unitary_round_trip():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    w, _ = np.linalg.qr(a)
    o = passive_symplectic(w)
    assert np.max(np.abs(unitary_from_orthosymplectic(o) - w)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_givens_rotations_reconstruct(dim):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    elements = givens_rotations(q)
    w = np.eye(dim, dtype=complex)
    for elem in elements:
        s = _symplectic(elem, dim, 1)[0][0]
        w = (s[:dim, :dim] + 1j * s[dim:, :dim]) @ w
    assert np.max(np.abs(w.real - q)) < 1e-10
    assert np.max(np.abs(w.imag)) < 1e-10


@pytest.mark.parametrize("dim", [3, 4])
def test_givens_reduction_reconstructs_complex_unitaries(dim):
    rng = np.random.default_rng(10 + dim)
    for _ in range(20):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u, _ = np.linalg.qr(a)
        rotations, diagonal = givens_reduction(u)
        assert np.max(np.abs(np.abs(diagonal) - 1.0)) < 1e-12
        w = np.diag(diagonal)
        for i, j, _, g in reversed(rotations):
            full = np.eye(dim, dtype=complex)
            full[np.ix_([i, j], [i, j])] = g.conj().T
            w = full @ w
        assert np.max(np.abs(w - u)) < 1e-12


def test_givens_rejects_reflection():
    with pytest.raises(ValueError):
        givens_rotations(np.diag([1.0, -1.0]))
