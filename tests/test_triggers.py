import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcbsim.triggers import (DEFAULT_TRIGGERS, TriggerParams,
                             assemble_centralized, load_params, node_trigger,
                             validate_params)


def fires(j, x_j, xhat_j, params=DEFAULT_TRIGGERS):
    """Whether node j fires with these values of its own states, every other
    state at zero error."""
    x = np.zeros(sum(len(idx) for idx in params.index_sets))
    xhat = x.copy()
    idx = list(params.index_sets[j])
    x[idx] = x_j
    xhat[idx] = xhat_j
    return j + 1 in node_trigger(params, x, xhat)


def central_value(e, x, params=DEFAULT_TRIGGERS):
    """e'Me - x'Nx of the assembled centralized form, one value per row."""
    M, N = assemble_centralized(params)
    return np.einsum("ki,ij,kj->k", e, M, e) - np.einsum("ki,ij,kj->k", x, N, x)


def test_no_trigger_at_zero_error():
    x = np.full(15, 3.7)
    assert node_trigger(DEFAULT_TRIGGERS, x, x) == ()


def test_flow_node_scalar_threshold():
    # node 6: fires iff 0.1147 e^2 > 9, i.e. |e| > 8.8577...
    thresh = math.sqrt(9.0 / 0.1147)
    assert thresh == pytest.approx(8.8577, abs=5e-4)
    assert not fires(5, [0.0], [8.85])
    assert fires(5, [0.0], [8.86])
    assert not fires(5, [0.0], [-8.85])
    assert fires(5, [0.0], [-8.86])


def test_height_node_hand_evaluated():
    # node 2 with e = (1, 0), x = (0.1, 0): 0.414 - 0.0503 * 0.01 > 0.24
    x = np.zeros(15)
    x[1] = 0.1
    xhat = x.copy()
    xhat[1] += 1.0
    assert node_trigger(DEFAULT_TRIGGERS, x, xhat) == (2,)
    lhs = 0.414 * 1.0 - 0.0503 * 0.01
    assert lhs == pytest.approx(0.413497, abs=1e-9)


def test_centralized_zero_error_never_fires():
    x = np.random.default_rng(0).normal(size=(1000, 15))
    assert np.all(central_value(np.zeros_like(x), x) <= DEFAULT_TRIGGERS.epsilon_sq)
    for row in x:
        assert node_trigger(DEFAULT_TRIGGERS, row, row) == ()


def test_centralized_implies_some_node_fires():
    # one-way implication, checked over a large random sample
    eps_sq = DEFAULT_TRIGGERS.epsilon_sq
    rng = np.random.default_rng(42)
    n_checked = 0
    for _ in range(100):
        e = rng.normal(0.0, 4.0, size=(1000, 15))
        x = rng.normal(0.0, 4.0, size=(1000, 15))
        for k in np.nonzero(central_value(e, x) > eps_sq)[0]:
            n_checked += 1
            assert node_trigger(DEFAULT_TRIGGERS, x[k], x[k] + e[k])
    assert n_checked > 100  # the sample actually exercised the implication


def test_matches_the_per_node_forms():
    # reference: each node's own e_j'M_j e_j - x_j'N_j x_j against theta_j
    rng = np.random.default_rng(3)
    e = rng.normal(0.0, 3.0, size=(5000, 15))
    x = rng.normal(0.0, 3.0, size=(5000, 15))
    margin = np.column_stack([
        np.einsum("ki,ij,kj->k", e[:, idx], m, e[:, idx])
        - np.einsum("ki,ij,kj->k", x[:, idx], n, x[:, idx]) - theta
        for idx, m, n, theta in zip(map(list, DEFAULT_TRIGGERS.index_sets),
                                    DEFAULT_TRIGGERS.M, DEFAULT_TRIGGERS.N,
                                    DEFAULT_TRIGGERS.theta)])
    assert np.abs(margin).min() > 1e-9  # no sample so close that rounding decides
    assert len({tuple(row) for row in margin > 0}) > 50
    for k in range(len(x)):
        expected = tuple(np.flatnonzero(margin[k] > 0) + 1)
        assert node_trigger(DEFAULT_TRIGGERS, x[k], x[k] + e[k]) == expected


def test_node_fire_does_not_imply_centralized():
    # node 6 can fire alone while the centralized sum stays under budget
    e = np.zeros(15)
    e[5] = 9.0  # node 6 err: 0.1147 * 81 = 9.29 > 9
    x = np.zeros(15)
    assert node_trigger(DEFAULT_TRIGGERS, x, x + e) == (6,)
    assert central_value(e[None], x[None])[0] <= DEFAULT_TRIGGERS.epsilon_sq


def test_single_node_partition_degenerates():
    params = TriggerParams(M=(np.array([[2.0]]),), N=(np.array([[0.5]]),),
                           theta=(1.3,), index_sets=((0,),))
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, xh = rng.normal(0, 2, size=2)
        expected = (1,) if 2.0 * (xh - x) ** 2 - 0.5 * x ** 2 > 1.3 else ()
        assert node_trigger(params, np.array([x]), np.array([xh])) == expected


@settings(max_examples=200)
@given(st.floats(1e-3, 1e3),
       st.floats(-50, 50), st.floats(-50, 50),
       st.floats(-50, 50), st.floats(-50, 50))
def test_scale_invariance(c, x1, x3, e1, e3):
    j = 4
    x = np.array([x1, x3])
    xh = x + np.array([e1, e3])
    base = fires(j, x, xh)
    scaled = TriggerParams(
        M=tuple(c * m for m in DEFAULT_TRIGGERS.M),
        N=tuple(c * n for n in DEFAULT_TRIGGERS.N),
        theta=tuple(c * t for t in DEFAULT_TRIGGERS.theta),
        index_sets=DEFAULT_TRIGGERS.index_sets)
    assert fires(j, x, xh, scaled) == base


@settings(max_examples=300)
@given(st.lists(st.floats(-1e4, 1e4), min_size=15, max_size=15))
def test_no_retrigger_after_update(vals):
    x = np.array(vals)
    assert node_trigger(DEFAULT_TRIGGERS, x, x) == ()


def test_validate_default_parameters_ok():
    assert validate_params(DEFAULT_TRIGGERS) == []
    assert DEFAULT_TRIGGERS.epsilon_sq == pytest.approx(49.972)


def test_validate_catches_indefinite_n():
    bad_n = list(DEFAULT_TRIGGERS.N)
    bad_n[0] = np.diag([-0.1, 0.0])
    params = TriggerParams(M=DEFAULT_TRIGGERS.M, N=tuple(bad_n),
                           theta=DEFAULT_TRIGGERS.theta,
                           index_sets=DEFAULT_TRIGGERS.index_sets)
    assert any("not PSD" in v for v in validate_params(params))


def test_validate_catches_matrix_size_mismatch():
    bad_m, bad_n = list(DEFAULT_TRIGGERS.M), list(DEFAULT_TRIGGERS.N)
    bad_m[0], bad_n[0] = np.eye(3), np.zeros((3, 3))  # node 1 measures 2 states
    params = TriggerParams(M=tuple(bad_m), N=tuple(bad_n),
                           theta=DEFAULT_TRIGGERS.theta,
                           index_sets=DEFAULT_TRIGGERS.index_sets)
    assert validate_params(params) == ["node 1: matrix size does not match index set"]


def test_validate_catches_overlapping_nodes():
    sets = list(DEFAULT_TRIGGERS.index_sets)
    sets[1] = (0, 11)  # steals node 1's x1
    params = TriggerParams(M=DEFAULT_TRIGGERS.M, N=DEFAULT_TRIGGERS.N,
                           theta=DEFAULT_TRIGGERS.theta, index_sets=tuple(sets))
    assert any("measured by nodes" in v for v in validate_params(params))


def test_validate_catches_asymmetric_m():
    bad_m = list(DEFAULT_TRIGGERS.M)
    bad_m[2] = np.array([[1.0, 0.2], [0.1, 1.0]])
    params = TriggerParams(M=tuple(bad_m), N=DEFAULT_TRIGGERS.N,
                           theta=DEFAULT_TRIGGERS.theta,
                           index_sets=DEFAULT_TRIGGERS.index_sets)
    assert any("M not symmetric" in v for v in validate_params(params))


def test_psd_tolerance_absorbs_rounding():
    n = list(DEFAULT_TRIGGERS.N)
    n[0] = np.diag([1e-13 - 1e-12, 0.0])  # tiny negative within tolerance
    params = TriggerParams(M=DEFAULT_TRIGGERS.M, N=tuple(n),
                           theta=DEFAULT_TRIGGERS.theta,
                           index_sets=DEFAULT_TRIGGERS.index_sets)
    assert validate_params(params) == []


def test_text_file_round_trip(tmp_path):
    path = tmp_path / "triggers.txt"
    lines = []
    for j in range(DEFAULT_TRIGGERS.n_nodes):
        idxs = " ".join(str(i) for i in DEFAULT_TRIGGERS.index_sets[j])
        lines.append(f"node {j + 1} states {idxs}")
        m_rows = " / ".join(" ".join(repr(float(v)) for v in row)
                            for row in DEFAULT_TRIGGERS.M[j])
        n_rows = " / ".join(" ".join(repr(float(v)) for v in row)
                            for row in DEFAULT_TRIGGERS.N[j])
        lines.append(f"M {m_rows}")
        lines.append(f"N {n_rows}")
        lines.append(f"theta {DEFAULT_TRIGGERS.theta[j]!r}")
    path.write_text("\n".join(lines) + "\n")

    loaded = load_params(path)
    assert loaded.theta == DEFAULT_TRIGGERS.theta
    assert loaded.index_sets == DEFAULT_TRIGGERS.index_sets
    for a, b in zip(loaded.M, DEFAULT_TRIGGERS.M):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.N, DEFAULT_TRIGGERS.N):
        assert np.array_equal(a, b)


def test_text_file_rejects_incomplete_block(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("node 1 states 0 10\nM 1 0 / 0 1\ntheta 0.5\n")
    with pytest.raises(ValueError):
        load_params(path)
