import numpy as np
import pytest
import scipy.linalg

from wcbsim.control import (DEFAULT_WEIGHTS, ControllerGain, LqrWeights,
                            NoStabilizingSolution, build_state_space,
                            control_law, lqr_gain, solve_care,
                            spectral_abscissa)
from wcbsim.pools import DEFAULT_POOLS

# Effective gain (u = K x) and decay rate printed by
# `wcbsim design --delay-approx {lag|pade}` when the Riccati equation was solved
# by a Newton-Kleinman iteration started from pole placement: an oracle that
# does not share code with the Schur-method solver now inside solve_care.
PINNED_DESIGN = {
    "lag": (
        [
            [-119.15325532692516, -36.57870343097048, -78.92669069743215, -70.42722962832126, -94.24488465633685,
             -58.4656888247673, -18.17140232017001, -39.039529199089465, -34.86220486480012, -46.44651674260416,
             -1.019794198361748, -0.23594626168052718, -0.4235676332379278, -0.3513762323778007, -0.45018709747519325],
            [25.142863802932727, -65.98977125590872, -95.77078760071255, -80.05724863765127, -104.65843212254761,
             11.970193497787163, -32.44671596528586, -47.20936368675876, -39.552786063339575, -51.469064610332744,
             0.42121480490074603, -0.8572326256971812, -0.6731719552075252, -0.4755250763378052, -0.5724633527690378],
            [12.866177563416514, 33.60103418996272, -115.27697209480361, -84.70828725407218, -108.0028090484569,
             6.257879758110149, 16.222127780274924, -56.33226057952648, -41.78985760175774, -53.052350688208215,
             0.17163112401687933, 0.6713517404692962, -1.1173878062413745, -0.5626919304382644, -0.6311717242840673],
            [4.3209397960173614, 6.100343030540234, 42.67457643693931, -143.2280342918579, -141.44904136622225,
             2.1088420263379115, 3.005575345259315, 20.191001092798132, -69.48600288524955, -69.05503754121924,
             0.05109648537768373, 0.08760003193651429, 0.7634794837795433, -1.726649450017964, -1.1034545981608581],
            [2.0231960862737077, 2.52402228052845, 13.288012206227389, 57.39442307768114, -199.182383288493,
             0.988379743381333, 1.2452816035241374, 6.449330475144404, 26.719164402716075, -95.463810333799,
             0.023017114757261297, 0.033085676856633446, 0.18966693730889245, 1.1629574855804716, -2.313790718985753],
        ],
        0.006958591482597387),
    "pade": (
        [
            [-120.92959052707596, -37.56286919593712, -82.29597040200709, -74.37494774628924, -101.16305627568349,
             -59.45071213325475, -18.662907703040542, -40.71640996544534, -36.82673272281226, -49.881866679524705,
             -1.0154408233589094, -0.23800670073986108, -0.43208457037425757, -0.3612368193985039, -0.46644097221130365],
            [26.20929940785194, -66.15842128689906, -98.224437304494, -83.44317262920063, -111.27291370649323,
             12.492930674557936, -32.658224892708624, -48.43596818116702, -41.23857757069882, -54.75186179645788,
             0.4309976487180337, -0.847398864934941, -0.6776313988211761, -0.4841505877855515, -0.5897300378595176],
            [13.14519114640896, 34.61325833248708, -115.56005151258678, -86.59351037951464, -112.78650398240057,
             6.395421925039745, 16.721086891024324, -56.68300620350977, -42.73410902055294, -55.43144178749361,
             0.1732783070664177, 0.68303575184246, -1.1002337266003754, -0.5644654208749955, -0.6412068024709927],
            [4.339187726603796, 6.143267189718124, 44.608414647409774, -144.49604508182875, -148.18317348769594,
             2.1179308439602624, 3.026799589632733, 21.13955250997023, -70.55852912213817, -72.401365580656,
             0.051019103070976776, 0.08768307768847693, 0.7802776915062347, -1.7013803240683618, -1.1268141087946626],
            [1.952989102911829, 2.4586262393594924, 13.277960353813361, 60.299073007978144, -203.0916770477945,
             0.9540518032736307, 1.2129113097525972, 6.447228719620144, 28.13658132735227, -98.10766473817988,
             0.022195505800480055, 0.03227713900274708, 0.1864700575541365, 1.1923883386581353, -2.2921158571450024],
        ],
        0.006959924707816949),
}



def test_pade_model_coefficients():
    m = build_state_space(DEFAULT_POOLS, "pade")
    # pool 1: tau=4, alpha=6492
    assert m.A[5, 5] == pytest.approx(-0.5)
    assert m.B[5, 0] == pytest.approx(4.0 / 6492.0)
    assert m.B[0, 0] == pytest.approx(-1.0 / 6492.0)


def test_integrator_rows_are_pure():
    for approx in ("pade", "lag"):
        m = build_state_space(DEFAULT_POOLS, approx)
        for i in range(5):
            row = m.A[10 + i]
            expected = np.zeros(15)
            expected[i] = 1.0
            assert np.array_equal(row, expected)
            assert not m.B[10 + i].any()


@pytest.mark.parametrize("approx", ["pade", "lag"])
def test_dc_gain_fixes_sign_convention(approx):
    # oracle: hold u constant, let x2 settle, and read the steady level rate;
    # inflow must raise the pool at u/alpha, the downstream gate must drain it
    m = build_state_space(DEFAULT_POOLS, approx)
    for gate in range(5):
        u = np.zeros(5)
        u[gate] = 1.0
        # steady x2: 0 = A22 x2 + B2 u  (x2 block is diagonal)
        x = np.zeros(15)
        for i in range(5):
            x[5 + i] = -(m.B[5 + i] @ u) / m.A[5 + i, 5 + i]
        xdot = m.A @ x + m.B @ u
        for i in range(5):
            expected = 0.0
            if gate == i:
                expected += 1.0 / DEFAULT_POOLS[i].alpha
            if gate == i + 1:
                expected -= 1.0 / DEFAULT_POOLS[i].alpha
            assert xdot[i] == pytest.approx(expected, abs=1e-15)


def test_sparsity_invariants():
    for approx in ("pade", "lag"):
        m = build_state_space(DEFAULT_POOLS, approx)
        for i in range(5):
            # x1 row touches only x2_i; x2 row only itself
            mask = np.zeros(15, dtype=bool)
            mask[5 + i] = True
            assert not m.A[i, ~mask].any()
            assert not m.A[5 + i, ~mask].any()
            assert m.A[5 + i, 5 + i] < 0  # x2 block Hurwitz


def test_scalar_care_closed_form():
    # -2p - p^2 + 1 = 0  =>  p = sqrt(2) - 1
    P = solve_care(np.array([[-1.0]]), np.array([[1.0]]),
                   np.array([[1.0]]), np.array([[1.0]]))
    assert P[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-12)


def test_scalar_care_marginal_plant_rejected():
    # zero cost on a marginally stable plant has no stabilizing solution
    with pytest.raises(NoStabilizingSolution):
        solve_care(np.array([[0.0]]), np.array([[1.0]]),
                   np.array([[0.0]]), np.array([[1.0]]))


@pytest.mark.parametrize("approx", ["pade", "lag"])
def test_wis_care_residual_and_stability(approx):
    m = build_state_space(DEFAULT_POOLS, approx)
    Q, R = DEFAULT_WEIGHTS.Q, DEFAULT_WEIGHTS.R
    P = solve_care(m.A, m.B, Q, R)
    resid = m.A.T @ P + P @ m.A - P @ m.B @ np.linalg.solve(R, m.B.T @ P) + Q
    assert np.linalg.norm(resid, "fro") <= 1e-8 * np.linalg.norm(Q, "fro")
    K = np.linalg.solve(R, m.B.T @ P)
    assert spectral_abscissa(m.A - m.B @ K) < 0
    # independent solver as a cross-check
    P_ref = scipy.linalg.solve_continuous_are(m.A, m.B, Q, R)
    assert np.allclose(P, P_ref, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("approx", ["pade", "lag"])
def test_gain_matches_pinned_design(approx):
    K_pinned, rho_pinned = PINNED_DESIGN[approx]
    gain = lqr_gain(build_state_space(DEFAULT_POOLS, approx), DEFAULT_WEIGHTS)
    np.testing.assert_allclose(gain.effective, K_pinned, rtol=1e-9, atol=0)
    assert gain.rho == pytest.approx(rho_pinned, rel=1e-9, abs=0)


@pytest.mark.parametrize("approx", ["pade", "lag"])
def test_closed_loop_decay_rate(approx):
    gain = lqr_gain(build_state_space(DEFAULT_POOLS, approx), DEFAULT_WEIGHTS)
    assert gain.rho >= 0.006


def test_zero_cost_on_stable_plant_gives_zero_gain():
    A = -np.eye(3)
    A[0, 1] = 0.3
    B = np.eye(3)[:, :2]
    gain = lqr_gain(
        type("M", (), {"A": A, "B": B})(),
        LqrWeights(Q=np.zeros((3, 3)), R=np.eye(2)))
    assert np.allclose(gain.K, 0.0, atol=1e-12)
    assert gain.rho == pytest.approx(-spectral_abscissa(A))


def test_double_integrator_against_grid_search():
    # brute-force oracle: minimize the numerically integrated quadratic cost
    # over a gain grid (long-horizon rollouts batched over all candidates;
    # summing over the unit initial states turns the cost into a trace)
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    Q = np.eye(2)
    R = np.array([[1.0]])
    dt, T = 0.002, 50.0

    def simulated_costs(k1s, k2s):
        cand = np.array([(a, b) for a in k1s for b in k2s])
        Phi = np.array([scipy.linalg.expm((A - B @ np.array([[a, b]])) * dt)
                        for a, b in cand])
        M = np.array([Q + np.array([[a, b]]).T @ R @ np.array([[a, b]])
                      for a, b in cand])
        P = np.broadcast_to(np.eye(2), Phi.shape).copy()
        cost = -0.5 * np.einsum("nji,njk,nki->n", P, M, P)  # trapezoid ends
        for _ in range(int(T / dt)):
            cost += np.einsum("nji,njk,nki->n", P, M, P)
            P = Phi @ P
        return cand, cost * dt

    cand, cost = simulated_costs(np.arange(0.5, 2.01, 0.25),
                                 np.arange(0.5, 2.51, 0.25))
    k1c, k2c = cand[np.argmin(cost)]
    cand, cost = simulated_costs(np.arange(k1c - 0.13, k1c + 0.13, 0.01),
                                 np.arange(k2c - 0.13, k2c + 0.13, 0.01))
    best_k = cand[np.argmin(cost)]

    P = solve_care(A, B, Q, R)
    K = np.linalg.solve(R, B.T @ P)
    assert K[0, 0] == pytest.approx(best_k[0], rel=0.01)
    assert K[0, 1] == pytest.approx(best_k[1], rel=0.01)


def test_gain_homogeneity():
    m = build_state_space(DEFAULT_POOLS, "lag")
    g1 = lqr_gain(m, DEFAULT_WEIGHTS)
    scaled = LqrWeights(Q=7.3 * DEFAULT_WEIGHTS.Q, R=7.3 * DEFAULT_WEIGHTS.R)
    g2 = lqr_gain(m, scaled)
    assert np.allclose(g1.K, g2.K, rtol=1e-9)


def test_sample_and_hold_consistency():
    # faster held updates converge monotonically to the continuous loop
    m = build_state_space(DEFAULT_POOLS, "lag")
    gain = lqr_gain(m, DEFAULT_WEIGHTS)
    Keff = gain.effective
    x0 = np.zeros(15)
    x0[:5] = 0.05
    T = 200.0
    dt = 0.01
    Acl = m.A + m.B @ Keff
    Phi_c = scipy.linalg.expm(Acl * dt)

    def continuous():
        xs, x = [], x0.copy()
        for _ in range(int(T / dt)):
            x = Phi_c @ x
            xs.append(x[:5].copy())
        return np.array(xs)

    Phi_o = scipy.linalg.expm(m.A * dt)
    # forced-response map by midpoint quadrature (A is singular, no inverse)
    steps = 40
    Gam_o = sum(scipy.linalg.expm(m.A * (dt * (k + 0.5) / steps)) * (dt / steps)
                for k in range(steps)) @ m.B

    def sampled(h):
        xs, x = [], x0.copy()
        hold = int(round(h / dt))
        u = Keff @ x
        for k in range(int(T / dt)):
            if k % hold == 0:
                u = Keff @ x
            x = Phi_o @ x + Gam_o @ u
            xs.append(x[:5].copy())
        return np.array(xs)

    ref = continuous()
    errs = [np.max(np.abs(sampled(h) - ref)) for h in (1.0, 0.1, 0.01)]
    assert errs[0] > errs[1] > errs[2]


def test_control_law_basics():
    m = build_state_space(DEFAULT_POOLS, "lag")
    gain = lqr_gain(m, DEFAULT_WEIGHTS)
    assert np.array_equal(control_law(gain, np.zeros(15)), np.zeros(5))
    e3 = np.zeros(15)
    e3[3] = 1.0
    assert np.allclose(control_law(gain, e3), gain.effective[:, 3])
    with pytest.raises(ValueError):
        control_law(gain, np.full(15, np.nan))
    with pytest.raises(ValueError):
        control_law(gain, np.zeros(7))


def test_closed_loop_settles_from_initial_offset():
    m = build_state_space(DEFAULT_POOLS, "lag")
    gain = lqr_gain(m, DEFAULT_WEIGHTS)
    x = np.zeros(15)
    x[:5] = 0.05
    Phi = scipy.linalg.expm((m.A + m.B @ gain.effective) * 1.0)
    for _ in range(1440):
        x = Phi @ x
    assert np.all(np.abs(x[:5]) < 0.001)


def test_weights_validation():
    with pytest.raises(ValueError):
        LqrWeights(Q=np.eye(3), R=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        LqrWeights(Q=-np.eye(3), R=np.eye(2))
    with pytest.raises(ValueError):
        LqrWeights(Q=np.ones((3, 3)), R=np.eye(2))
