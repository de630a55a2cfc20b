"""Reference implementations the tests trust instead of the package.

Everything here is deliberately independent of the code under test: the
confluent series runs in 60-digit mpmath arithmetic, the oscillatory
phase integral is evaluated on the real axis with an exponential damper
and Richardson extrapolation in the damping parameter, never on the
saddle contour the package uses, and the head segment of that contour's
ray is a 40-digit quadrature, never the series the package sums. Frozen
constants in the test files were produced by these routines (or printed
by mpmath directly).
"""
import mpmath as mp
import numpy as np

mp.mp.dps = 60

# Damping ladder for the oscillatory-integral oracle. A cubic fit in the
# damping parameter leaves a residual below 4e-5 on the check grid; the
# smallest rung is limited by panel count, the largest by fit bias.
DAMPING_LADDER = (0.1, 0.05, 0.025, 0.0125)


def hyp1f1_series(a, b, x, nmax=200000):
    """Plain Taylor sum of 1F1 in mpmath arithmetic.

    The sum stops at terms 1e5 ulps of the working precision below it
    (1e-55 at the default 60 digits), so a caller that raises the
    precision with ``mp.workdps`` gets a correspondingly finer sum.
    """
    return hyp1f1_series_peak(a, b, x, nmax)[0]


def hyp1f1_series_peak(a, b, x, nmax=200000):
    """``hyp1f1_series``'s sum and the largest |term| of that series."""
    a, b, x = mp.mpc(a), mp.mpc(b), mp.mpc(x)
    s = mp.mpc(1)
    term = mp.mpc(1)
    peak = mp.mpf(1)
    small = 0
    stop = mp.mpf(10) ** (5 - mp.mp.dps)
    for n in range(nmax):
        term *= (a + n) / (b + n) * x / (n + 1)
        s += term
        peak = max(peak, abs(term))
        if abs(term) < stop * abs(s):
            small += 1
            if small >= 5:
                break
        else:
            small = 0
    else:
        raise RuntimeError("series did not converge")
    return s, peak


def exact_distribution(kappa, e_squared, omega, theta):
    """Closed-form angular distribution at zeta = 0, in mpmath arithmetic."""
    y = mp.mpf(omega) / mp.mpf(kappa)
    u = mp.cos(mp.mpf(theta))
    x = 1j * y * u**2
    A = hyp1f1_series(mp.mpf("0.5") - 1j * y, mp.mpf("0.5"), x)
    B = hyp1f1_series(1 - 1j * y, mp.mpf("1.5"), x)
    M = (mp.gamma(mp.mpf("0.5") - 1j * y) * A
         + 2 * u * mp.sqrt(1j * y) * mp.gamma(1 - 1j * y) * B)
    pref = mp.mpf(e_squared) * omega * mp.sin(mp.mpf(theta))**2 \
        / (16 * mp.pi**3 * kappa)
    return pref * mp.e**(-mp.pi * y) * abs(M)**2


def _damped_integral(a, b, c, eps, nodes=32, phase_cap=6.0, zmin_frac=1e-12):
    """One rung of the ladder: integral of exp(i(a z^2 + b ln z + c z) - eps z).

    Real-axis Gauss-Legendre panels sized so no panel spans more than
    phase_cap radians, an analytic z^{ib} head below the smallest panel,
    and a four-term alternating integration-by-parts tail at the cutoff.
    """
    Z = max(np.sqrt(3000.0 / a), (abs(c) + 10 * np.sqrt(a)) / a,
            2.0 / np.sqrt(a))

    def span(z1, z2):
        return (a * (z2**2 - z1**2) + abs(c) * (z2 - z1)
                + abs(b) * abs(np.log(z2 / z1)))

    bounds = [Z]
    z = Z
    zmin = zmin_frac * Z
    while z > zmin:
        lo, hi = zmin / 2, z
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if span(mid, z) > phase_cap:
                lo = mid
            else:
                hi = mid
        bounds.append(max(min(hi, z * 0.999), zmin))
        z = bounds[-1]
    bounds = np.array(bounds[::-1])

    xg, wg = np.polynomial.legendre.leggauss(nodes)
    a1, b1 = bounds[:-1], bounds[1:]
    h = 0.5 * (b1 - a1)
    m = 0.5 * (b1 + a1)
    zz = (m[:, None] + h[:, None] * xg[None, :]).ravel()
    ww = (h[:, None] * wg[None, :]).ravel()
    f = np.exp(1j * (a * zz**2 + b * np.log(zz) + c * zz) - eps * zz)
    val = np.sum(f * ww)

    val += zmin**(1 + 1j * b) / (1 + 1j * b)

    # tail: repeated parts against the phase derivative, signs alternate
    z0 = Z
    D = 1j * (2 * a * z0 + b / z0 + c) - eps
    Dp = 1j * (2 * a - b / z0**2)
    Dpp = 1j * (2 * b / z0**3)
    Dppp = 1j * (-6 * b / z0**4)
    H0 = 1 / D
    H1 = -Dp / D**3
    H2 = -Dpp / D**4 + 3 * Dp**2 / D**5
    H3 = (-Dppp / D**4 + 10 * Dp * Dpp / D**5 - 15 * Dp**3 / D**6) / D
    E = np.exp(1j * (a * z0**2 + b * np.log(z0) + c * z0) - eps * z0)
    return val - E * (H0 - H1 + H2 - H3)


def damped_phase_integral(quad_coeff, log_coeff, lin_coeff,
                          ladder=DAMPING_LADDER):
    """Oscillatory phase integral on [0, inf) by damped-limit extrapolation."""
    values = [_damped_integral(quad_coeff, log_coeff, lin_coeff, eps)
              for eps in ladder]
    total = 0.0 + 0.0j
    for i, eps_i in enumerate(ladder):
        L = 1.0
        for j, eps_j in enumerate(ladder):
            if j != i:
                L *= eps_j / (eps_j - eps_i)
        total += L * values[i]
    return total


def ray_head_segment(a, b, c, h, alpha):
    """int_0^Z z^{ib} exp(i(c z + a z^2)) dz with Z = h e^{i alpha}, to 40 digits.

    The substitution z = Z e^{-s} turns it into Z^{1+ib} int_0^inf
    e^{-(1+ib)s} exp(i(c Z e^{-s} + a Z^2 e^{-2s})) ds, whose integrand is
    smooth and decays like e^{-s}. The constant 1 of the exponential
    integrates to 1/(1+ib) in closed form; the rest decays like e^{-2s}
    and goes to Gauss-Legendre quadrature on [0, 48].
    """
    with mp.workdps(40):
        a, b, c, h, alpha = (mp.mpf(v) for v in (a, b, c, h, alpha))
        Z = h * mp.expj(alpha)

        def f(s):
            return mp.exp(-(1 + 1j * b) * s) * mp.expm1(
                1j * (c * Z * mp.exp(-s) + a * Z**2 * mp.exp(-2 * s)))

        rest = mp.quad(f, mp.linspace(0, 48, 25), method="gauss-legendre")
        return complex(Z ** (1 + 1j * b) * (rest + 1 / (1 + 1j * b)))


def worldline_position(kappa, zeta, t, seed):
    """Root z of t(z) = (kappa/4) z^2 + (2/kappa) ln(kappa z) + zeta z - t.

    Newton steps in 60-digit mpmath from ``seed`` (the tests pass the
    package's z; the root is unique, so the seed only sets how many steps
    it takes). Raises if 50 steps do not settle z to 1e-50 relative.
    """
    k, zeta, t = mp.mpf(kappa), mp.mpf(zeta), mp.mpf(t)
    z = mp.mpf(seed)
    for _ in range(50):
        f = k / 4 * z**2 + 2 / k * mp.log(k * z) + zeta * z - t
        dz = f / (k / 2 * z + 2 / (k * z) + zeta)
        z -= dz
        if abs(dz) <= mp.mpf(10) ** -50 * z:
            return z
    raise RuntimeError("Newton did not settle")
