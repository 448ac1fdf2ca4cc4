"""Dispersion relations of the linearized two-fluid system.

Linearizing around the flat equilibrium and diagonalizing gives three wave
branches with radial dispersion relations

    lambda_{i,e}(r) = eps^{-1/2} sqrt( ((1+eps) + (T+eps) r^2 -/+ s) / 2 ),
    lambda_b(r)     = eps^{-1/2} sqrt( 1 + eps + C_b r^2 ),

where u = (1-eps) + (T-eps) r^2 and s = sqrt(u^2 + 4 eps).  The ion branch
(-) vanishes linearly at r = 0, the electron (+) and light (b) branches both
start at sqrt(1/eps + 1).

Direct evaluation of the radicals loses accuracy where the branches nearly
degenerate, so this module evaluates everything through forms that keep the
small differences explicit:

    s^2 - (1+eps)^2 = (T-eps) r^2 (2(1-eps) + (T-eps) r^2)   (exact),
    lambda_e^2 - H_eps^2 = 2/(u+s),                          (exact)
    lambda_i(r) = r q_i(r),   q_i = sqrt((1+T+T r^2)/(eps lambda_e^2)),

together with closed forms for the first two radial derivatives.  The
branch formulas and their derivatives live in one place, :func:`jet`, which
forms the common subexpressions once per call and returns lambda, lambda'
and lambda'' up to the requested order; `lam`, `lam_prime` and
`lam_second` are selections from it, and :func:`lam_prime_inverse` is its
one inverse.  `jet`'s ion branch, `q_i` and `q_i_prime` read q_i and q_i'
from one helper, and :func:`h_eps` returns H_eps and its two derivatives
like `jet`.  Every radial root of the package is solved on arrays by
`_root`.  The radical shape is kept as a private reference
(`_lambda_i_radical`) and the exact identities are verified in arbitrary
precision by :func:`verify_identities`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.optimize.elementwise import bracket_root, find_root

from .params import PlasmaParams
from .reporting import Report

BRANCHES = ("i", "e", "b")

#: default parameter point used across examples and tests
DEFAULT_PARAMS = PlasmaParams(epsilon=1.0e-3, T=1.0, C_b=6.0)


def _check_branch(branch: str) -> str:
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    return branch


def _prep(r, p: PlasmaParams):
    """r, r^2, eps, T and the floating dtype of ``r``, which is preserved."""
    r = np.asarray(r)
    dtype = np.result_type(r.dtype, np.float64)
    r = r.astype(dtype, copy=False)
    return r, r * r, dtype.type(p.epsilon), dtype.type(p.T), dtype


def _u(r2, eps, T):
    return (1 - eps) + (T - eps) * r2


def _s(r2, eps, T):  # sqrt(u^2 + 4 eps) with s(0) = 1 + eps exactly and no cancellation
    return np.sqrt((1 + eps) ** 2 + (T - eps) * r2 * (2 * (1 - eps) + (T - eps) * r2))


# -- branch values -------------------------------------------------------------

def _m_of_r(r2, s, eps, T):
    """M = eps * lambda_e^2 = ((1+eps) + (T+eps) r^2 + s)/2."""
    return ((1 + eps) + (T + eps) * r2 + s) / 2


def _m_prime(r, u, s, eps, T):
    """dM/dr = (T+eps) r + (T-eps) r u/s."""
    return (T + eps) * r + (T - eps) * r * u / s


def _q_i_jet(r, r2, u, s, eps, T, M, order: int) -> tuple:
    """(q_i, q_i')[:order + 1] with q_i = sqrt(A/M), A = 1 + T + T r^2."""
    A = 1 + T + T * r2
    qi = np.sqrt(A / M)
    if order == 0:
        return (qi,)
    return qi, qi * (T * r / A - _m_prime(r, u, s, eps, T) / (2 * M))


def jet(branch: str, r, p: PlasmaParams, order: int = 2) -> tuple:
    """(lambda, lambda', lambda'')[:order + 1] of one branch, vectorized over r >= 0.

    The one place the branch formulas live: each common subexpression is
    formed once, and only for the branch and the orders that read it.
    """
    _check_branch(branch)
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    r, r2, eps, T, dtype = _prep(r, p)
    if branch == "b":
        C_b = dtype.type(p.C_b)
        lb = np.sqrt((1 + eps + C_b * r2) / eps)
        out = [lb]
        if order >= 1:
            out.append(C_b * r / (eps * lb))
        if order == 2:
            out.append(C_b * (1 + eps) / (eps**2 * lb**3))
        return tuple(out)
    s = _s(r2, eps, T)
    u = _u(r2, eps, T) if order else None
    M = _m_of_r(r2, s, eps, T)
    if branch == "e":
        le = np.sqrt(M / eps)
        out = [le]
        if order >= 1:
            lep = _m_prime(r, u, s, eps, T) / (2 * eps * le)
            out.append(lep)
        if order == 2:
            # d(u/s)/dr = 4 eps u' / s^3 with u' = 2 (T-eps) r, since s^2 - u^2 = 4 eps
            Mpp = (T + eps) + (T - eps) * u / s + 8 * eps * (T - eps) ** 2 * r2 / s**3
            out.append((Mpp / eps - 2 * lep * lep) / (2 * le))
        return tuple(out)
    # ion branch in the factored form r * q_i(r); exact zero at r = 0
    qi, *dqi = _q_i_jet(r, r2, u, s, eps, T, M, int(order == 2))
    out = [r * qi]
    if order >= 1:
        # 2 lambda_i lambda_i' = r W with W = ((T+eps) - (T-eps) u/s)/eps
        W = ((T + eps) - (T - eps) * u / s) / eps
        out.append(W / (2 * qi))
    if order == 2:
        # lambda_i' = W/(2 q_i); differentiate the quotient
        Wp = -8 * (T - eps) ** 2 * r / s**3
        out.append(Wp / (2 * qi) - W * dqi[0] / (2 * qi * qi))
    return tuple(out)


def lam(branch: str, r, p: PlasmaParams):
    """Dispersion relation lambda_branch(r), vectorized over r >= 0."""
    return jet(branch, r, p, 0)[0]


def lam_prime(branch: str, r, p: PlasmaParams):
    """First radial derivative of lambda_branch."""
    return jet(branch, r, p, 1)[1]


def lam_second(branch: str, r, p: PlasmaParams):
    """Second radial derivative of lambda_branch."""
    return jet(branch, r, p, 2)[2]


def speed(branch: str, p: PlasmaParams) -> float:
    """Asymptotic slope c_branch = lim lambda'(r):  c_i=1, c_e=sqrt(T/eps), c_b=sqrt(C_b/eps)."""
    _check_branch(branch)
    if branch == "i":
        return 1.0
    if branch == "e":
        return float(np.sqrt(p.T / p.epsilon))
    return float(np.sqrt(p.C_b / p.epsilon))


def _root(f, lo, hi, args=()):
    """Roots of the elementwise f(x, *args) in the brackets [lo, hi], to a bracket
    width of 1e-15 + 8.9e-16 |x|; raises if any element does not converge."""
    res = find_root(f, (lo, hi), args=args, tolerances={"xatol": 1e-15, "xrtol": 8.9e-16})
    if not np.all(res.success):
        raise RuntimeError(f"root solve failed on {np.count_nonzero(~res.success)} of "
                           f"{res.success.size} elements (status {np.unique(res.status).tolist()})")
    return res.x


def lam_prime_inverse(branch: str, v, p: PlasmaParams):
    """The radius r with lambda_branch'(r) = v, vectorized over 0 <= v < speed(branch).

    lambda_e' and lambda_b' increase from 0 to the asymptotic speed; the b
    one inverts in closed form, the e one by `_root` on a grown bracket.
    lambda_i' falls to a minimum at r_star and rises back towards 1, so the
    ion branch has no inverse.
    """
    _check_branch(branch)
    if branch == "i":
        raise ValueError("lambda_i' is not monotone and has no inverse")
    v = np.asarray(v, dtype=float)
    c = speed(branch, p)
    if not np.all((v >= 0) & (v < c)):
        raise ValueError(f"lambda_{branch}' takes values in [0, {c:.6g}), "
                         f"got values in [{v.min():.6g}, {v.max():.6g}]")
    eps, Cb = p.epsilon, p.C_b
    if branch == "b":
        return np.sqrt(eps * (1.0 + eps)) * v / np.sqrt(Cb * (Cb - eps * v**2))
    f = lambda r, v: lam_prime("e", r, p) - v  # noqa: E731
    hi = bracket_root(f, 0.0, np.sqrt(3.0 * eps / p.T), xmin=0.0, args=(v,)).bracket[1]
    return _root(f, 0.0, hi, args=(v,))


# -- auxiliary radial symbols --------------------------------------------------

def h_eps(r, p: PlasmaParams) -> tuple:
    """(H, H', H'') of H_eps(r) = sqrt((1 + T r^2)/eps), the uncoupled electron branch."""
    r, r2, eps, T, dtype = _prep(r, p)
    h = np.sqrt((1 + T * r2) / eps)
    return h, T * r / (eps * h), T / (eps**2 * h**3)


def coupling(r, p: PlasmaParams):
    """R(r) = 2 sqrt(eps)/(u+s), the coupling of the two acoustic branches.

    R takes values in (0, sqrt(eps)], with R(0) = sqrt(eps):
    lambda_e^2 - H_eps^2 = R/sqrt(eps) and H_eps^2 - lambda_i^2 = 1/(R sqrt(eps)).
    """
    r, r2, eps, T, dtype = _prep(r, p)
    return 2 * np.sqrt(eps) / (_u(r2, eps, T) + _s(r2, eps, T))


def q_i(r, p: PlasmaParams):
    """q_i(r) = lambda_i(r)/r, continued by q_i(0) = sqrt((1+T)/(1+eps)).

    Decreasing from q_i(0) to 1; in particular r <= lambda_i(r) <= q_i(0) r.
    """
    r, r2, eps, T, dtype = _prep(r, p)
    s = _s(r2, eps, T)
    return _q_i_jet(r, r2, None, s, eps, T, _m_of_r(r2, s, eps, T), 0)[0]


def q_i_prime(r, p: PlasmaParams):
    r, r2, eps, T, dtype = _prep(r, p)
    u, s = _u(r2, eps, T), _s(r2, eps, T)
    return _q_i_jet(r, r2, u, s, eps, T, _m_of_r(r2, s, eps, T), 1)[1]


# -- stable differences of squared branches ------------------------------------
# These evaluate algebraically exact recasts with no cancellation; the
# arbitrary-precision suite checks them against the literal differences.

def gap_e_i(r, p: PlasmaParams):
    """lambda_e^2 - lambda_i^2 = s/eps > 0 (difference of the two roots)."""
    r, r2, eps, T, dtype = _prep(r, p)
    return _s(r2, eps, T) / eps


def gap_b_e(r, p: PlasmaParams):
    """lambda_b^2 - lambda_e^2, factored as r^2 * (positive bracket)/(2 eps).

    Both branches start at the same value, so the plain difference would be
    a catastrophic cancellation near r = 0; here the r^2 factor is explicit:

      lambda_b^2 - lambda_e^2
        = r^2/(2 eps) * [ (2 C_b - T - eps)
                          - (T-eps)(2(1-eps) + (T-eps) r^2)/(s + 1 + eps) ].
    """
    r, r2, eps, T, dtype = _prep(r, p)
    C_b = dtype.type(p.C_b)
    bracket = (2 * C_b - T - eps) - (T - eps) * (2 * (1 - eps) + (T - eps) * r2) / (_s(r2, eps, T) + 1 + eps)
    return r2 * bracket / (2 * eps)


def qi_margin(r, p: PlasmaParams):
    """A - M = (u + 2T - s)/2 >= 0, the exact margin behind q_i >= 1."""
    r, r2, eps, T, dtype = _prep(r, p)
    return (_u(r2, eps, T) + 2 * T - _s(r2, eps, T)) / 2


def _lambda_i_radical(r, p: PlasmaParams):
    """Ion branch straight from the radical; reference route only.

    Suffers cancellation as r -> 0 (the radicand is a difference of nearly
    equal terms); kept to cross-check the production factored form away
    from the origin.
    """
    r, r2, eps, T, dtype = _prep(r, p)
    return np.sqrt(((1 + eps) + (T + eps) * r2 - _s(r2, eps, T)) / (2 * eps))


# -- distinguished radii -------------------------------------------------------

def find_r_star(p: PlasmaParams) -> float:
    """The unique inflection radius of the ion branch, lambda_i''(r_*) = 0.

    Located in (T^(-1/2), 4 T^(-1/2) + 4 T^(-1/4)); lambda_i'' is negative
    below it and positive above.
    """
    lo = p.T ** (-0.5)
    hi = 4 * p.T ** (-0.5) + 4 * p.T ** (-0.25)
    f = lambda r: lam_second("i", r, p)  # noqa: E731
    flo, fhi = float(f(lo)), float(f(hi))
    if not (flo < 0 < fhi):
        raise RuntimeError(
            f"lambda_i'' does not change sign on ({lo:.6g}, {hi:.6g}): f(lo)={flo:.3e}, f(hi)={fhi:.3e}"
        )
    root = float(_root(f, lo, hi))
    resid = abs(float(f(root)))
    if resid > 1e-12 * p.T:
        raise RuntimeError(f"r_star residual {resid:.3e} exceeds 1e-12*T")
    return root


@lru_cache(maxsize=32)
def find_R_sigma(branch: str, p: PlasmaParams) -> float:
    """Radius where the e (or b) branch moves at the maximal ion speed.

    R_sigma = lam_prime_inverse(sigma, lambda_i'(0)), the root of
    lambda_sigma'(R) = sqrt((1+T)/(1+eps)); it equals t^{sigma i}(0) of
    `resonance.t_func`, and the resonance geometry reads that edge from here.
    These radii are where slow-ion output interacts resonantly with a fast
    branch; they scale like sqrt(eps).  Solved once per (branch, p).
    """
    if branch not in ("e", "b"):
        raise ValueError(f"R_sigma is defined for branches 'e' and 'b', got {branch!r}")
    return float(lam_prime_inverse(branch, lam_prime("i", 0.0, p), p))


# -- exact identity suite (arbitrary precision) --------------------------------

#: radii of the identity suite and points of the inequality grid, on [0, R_MAX]
R_MAX = 10.0
IDENTITY_RADII = 200
INEQUALITY_POINTS = 10_000
#: relative tolerance of the identities, and the working precision that certifies them
IDENTITY_RTOL = 1e-10
IDENTITY_DPS = 40


def verify_identities(p: PlasmaParams) -> Report:
    """Verify the exact algebraic identities of the branch symbols.

    Evaluates lambda_i, lambda_e from the literal radical definitions in
    IDENTITY_DPS-digit arithmetic on IDENTITY_RADII radii (the origin, a log
    fill of the small scales and a linear fill of the rest of [0, R_MAX]) and
    checks, relative to the right-hand sides:

      * (lambda_e^2 - H_eps^2)(H_eps^2 - lambda_i^2) = 1/eps
      * lambda_e^2 - H_eps^2 = R/sqrt(eps),  H_eps^2 - lambda_i^2 = 1/(R sqrt(eps))
      * lambda_e^2 - H_eps^2 = H_1^2 - lambda_i^2
      * sqrt(eps) lambda_e lambda_i = r sqrt(1 + T + T r^2)
      * ordering lambda_e^2 >= H_eps^2 >= H_1^2 >= lambda_i^2 >= r^2

    and that the float64 production path agrees with the arbitrary-precision
    radicals to 5e-13 relative.  Double precision cannot certify these
    directly: the first identity multiplies a difference of order 1e-4 by a
    factor of order 1e7 at (T, r) = (100, 10), so the certification runs in
    mpmath and the fast path is checked against it.
    """
    import mpmath

    n_log = (3 * IDENTITY_RADII) // 5
    radii = np.sort(np.concatenate([
        [0.0],
        np.logspace(-3, np.log10(R_MAX), n_log),
        np.linspace(0.02, R_MAX, IDENTITY_RADII - 1 - n_log),
    ]))
    rep = Report(f"identities eps={p.epsilon:g} T={p.T:g} C_b={p.C_b:g}")
    worst = {k: 0.0 for k in ("pla3", "pla5a", "pla5b", "mk2", "product", "float64")}
    order_viol = 0

    lam_i64 = lam("i", radii, p)
    lam_e64 = lam("e", radii, p)
    lam_b64 = lam("b", radii, p)

    with mpmath.workdps(IDENTITY_DPS):
        eps = mpmath.mpf(p.epsilon)
        T = mpmath.mpf(p.T)
        C_b = mpmath.mpf(p.C_b)
        for idx, rv in enumerate(radii):
            r = mpmath.mpf(float(rv))
            r2 = r * r
            u = (1 - eps) + (T - eps) * r2
            s = mpmath.sqrt(u * u + 4 * eps)
            le2 = ((1 + eps) + (T + eps) * r2 + s) / (2 * eps)
            li2 = ((1 + eps) + (T + eps) * r2 - s) / (2 * eps)
            lb2 = (1 + eps + C_b * r2) / eps
            he2 = (1 + T * r2) / eps
            h12 = 1 + r2
            R = 2 * mpmath.sqrt(eps) / (u + s)

            ge = le2 - he2
            gi = he2 - li2
            worst["pla3"] = max(worst["pla3"], abs(ge * gi * eps - 1))
            worst["pla5a"] = max(worst["pla5a"], abs(ge - R / mpmath.sqrt(eps)) / (R / mpmath.sqrt(eps)))
            worst["pla5b"] = max(worst["pla5b"], abs(gi - 1 / (R * mpmath.sqrt(eps))) / (1 / (R * mpmath.sqrt(eps))))
            worst["mk2"] = max(worst["mk2"], abs(ge - (h12 - li2)) / ge)
            lhs = mpmath.sqrt(eps * le2 * li2)
            rhs = r * mpmath.sqrt(1 + T + T * r2)
            if rhs > 0:
                worst["product"] = max(worst["product"], abs(lhs - rhs) / rhs)
            if not (le2 >= he2 >= h12 >= li2 >= r2):
                order_viol += 1
            for v64, v2 in ((lam_i64[idx], li2), (lam_e64[idx], le2), (lam_b64[idx], lb2)):
                ref = mpmath.sqrt(v2)
                if ref > 0:
                    worst["float64"] = max(worst["float64"], abs(mpmath.mpf(float(v64)) - ref) / ref)

    for key in ("pla3", "pla5a", "pla5b", "mk2", "product"):
        w = float(worst[key])
        rep.add(f"identity {key}", w <= IDENTITY_RTOL, w,
                f"rtol={IDENTITY_RTOL:g}")
    rep.add("ordering chain", order_viol == 0, float(order_viol), f"{len(radii)} radii")
    w = float(worst["float64"])
    rep.add("float64 path vs radicals", w <= 5e-13, w, "max relative")
    return rep


# -- pointwise inequality suite ------------------------------------------------

def verify_tech99(p: PlasmaParams) -> Report:
    """Grid verification of the branch inequalities, zero slack, on
    INEQUALITY_POINTS radii spanning [0, R_MAX].

    Every comparison is arranged so that mathematical equalities (all at
    r = 0) are evaluated through identical floating point expressions on
    both sides, hence hold exactly; strict inequalities carry real margins
    on the grid.  Constants the statements leave implicit are measured and
    reported instead of asserted.
    """
    rep = Report(f"branch inequalities eps={p.epsilon:g} T={p.T:g} C_b={p.C_b:g}")
    r = np.linspace(0.0, R_MAX, INEQUALITY_POINTS)
    rpos = r[1:]
    T, eps = p.T, p.epsilon

    (li, lip, lis), (le, lep, les), (lb, _, lbs) = (jet(b, r, p) for b in BRANCHES)
    qi = q_i(r, p)
    qip = q_i_prime(r, p)
    he, hep, hes = h_eps(r, p)

    def count(bad) -> int:
        return int(np.count_nonzero(bad))

    # origin values, through the same expressions used on the grid
    li0, lip0, lis0 = map(float, jet("i", 0.0, p))
    q0 = float(q_i(0.0, p))
    rep.add("lambda_i(0) = 0 and lambda_i''(0) = 0 exactly", li0 == 0.0 and lis0 == 0.0,
            max(abs(li0), abs(lis0)))

    third = float(lam_second("i", 1e-3, p)) / 1e-3
    rep.add("lambda_i'''(0) negative, order one", -100 * max(1.0, T) < third < -1e-2,
            third, "finite difference lambda_i''(h)/h")

    v = count(lip > lip0)
    rep.add("lambda_i' <= lambda_i'(0)", v == 0, v, "violations")
    v = count(lip <= 0)
    rep.add("lambda_i' > 0", v == 0, v,
            f"min {lip.min():.6g} at r={r[np.argmin(lip)]:.4g}")

    for name, l0, ls0 in (("e", le, les), ("b", lb, lbs)):
        lp0 = float(lam_prime(name, 0.0, p))
        rep.add(f"lambda_{name}'(0) = 0 exactly", lp0 == 0.0, abs(lp0))
        ratio = ls0[1:] * (1 + rpos**2) ** 1.5
        rep.add(
            f"lambda_{name}'' comparable to (1+r^2)^(-3/2)",
            bool(np.all(ratio > 0)),
            float(ratio.min()),
            f"ratio range [{ratio.min():.4g}, {ratio.max():.4g}]",
        )

    # inflection radius of the ion branch
    r_star = find_r_star(p)
    lo, hi = T**-0.5, 4 * (T**-0.5 + T**-0.25)
    rep.add("r_star inside predicted bracket", lo < r_star < hi, r_star,
            f"bracket ({lo:.4g}, {hi:.4g})")
    resid = abs(float(lam_second("i", r_star, p)))
    rep.add("lambda_i''(r_star) residual", resid <= 1e-12 * T, resid)
    away = np.abs(r - r_star) > 0.25 * r_star
    away &= r > 0
    ratio = np.abs(lis[away]) / np.minimum(r[away], r[away] ** -3.0)
    rep.add("|lambda_i''| comparable to min(r, r^-3) away from r_star",
            bool(np.all(ratio > 0)), float(ratio.min()),
            f"ratio range [{ratio.min():.4g}, {ratio.max():.4g}]")

    # first-order bounds (SimpleBdLie)
    ub = np.sqrt((T + 1) * (eps + 1))
    v = count((li < r) | (li > ub * r))
    rep.add("r <= lambda_i <= sqrt((T+1)(eps+1)) r", v == 0, v, "violations")
    for name, lvals in (("e", le), ("b", lb)):
        l0 = float(lam(name, 0.0, p))
        c = speed(name, p)
        v = count((lvals < np.maximum(l0, c * r)) | (lvals > l0 + c * r))
        rep.add(f"max(lambda_{name}(0), c r) <= lambda_{name} <= lambda_{name}(0) + c r",
                v == 0, v, "violations")

    # electron branch against its decoupled profile (Le1)
    root_eps = np.sqrt(eps)
    v = count(np.abs(le - he) > root_eps * np.abs(he))
    v += count(np.abs(lep - hep) > root_eps * np.abs(hep))
    v += count(np.abs(les - hes) > root_eps * np.abs(hes))
    rep.add("|D^k(lambda_e - H_eps)| <= sqrt(eps) |D^k H_eps|, k=0,1,2", v == 0, v, "violations")
    v = count(le < he) + count(lep > hep)
    rep.add("H_eps <= lambda_e and lambda_e' <= H_eps'", v == 0, v, "violations")
    d = le - he
    v = count(np.diff(d) > 0)
    rep.add("lambda_e - H_eps decreasing", v == 0, v, "grid differences")
    v = count(lep < (1 - root_eps) * hep)
    rep.add("lambda_e' >= (1-sqrt(eps)) T r / sqrt(eps (1+T r^2))", v == 0, v, "violations")

    # q_i shape
    v = count((qi < 1.0) | (qi > q0))
    rep.add("1 <= q_i <= q_i(0)", v == 0, v, "violations")
    v = count(np.diff(qi) > 0)
    rep.add("q_i non-increasing", v == 0, v, "grid differences")
    v = count(qip > -(T**2) * r / (2 * (1 + T + T * r**2) ** 2))
    rep.add("q_i' <= -T^2 r / (2 (1+T+T r^2)^2)", v == 0, v, "violations")

    # curvature bounds (alo5)
    v = count(np.abs(lis) > 8 * np.sqrt(2) * T)
    rep.add("|lambda_i''| <= 8 sqrt(2) T", v == 0, v, "violations")
    far = r >= hi
    v = count(lis[far] > 10 * r[far] ** -3.0)
    rep.add("lambda_i'' <= 10 r^-3 beyond the bracket", v == 0, v,
            f"{count(far)} grid points")

    # branch separation (nbc2); gaps through their stable factored forms
    v = count(qi_margin(r, p) < 0)
    v += count(gap_e_i(r, p) <= 0)
    v += count(gap_b_e(r, p) < 0)
    rep.add("r <= lambda_i <= lambda_e <= lambda_b", v == 0, v, "violations")
    gap_be = lb[1:] - le[1:]
    cmin = float((gap_be / rpos).min())
    rep.add("lambda_b - lambda_e > 0 for r > 0", bool(np.all(gap_be > 0)), cmin,
            "measured inf (lambda_b-lambda_e)/r; tends to 0 with r since both "
            "branches share value and slope at r=0")
    ratio = (le - li) / (1 + r)
    rep.add("lambda_e - lambda_i >= c (1+r)", bool(np.all(ratio > 0)), float(ratio.min()),
            f"measured c={ratio.min():.4g}")

    # two-point convexity defects (nbc3), 100 x 100 pair grid
    rr = np.linspace(0.0, R_MAX, 100)
    r1 = rr[:, None]
    r2 = rr[None, :]
    defect_i = lam("i", r1, p) + lam("i", r2, p) - lam("i", r1 + r2, p)
    v = count(defect_i < 0)
    rep.add("lambda_i(r1) + lambda_i(r2) >= lambda_i(r1+r2)", v == 0, v, "pair grid")
    for name in ("e", "b"):
        defect = lam(name, r1, p) + lam(name, r2, p) - lam(name, r1 + r2, p)
        scaled = defect * (1 + np.minimum(r1, r2))
        rep.add(f"lambda_{name} pair defect >= c/(1+min(r1,r2))",
                bool(np.all(scaled > 0)), float(scaled.min()),
                f"measured c={scaled.min():.4g}")

    # weak ellipticity of the ion branch (BdPhiiii): defect >= c a min(1,b)^2
    a = np.linspace(1e-3, 2.0 ** (-0.5), 100)[:, None]
    b = np.linspace(1e-3, R_MAX, 100)[None, :]
    a2, b2 = np.broadcast_arrays(a, np.maximum(a, b))
    defect = lam("i", a2, p) + lam("i", b2, p) - lam("i", a2 + b2, p)
    ratio = defect / (a2 * np.minimum(1.0, b2) ** 2)
    rep.add("ion defect >= c a min(1,b)^2 on a <= min(b, 2^(-1/2))",
            bool(np.all(ratio > 0)), float(ratio.min()),
            f"measured c={ratio.min():.4g}")

    return rep
