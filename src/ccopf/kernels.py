"""Elementwise standard-normal and binomial kernels on NumPy and math.

Every normal-law number in the package comes from here: erfc, the normal
CDF/survival pair, the quantile pair, the truncated-tail inverse
transform of the tail mixture, and the standard normal density that the
mixture density scales. So does the binomial CDF behind the
exact sa-is scenario count (scenario.sample_size_exact). Scalars map to
NumPy float64 scalars and arrays to float64 arrays of the same shape.
BACKEND names the source. The sources:

- erfc, norm_cdf and norm_sf apply math.erfc element by element. They
  see a case's stochastic rows (92 at most in the bundled cases) or
  scalars, never a draw.
- norm_ppf, norm_isf and tail_quantile evaluate Wichura's rational
  approximations (1988, Applied Statistics algorithm AS241, PPND16),
  the algorithm of statistics.NormalDist.inv_cdf, over whole arrays:
  tail_quantile runs on every mixture draw.
- normal_density evaluates the k-variate standard normal density of
  each row with NumPy's exp.
- binom_cdf sums the binomial terms by their ratio recurrence with
  math.fsum.

Accuracy contract, checked against mpmath in the tests: erfc relative
error <= 1e-15 for x <= 26; norm_cdf <= 2e-14 for |z| <= 8, and norm_sf
<= 1e-12 for z <= 37, where the rounding of z / sqrt(2) sets it; norm_ppf,
norm_isf and tail_quantile <= 1e-15 for p in [1e-300, 1 - 1e-12];
norm_sf(norm_isf(p)) recovers p to 1e-10 relative; and binom_cdf
relative error <= 1e-12 wherever |n log1p(-p)| <= 1e3, which holds at
every count the package resolves.
"""
from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "binom_cdf",
    "erfc",
    "norm_cdf",
    "norm_sf",
    "norm_ppf",
    "norm_isf",
    "normal_density",
    "tail_quantile",
]

_SQRT1_2 = math.sqrt(0.5)

# AS241's numerator and denominator coefficients, highest degree first,
# for the central region |p - 0.5| <= 0.425 and for the tails with
# r = sqrt(-log(min(p, 1 - p))) up to 5 and beyond it.
_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)
_FAR = (
    (2.0103343992922881326e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614852e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _float(out):
    """float64 array of an elementwise result; a scalar for a scalar."""
    return np.asarray(out, dtype=np.float64)[()]


def _rational(coefs, r):
    """AS241's num(r) / den(r), each in Horner form as Wichura wrote it."""
    (a0, *num_coefs), (b0, *den_coefs) = coefs
    num, den = np.full_like(r, a0), np.full_like(r, b0)
    for a, b in zip(num_coefs, den_coefs):
        num *= r
        num += a
        den *= r
        den += b
    return num / den


_erfc = np.frompyfunc(math.erfc, 1, 1)


def erfc(x):
    """Complementary error function."""
    return _float(_erfc(x))


def norm_cdf(z):
    """Standard normal CDF, erfc(-z / sqrt(2)) / 2."""
    return 0.5 * erfc(np.multiply(z, -_SQRT1_2))


def norm_sf(z):
    """Standard normal survival function, norm_cdf(-z)."""
    return norm_cdf(np.negative(z))


def norm_ppf(p):
    """Standard normal quantile (inverse CDF).

    0 maps to -inf and 1 to inf; p outside [0, 1], or NaN, maps to NaN.
    """
    p = np.asarray(p, dtype=np.float64)
    flat = p.reshape(-1)
    q = flat - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(flat, 1.0 - flat)))
    x = np.copysign(r, q)  # -inf at 0, inf at 1, NaN outside [0, 1]
    # each region evaluates only its own elements, and an empty one nothing
    central = np.abs(q) <= 0.425
    if central.any():
        qc = q[central]
        x[central] = qc * _rational(_CENTRAL, 0.180625 - qc * qc)
    for tail, coefs, shift in ((~central & (r <= 5.0), _NEAR, 1.6),
                               ((r > 5.0) & (r < np.inf), _FAR, 5.0)):
        if tail.any():
            x[tail] = np.copysign(_rational(coefs, r[tail] - shift), q[tail])
    return x.reshape(p.shape)[()]


def norm_isf(p):
    """Inverse survival function, -norm_ppf(p); stable for small p."""
    return -norm_ppf(p)


def tail_quantile(beta, p_tail, u):
    """Upper-tail inverse transform beyond the threshold beta.

    Maps uniforms u in (0, 1] to y with survival(y) = p_tail * u, where
    p_tail = norm_sf(beta). The clamp to y >= beta removes the last-ulp
    round-off at u = 1.
    """
    return np.maximum(norm_isf(np.multiply(p_tail, u)), beta)


def normal_density(w: np.ndarray) -> np.ndarray:
    """Standard normal density of each row of w (n x k, reduced coordinates)."""
    k = w.shape[1]
    return (2.0 * np.pi) ** (-0.5 * k) * np.exp(-0.5 * np.einsum("ij,ij->i", w, w))


def _binom_cdf(k, n, p) -> float:
    """binom_cdf for one k, n and p."""
    if math.isnan(p) or not 0.0 <= p <= 1.0:  # a NaN comparison would raise FE_INVALID
        return math.nan
    if k < 0:
        return 0.0
    if k >= n or p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    # terms t_j / t_0 by t_{j+1} = t_j (n - j) / (j + 1) p / (1 - p); the
    # list is scaled down by 2**-512 whenever a term passes 2**512, so no
    # term overflows, and scale counts those powers of two
    odds = p / (1.0 - p)
    terms, scale = [1.0], 0
    for j in range(int(k)):
        terms.append(terms[-1] * ((n - j) / (j + 1) * odds))
        if terms[-1] > 2.0**512:
            terms = [math.ldexp(t, -512) for t in terms]
            scale += 512
    frac, exp2 = math.frexp(math.fsum(terms))
    # t_0 = exp(n log1p(-p)) = 2**m exp(rest), |rest| <= log(2) / 2, so t_0
    # never underflows on the way to a result that does not
    log_t0 = n * math.log1p(-p)
    m = round(log_t0 / math.log(2.0))
    rest = log_t0 - m * math.log(2.0)
    return math.ldexp(frac * math.exp(rest), m + exp2 + scale)


_binom = np.frompyfunc(_binom_cdf, 3, 1)


def binom_cdf(k, n, p):
    """P(Binomial(n, p) <= k), for whole k >= 0 and n >= k.

    Sums t_j = C(n, j) p**j (1 - p)**(n - j) for j <= k, O(k) per
    element, with n an integer or a float (counts past the C long range
    too). The terms come from t_0 by the recurrence
    t_{j+1} = t_j (n - j) / (j + 1) p / (1 - p), relative to t_0 and
    rescaled by powers of two, and t_0 = exp(n log1p(-p)) joins the sum
    last, split as 2**m exp(rest). So the result stays right where t_0
    alone would underflow (k near n p, n p past 745). Its relative error
    is a few ulps per term plus about |n log1p(-p)| ulps from rounding
    that product, which is why the contract stops at |n log1p(-p)| <=
    1e3. lgamma-based terms were up to 9e-12 off at the counts the
    package resolves; the recurrence is within 4e-15 there. n p / (1 - p)
    must stay below 2**500, where one step could overflow.
    """
    return _float(_binom(k, n, p))
