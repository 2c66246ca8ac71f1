"""Independent oracle for the closed-form constants.

Recomputes S, Q, Q_dual, F, E_H_tilde and E_H_tilde/S with mpmath at 30
significant digits, straight from the closed forms, and compares them with
the 12 significant digits the CLI prints.  Nothing here imports the package.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import mpmath

DIGITS = 30
# 12 printed significant digits round by at most 5e-12 relative; the rest of
# the margin covers the package's double-precision arithmetic
REL_TOL = 1e-11
COLUMNS = ("S", "Q", "Q_dual", "F", "E_H_tilde", "ratio_EH_over_S")


def point_alpha(p: float, q: float, d: int) -> float:
    """The order the CLI derives from `--p P --q Q --d D`, in the same double
    arithmetic: alpha = d (1/p - 1/q)."""
    return max(d * (1.0 / p - 1.0 / q), 0.0)


def expected(p: float, alpha: float, d: int) -> Dict[str, mpmath.mpf]:
    """Closed forms for the pair with 1/q = 1/p - alpha/d (alpha > 0):

    Q(p, q)   = q^{1 - 1/p} / (p - 1)
    Q_dual    = Q(q', p')
    S         = min(Q, Q_dual)
    F         = [1/(1/p' + 1/q)] [1/(p q')] (p'^{1/q} + q^{1/p'})
    E_H_tilde = (2 pi)^{-alpha} [Gamma((d - alpha)/2) / Gamma(alpha/2)] (d/alpha)
                (omega_{d-1}/d)^{1 - alpha/d} (1 - alpha/d)^{1 - alpha/d}
                (1/(p q')) (p'^{1/p' + 1/q} + q^{1/p' + 1/q}),
    omega_{d-1} = 2 pi^{d/2} / Gamma(d/2).
    """
    with mpmath.workdps(DIGITS):
        p_, a, d_ = mpmath.mpf(p), mpmath.mpf(alpha), mpmath.mpf(d)
        q = 1 / (1 / p_ - a / d_)
        pc = p_ / (p_ - 1)
        qc = q / (q - 1)

        def one_sided(x, y):
            return y ** (1 - 1 / x) / (x - 1)

        qv = one_sided(p_, q)
        qd = one_sided(qc, pc)
        s = min(qv, qd)
        f = (1 / (1 / pc + 1 / q)) * (1 / (p_ * qc)) * (pc ** (1 / q) + q ** (1 / pc))
        e = 1 / pc + 1 / q
        omega = 2 * mpmath.pi ** (d_ / 2) / mpmath.gamma(d_ / 2)
        eh = (
            (2 * mpmath.pi) ** (-a)
            * mpmath.gamma((d_ - a) / 2)
            / mpmath.gamma(a / 2)
            * (d_ / a)
            * (omega / d_) ** (1 - a / d_)
            * (1 - a / d_) ** (1 - a / d_)
            / (p_ * qc)
            * (pc**e + q**e)
        )
        return {"q": q, "S": s, "Q": qv, "Q_dual": qd, "F": f, "E_H_tilde": eh, "ratio_EH_over_S": eh / s}


def mismatches(want: Mapping[str, mpmath.mpf], printed: Mapping[str, str], label: str) -> List[str]:
    """Every column of COLUMNS (and q, when printed) that is missing or
    differs from the oracle by more than REL_TOL relative."""
    out = []
    for col in COLUMNS + (("q",) if "q" in printed else ()):
        text = printed.get(col)
        if text is None or text == "":
            out.append(f"{label}: {col} missing")
            continue
        with mpmath.workdps(DIGITS):
            err = abs(mpmath.mpf(text) - want[col]) / abs(want[col])
        if not err <= REL_TOL:
            out.append(f"{label}: {col} = {text}, oracle {mpmath.nstr(want[col], 15)} (rel err {float(err):.3g})")
    return out
