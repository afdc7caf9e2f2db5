"""High-precision star densities for the cavitation ladder.

The ladder is the ECG datum (1, -1) | (1, 1) with n = 2, alpha = 0.5 and
A = B = 10^-k for k = 1..14. By symmetry u* = 0, and rho* solves

    integral over [log rho*, 0] of c(e^y) dy = 1,
    c^2 = A n rho^(n-1) + alpha B rho^-(alpha+1),

which is integrated and solved here in y = log rho with mpmath, to 30
significant digits.
The values are computed once and stored in ``rho_star_refs.json``; the timed
benchmark only reads that file.

Regenerate the stored file with:  python3 perfbench/refs.py
"""

from __future__ import annotations

import json
import os

LADDER_K = tuple(range(1, 15))
LADDER_N = 2.0
LADDER_ALPHA = 0.5
LADDER_LEFT = (1.0, -1.0)
LADDER_RIGHT = (1.0, 1.0)
DIGITS = 30

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rho_star_refs.json")


def reference_rho_star(k: int, digits: int = DIGITS) -> str:
    """rho* of ladder point k as a decimal string with ``digits`` significant digits."""
    import mpmath as mp

    with mp.workdps(digits + 15):
        A = B = mp.mpf(10) ** -k
        n = mp.mpf(LADDER_N)
        alpha = mp.mpf(LADDER_ALPHA)
        # Velocity jump across each fan; the datum's jump is u+ - u- = 2.
        half_jump = mp.mpf(LADDER_RIGHT[1] - LADDER_LEFT[1]) / 2

        def c(y):
            return mp.sqrt(A * n * mp.exp((n - 1) * y) + alpha * B * mp.exp(-(alpha + 1) * y))

        def mismatch(y):
            # Split the range so tanh-sinh sees a smooth integrand on each piece.
            return mp.quad(c, mp.linspace(y, 0, 8)) - half_jump

        # Newton in y (d mismatch/dy = -c(y)), kept inside a shrinking bracket.
        lo, hi = mp.mpf(-120), mp.mpf(0)
        if not (mismatch(lo) > 0 > mismatch(hi)):
            raise ArithmeticError(f"ladder point k={k} is not bracketed")
        y = (lo + hi) / 2
        for _ in range(400):
            f = mismatch(y)
            if f > 0:
                lo = y
            else:
                hi = y
            y_new = y + f / c(y)
            if not (lo < y_new < hi):
                y_new = (lo + hi) / 2
            done = abs(y_new - y) < mp.mpf(10) ** -(digits + 5)
            y = y_new
            if done:
                break
        else:
            raise ArithmeticError(f"ladder point k={k} did not converge")
        return mp.nstr(mp.exp(y), digits, min_fixed=1, max_fixed=0)


def load_refs(path: str = REFS_PATH) -> dict[int, float]:
    """Stored references as {k: rho*} floats."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {int(pt["k"]): float(pt["rho_star"]) for pt in doc["ladder"]}


def main() -> None:
    doc = {
        "model": {"tag": "ecg", "n": LADDER_N, "alpha": LADDER_ALPHA},
        "left": {"rho": LADDER_LEFT[0], "u": LADDER_LEFT[1]},
        "right": {"rho": LADDER_RIGHT[0], "u": LADDER_RIGHT[1]},
        "digits": DIGITS,
        "method": "mpmath tanh-sinh quadrature in y = log rho, bracketed Newton on y",
        "ladder": [
            {"k": k, "A": 10.0**-k, "B": 10.0**-k, "rho_star": reference_rho_star(k)}
            for k in LADDER_K
        ],
    }
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
