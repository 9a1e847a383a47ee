"""Regenerate the Taylor tables used by skyrmelab.coefficients near u = 0.

Each nonlinearity coefficient c_1..c_6 is an analytic function of u with a
removable singularity at the origin; close to u = 0 the closed forms lose
digits to cancellation, so the package evaluates a truncated Taylor series
instead.  This script expands the alpha-independent part of every coefficient
symbolically and writes the coefficients to

    src/skyrmelab/data/series_constants.txt

as lines "id degree value" with 30 significant digits.  Run from the
repository root after any change to the coefficient definitions:

    python3 scripts/generate_series_constants.py
"""
import pathlib

import sympy as sp

u = sp.symbols("u")

# alpha-independent parts: ids 2, 3, 4 are multiplied by alpha^2 at runtime
BASES = {
    1: (sp.sin(2 * u) - 2 * u) / u**3,
    2: sp.sin(2 * u) * (sp.sin(u) ** 2 - u**2) / u**5,
    3: 4 * sp.sin(u) * (sp.sin(u) - u * sp.cos(u)) / u**3,
    4: sp.sin(2 * u) / u,
    5: (sp.sin(2 * u) - 2 * u) / u**3,
    6: (u - sp.sin(u) * sp.cos(u)) * (1 - sp.cos(2 * u)) / u**5,
}

# Below the series switch |u| < 0.05 the first term dropped at degree 10 is
# under 5e-21 of the value for the even ids (c2's u^12 is the largest) and
# 1.7e-19 for the odd c3 (its u^11), far below one rounding (1.1e-16).
MAX_DEGREE = 10


def taylor_lines(cid, expr):
    series = sp.series(expr, u, 0, MAX_DEGREE + 2).removeO()
    poly = sp.Poly(sp.expand(series), u)
    lines = []
    for degree in range(MAX_DEGREE + 1):
        coeff = poly.coeff_monomial(u**degree)
        if coeff == 0:
            continue
        lines.append(f"{cid} {degree} {sp.Float(coeff, 30)}")
    return lines


def main():
    out = pathlib.Path(__file__).resolve().parents[1] / "src" / "skyrmelab" / "data" / "series_constants.txt"
    lines = [
        "# Taylor coefficients of the nonlinearity coefficient functions about u = 0.",
        "# Format: id degree value   (alpha-independent part; ids 2,3,4 carry an",
        "# additional alpha^2 factor applied at evaluation time).",
        "# Generated by scripts/generate_series_constants.py -- do not edit by hand.",
    ]
    for cid, expr in BASES.items():
        lines.extend(taylor_lines(cid, expr))
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({sum(1 for l in lines if not l.startswith('#'))} coefficients)")


if __name__ == "__main__":
    main()
