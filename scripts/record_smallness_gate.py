"""Recompute and rewrite the recorded small-data admission gate.

Measures the initial data of the skyrme-small scenario (dyadic Besov size at
s = 3/2, p = 2, q = 1 over R^5 plus the plain L^2 size, on the scenario's own
grid) and rewrites src/skyrmelab/data/smallness_gate.txt with the fresh
constants.  Run from the repository root after changing the scenario profile
or anything in the measurement chain:

    python3 scripts/record_smallness_gate.py

The verifier's gate-consistency check demands the file agree with a live
recomputation to 1e-9 relative, so this script is the only sanctioned way to
change it.
"""
import pathlib

from skyrmelab.scenarios import GATE_DIM, GATE_P, GATE_Q, GATE_S, data_size, load_scenario

PROFILE = "skyrme-small"

HEADER = """\
# Small-data admission gate.
#
# Size of the largest initial data the acceptance suite certifies as
# globally regular: the skyrme-small scenario profile v(r) = 0.5 exp(-r^2),
# measured as a radial function over R^5 on its own grid (R = 20, N = 4096).
# besov_value is the dyadic Besov size with s = 3/2, p = 2, q = 1 (sum over
# shells of shell_scale^s * shell L^2 size); l2_value is the plain L^2 size.
# Initial data measuring above either constant are outside the certified
# small-data regime.  No run is labelled by these constants: the verifier's
# smallness-gate check recomputes them from the profile and confirms that the
# wave-map collapse data measure more than ten times besov_value.
#
# Regenerate with: python scripts/record_smallness_gate.py
"""


def main():
    cfg = load_scenario(PROFILE)
    besov, truncation, l2 = data_size(cfg)
    out = (pathlib.Path(__file__).resolve().parents[1]
           / "src" / "skyrmelab" / "data" / "smallness_gate.txt")
    lines = [
        f"profile = {PROFILE}",
        f"dim = {GATE_DIM}",
        f"besov_s = {GATE_S}",
        f"besov_p = {GATE_P}",
        f"besov_q = {GATE_Q}",
        f"besov_value = {besov:.16g}",
        f"besov_truncation = {truncation:.16g}",
        f"l2_value = {l2:.16g}",
        f"grid_R = {cfg.R:g}",
        f"grid_N = {cfg.N}",
    ]
    out.write_text(HEADER + "\n".join(lines) + "\n")
    print(f"wrote {out}")
    for ln in lines:
        print("  " + ln)


if __name__ == "__main__":
    main()
