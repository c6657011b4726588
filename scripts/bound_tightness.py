"""Tightness of the regime-subset bound on the two-qubit model.

For each field the script picks the saturating symmetry subset, then prints
bound/QFI across temperature.  The ratio should approach 1 as T drops on
both sides of the level crossing and degrade smoothly as T grows.
"""

import argparse

from qfidyn import gibbs_weights, qfi_from_dynsym, qfi_spectral, verified_blocks
from qfidyn.models import preset, regime_subset, solve_preset, two_qubit_symmetry_operators


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fields", default="0.2,0.5,0.8,1.2,1.5,1.8")
    ap.add_argument("--temps", default="0.05,0.1,0.2,0.5,1,2")
    args = ap.parse_args()

    temps = [float(t) for t in args.temps.split(",")]
    print("field  subset " + "".join(f"  T={t:<7g}" for t in temps))
    for field in (float(f) for f in args.fields.split(",")):
        spectral, pairs, h = solve_preset(preset("two-qubit", field=field))
        labels = regime_subset(field)
        ops = two_qubit_symmetry_operators(labels)
        blocks = verified_blocks(h.dense(), spectral, [op.mat for op in ops.values()])
        ratios = []
        for temp in temps:
            ens = gibbs_weights(spectral, 1.0 / temp)
            fq = qfi_spectral(pairs, ens)
            bound = qfi_from_dynsym(blocks, ens, pairs).value
            ratios.append(bound / fq if fq > 0 else float("nan"))
        cells = "".join(f"  {r:9.4f}" for r in ratios)
        print(f"{field:5.2f}  {'+'.join(labels):6s}{cells}")


if __name__ == "__main__":
    main()
