"""Certified entanglement depth of XX chains across size and temperature.

Prints the QFI density of the chosen generator and the depth it witnesses.
Low temperature and odd staggering push the density above 1, which is where
the certificate starts to say something.
"""

import argparse

from qfidyn import entanglement_depth, gibbs_weights, qfi_spectral
from qfidyn.models import preset, solve_preset


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="2,4,6,8", help="comma-separated chain lengths")
    ap.add_argument("--field", type=float, default=0.3)
    ap.add_argument("--temps", default="0.05,0.1,0.5,1,5")
    ap.add_argument("--generator", default="staggered-x")
    args = ap.parse_args()

    temps = [float(t) for t in args.temps.split(",")]
    print("sites  temperature      f_q  depth")
    for n in (int(s) for s in args.sizes.split(",")):
        model = preset("chain", sites=n, field=args.field, generator=args.generator)
        spectral, pairs, _ = solve_preset(model)
        for temp in temps:
            ens = gibbs_weights(spectral, 1.0 / temp)
            witness = entanglement_depth(qfi_spectral(pairs, ens), n)
            print(f"{n:5d} {temp:12.3f} {witness.f_q:8.4f} {witness.depth:6d}")


if __name__ == "__main__":
    main()
