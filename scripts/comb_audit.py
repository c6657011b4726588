"""Audit a chain's response comb against the Mazur bound frequency by
frequency.

With the trivial complete set the bound is an equality at every tooth, so
the worst margin doubles as an end-to-end numerics check; the script also
prints the heaviest teeth, which is a quick look at where the weight sits.
"""

import argparse

from qfidyn import comb_bound_check, gibbs_weights, response_comb
from qfidyn.models import preset, solve_preset


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sites", type=int, default=7)
    ap.add_argument("--field", type=float, default=0.3)
    ap.add_argument("--temperature", type=float, default=1.0)
    ap.add_argument("--top", type=int, default=8, help="heaviest teeth to list")
    args = ap.parse_args()

    # the weighted pair set: the generator's nonzero eigenpairs, clustered once
    spectral, pairs, _ = solve_preset(preset("chain", sites=args.sites, field=args.field))
    ens = gibbs_weights(spectral, 1.0 / args.temperature)

    comb = response_comb(pairs, ens)
    check = comb_bound_check(comb, pairs, ens, pairs)

    margins = [row[3] for row in check.rows]
    print(f"teeth: {len(check.rows)}   equality: {check.equality}")
    print(f"worst margin: {min(margins):.3e}   largest slack: {max(margins):.3e}")
    print("\n   omega          g(omega)        D(omega)")
    heaviest = sorted(check.rows, key=lambda row: -row[1])[: args.top]
    for omega, g, d, _ in heaviest:
        print(f"{omega:8.4f}  {g:16.12f}  {d:16.12f}")


if __name__ == "__main__":
    main()
