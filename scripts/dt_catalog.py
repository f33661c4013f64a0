#!/usr/bin/env python3
"""Catalog experiment: series heads, cobordism data and per-size degrees
for the four builtin threefolds, plus the universality fit across them."""

import argparse

from dtzero import (
    ChernNumbers,
    ThreefoldSpec,
    catalog,
    decompose,
    discrepancy_degrees,
    dt_series,
    twist_exponent,
    universality_failures,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=8, help="series truncation order")
    parser.add_argument("--max-k", type=int, default=6, help="largest degree size to extract")
    args = parser.parse_args()
    if args.order < 0:
        parser.error("--order must be non-negative")
    if args.max_k < 1:
        parser.error("--max-k must be at least 1")

    for spec in catalog():
        chern = spec.resolve()
        d = dt_series(spec, args.order)
        dec = decompose(chern)
        t = discrepancy_degrees(spec, args.max_k)
        print(f"== {spec.label()}")
        print(f"   chern numbers   (c1^3, c1c2, c3) = ({chern.c111}, {chern.c12}, {chern.c3})")
        print(f"   twist exponent  {twist_exponent(chern)}")
        print(f"   cobordism       r = ({dec.r1}, {dec.r2}, {dec.r3}), m = {dec.m}")
        print(f"   series          {' '.join(str(c) for c in d.coefficients())}")
        print(f"   degrees t_k     {' '.join(str(t[k]) for k in sorted(t))}")

    # lambda_k is t_k of a threefold with twist exponent K = c3 - c1c2 = 1
    lambdas = discrepancy_degrees(ThreefoldSpec.explicit(ChernNumbers(0, 0, 1)), args.max_k)
    lam = " ".join(f"{k}:{v}" for k, v in sorted(lambdas.items()))
    status = "FAILED" if universality_failures(catalog(), args.max_k) else "exact fit"
    print(f"== universality across the catalog: {status}")
    print(f"   lambda_k        {lam}")


if __name__ == "__main__":
    main()
