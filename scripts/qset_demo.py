#!/usr/bin/env python3
"""Random-configuration experiment for the diagonal-neighborhood classifier.

Samples rational grid configurations, classifies each with the default
schedule, verifies the partition property, and prints a histogram of the
classified partitions by rank."""

import argparse
import random
from collections import Counter
from fractions import Fraction

from dtzero import (
    EpsilonSchedule,
    PointConfig,
    SetPartition,
    classify_q_set,
    partitions,
    strict_diagonal_distance_sq,
)

# Largest --n.  The classifier's down-set table holds one entry per related
# pair of partitions, sum_k S(n,k) Bell(k) of them: 1 606 137 at n = 9,
# 16 733 779 at n = 10 and about 2.3e9 at n = 12, so a larger n would run out
# of memory instead of failing.
MAX_N = 9


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4, help="number of labeled points")
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid", type=int, default=2, help="coordinates are k/2 for k in 0..grid")
    args = parser.parse_args()
    if args.n < 1:
        parser.error("--n must be at least 1")
    if args.n > MAX_N:
        parser.error(f"--n must be at most {MAX_N}")
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    if args.grid < 0:
        parser.error("--grid must be non-negative")

    rng = random.Random(args.seed)
    top = SetPartition.whole(args.n)
    histogram: Counter = Counter()
    membership_checks = 0

    for _ in range(args.samples):
        x = PointConfig(tuple(
            (Fraction(rng.randint(0, args.grid), 2),
             Fraction(rng.randint(0, args.grid), 2),
             Fraction(rng.randint(0, args.grid), 2))
            for _ in range(args.n)
        ))
        sched = EpsilonSchedule.default_for(x)
        beta = classify_q_set(top, x, sched)
        histogram[beta.rank] += 1
        for gamma in partitions(args.n):
            if strict_diagonal_distance_sq(gamma, x) < sched.eps_sq(gamma):
                assert gamma <= beta, "partition property violated"
                membership_checks += 1

    print(f"{args.samples} configurations of {args.n} points, seed {args.seed}")
    print(f"all classifications unique; {membership_checks} neighborhood memberships consistent")
    for rank in sorted(histogram):
        print(f"  rank {rank}: {histogram[rank]:5d} configurations")


if __name__ == "__main__":
    main()
