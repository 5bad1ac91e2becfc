#!/usr/bin/env python3
"""Summarize the difference between two `scripts/fingerprint.py` outputs.

Lines are matched by label. A section is a label's first two dot-separated
parts (`sleepstudy.PLS`, `intercept-p3-n300.PIT`, `contour.PRLS`,
`merit-n30.rep0`, ...). For each section, in order of first appearance,
it prints the moved and total lines and the largest relative move
|a - b| / max(|a|, |b|) among the moved finite floats. Then it prints,
verbatim as `- before` / `+ after` pairs, every changed line that is not
such a float move:
- values that are not hex floats: evaluation counts, failure messages;
- floats that are whole numbers on both sides: flags and counts written
  as floats (`converged`, `n_iter`);
- floats that are non-finite on either side;
- labels present in one file only.

    python scripts/fingerprint_diff.py before.txt after.txt
"""

import argparse
import math


def read(path):
    """{label: value text}, in file order."""
    out = {}
    with open(path) as f:
        for line in f:
            label, _, value = line.rstrip("\n").partition(" ")
            out[label] = value
    return out


def as_float(text):
    try:
        return float.fromhex(text)
    except ValueError:
        return None


def float_move(a, b):
    """The relative move from hex float a to b, or None if the change is to
    be listed verbatim."""
    x, y = as_float(a), as_float(b)
    if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
        return None
    if x.is_integer() and y.is_integer():
        return None
    return abs(x - y) / max(abs(x), abs(y))


def section(label):
    return ".".join(label.split(".")[:2])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args()
    before, after = read(args.before), read(args.after)

    stats, listed = {}, []
    for label in list(before) + [lab for lab in after if lab not in before]:
        counts = stats.setdefault(section(label), [0, 0, 0.0])  # moved, total, worst
        counts[1] += 1
        a, b = before.get(label), after.get(label)
        if a == b:
            continue
        counts[0] += 1
        rel = None if a is None or b is None else float_move(a, b)
        if rel is None:
            listed.append((label, a, b))
        else:
            counts[2] = max(counts[2], rel)

    width = max(len(name) for name in stats)
    print(f"{'section':{width}s}  {'moved/total':>11s}  max rel move")
    for name, (moved, total, worst) in stats.items():
        print(f"{name:{width}s}  {f'{moved}/{total}':>11s}  {worst:.2g}")
    print(f"{len(listed)} changed lines that are not float moves")
    for label, a, b in listed:
        if a is not None:
            print(f"- {label} {a}")
        if b is not None:
            print(f"+ {label} {b}")


if __name__ == "__main__":
    main()
