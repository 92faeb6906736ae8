#!/usr/bin/env python3
"""Sweep reconstruction error across formats, block sizes, scales, and
sharpness values; write recon.csv and an SVG plot of error vs block size."""

import argparse
import collections

from mxsim.cli import int_at_least
from mxsim.plots import line_plot
from mxsim.sweep import recon_error_experiment, write_recon_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="recon.csv")
    ap.add_argument("--plot", default="recon.svg")
    ap.add_argument("--elements", type=int_at_least(1), default=1 << 16)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rows = recon_error_experiment(seed=args.seed, n_elements=args.elements)
    write_recon_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")

    by_format = collections.defaultdict(lambda: ([], []))
    for row in rows:
        # Keep only the block-size axis of the experiment: default unit
        # scale, and no sharpness value (that column only applies to the
        # smooth-statistic axis).
        if row.get("scale") == 1.0 and row.get("beta") == "":
            xs, ys = by_format[row["format"]]
            xs.append(float(row["l"]))
            ys.append(float(row["mean_rel_err"]))
    svg = line_plot(
        {k: v for k, v in sorted(by_format.items())},
        title="Mean relative reconstruction error vs block size",
        xlabel="block size",
        ylabel="mean relative error",
        log_x=True,
        log_y=True,
    )
    with open(args.plot, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.plot}")


if __name__ == "__main__":
    main()
