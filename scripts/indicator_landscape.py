#!/usr/bin/env python3
"""Explore the indicator surfaces and write plot-ready CSV series.

Produces four small studies under the output directory:
  rqm_grid.csv          RQM over an (ARQ, S_mp) grid at the default shift
  beta_objective.csv    the calibration objective over a range of shifts,
                        with the numeric maximizer and the shipped default
  rad_curve.csv         cumulative aging integral over 0..72 months
  tncsi_curves.csv      TNCSI vs citation count for several topic scales
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

from litmetrics.indicators import (
    DEFAULT_BETA,
    AgingPolynomial,
    ExponentialFit,
    optimize_beta,
    rad,
    rqm_spread,
    rqm_value,
    tncsi,
)


def write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", nargs="?", default="indicator-landscape")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = [
        [a / 100, s, rqm_value(a / 100, s)]
        for a in range(0, 101, 5)
        for s in range(0, 21)
    ]
    write_rows(out / "rqm_grid.csv", ["arq", "s_mp", "rqm"], rows)

    l_s, r_s, arq_bar = 5.0, 10.0, 0.6
    best = optimize_beta(l_s, r_s, arq_bar)
    rows = [[b / 10, rqm_spread(b / 10, l_s, r_s, arq_bar)] for b in range(1, 600)]
    write_rows(out / "beta_objective.csv", ["beta", "objective"], rows)
    print(f"  numeric maximizer: beta* = {best:.4f}  "
          f"(shipped default stays {DEFAULT_BETA})")

    poly = AgingPolynomial()
    rows = [[m, rad(m), poly.antiderivative(m / 12.0)] for m in range(0, 73)]
    write_rows(out / "rad_curve.csv", ["months", "rad_trapezoid", "rad_exact"], rows)

    scales = [5, 20, 80, 320]
    rows = []
    for mean_cites in scales:
        fit = ExponentialFit(lam=1.0 / mean_cites, sample_size=1000)
        for c in range(0, 1001, 10):
            rows.append([mean_cites, c, tncsi(c, fit)])
    write_rows(out / "tncsi_curves.csv", ["topic_mean_cites", "cite_num", "tncsi"], rows)


if __name__ == "__main__":
    main()
