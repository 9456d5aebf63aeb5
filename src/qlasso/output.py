"""CSV and SVG emission for error curves and sweeps.

Every CSV table has a leading comment line recording the master seed and
config hash, then a header row, with floats printed at 17 significant digits
so re-parsing is lossless. Error curves use the columns
`estimator,m,mean_err,std_err,trials,seed_hash`; `std_err` is the standard
deviation of the per-trial errors (ddof 0), so the standard error of
`mean_err` is `std_err / sqrt(trials)`.
SVG plots are self-contained hand-rolled polylines on log-log axes with an
optional dashed reference guide line.
"""

import hashlib
import json
import math
from typing import Iterable, Optional, Sequence, Tuple

from .experiment import ErrorCurve


def config_hash(cfg_dict: dict) -> str:
    """Stable short hash of a JSON-serializable config mapping."""
    blob = json.dumps(cfg_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def seed_hash(master_seed: int, cfg_hash: str) -> str:
    return hashlib.sha256(f"{master_seed}:{cfg_hash}".encode("utf-8")).hexdigest()[:12]


def write_csv(path, master_seed: int, cfg_hash: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a table after its seed comment line; floats get 17 significant digits."""
    lines = [f"# master_seed={master_seed} config_hash={cfg_hash}", ",".join(header)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_error_curves_csv(path, curves: Sequence[ErrorCurve], cfg_hash: str) -> None:
    seeds = {c.master_seed for c in curves}
    if len(seeds) != 1:
        raise ValueError("curves in one file must share a master seed")
    master_seed = seeds.pop()
    shash = seed_hash(master_seed, cfg_hash)
    rows = [
        (c.estimator, m, mean, std, c.trials, shash)
        for c in curves
        for m, mean, std in zip(c.m_grid, c.mean_err, c.std_err)
    ]
    header = ("estimator", "m", "mean_err", "std_err", "trials", "seed_hash")
    write_csv(path, master_seed, cfg_hash, header, rows)


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_svg_lineplot(
    path,
    series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    guide: Optional[Tuple[str, Sequence[float], Sequence[float]]] = None,
) -> None:
    """Log-log polyline plot; `guide` draws a dashed reference line."""
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 40, 60
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    if guide is not None:
        all_x += list(guide[1])
        all_y += list(guide[2])
    if not all_x or min(all_y) <= 0 or min(all_x) <= 0:
        raise ValueError("log-log plot needs positive data")

    def span(values):
        """The log10 range of `values`, a point widened to one decade, padded by 5% at each end."""
        lo, hi = math.log10(min(values)), math.log10(max(values))
        hi = hi if hi > lo else lo + 1
        return lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)

    (lx0, lx1), (ly0, ly1) = span(all_x), span(all_y)

    def px(x):
        return ml + (math.log10(x) - lx0) / (lx1 - lx0) * (width - ml - mr)

    def py(y):
        return height - mb - (math.log10(y) - ly0) / (ly1 - ly0) * (height - mt - mb)

    def text(x, y, body, size=11, anchor="middle", attrs=""):
        """A <text> element at (x, y); float coordinates print to one decimal, an anchor of None is left out."""
        x, y = (f"{v:.1f}" if isinstance(v, float) else v for v in (x, y))
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        return f'<text x="{x}" y="{y}"{anchor} font-size="{size}" font-family="sans-serif"{attrs}>{body}</text>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        text(width / 2, 24, title, size=15),
        f'<rect x="{ml}" y="{mt}" width="{width-ml-mr}" height="{height-mt-mb}" fill="none" stroke="black"/>',
    ]
    # decade ticks
    for d in range(math.ceil(lx0), math.floor(lx1) + 1):
        x = px(10.0**d)
        parts.append(f'<line x1="{x:.1f}" y1="{height-mb}" x2="{x:.1f}" y2="{height-mb+6}" stroke="black"/>')
        parts.append(text(x, height - mb + 20, f"1e{d}"))
    for d in range(math.ceil(ly0), math.floor(ly1) + 1):
        y = py(10.0**d)
        parts.append(f'<line x1="{ml-6}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="black"/>')
        parts.append(text(ml - 10, y + 4, f"1e{d}", anchor="end"))
    parts.append(text((ml + width - mr) / 2, height - 16, xlabel, size=13))
    ymid = (mt + height - mb) / 2
    parts.append(text(18, ymid, ylabel, size=13, attrs=f' transform="rotate(-90 18 {ymid:.1f})"'))
    if guide is not None:
        label, gx, gy = guide
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(gx, gy))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="red" stroke-dasharray="6,4"/>')
        parts.append(text(px(gx[-1]), py(gy[-1]) - 6, label, anchor="end", attrs=' fill="red"'))
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>')
        ly = mt + 16 + 16 * i
        parts.append(f'<line x1="{width-mr-130}" y1="{ly}" x2="{width-mr-105}" y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(text(width - mr - 100, ly + 4, label, anchor=None))
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def inv_sqrt_guide(ms: Sequence[float], anchor_y: float) -> Tuple[str, list, list]:
    """Dashed 1/sqrt(m) reference anchored at the first grid point."""
    ms = list(ms)
    c = anchor_y * math.sqrt(ms[0])
    return ("1/sqrt(m)", ms, [c / math.sqrt(m) for m in ms])
