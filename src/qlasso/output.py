"""CSV and SVG emission for error curves and sweeps.

Every CSV table has a leading comment line recording the master seed and
config hash, then a header row, with floats printed at 17 significant digits
so re-parsing is lossless. Error curves use the columns
`estimator,m,mean_err,std_err,trials,seed_hash`.
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


def read_error_curves_csv(path) -> list:
    """Parse rows back into dicts; comment lines are skipped."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("estimator,"):
                continue
            est, m, mean, std, trials, shash = line.split(",")
            rows.append(
                {
                    "estimator": est,
                    "m": int(m),
                    "mean_err": float(mean),
                    "std_err": float(std),
                    "trials": int(trials),
                    "seed_hash": shash,
                }
            )
    return rows


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
    lx0, lx1 = math.log10(min(all_x)), math.log10(max(all_x))
    ly0, ly1 = math.log10(min(all_y)), math.log10(max(all_y))
    if lx1 == lx0:
        lx1 = lx0 + 1
    if ly1 == ly0:
        ly1 = ly0 + 1
    pad = 0.05
    lx0, lx1 = lx0 - pad * (lx1 - lx0), lx1 + pad * (lx1 - lx0)
    ly0, ly1 = ly0 - pad * (ly1 - ly0), ly1 + pad * (ly1 - ly0)

    def px(x):
        return ml + (math.log10(x) - lx0) / (lx1 - lx0) * (width - ml - mr)

    def py(y):
        return height - mb - (math.log10(y) - ly0) / (ly1 - ly0) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # axes box
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{width-ml-mr}" height="{height-mt-mb}" '
        f'fill="none" stroke="black"/>'
    )
    # decade ticks
    for d in range(math.ceil(lx0), math.floor(lx1) + 1):
        x = px(10.0**d)
        parts.append(f'<line x1="{x:.1f}" y1="{height-mb}" x2="{x:.1f}" y2="{height-mb+6}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{height-mb+20}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">1e{d}</text>'
        )
    for d in range(math.ceil(ly0), math.floor(ly1) + 1):
        y = py(10.0**d)
        parts.append(f'<line x1="{ml-6}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{ml-10}" y="{y+4:.1f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">1e{d}</text>'
        )
    parts.append(
        f'<text x="{(ml+width-mr)/2:.1f}" y="{height-16}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{(mt+height-mb)/2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {(mt+height-mb)/2:.1f})">{ylabel}</text>'
    )
    if guide is not None:
        label, gx, gy = guide
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(gx, gy))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="red" stroke-dasharray="6,4"/>')
        parts.append(
            f'<text x="{px(gx[-1]):.1f}" y="{py(gy[-1])-6:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif" fill="red">{label}</text>'
        )
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>')
        ly = mt + 16 + 16 * i
        parts.append(f'<line x1="{width-mr-130}" y1="{ly}" x2="{width-mr-105}" y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width-mr-100}" y="{ly+4}" font-size="11" font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def inv_sqrt_guide(ms: Sequence[float], anchor_y: float) -> Tuple[str, list, list]:
    """Dashed 1/sqrt(m) reference anchored at the first grid point."""
    ms = list(ms)
    c = anchor_y * math.sqrt(ms[0])
    return ("1/sqrt(m)", ms, [c / math.sqrt(m) for m in ms])
