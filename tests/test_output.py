"""Output bytes pinned before the front end was refactored.

The SVG digests and the CSV comment lines were recorded with the three-table
`cli` and the seven hand-written `<text>` elements of `write_svg_lineplot`;
any later front end must write the same bytes.
"""

import hashlib
import json

from qlasso.cli import main
from qlasso.output import inv_sqrt_guide, write_svg_lineplot


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_svg_bytes_of_two_series_and_a_guide(tmp_path):
    ms = [200, 400, 700, 1000, 1400, 2000]
    glasso = [0.9, 0.61, 0.47, 0.395, 0.33, 0.281]
    pbp = [2.5, 1.8, 1.41, 1.2, 1.05, 0.93]
    path = tmp_path / "plot.svg"
    write_svg_lineplot(path, [("glasso", ms, glasso), ("pbp", ms, pbp)], title="error vs m",
                       xlabel="m", ylabel="l2 error", guide=inv_sqrt_guide(ms, glasso[0]))
    assert _sha256(path) == "f0af1c8adc2b2a0af306888f902fab07a0859ffa0be00b0024603d4c23a4d3ac"


def test_svg_bytes_of_one_point(tmp_path):
    # one point gives each axis a range of zero, which is widened to one decade
    path = tmp_path / "point.svg"
    write_svg_lineplot(path, [("glasso", [150], [0.25])], title="one point", xlabel="delta", ylabel="l2 error")
    assert _sha256(path) == "667bec0c54c944a91f1ac41c0fb109ed8e86ebad279861f6107bc4eacf3b9513"


def _comment_line(tmp_path, command, csv_name):
    """The seed comment line that `command` writes on a small config with the grid, the deltas and the
    estimators left to their defaults."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 30, "s": 5, "norm": 3.0, "R": 4.0, "trials": 1, "seed": 11}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    return (tmp_path / command / csv_name).read_text().splitlines()[0]


def test_run_uniform_comment_line(tmp_path):
    line = _comment_line(tmp_path, "run-uniform", "uniform_glasso.csv")
    assert line == "# master_seed=11 config_hash=efd0062f67727e03"


def test_delta_sweep_comment_line(tmp_path):
    # the hash covers the six default deltas the sweep runs, not the scalar default delta
    # of the other subcommands, which it covered before (config_hash=fc8c6773fa68d848)
    line = _comment_line(tmp_path, "delta-sweep", "delta_sweep.csv")
    assert line == "# master_seed=11 config_hash=f2d56c77038510d9"
