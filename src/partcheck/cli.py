"""Command-line interface.

Exit codes: 0 success, 2 input error, 3 pipeline stage failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import features as feat
from . import meshio
from .pipeline import (
    PipelineConfig,
    StageError,
    generate_synthetic_scene,
    parse_scene_spec,
    read_circles_table,
    run_pipeline,
    write_circles_table,
    write_scene,
)

EXIT_INPUT_ERROR = 2
EXIT_STAGE_ERROR = 3


@click.group()
def main():
    """Assess manufacturing error of a scanned part against its CAD mesh."""


@main.command()
@click.argument("scan", type=click.Path())
@click.argument("mesh", type=click.Path())
@click.option("--config", "config_path", type=click.Path(), help="Flat key=value config file.")
@click.option("--out", "out_dir", type=click.Path(), default=".", show_default=True,
              help="Directory for the report and optional dumps.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--truth-circles", "truth_path", type=click.Path(),
              help="Circle table with the reference rim circles. A fitted circle matches "
                   "one when its centroid offset and radius difference are both within "
                   "circle_match_tol; the one-to-one matching takes the most such pairs, "
                   "then the least total centroid offset. Without a table the feature "
                   "level has no reference: f_n is 0 and e_comp_* is not measured.")
@click.option("--dump-segments", is_flag=True, help="Write the colored segmentation PLY.")
@click.option("--dump-edges", is_flag=True, help="Write the detected edge points PLY.")
@click.option("--dump-circles", is_flag=True, help="Write fitted circle rings and table.")
@click.option("--ascii", "ascii_output", is_flag=True, help="Write ASCII PLY files.")
def assess(scan, mesh, config_path, out_dir, seed, truth_path,
           dump_segments, dump_edges, dump_circles, ascii_output):
    """Run the full three-level assessment of SCAN against MESH."""
    try:
        config = PipelineConfig.from_file(config_path) if config_path else PipelineConfig()
        if seed is not None:
            config = PipelineConfig(**{**config.to_items(), "seed": seed})
        truth = read_circles_table(truth_path) if truth_path else None
    except (OSError, ValueError) as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    try:
        report = run_pipeline(
            scan, mesh, config,
            truth_circles=truth,
            out_dir=out_dir,
            dump_segments=dump_segments,
            dump_edges=dump_edges,
            dump_circles=dump_circles,
            ascii_output=ascii_output,
        )
    except StageError as exc:
        if exc.stage == "input":
            click.echo(f"input error: {exc.cause}", err=True)
            sys.exit(EXIT_INPUT_ERROR)
        click.echo(str(exc), err=True)
        sys.exit(EXIT_STAGE_ERROR)
    click.echo(f"report written to {Path(out_dir) / 'report.txt'}")
    click.echo(f"E_reg={report.e_reg:.6f} E_global={report.e_global:.6f} "
               f"E_part_avg={report.e_part_avg:.6f} circles={len(report.circle_rows)} "
               f"f_n={report.f_n} f_p={report.f_p}")


@main.command()
@click.argument("spec")
@click.option("--out", "out_dir", type=click.Path(), required=True,
              help="Directory for scan.ply, mesh.ply and the truth files.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--ascii", "ascii_output", is_flag=True, help="Write ASCII PLY files.")
def synth(spec, out_dir, seed, ascii_output):
    """Generate a synthetic scene; SPEC is 'kind key=value ...' or a spec file."""
    try:
        scene = generate_synthetic_scene(parse_scene_spec(spec), seed=seed)
    except ValueError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    write_scene(scene, out_dir, ascii_output=ascii_output)
    click.echo(f"scene '{spec}' written to {out_dir} "
               f"({len(scene.cloud)} points, {len(scene.mesh)} triangles)")


@main.command("fit-circles")
@click.argument("edge_ply", type=click.Path())
@click.option("--eps", type=float, default=0.1, show_default=True,
              help="Inlier distance for the circle fits.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default="circles.txt",
              show_default=True, help="Output circle table.")
def fit_circles(edge_ply, eps, seed, out_path):
    """Fit circles to an edge-point cloud (feature stage standalone)."""
    try:
        cloud = meshio.load_point_cloud(edge_ply)
        config = PipelineConfig(inlier_eps=eps, seed=seed)
    except (meshio.MeshIOError, ValueError) as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    if len(cloud) < 3:
        click.echo(f"input error: {edge_ply}: {len(cloud)} edge points; "
                   "circle fitting needs at least 3", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    try:
        labeling = feat.mcfs(cloud.points, config)
    except ValueError as exc:
        click.echo(f"fitting failed: {exc}", err=True)
        sys.exit(EXIT_STAGE_ERROR)
    counts = [int((labeling.labels == i).sum()) for i in range(len(labeling.circles))]
    write_circles_table(out_path, labeling.circles, counts)
    click.echo(f"{len(labeling.circles)} circles written to {out_path}")
    for i, c in enumerate(labeling.circles):
        click.echo(f"  {i}: center ({c.center[0]:.4f}, {c.center[1]:.4f}, {c.center[2]:.4f}) "
                   f"r={c.radius:.4f} inliers={counts[i]}")


if __name__ == "__main__":
    main()
