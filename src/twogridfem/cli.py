"""Batch driver: mesh audits, convergence studies, two-grid comparisons.

Configuration is flat key-value text (``key = value`` under ``[section]``
headers).  Results are written as CSV plus gnuplot-ready ``.dat`` files.
Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""

import argparse
import configparser
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import convergence_report, error_norms
from .assembly import NotAVertex, triangle_rule
from .mesh import MeshError, check_angle_condition, generate_interface_mesh, \
    refine_uniform
from .problems import ProblemError, builtin_problem, \
    manufactured_interface_problem
from .solvers import NewtonOptions, SolverError, newton_solve
from .twogrid import nested_newton_solve, newton_levels, \
    select_coarse_size, two_grid_solve

__all__ = ["StudyConfig", "ConfigError", "load_config", "main"]

CONVERGE_COLUMNS = ["level", "h", "n_dof", "err_energy", "err_l2", "err_l4",
                    "eoc_energy", "eoc_l2", "eoc_l4", "newton_iters",
                    "wall_ms"]
TWOGRID_COLUMNS = ["h", "H", "err_energy_direct", "err_energy_twogrid",
                   "ratio", "coarse_newton_iters", "fine_linear_iters",
                   "wall_ms_direct", "wall_ms_twogrid"]

PROBLEM_NAMES = ("manufactured", "power11", "sinh_pbe", "linear_reaction",
                 "zero_reaction")


class ConfigError(Exception):
    pass


@dataclass
class StudyConfig:
    """Everything a study needs: problem, geometry, levels, tolerances."""

    problem_name: str = "manufactured"
    problem_params: dict = field(default_factory=dict)
    domain: tuple = (-1.0, 1.0, -1.0, 1.0)
    box: tuple = (-0.5, 0.5, -0.5, 0.5)
    coarsest_n: int = 8
    level_count: int = 3
    newton_abs_tol: float = 1e-10
    newton_rel_tol: float = 1e-12
    newton_max_iters: int = 40
    quad_degree: int = 5
    s: float = 2.0
    tau: float = 2.0
    snap: str = "up"
    out_dir: str = "out"

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.level_count < 1:
            raise ConfigError("need at least one level")
        if self.coarsest_n < 2:
            raise ConfigError("coarsest_n must be at least 2")
        try:
            self.newton_options()
        except ValueError as exc:
            # NewtonOptions names the field; its key here has a prefix
            raise ConfigError(f"newton_{exc}") from None
        if self.quad_degree < 1:
            raise ConfigError("quad_degree must be at least 1")
        if self.problem_name not in PROBLEM_NAMES:
            raise ConfigError(
                f"unknown problem {self.problem_name!r}; "
                f"choose from {', '.join(PROBLEM_NAMES)}")
        if self.snap not in ("up", "nearest"):
            raise ConfigError("snap must be 'up' or 'nearest'")

    def newton_options(self):
        return NewtonOptions(abs_tol=self.newton_abs_tol,
                             rel_tol=self.newton_rel_tol,
                             max_iters=self.newton_max_iters)


def _floats(text, count, what):
    parts = text.split()
    if len(parts) != count:
        raise ConfigError(f"{what} needs {count} numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"bad number in {what}: {text!r}") from None


def load_config(path):
    """Parse the key-value study configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    cfg = StudyConfig()
    try:
        if parser.has_section("problem"):
            sec = dict(parser.items("problem"))
            cfg.problem_name = sec.pop("name", cfg.problem_name)
            for key, value in sec.items():
                try:
                    cfg.problem_params[key] = float(value)
                except ValueError:
                    raise ConfigError(
                        f"problem parameter {key} = {value!r} is not a "
                        f"number") from None
        if parser.has_section("geometry"):
            sec = dict(parser.items("geometry"))
            if "domain" in sec:
                cfg.domain = _floats(sec["domain"], 4, "domain")
            if "box" in sec:
                cfg.box = _floats(sec["box"], 4, "box")
        if parser.has_section("levels"):
            sec = dict(parser.items("levels"))
            cfg.coarsest_n = int(sec.get("coarsest_n", cfg.coarsest_n))
            cfg.level_count = int(sec.get("count", cfg.level_count))
        if parser.has_section("solver"):
            sec = dict(parser.items("solver"))
            cfg.newton_abs_tol = float(
                sec.get("newton_abs_tol", cfg.newton_abs_tol))
            cfg.newton_rel_tol = float(
                sec.get("newton_rel_tol", cfg.newton_rel_tol))
            cfg.newton_max_iters = int(
                sec.get("newton_max_iters", cfg.newton_max_iters))
            cfg.quad_degree = int(sec.get("quad_degree", cfg.quad_degree))
        if parser.has_section("twogrid"):
            sec = dict(parser.items("twogrid"))
            cfg.s = float(sec.get("s", cfg.s))
            cfg.tau = float(sec.get("tau", cfg.tau))
            cfg.snap = sec.get("snap", cfg.snap)
        if parser.has_section("output"):
            cfg.out_dir = parser.get("output", "out_dir", fallback=cfg.out_dir)
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    cfg.validate()
    return cfg


def _build_problem(cfg):
    """Problem instance plus the exact solution when one exists."""
    params = dict(cfg.problem_params)
    d_in = params.pop("d_inside", None)
    d_out = params.pop("d_outside", None)
    if cfg.problem_name == "manufactured":
        if params:
            raise ConfigError(
                f"manufactured problem takes only d_inside/d_outside, "
                f"got {sorted(params)}")
        problem, exact = manufactured_interface_problem(
            d_in if d_in is not None else 1000.0,
            d_out if d_out is not None else 1.0)
        return problem, exact
    kwargs = dict(params)
    if d_in is not None:
        kwargs["d_inside"] = d_in
    if d_out is not None:
        kwargs["d_outside"] = d_out
    try:
        problem = builtin_problem(cfg.problem_name, domain=cfg.domain,
                                  interface_box=cfg.box, **kwargs)
    except (ProblemError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return problem, None


def _build_hierarchy(cfg):
    problem, exact = _build_problem(cfg)
    mesh = generate_interface_mesh(cfg.coarsest_n, problem.domain,
                                   problem.interface_box)
    meshes = [mesh]
    for _ in range(cfg.level_count - 1):
        meshes.append(refine_uniform(meshes[-1]))
    if problem.point_source is not None:
        # fail early if the load cannot land on a vertex
        loc = np.asarray(problem.point_source.location, dtype=float)
        dist = np.abs(meshes[0].vertices - loc[None, :]).max(axis=1)
        if dist.min() > 1e-12:
            raise ConfigError(
                f"point source at {tuple(loc)} is not a vertex of the "
                f"coarsest mesh")
    return problem, exact, meshes


def _with_reference_levels(meshes):
    """The study levels plus two uniform refinements past the finest one.

    A warm-started solve on the last of them is the Richardson-style
    reference for problems without a closed-form solution.
    """
    finer = refine_uniform(meshes[-1])
    return meshes + [finer, refine_uniform(finer)]


def _write_rows(path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _write_dat(path, columns, rows):
    with open(path, "w") as fh:
        fh.write("# " + " ".join(columns) + "\n")
        for row in rows:
            fh.write(" ".join(str(v) if v != "" else "nan" for v in row)
                     + "\n")


def _fmt(value):
    return repr(float(value))


def cmd_check_mesh(cfg, args):
    problem, _, meshes = _build_hierarchy(cfg)
    results = []
    for level, mesh in enumerate(meshes):
        report = check_angle_condition(mesh, problem.diffusion)
        results.append({
            "level": level,
            "n_vertices": mesh.n_vertices,
            "h": mesh.h,
            "worst_offdiag": report.worst_offdiag,
            "tolerance": report.tolerance,
            "passes": report.passes,
            "violating_pairs": len(report.violating_pairs),
        })
    if args.json:
        print(json.dumps({"levels": results,
                          "all_pass": all(r["passes"] for r in results)},
                         indent=2))
    else:
        print(f"{'level':>5} {'vertices':>9} {'h':>12} {'worst_offdiag':>15} "
              f"{'pass':>5}")
        for r in results:
            print(f"{r['level']:>5} {r['n_vertices']:>9} {r['h']:>12.6g} "
                  f"{r['worst_offdiag']:>15.6e} "
                  f"{'yes' if r['passes'] else 'NO':>5}")
    return 0 if all(r["passes"] for r in results) else 1


def cmd_converge(cfg, args):
    problem, exact, meshes = _build_hierarchy(cfg)
    quad = triangle_rule(cfg.quad_degree)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # one warm-started chain gives the study levels and, when there is no
    # exact solution, the reference on its last level
    chain = meshes if exact is not None else _with_reference_levels(meshes)
    levels = list(newton_levels(chain, problem, cfg.newton_options(), quad))
    if exact is None:
        exact = levels[-1][0]
    records = [error_norms(mesh, problem.diffusion, u, exact, quad)
               for mesh, (u, _) in zip(meshes, levels)]
    report = convergence_report(records)

    rows = []
    for idx, rec in enumerate(records):
        eoc = ["", "", ""]
        if idx > 0:
            eoc = [_fmt(report.eoc_energy[idx - 1]),
                   _fmt(report.eoc_l2[idx - 1]),
                   _fmt(report.eoc_l4[idx - 1])]
        solve = levels[idx][1]
        wall = 0.0 if args.seed is not None else solve.wall_s * 1e3
        rows.append([idx, _fmt(rec.h), rec.n_dof, _fmt(rec.err_energy),
                     _fmt(rec.err_l2), _fmt(rec.err_l4), *eoc,
                     solve.iterations, f"{wall:.3f}"])
    _write_rows(out / "converge.csv", CONVERGE_COLUMNS, rows)
    _write_dat(out / "converge.dat", CONVERGE_COLUMNS, rows)
    print(f"wrote {out / 'converge.csv'}")
    if report.eoc_energy:
        print(f"final EOC: energy {report.eoc_energy[-1]:.3f} "
              f"l2 {report.eoc_l2[-1]:.3f} l4 {report.eoc_l4[-1]:.3f}")
    return 0


def cmd_twogrid(cfg, args):
    problem, exact, meshes = _build_hierarchy(cfg)
    quad = triangle_rule(cfg.quad_degree)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if exact is None:
        exact, _ = nested_newton_solve(_with_reference_levels(meshes),
                                       problem, cfg.newton_options(), quad)

    # grid spacing along x: the size the coarse-size selection works on
    xmin, xmax = problem.domain[:2]
    sizes = [(xmax - xmin) / (cfg.coarsest_n * 2 ** k)
             for k in range(len(meshes))]
    rows = []
    for idx, mesh in enumerate(meshes):
        if idx == 0:
            continue  # the coarsest level has no coarser partner
        coarse_sizes = sizes[:idx]
        h_sel = select_coarse_size(sizes[idx], cfg.s, cfg.tau, d=2,
                                   snap=cfg.snap, levels=coarse_sizes)
        coarse = meshes[coarse_sizes.index(h_sel)]

        # cold, like the two-grid solve: wall_ms_direct compares like with
        # like, so this does not reuse the warm-started reference chain
        direct, direct_report = newton_solve(
            mesh, problem, None, cfg.newton_options(), quad)
        wall_direct = direct_report.wall_s * 1e3

        start = time.perf_counter()
        result = two_grid_solve(coarse, mesh, problem, quad=quad)
        wall_two = (time.perf_counter() - start) * 1e3

        err_direct = error_norms(mesh, problem.diffusion, direct, exact,
                                 quad).err_energy
        err_two = error_norms(mesh, problem.diffusion, result.fine_solution,
                              exact, quad).err_energy
        if args.seed is not None:
            wall_direct = wall_two = 0.0
        rows.append([
            _fmt(sizes[idx]), _fmt(h_sel), _fmt(err_direct), _fmt(err_two),
            _fmt(err_two / err_direct),
            result.coarse_report.iterations,
            result.fine_report.linear_iters_total,
            f"{wall_direct:.3f}", f"{wall_two:.3f}",
        ])
    _write_rows(out / "twogrid.csv", TWOGRID_COLUMNS, rows)
    _write_dat(out / "twogrid.dat", TWOGRID_COLUMNS, rows)
    print(f"wrote {out / 'twogrid.csv'}")
    return 0


def cmd_solve(cfg, args):
    problem, _, meshes = _build_hierarchy(cfg)
    quad = triangle_rule(cfg.quad_degree)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    solution, reports = nested_newton_solve(meshes, problem,
                                            cfg.newton_options(), quad)
    path = out / "solution.txt"
    with open(path, "w") as fh:
        fh.write(f"# {cfg.problem_name} n={cfg.coarsest_n} "
                 f"levels={cfg.level_count} nodal values\n")
        for value in solution.values:
            fh.write(f"{value!r}\n")
    print(f"wrote {path} ({solution.mesh.n_vertices} values, "
          f"{reports[-1].iterations} newton iterations on the finest level)")
    return 0


def _parser():
    parser = argparse.ArgumentParser(
        prog="twogridfem",
        description="Finite element studies for semilinear interface "
                    "problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("check-mesh", cmd_check_mesh),
                     ("converge", cmd_converge),
                     ("twogrid", cmd_twogrid),
                     ("solve", cmd_solve)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="study config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output where supported")
        p.add_argument("--levels", type=int, default=None,
                       help="override the number of refinement levels")
        p.add_argument("--quad-degree", type=int, default=None,
                       help="override the volume quadrature degree")
        p.add_argument("--snap", choices=("up", "nearest"), default=None,
                       help="coarse-size snapping mode")
        p.add_argument("--seed", type=int, default=None,
                       help="fix run metadata (zeroes timing columns) so "
                            "identical configs give byte-identical output")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.levels is not None:
            cfg.level_count = args.levels
        if args.quad_degree is not None:
            cfg.quad_degree = args.quad_degree
        if args.snap is not None:
            cfg.snap = args.snap
        cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(cfg, args)
    except (ConfigError, MeshError, ProblemError, NotAVertex) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
